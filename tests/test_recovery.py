import numpy as np
import pytest
from scipy import linalg

from qreadout import bnmf, partition as pm, recovery as rc, register
from qreadout.artifacts import write_json
from qreadout.errors import DimensionError, ValidationError
from qreadout.transforms import SpectralState, WindowSpec


def fitted_model(seed=0, K=2):
    cfg = register.RegisterConfig(horizon=128, dim=32, residual_strength=0.3, seed=seed)
    obs = register.observe(register.generate_input(cfg), cfg)
    return bnmf.fit(obs.values, K, bnmf.FitOptions(max_iters=120, tol=1e-7, seed=seed))


class TestRegroup:
    def test_single_cluster_groups(self):
        model = fitted_model()
        part = pm.BasisPartition(assignment=np.array([1, 1]))
        w = WindowSpec(shift=model.K, size=model.K, unit_window=True)
        c_b = pm.transform_bases(model, w, 0)
        clustered = rc.regroup(c_b, part, w, 0)
        assert clustered.sizes == [2, 0]
        np.testing.assert_allclose(clustered.groups[0], clustered.composite)

    def test_zero_frequency_round_trip(self):
        model = fitted_model(seed=1)
        K = model.K
        part = pm.BasisPartition(assignment=np.array([1, 2]))
        w = WindowSpec(shift=K, size=K, unit_window=True)
        c_b = pm.transform_bases(model, w, 0)
        clustered = rc.regroup(c_b, part, w, 0)
        np.testing.assert_allclose(
            clustered.composite, model.bases / K, atol=1e-14
        )

    def test_planted_separation_subspace_angle(self):
        # the target group must span the planted target basis direction
        model = fitted_model(seed=3)
        target_idx = int(np.argmax(model.bases[0]))
        part = pm.BasisPartition(
            assignment=np.array([1 if k == target_idx else 2 for k in range(model.K)])
        )
        w = WindowSpec(shift=model.K, size=model.K, unit_window=True)
        c_b = pm.transform_bases(model, w, 0)
        clustered = rc.regroup(c_b, part, w, 0)
        got = np.abs(clustered.groups[0])
        want = model.bases[:, [target_idx]]
        angle = linalg.subspace_angles(got, want)[0]
        assert np.degrees(angle) < 10.0

    def test_partition_size_mismatch(self):
        model = fitted_model()
        part = pm.BasisPartition(assignment=np.array([1, 2, 1]))
        w = WindowSpec(shift=model.K, size=model.K, unit_window=True)
        c_b = pm.transform_bases(model, w, 0)
        with pytest.raises(DimensionError):
            rc.regroup(c_b, part, w, 0)


class TestBuildSuperposition:
    def test_single_cluster_anchor_amplitude(self):
        part = pm.BasisPartition(assignment=np.array([1, 1, 1, 1]))
        state = rc.build_superposition(part, k1=2)
        K = 4
        assert state.amplitudes[2] == pytest.approx(K / np.sqrt(K), abs=1e-15)
        assert np.count_nonzero(state.amplitudes) == 1

    def test_duplicate_mass_pattern(self):
        # K=4, K1=2, offsets (0,0,1,2): squared masses (1/4)*(4,1,1)
        part = pm.BasisPartition(assignment=np.array([1, 1, 2, 2]))
        state = rc.build_superposition(part, k1=1, offsets=[1, 2])
        masses = np.abs(state.amplitudes) ** 2
        np.testing.assert_allclose(masses[[1, 2, 3]], [1.0, 0.25, 0.25], atol=1e-15)

    def test_empty_residual_cluster_matches_single_cluster(self):
        full = rc.build_superposition(
            pm.BasisPartition(assignment=np.array([1, 1, 1])), k1=1
        )
        only = rc.build_superposition(
            pm.BasisPartition(assignment=np.array([1, 1, 1])), k1=1, offsets=[]
        )
        np.testing.assert_allclose(full.amplitudes, only.amplitudes)

    def test_offset_collision_rejected(self):
        part = pm.BasisPartition(assignment=np.array([1, 2, 2]))
        with pytest.raises(ValidationError, match="collision"):
            rc.build_superposition(part, k1=0, offsets=[1, 1])


class TestExtractTarget:
    def test_paper_ratio(self):
        part = pm.BasisPartition(assignment=np.array([1] * 4 + [2] * 4))
        state = rc.build_superposition(part, k1=2)
        _, table = rc.extract_target(state, 2, 8)
        assert table.peak_probability() == pytest.approx(0.25, abs=1e-15)
        assert table.peak_index == 4

    def test_full_cluster_probability_one(self):
        part = pm.BasisPartition(assignment=np.array([1] * 8))
        state = rc.build_superposition(part, k1=2)
        _, table = rc.extract_target(state, 2, 8)
        assert table.peak_probability() == pytest.approx(1.0, abs=1e-15)

    def test_off_peak_mass_vanishes(self):
        part = pm.BasisPartition(assignment=np.array([1] * 4 + [2] * 12))
        state = rc.build_superposition(part, k1=4)
        _, table = rc.extract_target(state, 4, 16)
        off_peak = np.delete(table.probabilities, table.peak_index)
        assert np.all(off_peak < 1e-12)
        assert table.peak_probability() == pytest.approx((4 / 16) ** 2, abs=1e-15)

    def test_divisibility_rejected(self):
        part = pm.BasisPartition(assignment=np.array([1] * 3 + [2] * 5))
        state = rc.build_superposition(part, k1=3)
        with pytest.raises(ValidationError, match="divide"):
            rc.extract_target(state, 3, 8)

    def test_table_sums_below_one(self):
        for K1 in (1, 2, 4, 8):
            part = pm.BasisPartition(assignment=np.array([1] * K1 + [2] * (8 - K1)))
            state = rc.build_superposition(part, k1=4)
            _, table = rc.extract_target(state, 4, 8)
            assert table.total() <= 1 + 1e-12
            assert table.peak_index == 2


class TestChooseCarrier:
    def test_divides_register(self):
        for K in range(1, 40):
            for K1 in range(1, K + 1):
                k1 = rc.choose_carrier(K, K1)
                assert K % k1 == 0

    def test_peak_lands_on_cluster_size_when_divisible(self):
        for K, K1 in ((8, 4), (16, 2), (12, 3)):
            k1 = rc.choose_carrier(K, K1)
            assert K // k1 == K1


class TestFinalize:
    def test_ideal_pipeline_unit_fidelity(self):
        part = pm.BasisPartition(assignment=np.array([1, 1, 2, 2]))
        state = rc.build_superposition(part, k1=2)
        out, table = rc.extract_target(state, 2, 4)
        result = rc.finalize(
            out, 2, prob_table=table, recovered_bases=[0, 1], target_bases=[0, 1]
        )
        assert result.fidelity_vs_target == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(
            np.abs(result.phi_star.amplitudes), 1 / np.sqrt(2), atol=1e-10
        )

    def test_single_basis_trivial(self):
        result = rc.finalize(
            SpectralState(np.ones(1, dtype=complex), "idstft"), 1
        )
        assert result.fidelity_vs_target == 1.0
        np.testing.assert_allclose(result.phi_star.amplitudes, [1.0])

    def test_fidelity_decreases_with_misassignments(self):
        # enumerate single- and double-error recoveries of a 4-basis target
        target = [0, 1, 2, 3]
        state = SpectralState(np.ones(8, dtype=complex), "idstft")
        clean = rc.finalize(state, 4, recovered_bases=target, target_bases=target)
        singles, doubles = [], []
        for wrong in range(4, 8):
            for drop in target:
                rec = sorted(set(target) - {drop} | {wrong})
                singles.append(
                    rc.finalize(state, 4, recovered_bases=rec, target_bases=target)
                    .fidelity_vs_target
                )
        for w1 in range(4, 8):
            for w2 in range(4, 8):
                if w1 >= w2:
                    continue
                rec = [0, 1, w1, w2]
                doubles.append(
                    rc.finalize(state, 4, recovered_bases=rec, target_bases=target)
                    .fidelity_vs_target
                )
        assert clean.fidelity_vs_target == 1.0
        assert max(singles) < 1.0
        assert max(doubles) < min(singles)

    def test_serialization(self, tmp_path):
        result = rc.finalize(SpectralState(np.ones(2, dtype=complex), "idstft"), 2)
        path = tmp_path / "rec.json"
        write_json(result.to_dict(), path)
        doc = __import__("json").load(open(path))
        assert doc["fidelity_vs_target"] == 1.0
        assert len(doc["phi_star"]) == 2


class TestEndToEndIdentity:
    def test_exact_planted_structure_recovers_target(self):
        # correct partition on clean planted data: peak mass matches the
        # cluster exactly and fidelity hits 1 within 1e-10
        part = pm.BasisPartition(assignment=np.array([1, 1, 1, 1, 2, 2, 2, 2]))
        k1 = rc.choose_carrier(8, 4)
        state = rc.build_superposition(part, k1)
        out, table = rc.extract_target(state, k1, 8)
        result = rc.finalize(
            out, 4, prob_table=table,
            recovered_bases=[0, 1, 2, 3], target_bases=[0, 1, 2, 3],
        )
        assert result.fidelity_vs_target >= 1 - 1e-10
        assert table.peak_probability() == pytest.approx(0.25, abs=1e-12)
