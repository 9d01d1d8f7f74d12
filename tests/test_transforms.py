import json

import numpy as np
import pytest

from qreadout import recovery as rc
from qreadout import transforms as tr
from qreadout.errors import DimensionError, ValidationError
from qreadout.partition import BasisPartition


def unit_spec(K, shift=None):
    return tr.WindowSpec(shift=K if shift is None else shift, size=K, unit_window=True)


def hann_spec(K, shift):
    return tr.WindowSpec(shift=shift, size=K, unit_window=False)


def concentrate(k1, cluster_sizes, K):
    """Superpose clusters of the given sizes (target first) and concentrate."""
    assignment = np.repeat(np.arange(1, len(cluster_sizes) + 1), cluster_sizes)
    part = BasisPartition(assignment, num_clusters=len(cluster_sizes))
    state = rc.build_superposition(part, k1)
    return rc.extract_target(state, k1, K)


class TestHannWindow:
    def test_zero_at_origin(self):
        assert tr.hann_window(0, 8) == 0.0

    def test_peak_at_midpoint_odd(self):
        K = 9
        assert tr.hann_window((K - 1) / 2, K) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_point_value(self):
        K = 9
        assert tr.hann_window((K - 1) / 4, K) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        K = 33
        rng = np.random.default_rng(0)
        for x in rng.uniform(0, K - 1, 200):
            assert tr.hann_window(x, K) == pytest.approx(
                tr.hann_window(K - 1 - x, K), abs=1e-12
            )

    def test_rejects_small_window(self):
        with pytest.raises(ValidationError):
            tr.hann_window(0, 1)

    def test_one_sample_window_has_no_taper(self):
        w = tr.WindowSpec(shift=1, size=1, unit_window=False)
        np.testing.assert_array_equal(w.values(np.array([-1, 0, 3])), [1.0, 1.0, 1.0])


class TestCqt:
    def test_unit_window_zero_frequency_is_scaling(self):
        K = 8
        rng = np.random.default_rng(1)
        v = rng.normal(size=K) + 1j * rng.normal(size=K)
        out = tr.cqt(v, unit_spec(K), k=0)
        np.testing.assert_allclose(out, v / np.sqrt(K), atol=1e-15)

    def test_basis_state_phase_by_hand(self):
        # K=4, h=4, k=1 on e_1: coefficient (1/2) * exp(2 pi i /4) = i/2
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        out = tr.cqt(v, unit_spec(4), k=1)
        assert out[1] == pytest.approx(0.5j, abs=1e-15)

    def test_windowed_zero_at_window_origin(self):
        K = 4
        v = np.ones(K, dtype=complex)
        out = tr.cqt(v, hann_spec(K, shift=1), k=0)
        # f_W(j - h) vanishes at j = h
        assert out[1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_shift_rejected(self):
        with pytest.raises(ValidationError):
            tr.cqt(np.ones(4, dtype=complex), unit_spec(4, shift=0), 0)

    def test_stack_modulated_along_last_axis(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 2, 6)) + 1j * rng.normal(size=(3, 2, 6))
        spec = hann_spec(6, shift=2)
        out = tr.cqt(stack, spec, k=1)
        for idx in np.ndindex(3, 2):
            np.testing.assert_array_equal(out[idx], tr.cqt(stack[idx], spec, k=1))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tr.cqt(np.ones((2, 5)), unit_spec(4), 0)
        with pytest.raises(DimensionError):
            tr.icqt(np.ones(5), unit_spec(4), 0)


class TestIcqt:
    def test_phase_is_conjugate_of_cqt(self):
        K = 8
        v = np.ones(K, dtype=complex)
        spec = unit_spec(K)
        fwd = tr.cqt(v, spec, k=3)
        inv = tr.icqt(v, spec, k=3)
        np.testing.assert_allclose(inv, np.conj(fwd), atol=1e-15)

    def test_round_trip_at_zero_frequency(self):
        K = 16
        rng = np.random.default_rng(2)
        v = rng.normal(size=K) + 1j * rng.normal(size=K)
        spec = unit_spec(K)
        back = tr.icqt(tr.cqt(v, spec, 0), spec, 0)
        np.testing.assert_allclose(back, v / K, atol=1e-14)

    def test_hand_value(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        out = tr.icqt(v, unit_spec(4), k=1)
        assert out[1] == pytest.approx(-0.5j, abs=1e-15)


class TestIdstft:
    def test_unit_window_matches_inverse_dft_matrix(self):
        K = 8
        m = tr.idstft_matrix(tr.WindowSpec(shift=0, size=K, unit_window=True))
        j, k = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
        expected = np.exp(-2j * np.pi * j * k / K) / np.sqrt(K)
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_basis_zero_gives_flat_magnitudes(self):
        K = 8
        v = np.zeros(K, dtype=complex)
        v[0] = 1.0
        out = tr.idstft(v, tr.WindowSpec(0, K, unit_window=True))
        np.testing.assert_allclose(np.abs(out), 1 / np.sqrt(K), atol=1e-15)

    def test_hann_window_zeroes_first_row(self):
        K = 8
        rng = np.random.default_rng(3)
        v = rng.normal(size=K) + 0j
        out = tr.idstft(v, tr.WindowSpec(0, K, unit_window=False))
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    def test_out_of_range_shift_rejected(self):
        with pytest.raises(ValidationError):
            tr.idstft(np.ones(4, dtype=complex), tr.WindowSpec(shift=4, size=4, unit_window=True))

    def test_unitarity_unit_window(self):
        for K in (2, 3, 8, 33, 64):
            m = tr.idstft_matrix(tr.WindowSpec(0, K, unit_window=True))
            np.testing.assert_allclose(m.conj().T @ m, np.eye(K), atol=1e-12)


class TestDft:
    def test_size_one_identity(self):
        out = tr.dft(np.array([1.0 + 0j]), 1)
        np.testing.assert_allclose(out, [1.0], atol=1e-15)

    def test_uniform_maps_to_basis_zero(self):
        K = 16
        v = np.full(K, 1 / np.sqrt(K), dtype=complex)
        out = tr.dft(v, K)
        expected = np.zeros(K)
        expected[0] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_parseval_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            K = int(rng.integers(1, 40))
            v = rng.normal(size=K) + 1j * rng.normal(size=K)
            out = tr.dft(v, K)
            assert np.linalg.norm(out) == pytest.approx(
                np.linalg.norm(v), abs=1e-12 * max(1, np.linalg.norm(v))
            )

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            tr.dft(np.ones(4, dtype=complex), 5)

    def test_matrix_rejected(self):
        with pytest.raises(DimensionError, match="1-D"):
            tr.dft(np.ones((2, 2), dtype=complex), 2)


class TestSuperposition:
    def test_coherent_anchor_accumulation(self):
        # K=4, K1=2, residual offsets {1, 2}
        state = tr.superposition(4, k1=1, offsets_per_cluster=[np.zeros(2, int), np.array([1, 2])])
        masses = np.abs(state) ** 2
        np.testing.assert_allclose(masses[[1, 2, 3]], [1.0, 0.25, 0.25], atol=1e-15)
        assert masses[0] == 0.0

    def test_target_offsets_must_be_zero(self):
        with pytest.raises(ValidationError):
            tr.superposition(4, 1, [np.array([0, 1]), np.array([2])])

    def test_collision_rejected(self):
        with pytest.raises(ValidationError):
            tr.superposition(4, 1, [np.zeros(2, int), np.array([1, 1])])


class TestSpectralState:
    def test_json_roundtrip(self):
        """A state is a plain complex array; recovery.json keeps it as [re, im] pairs."""
        v = tr.as_state(np.array([1 + 2j, -0.5 + 0j]), 2)
        result = rc.RecoveryResult(phi_star=v, prob_table=None, fidelity_vs_target=1.0)
        doc = json.loads(json.dumps(result.to_dict()))
        back = np.array([complex(re, im) for re, im in doc["phi_star"]])
        np.testing.assert_allclose(back, v)


class TestIdstftUnit:
    """Unit-window inverse short-time concentration of the superposition."""

    def test_single_cluster_full_mass(self):
        for K, k1 in ((4, 2), (8, 4), (16, 16)):
            _, table = concentrate(k1, [K], K)
            assert table.peak_probability() == pytest.approx(1.0, abs=1e-15)
            assert table.residual_mass == pytest.approx(0.0, abs=1e-15)

    def test_paper_ratio_k8(self):
        # concentration mass K1^2/K^2 = 16/64
        _, table = concentrate(2, [4, 4], 8)
        assert table.peak_probability() == pytest.approx(0.25, abs=1e-15)
        assert table.peak_index == 4

    def test_brute_force_phase_sums(self):
        # K=4, K1=2: literal translation-rule phases reproduce the table
        K, K1, k1 = 4, 2, 2
        state, table = concentrate(k1, [K1, K - K1], K)
        alpha = 1 / np.sqrt(K)
        j_star = K // k1
        coherent = sum(
            alpha * np.exp(-2j * np.pi * j_star * k1 / K) for _ in range(K1)
        )
        assert table.probabilities[j_star % K] == pytest.approx(
            abs(coherent) ** 2 / K, abs=1e-15
        )
        assert table.peak_probability() == pytest.approx(0.25, abs=1e-12)
        others = np.delete(table.probabilities, j_star % K)
        assert np.all(others < 1e-12)
        # the x-dependent phase sums of the residual kets vanish over a full
        # register period, which is what empties the rest of the table
        for x in tr.synthesize_offsets(K, K1):
            total = sum(np.exp(-2j * np.pi * j * x / K) for j in range(K))
            assert abs(total) < 1e-12

    def test_transformed_state_is_literal(self):
        K, K1 = 8, 4
        state, _ = concentrate(2, [K1, K - K1], K)
        spec = tr.WindowSpec(0, K, unit_window=True)
        v = tr.superposition(K, 2, [np.zeros(K1, int), tr.synthesize_offsets(K, K1)])
        expected = tr.idstft(v, spec)
        np.testing.assert_allclose(state, expected, atol=1e-15)

    def test_three_clusters_supported(self):
        # residual offsets split across two non-target clusters
        state, table = concentrate(2, [2, 1, 1], 4)
        assert table.peak_probability() == pytest.approx((2 / 4) ** 2, abs=1e-15)
        assert table.residual_mass == pytest.approx(2 / 16, abs=1e-15)
        assert np.count_nonzero(state) > 0

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError, match="divide"):
            concentrate(3, [4, 4], 8)

    def test_cluster_sizes_must_sum(self):
        with pytest.raises(DimensionError):
            concentrate(2, [4, 2], 8)

    def test_concentration_across_divisors(self):
        for K in (4, 8, 16, 32, 64):
            for K1 in [d for d in range(1, K + 1) if K % d == 0]:
                for k1 in [d for d in range(1, K + 1) if K % d == 0]:
                    _, table = concentrate(k1, [K1, K - K1], K)
                    assert table.peak_probability() == pytest.approx(
                        (K1 / K) ** 2, abs=1e-12
                    )
                    assert table.total() <= 1 + 1e-12
                    assert table.total() + table.residual_mass <= 1 + 1e-12

    def test_composition_with_dft_is_flat(self):
        # collapsing the concentrated register and applying the DFT leaves
        # the uniform state over the recovered bases
        for K1 in (1, 2, 4, 8):
            collapsed = np.zeros(K1, dtype=complex)
            collapsed[0] = 1.0
            out = tr.dft(collapsed, K1)
            np.testing.assert_allclose(
                np.abs(out), 1 / np.sqrt(K1), atol=1e-10
            )

