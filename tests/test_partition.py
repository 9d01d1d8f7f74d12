import json

import numpy as np
import pytest

from qreadout import bnmf, cli, partition as pm, register
from qreadout.artifacts import write_json
from qreadout.errors import DimensionError, StateError, ValidationError


def random_tensors(seed, M=2, K=3, T=4):
    rng = np.random.default_rng(seed)
    return pm.PartitionTensors(
        R=rng.random((M, 1, M)),
        E=rng.random((M, K)),
        H=rng.random((1, K, T)),
    )


def brute_force_contract(t):
    M, K = t.E.shape
    T = t.H.shape[2]
    out = np.zeros((M, T))
    for m in range(M):
        for tt in range(T):
            acc = 0.0
            for i in range(M):
                for k in range(K):
                    acc += t.R[i, 0, m] * t.E[i, k] * t.H[0, k, tt]
            out[m, tt] = acc
    return out


class TestContract:
    def test_identity_translation_collapses(self):
        M, K, T = 2, 3, 4
        R = np.zeros((M, 1, M))
        R[np.arange(M), 0, np.arange(M)] = 1.0
        E = np.arange(M * K, dtype=float).reshape(M, K)
        H = np.ones((1, K, T))
        out = pm.contract(pm.PartitionTensors(R=R, E=E, H=H))
        for m in range(M):
            np.testing.assert_allclose(out[m], E[m].sum())

    def test_all_zero(self):
        t = pm.PartitionTensors(
            R=np.zeros((2, 1, 2)), E=np.zeros((2, 3)), H=np.zeros((1, 3, 4))
        )
        np.testing.assert_allclose(pm.contract(t), 0.0)

    def test_matches_brute_force(self):
        for seed in range(20):
            t = random_tensors(seed)
            np.testing.assert_allclose(
                pm.contract(t), brute_force_contract(t), atol=1e-12
            )

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            pm.PartitionTensors(
                R=np.ones((2, 2, 2)), E=np.ones((2, 3)), H=np.ones((1, 3, 4))
            )
        with pytest.raises(DimensionError):
            pm.PartitionTensors(
                R=np.ones((2, 1, 2)), E=np.ones((2, 3)), H=np.ones((1, 2, 4))
            )


class TestScore:
    def test_zero_slice_gives_zero_score(self):
        t = random_tensors(1)
        H = t.H.copy()
        H[0, 1, :] = 0.0
        t = pm.PartitionTensors(R=t.R, E=t.E, H=H)
        _, total = pm.score(t)
        assert total[1] == 0.0

    def test_single_basis_total_is_full_contraction(self):
        t = random_tensors(2, K=1, T=6)
        _, total = pm.score(t)
        assert total[0] == pytest.approx(pm.contract(t).sum(), rel=1e-12)

    def test_matches_brute_force(self):
        for seed in range(10):
            t = random_tensors(seed, K=3, T=5)
            per_source, total = pm.score(t)
            M, K = t.E.shape
            for m in range(M):
                for k in range(K):
                    acc = 0.0
                    for i in range(M):
                        for tt in range(t.H.shape[2]):
                            acc += t.R[i, 0, m] * t.E[i, k] * t.H[0, k, tt]
                    assert per_source[m, k] == pytest.approx(acc, abs=1e-12)
            np.testing.assert_allclose(total, per_source.sum(axis=0), atol=1e-12)


class TestFitPartition:
    def test_planted_tensors_recovered(self):
        truth = random_tensors(7, K=4, T=12)
        S = pm.contract(truth)
        fit = pm.fit_partition(S, 4, max_iters=2000, tol=1e-14, seed=0)
        assert fit.cost_trace[-1] < 1e-6

    def test_zero_row_drives_translation_to_zero(self):
        truth = random_tensors(8, K=4, T=12)
        S = pm.contract(truth)
        S[1, :] = 0.0
        fit = pm.fit_partition(S, 4, max_iters=500, tol=1e-12, seed=1)
        assert np.linalg.norm(fit.R[:, 0, 1]) < 1e-6

    def test_deterministic(self):
        S = pm.contract(random_tensors(9))
        a = pm.fit_partition(S, 3, max_iters=50, seed=3)
        b = pm.fit_partition(S, 3, max_iters=50, seed=3)
        assert np.array_equal(a.E, b.E)
        assert np.array_equal(a.R, b.R)
        assert np.array_equal(a.H, b.H)

    def test_cost_non_increasing(self):
        for seed in range(8):
            S = pm.contract(random_tensors(seed, K=4, T=10))
            fit = pm.fit_partition(S, 4, max_iters=200, tol=1e-15, seed=seed)
            costs = np.array(fit.cost_trace)
            drops = costs[1:] - costs[:-1]
            assert np.all(drops <= 1e-8 * np.maximum(np.abs(costs[:-1]), 1e-30))

    def test_requires_enough_bases(self):
        with pytest.raises(ValidationError):
            pm.fit_partition(np.ones((2, 4)), 1)

    def test_anchored_init_preserves_basis_axis(self):
        rng = np.random.default_rng(11)
        bases = np.array([[3.0, 0.05], [0.05, 2.0]])
        acts = rng.uniform(1, 2, size=(2, 30))
        S = bases @ acts
        fit = pm.fit_partition(
            S, 2, max_iters=200, tol=1e-12, seed=0,
            init_bases=bases, init_activations=acts,
        )
        per_source, _ = pm.score(fit)
        # basis 0 must stay associated with source row 0
        assert per_source[0, 0] > per_source[1, 0]
        assert per_source[1, 1] > per_source[0, 1]

    def test_exact_anchored_fit_stops_at_once(self):
        # the pipeline's case: with real nonnegative bases the anchored
        # init already reproduces S, so the cost sits at rounding level
        R = np.zeros((2, 1, 2))
        R[[0, 1], 0, [0, 1]] = 1.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            bases = rng.uniform(0.0, 2.0, size=(2, 3))
            acts = rng.exponential(1.0, size=(3, 400))
            fit = pm.fit_partition(
                bases @ acts, 3, max_iters=300, tol=1e-7, seed=seed,
                init_bases=bases, init_activations=acts,
            )
            assert fit.converged
            assert fit.iterations <= 2
            start = pm.PartitionTensors(R=R, E=bases, H=acts[None])
            assert np.array_equal(
                pm.assign(fit).assignment, pm.assign(start).assignment
            )


class TestAssign:
    def build(self, per_source):
        # tensors engineered so score() returns the requested per-source matrix
        per_source = np.asarray(per_source, dtype=float)
        M, K = per_source.shape
        R = np.zeros((M, 1, M))
        R[np.arange(M), 0, np.arange(M)] = 1.0
        H = np.ones((1, K, 1))
        return pm.PartitionTensors(R=R, E=per_source, H=H)

    def test_clear_argmax(self):
        part = pm.assign(self.build([[3.0, 1.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(part.assignment, [1, 2])
        assert part.cluster_sizes == [1, 1]

    def test_ties_go_to_first_cluster(self):
        part = pm.assign(self.build([[2.0, 2.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(part.assignment, [1, 1])

    def test_zero_column_flagged_degenerate(self):
        with pytest.warns(RuntimeWarning, match="all-zero"):
            part = pm.assign(self.build([[1.0, 0.0], [0.5, 0.0]]))
        assert part.assignment[1] == 1
        assert part.degenerate == (1,)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.random((2, 6)) + 0.05
        a = pm.assign(self.build(scores))
        b = pm.assign(self.build(scores * 37.5))
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_three_sources_rejected(self):
        # one cluster per source, and the register has two
        with pytest.raises(DimensionError, match="2 sources"):
            pm.assign(random_tensors(0, M=3, K=4))

    def test_every_basis_assigned_once(self):
        for seed in range(10):
            t = random_tensors(seed, K=5, T=6)
            part = pm.assign(t)
            assert part.assignment.shape == (5,)
            assert sum(part.cluster_sizes) == 5

    def test_planted_end_to_end_separation(self):
        hits = 0
        trials = 50
        for seed in range(trials):
            cfg = register.RegisterConfig(
                horizon=256, dim=64, residual_strength=0.4, seed=seed
            )
            obs = register.observe(register.generate_input(cfg), cfg)
            model = bnmf.fit(
                obs.values, 2, bnmf.FitOptions(max_iters=200, tol=1e-6, seed=seed)
            )
            c_b = pm.transform_bases(model, 0)
            S = np.abs(c_b @ model.activations)
            tensors = pm.fit_partition(
                S, 2, seed=seed, init_bases=np.abs(c_b),
                init_activations=model.activations,
            )
            part = pm.assign(tensors)
            # planted labels: the basis loading row 0 hardest is the target
            truth = 1 + np.argmax(model.bases, axis=0)
            hits += np.array_equal(part.assignment, truth)
        assert hits >= int(0.9 * trials)


class TestTransformBases:
    def fitted(self, seed=0, K=2):
        cfg = register.RegisterConfig(horizon=64, dim=16, residual_strength=0.3, seed=seed)
        obs = register.observe(register.generate_input(cfg), cfg)
        return bnmf.fit(obs.values, K, bnmf.FitOptions(max_iters=60, tol=1e-6, seed=seed))

    def test_zero_bases_give_zero(self):
        from dataclasses import replace

        model = replace(self.fitted(), bases=np.zeros((2, 2)))
        np.testing.assert_allclose(pm.transform_bases(model, 0), 0.0)

    def test_unit_zero_frequency_scaling(self):
        model = self.fitted()
        c_b = pm.transform_bases(model, 0)
        np.testing.assert_allclose(c_b, model.bases / np.sqrt(model.K), atol=1e-14)

    def test_associativity_with_activations(self):
        model = self.fitted(seed=3)
        K = model.K
        k_freq = 1
        c_b = pm.transform_bases(model, k_freq)
        left = c_b @ model.activations
        # independent route: modulate the product's basis axis directly
        j = np.arange(K)
        coeff = np.exp(2j * np.pi * j * k_freq / K) / np.sqrt(K)
        right = (model.bases * coeff[None, :]) @ model.activations
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_unfitted_model_rejected(self):
        m = bnmf.init_model(np.ones((2, 4)), 2, seed=0)
        with pytest.raises(StateError):
            pm.transform_bases(m, 0)


class TestSerialization:
    def test_partition_json(self, tmp_path):
        part = pm.BasisPartition(assignment=np.array([1, 2, 1]))
        path = tmp_path / "p.json"
        write_json(part.to_dict(), path)
        back = pm.BasisPartition.from_dict(__import__("json").load(open(path)))
        np.testing.assert_array_equal(back.assignment, part.assignment)
        assert back.cluster_sizes == [2, 1]


def stage_and_oracle(tmp_path, register_section, factorization=None, k=0, seed=0):
    """The partition stage's partition.json for one config and seed, and
    what the anchored tensor fit assigns from the same model.json."""
    doc = {"register": register_section, "transform": {"k": k}}
    if factorization:
        doc["factorization"] = factorization
    for stage in ("simulate", "fit", "partition"):
        cli.run(cli.RunConfig(stage=stage, seed=seed, output_dir=tmp_path, document=doc))
    got = json.loads((tmp_path / "partition.json").read_text())
    model = bnmf.FitResult.from_dict(
        json.loads((tmp_path / "model.json").read_text()), register_section["horizon"]
    )
    c_b = pm.transform_bases(model, k)
    tensors = pm.fit_partition(
        np.abs(c_b @ model.activations), model.K, max_iters=300, tol=1e-7,
        init_bases=np.abs(c_b), init_activations=model.activations,
    )
    return got, pm.assign(tensors).to_dict(), model


README = {"horizon": 600, "dim": 512, "residual_strength": 0.3}
TINY = {"horizon": 64, "dim": 16}

# (register, factorization, transform k, seed)
STAGE_CASES = [
    *((README, None, 0, seed) for seed in range(20)),
    *((TINY, None, 3, seed) for seed in range(5)),
    *((README, {"k_min": 3}, 0, seed) for seed in range(3)),
    *((TINY, {"k_min": 3}, 0, seed) for seed in range(3)),
]
STAGE_IDS = [
    f"{'readme' if reg is README else 'tiny'}{'-kmin3' if fact else ''}-k{k}-{seed}"
    for reg, fact, k, seed in STAGE_CASES
]


class TestPartitionStage:
    """The stage assigns each basis to its largest source row; the tensor
    fit started at the transformed bases, which it stands for, is its
    oracle."""

    @pytest.mark.parametrize("reg,fact,k,seed", STAGE_CASES, ids=STAGE_IDS)
    def test_stage_is_the_anchored_fit(self, tmp_path, reg, fact, k, seed):
        got, want, model = stage_and_oracle(tmp_path, reg, fact, k, seed)
        assert model.K >= (3 if fact else 2)
        assert got == want
        assert not got["degenerate"]

