import numpy as np
import pytest

from qreadout import bnmf, partition as pm, register
from qreadout.artifacts import write_json
from qreadout.errors import DimensionError, StateError, ValidationError

from _reference_partition import reference_partition


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


def repeated_inputs(seed, K=3, T=240):
    """S and a start H that repeat one column a row everywhere but on 40
    scattered columns (the first and last column repeat), and anchored
    bases that do not reproduce S; the mask of the repeated columns last."""
    rng = np.random.default_rng(seed)
    repeated = np.ones(T, dtype=bool)
    repeated[rng.choice(np.arange(1, T - 1), 40, replace=False)] = False
    S = rng.uniform(0.2, 3.0, size=(2, T))
    acts = rng.uniform(0.1, 2.0, size=(K, T))
    S[:, repeated] = rng.uniform(0.2, 3.0, size=(2, 1))
    acts[:, repeated] = rng.uniform(0.1, 2.0, size=(K, 1))
    bases = rng.uniform(0.1, 2.0, size=(2, K))
    return S, bases, acts, repeated


def readme_partition_inputs(seed):
    """The partition stage's inputs at the README config's 600x512."""
    cfg = register.RegisterConfig(horizon=600, dim=512, residual_strength=0.3, seed=seed)
    obs = register.observe(register.generate_input(cfg), cfg)
    _, result = bnmf.select_order(obs.values, 2, 2, bnmf.FitOptions(300, 1e-6, seed))
    c_b = pm.transform_bases(result, 0)
    return np.abs(c_b @ result.activations), np.abs(c_b), result.activations


class TestFoldedPartition:
    """``fit_partition`` folds the columns that repeat one value a row
    into one weighted column; ``reference_partition`` is the full-width
    loop it replaced."""

    def check_close(self, got, want, S):
        # the cost falls towards 0 as the fit nears S, where its terms
        # cancel, so it is also compared in units of the mass, the scale of
        # the stop rule
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        for name in ("R", "E", "H"):
            assert getattr(got, name).shape == getattr(want, name).shape, name
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-12, atol=0, err_msg=name)
        np.testing.assert_allclose(got.cost_trace, want.cost_trace,
                                   rtol=1e-12, atol=1e-12 * S.sum())
        assert np.array_equal(pm.assign(got).assignment, pm.assign(want).assignment)

    def check_identical(self, got, want):
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.cost_trace == want.cost_trace
        for name in ("R", "E", "H"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("anchored", ["both", "activations-only"])
    @pytest.mark.parametrize(
        "max_iters,tol", [(20, 1e-15), (300, 1e-4)], ids=["20-sweeps", "stop-rule"]
    )
    def test_repeated_columns_match_the_full_width_loop(self, seed, anchored, max_iters, tol):
        # at most 20 sweeps: the factors' rounding differences grow from
        # sweep to sweep, to 1e-12 relative by about 60.  Under the stop
        # rule the sweep count depends on the mass, all columns' weight
        S, bases, acts, repeated = repeated_inputs(seed)
        kwargs = dict(max_iters=max_iters, tol=tol, seed=seed, init_activations=acts,
                      init_bases=bases if anchored == "both" else None)
        got = pm.fit_partition(S, 3, **kwargs)
        want = reference_partition(S, 3, **kwargs)
        assert 1 < got.iterations <= 20
        self.check_close(got, want, S)
        # the folded columns widen back to one column, bit-equal
        folded = got.H[0][:, repeated]
        assert (folded == folded[:, :1]).all()

    def test_all_constant_s_folds_to_one_column(self):
        T = 50
        S = np.full((2, T), 1.5)
        acts = np.full((2, T), 0.75)
        kwargs = dict(max_iters=40, tol=1e-12, seed=4, init_activations=acts,
                      init_bases=np.array([[0.3, 1.2], [0.9, 0.4]]))
        got = pm.fit_partition(S, 2, **kwargs)
        want = reference_partition(S, 2, **kwargs)
        self.check_close(got, want, S)
        assert (got.H[0] == got.H[0][:, :1]).all()

    def test_columns_repeated_in_s_alone_are_not_folded(self):
        # a column folds only where the start H repeats too
        S = np.full((2, 50), 1.5)
        acts = np.random.default_rng(9).uniform(0.1, 2.0, size=(2, 50))
        kwargs = dict(max_iters=40, tol=1e-12, seed=4, init_activations=acts,
                      init_bases=np.array([[0.3, 1.2], [0.9, 0.4]]))
        self.check_identical(pm.fit_partition(S, 2, **kwargs),
                             reference_partition(S, 2, **kwargs))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_pipeline_inputs_match_the_full_width_loop(self, seed):
        # the anchored start reproduces S, so the cost sits at rounding level
        S, init_bases, init_activations = readme_partition_inputs(seed)
        kwargs = dict(max_iters=300, tol=1e-7, init_bases=init_bases,
                      init_activations=init_activations)
        got = pm.fit_partition(S, 2, **kwargs)
        want = reference_partition(S, 2, **kwargs)
        assert pm._repeated_columns(S, np.maximum(init_activations, pm.EPS)).sum() > 1
        self.check_close(got, want, S)

    def test_random_start_is_the_full_width_loop(self):
        # nothing is folded without an anchored H, even where S repeats
        S, _, _, _ = repeated_inputs(7)
        got = pm.fit_partition(S, 3, max_iters=50, tol=1e-12, seed=7)
        self.check_identical(got, reference_partition(S, 3, max_iters=50, tol=1e-12, seed=7))

    @pytest.mark.parametrize("count", [0, 1])
    def test_distinct_columns_are_the_full_width_loop(self, count):
        rng = np.random.default_rng(8 + count)
        S = rng.uniform(0.2, 3.0, size=(2, 60))
        acts = rng.uniform(0.1, 2.0, size=(3, 60))
        # every value in a row is distinct, so each row's most frequent is
        # its least; with count 1, column 0 holds every row's least
        if count:
            S[:, 0], acts[:, 0] = 0.1, 0.05
        else:
            S[0, 0], acts[1, 1] = 0.1, 0.05
        assert pm._repeated_columns(S, acts).sum() == count
        kwargs = dict(max_iters=50, tol=1e-12, seed=8, init_activations=acts,
                      init_bases=rng.uniform(0.1, 2.0, size=(2, 3)))
        self.check_identical(pm.fit_partition(S, 3, **kwargs),
                             reference_partition(S, 3, **kwargs))
