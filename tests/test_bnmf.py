import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import optimize, special

from qreadout import bnmf, register
from qreadout.artifacts import decode_columns, write_json
from qreadout.errors import DimensionError, NumericalDomainError, ValidationError


def random_matrix(seed, M=2, T=32, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.random((M, T)) * scale


def zeroed(X, index):
    """A copy of X with ``X[index]`` set to zero."""
    X = X.copy()
    X[index] = 0.0
    return X


def some_columns(seed, T):
    """Index of about half of T columns."""
    return np.s_[:, np.random.default_rng(seed).random(T) < 0.5]


def readme_observation():
    """The README config's observation: 9 of its 600 columns hold data."""
    cfg = register.RegisterConfig(horizon=600, dim=512, residual_strength=0.3, seed=7)
    return register.observe(register.generate_input(cfg), cfg).values


def planted_two_blocks(seed, T=128):
    """A 2 x T input with two planted bases, each active alone on one half
    of the time steps: the shape of the order-select benchmark's inputs."""
    rng = np.random.default_rng(seed)
    angles = np.array([0.15, np.pi / 2 - 0.15])
    W = np.zeros((2, T))
    W[0, : T // 2] = rng.uniform(10, 30, T // 2)
    W[1, T // 2 :] = rng.uniform(10, 30, T - T // 2)
    return np.vstack([np.cos(angles), np.sin(angles)]) @ W


def overflowing_column(zero_columns=()):
    """A small 2 x 8 input whose column 5 sums past the largest float, so
    that column's starting activation scale, and its logits, are infinite."""
    X = random_matrix(50, T=8)
    X[:, 5] = 1.5e308
    X[:, list(zero_columns)] = 0.0
    return X


def error_index(excinfo) -> tuple:
    """The index an error message ends with (numpy prints np.int64(i) for
    a numpy integer, so only the digits are read)."""
    text = str(excinfo.value).rpartition(" at index ")[2].replace("np.int64", "")
    return tuple(int(i) for i in re.findall(r"\d+", text))


def generalized_kl(X, R):
    R = np.maximum(R, 1e-300)
    return float(np.sum(special.xlogy(X, X / R) - X + R))


class TestInitModel:
    def test_uniform_eta(self):
        m = bnmf.init_model(random_matrix(0), K=3, seed=0)
        np.testing.assert_allclose(m.eta, 1.0 / 3.0)

    def test_deterministic(self):
        X = random_matrix(1)
        a = bnmf.init_model(X, 2, seed=5)
        b = bnmf.init_model(X, 2, seed=5)
        assert np.array_equal(a.a_scale, b.a_scale)
        assert np.array_equal(a.b_scale, b.b_scale)

    def test_zero_data_everything_finite(self):
        X = np.zeros((2, 16))
        m = bnmf.init_model(X, 2, seed=0)
        for arr in (m.bases, m.activations, m.log_bases, m.log_activations):
            assert np.all(np.isfinite(arr))

    def test_control_starts_at_one(self):
        m = bnmf.init_model(random_matrix(2), 2, seed=0)
        assert np.all(m.ctrl_alpha == 1.0)
        assert np.all(m.ctrl_beta == 1.0)

    @pytest.mark.parametrize("T", [1, 128, 20000])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_start_draws_rng_uniform(self, K, T):
        # the start as rng.uniform draws it on the data columns, bit for
        # bit: every fit, and the reference fit of test_bit_identical,
        # starts from _start.  init_model widens it, an all-zero column
        # starting at shape 1 and scale sqrt(EPS / K) with no draw
        X = zeroed(random_matrix(T + K, M=2, T=T, scale=5.0), some_columns(T, T))
        data = X.any(axis=0)
        x = np.ascontiguousarray(X[:, data])
        for seed in (0, 1, 42, 2**40 + 7):
            rng = np.random.default_rng(seed)
            row_scale = np.sqrt((x.sum(axis=1) / T + bnmf.EPS) / K)
            col_scale = np.sqrt((x.mean(axis=0) + bnmf.EPS) / K)
            a_shape = 1.0 + rng.uniform(0.0, 0.05, size=(2, K))
            a_scale = row_scale[:, None] * rng.uniform(0.9, 1.1, size=(2, K)) / a_shape
            b_shape = 1.0 + rng.uniform(0.0, 0.05, size=(K, x.shape[1]))
            b_scale = rng.uniform(0.9, 1.1, size=(K, x.shape[1])) * col_scale / b_shape
            want = a_shape, a_scale, b_shape, b_scale
            for name, got, ref in zip(("a_shape", "a_scale", "b_shape", "b_scale"),
                                      bnmf._start(x, T, K, seed), want):
                assert got.tobytes() == ref.tobytes(), (name, seed)
            m = bnmf.init_model(X, K, seed)
            assert m.a_scale.tobytes() == a_scale.tobytes()
            assert m.b_shape[:, data].tobytes() == b_shape.tobytes()
            assert m.b_scale[:, data].tobytes() == b_scale.tobytes()
            assert (m.b_shape[:, ~data] == 1.0).all()
            assert (m.b_scale[:, ~data] == np.sqrt(bnmf.EPS / K)).all()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            bnmf.init_model(random_matrix(0), 0, seed=0)
        with pytest.raises(ValidationError):
            bnmf.init_model(-random_matrix(0), 1, seed=0)


class TestUpdateEta:
    def test_symmetric_inputs_give_uniform(self):
        X = random_matrix(3)
        m = bnmf.init_model(X, 4, seed=0)
        flat = replace(
            m,
            log_bases=np.zeros_like(m.log_bases),
            log_activations=np.zeros_like(m.log_activations),
        )
        out = bnmf.update_eta(flat, X)
        np.testing.assert_allclose(out.eta, 0.25, atol=1e-15)

    def test_single_basis_is_one(self):
        X = random_matrix(4)
        m = bnmf.update_eta(bnmf.init_model(X, 1, seed=0), X)
        np.testing.assert_allclose(m.eta, 1.0)

    def test_two_basis_softmax_by_hand(self):
        # logits (0, log 3) -> softmax (1, 3) / 4
        X = np.ones((1, 1))
        m = bnmf.init_model(X, 2, seed=0)
        m = replace(
            m,
            log_bases=np.array([[0.0, np.log(3.0)]]),
            log_activations=np.zeros((2, 1)),
        )
        out = bnmf.update_eta(m, X)
        np.testing.assert_allclose(out.eta[0, :, 0], [0.25, 0.75], atol=1e-15)

    def test_shift_invariance(self):
        X = random_matrix(5)
        m = bnmf.update_variational(bnmf.update_eta(bnmf.init_model(X, 3, seed=1), X), X)
        base = bnmf.update_eta(m, X).eta
        shifted = replace(m, log_bases=m.log_bases + 17.3)
        np.testing.assert_allclose(bnmf.update_eta(shifted, X).eta, base, atol=1e-12)

    def test_simplex_invariant(self):
        for seed in range(10):
            X = random_matrix(seed, T=17, scale=5.0)
            m = bnmf.update_eta(bnmf.init_model(X, 3, seed=seed), X)
            np.testing.assert_allclose(m.eta.sum(axis=1), 1.0, atol=1e-10)


class TestUpdateVariational:
    def test_zero_data_unit_shapes(self):
        X = np.zeros((2, 8))
        m = bnmf.update_variational(bnmf.init_model(X, 2, seed=0), X)
        np.testing.assert_allclose(m.a_shape, 1.0)
        np.testing.assert_allclose(m.b_shape, 1.0)

    def test_scale_denominator_by_hand(self):
        # sum_t E(w) = 2, prior rate 1 -> a_scale = 1/3
        X = np.ones((1, 4))
        m = bnmf.init_model(X, 1, seed=0)
        m = replace(m, activations=np.full((1, 4), 0.5))
        out = bnmf.update_variational(m, X)
        np.testing.assert_allclose(out.a_scale, 1.0 / 3.0, atol=1e-15)

    def test_log_mean_digamma_against_mpmath(self):
        # shape 1, scale b: E(log u) = psi(1) + log b = -gamma + log b
        X = np.zeros((1, 2))
        m = bnmf.update_variational(bnmf.init_model(X, 1, seed=3), X)
        b = m.a_scale[0, 0]
        expected = float(mpmath.digamma(1)) + np.log(b)
        assert m.log_bases[0, 0] == pytest.approx(expected, abs=1e-12)
        assert m.log_bases[0, 0] == pytest.approx(
            -float(mpmath.euler) + np.log(b), abs=1e-12
        )

    def test_gamma_mean_identities(self):
        X = random_matrix(6, T=12, scale=4.0)
        m = bnmf.init_model(X, 2, seed=6)
        for _ in range(3):
            m = bnmf.update_eta(m, X)
            m = bnmf.update_variational(m, X)
        np.testing.assert_allclose(m.bases, m.a_shape * m.a_scale, rtol=1e-12)
        np.testing.assert_allclose(m.activations, m.b_shape * m.b_scale, rtol=1e-12)
        digamma = np.vectorize(lambda v: float(mpmath.digamma(v)))
        np.testing.assert_allclose(
            m.log_bases, digamma(m.a_shape) + np.log(m.a_scale), atol=1e-12
        )
        np.testing.assert_allclose(
            m.log_activations, digamma(m.b_shape) + np.log(m.b_scale), atol=1e-12
        )


class TestUpdateControl:
    def test_closed_form_matches_root_finder(self):
        # verify the closed form against an independent solve of the quadratic
        s_w, e_u = 2.0, 1.0
        expected = optimize.brentq(
            lambda a: a**2 + s_w * a - s_w / e_u, 1e-12, 100.0
        )
        X = np.ones((1, 2))
        m = bnmf.init_model(X, 1, seed=0)
        m = replace(m, activations=np.full((1, 2), 1.0), bases=np.full((1, 1), e_u))
        out = bnmf.update_control(m)
        assert out.ctrl_alpha[0, 0] == pytest.approx(expected, abs=1e-12)
        assert out.ctrl_alpha[0, 0] == pytest.approx(0.7320508075688772, abs=1e-9)

    def test_activation_control_symmetric(self):
        # s_u = 2, E(w) = 1 -> same positive root
        X = np.ones((2, 1))
        m = bnmf.init_model(X, 1, seed=0)
        m = replace(m, bases=np.full((2, 1), 1.0), activations=np.full((1, 1), 1.0))
        out = bnmf.update_control(m)
        assert out.ctrl_beta[0, 0] == pytest.approx(0.7320508075688772, abs=1e-9)

    def test_large_mean_limit(self):
        X = np.ones((1, 2))
        m = bnmf.init_model(X, 1, seed=0)
        m = replace(m, activations=np.full((1, 2), 1.0), bases=np.full((1, 1), 1e12))
        out = bnmf.update_control(m)
        assert out.ctrl_alpha[0, 0] < 1e-5

    def test_estimates_within_ulps_of_mpmath_when_s_dwarfs_4_over_mean(self):
        # s E >> 4, where (-s + sqrt(s^2 + 4 s/E)) / 2 loses most of its bits
        # to cancellation; the estimates must stay within a few ulps of the root
        scales = np.array([10.0, 1e3, 1e6])  # s E from 400 to 8e12
        X = np.ones((2, 4))
        m = bnmf.init_model(X, 3, seed=0)
        m = replace(m, bases=np.tile(scales, (2, 1)), activations=np.tile(scales[:, None], 4))
        out = bnmf.update_control(m)

        def root(s, mean):
            with mpmath.workdps(60):
                s, mean = mpmath.mpf(float(s)), mpmath.mpf(float(mean))
                return float((-s + mpmath.sqrt(s**2 + 4 * s / mean)) / 2)

        s_w = m.activations.sum(axis=1)
        s_u = m.bases.sum(axis=0)
        for i, k in np.ndindex(m.bases.shape):
            for got, expected in [
                (out.ctrl_alpha[i, k], root(s_w[k], m.bases[i, k])),
                (out.ctrl_beta[k, i], root(s_u[k], m.activations[k, i])),
            ]:
                assert abs(got - expected) <= 4 * np.spacing(expected)

    def test_quadratic_residuals_on_random_states(self):
        for seed in range(20):
            X = random_matrix(seed, T=9, scale=3.0)
            m = bnmf.init_model(X, 2, seed=seed)
            m = bnmf.update_variational(bnmf.update_eta(m, X), X)
            out = bnmf.update_control(m)
            s_w = m.activations.sum(axis=1)[None, :]
            res = out.ctrl_alpha**2 + s_w * out.ctrl_alpha - s_w / m.bases
            assert np.max(np.abs(res)) < 1e-9
            s_u = m.bases.sum(axis=0)[:, None]
            res = out.ctrl_beta**2 + s_u * out.ctrl_beta - s_u / m.activations
            assert np.max(np.abs(res)) < 1e-9


class TestLowerBound:
    def test_identical_models_equal_bounds(self):
        X = random_matrix(7)
        m = bnmf.update_variational(bnmf.update_eta(bnmf.init_model(X, 2, seed=7), X), X)
        assert bnmf.lower_bound(m, X) == bnmf.lower_bound(m, X)

    def test_full_cycle_never_decreases(self):
        for seed in range(10):
            X = random_matrix(seed, T=24, scale=3.0)
            m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=80, tol=1e-13, seed=seed))
            trace = np.array(m.elbo_trace)
            drops = trace[:-1] - trace[1:]
            assert np.all(drops <= 1e-8 * np.abs(trace[:-1]))

    def test_degenerate_bound_hand_assembled(self):
        # K=1, X=0: assemble the surviving terms directly from the state
        X = np.zeros((2, 3))
        m = bnmf.update_variational(bnmf.update_eta(bnmf.init_model(X, 1, seed=2), X), X)
        expected = (
            -float(np.sum(m.bases @ m.activations))
            - float(special.gammaln(X + 1.0).sum())
            + float(np.sum(np.log(m.prior_rate_u) - m.prior_rate_u * m.bases))
            + float(np.sum(np.log(m.prior_rate_w) - m.prior_rate_w * m.activations))
            + float(np.sum(np.log(m.a_scale) + m.a_shape))
            + float(np.sum(np.log(m.b_scale) + m.b_shape))
        )
        assert bnmf.lower_bound(m, X) == pytest.approx(expected, rel=1e-12)


class TestFit:
    def test_rank_one_reconstruction_kl(self):
        # mass-matched generalized KL against the planted truth
        rng = np.random.default_rng(11)
        X = np.outer(rng.uniform(50, 150, 2), rng.uniform(50, 150, 64))
        m = bnmf.fit(X, 1, bnmf.FitOptions(max_iters=1500, tol=1e-13, seed=0))
        R = m.reconstruction()
        R = R * (X.sum() / R.sum())
        assert generalized_kl(X, R) < 1e-3

    def test_zero_data_stops_immediately(self):
        X = np.zeros((2, 16))
        m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=100, tol=1e-6, seed=0))
        assert m.converged
        assert m.iterations <= 2

    def test_planted_disjoint_sources_recovered(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = np.zeros((2, 80))
            W[0, :40] = rng.uniform(10, 30, 40)
            W[1, 40:] = rng.uniform(10, 30, 40)
            U = np.array([[2.0, 0.2], [0.2, 2.0]])
            X = U @ W
            m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=400, tol=1e-9, seed=seed))
            best = -1.0
            for perm in ([0, 1], [1, 0]):
                c = min(
                    np.corrcoef(m.activations[perm[i]], W[i])[0, 1] for i in range(2)
                )
                best = max(best, c)
            hits += best > 0.9
        assert hits == 10

    @pytest.mark.parametrize("empty", [False, True], ids=["data-columns", "empty-columns"])
    def test_gamma_scale_shapes(self, empty):
        # the start draws a scale per item; an update shares each basis's
        # scale over m and each activation row's over t
        X = random_matrix(9, M=3, T=16)
        if empty:
            X = zeroed(X, np.s_[:, [2, 5, 11]])
        m = bnmf.init_model(X, 2, seed=9)
        assert (m.a_scale.shape, m.b_scale.shape) == ((3, 2), (2, 16))
        m = bnmf.update_variational(bnmf.update_eta(m, X), X)
        assert (m.a_scale.shape, m.b_scale.shape) == ((1, 2), (2, 1))
        m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=50, seed=9))
        assert (m.a_scale.shape, m.b_scale.shape) == ((1, 2), (2, 1))
        assert (m.a_shape.shape, m.b_shape.shape) == ((3, 2), (2, 16))

    @pytest.mark.parametrize("max_iters", [2.5, 3.0, True, "3", None, 0])
    def test_non_integer_max_iters_rejected(self, max_iters):
        with pytest.raises(ValidationError, match="max_iters"):
            bnmf.FitOptions(max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        m = bnmf.fit(random_matrix(9), 1, bnmf.FitOptions(max_iters=np.int64(2)))
        assert m.iterations <= 2

    @pytest.mark.parametrize("tol", [True, "x", None, 0, -1])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            bnmf.FitOptions(tol=tol)

    @pytest.mark.parametrize("seed", [True, "x", None, 1.5, -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            bnmf.FitOptions(seed=seed)

    def test_numpy_float_tol_accepted(self):
        assert bnmf.FitOptions(tol=np.float64(1e-6)).tol == 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError, match="K"):
            bnmf.fit(random_matrix(0), 0)
        with pytest.raises(ValidationError):
            bnmf.fit(-random_matrix(0), 1)
        with pytest.raises(ValidationError):
            bnmf.fit(np.ones(4), 1)

    def test_nonconvergence_flagged_not_raised(self):
        X = random_matrix(9, T=48, scale=10.0)
        m = bnmf.fit(X, 3, bnmf.FitOptions(max_iters=2, tol=1e-15, seed=1))
        assert not m.converged
        assert m.iterations == 2


class TestNumericalChecks:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_fit_names_the_first_non_finite_logit(self):
        with pytest.raises(NumericalDomainError, match="non-finite log expectation") as err:
            bnmf.fit(overflowing_column(), 2, bnmf.FitOptions(max_iters=5, seed=0))
        assert error_index(err) == (0, 0, 5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_fit_names_the_full_width_column_past_empty_ones(self):
        # column 5 is the fourth column that holds data
        X = overflowing_column(zero_columns=(0, 2))
        with pytest.raises(NumericalDomainError, match="non-finite log expectation") as err:
            bnmf.fit(X, 2, bnmf.FitOptions(max_iters=5, seed=0))
        assert error_index(err) == (0, 0, 5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_error_index_is_plain_ints(self):
        X = overflowing_column(zero_columns=(0, 2))
        with pytest.raises(NumericalDomainError) as err:
            bnmf.fit(X, 2, bnmf.FitOptions(max_iters=5, seed=0))
        assert str(err.value) == "non-finite log expectation at index (0, 0, 5)"

    def test_start_overflow_warns_from_bnmf(self):
        # raised in this package, the overflow falls under the tier-1
        # filter that turns the package's RuntimeWarnings into errors
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            bnmf._start(overflowing_column(), 8, 2, 0)
        assert {Path(w.filename).name for w in record} == {"bnmf.py"}

    def test_lower_bound_names_a_negative_allocation(self):
        X = random_matrix(51, T=8)
        m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=5, seed=0))
        eta = m.eta.copy()
        eta[1, 0, 3] -= 1.5
        eta[1, 1, 3] += 1.5
        with pytest.raises(NumericalDomainError, match="allocation entropy") as err:
            bnmf.lower_bound(replace(m, eta=eta), X)
        assert error_index(err) == (1, 0, 3)

    def test_update_variational_floors_a_zero_basis_denominator(self):
        X = random_matrix(52, T=8)
        m = bnmf.init_model(X, 2, seed=0)
        m = replace(m, prior_rate_u=1e-13, activations=np.zeros_like(m.activations))
        with pytest.warns(RuntimeWarning, match="zero basis-scale denominator floored"):
            out = bnmf.update_variational(m, X)
        np.testing.assert_array_equal(out.a_scale, 1.0 / bnmf.EPS)


def reference_fit(X, K, opts):
    """The sweep loop rebuilt from the public step functions, with the
    control estimates refreshed every sweep."""
    model = bnmf.init_model(X, K, opts.seed)
    zero_mass = float(np.asarray(X).sum()) == 0.0
    trace, converged, previous = [], False, None
    for _ in range(opts.max_iters):
        model = bnmf.update_eta(model, X)
        model = bnmf.update_variational(model, X)
        elbo = bnmf.lower_bound(model, X)
        trace.append(elbo)
        model = bnmf.update_control(model)
        if zero_mass:
            converged = True
            break
        if previous is not None:
            if abs(elbo - previous) <= opts.tol * max(abs(previous), bnmf.EPS):
                converged = True
                break
        previous = elbo
    return replace(
        model, converged=converged, iterations=len(trace), elbo_trace=tuple(trace)
    )


class TestFitMatchesStepFunctions:
    CASES = [
        (random_matrix(seed, M=M, T=T, scale=scale), K, opts)
        for seed, (M, T, scale) in enumerate([(2, 32, 2.0), (3, 17, 20.0), (1, 9, 0.5)])
        for K in (1, 2, 3)
        for opts in (
            bnmf.FitOptions(max_iters=300, tol=1e-8, seed=seed),
            bnmf.FitOptions(max_iters=2, tol=1e-15, seed=seed + 10),
        )
    ] + [(np.zeros((2, 16)), K, bnmf.FitOptions(max_iters=50, seed=K)) for K in (1, 2, 3)] + [
        (X, K, opts)
        for seed, X in enumerate([
            zeroed(random_matrix(20, M=2, T=32, scale=2.0), some_columns(20, 32)),
            zeroed(random_matrix(21, M=3, T=40, scale=20.0), some_columns(21, 40)),
            # one zero entry, no all-zero column
            zeroed(random_matrix(22, M=3, T=17, scale=20.0), (1, 5)),
            readme_observation(),
        ], start=20)
        for K in (1, 2, 3)
        for opts in (
            bnmf.FitOptions(max_iters=300, tol=1e-8, seed=seed),
            bnmf.FitOptions(max_iters=2, tol=1e-15, seed=seed + 10),
        )
    ] + [
        # at K >= 8 numpy's sum over K depends on the memory layout
        (X, 9, bnmf.FitOptions(max_iters=300, tol=1e-8, seed=30))
        for X in (
            zeroed(random_matrix(30, M=2, T=32, scale=2.0), some_columns(30, 32)),
            zeroed(random_matrix(32, M=2, T=24), np.s_[:, np.arange(24) != 7]),
            random_matrix(31, M=2, T=32, scale=2.0),
        )
    ] + [
        # the order-select benchmark's shape and options
        (planted_two_blocks(seed), K, bnmf.FitOptions(max_iters=200, tol=1e-7, seed=seed))
        for seed in (40, 41)
        for K in (1, 2, 3, 4)
    ]

    @pytest.mark.parametrize("X,K,opts", CASES)
    def test_bit_identical(self, X, K, opts):
        """Every array exact where X has no all-zero column.  Where it has
        one, the fit folds those columns into one constant per basis, which
        moves the last bits of the sums over time: the same sweeps, and
        every value within 1e-12 relative.  The bound is the collapsed
        form, equal to ``lower_bound`` within 1e-12 relative in every case."""
        got, want = bnmf.fit(X, K, opts), reference_fit(X, K, opts)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        close = {"rtol": 1e-12, "atol": 0}
        np.testing.assert_allclose(got.elbo_trace, want.elbo_trace, **close)
        if not X.any(axis=0).all():
            for name in bnmf.FactorModel._ARRAY_FIELDS:
                np.testing.assert_allclose(
                    getattr(got, name), getattr(want, name), err_msg=name, **close
                )
            return
        for name in bnmf.FactorModel._ARRAY_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("K", [1, 2, 4])
    def test_empty_columns_give_a_valid_model(self, K):
        X = zeroed(random_matrix(40, M=2, T=200, scale=5.0), some_columns(40, 200))
        m = bnmf.fit(X, K, bnmf.FitOptions(max_iters=200, tol=1e-12, seed=K))
        m.check_invariants()
        assert m.eta.shape == (2, K, 200)
        assert m.activations.shape == m.log_activations.shape == m.b_shape.shape == (K, 200)
        trace = np.array(m.elbo_trace)
        assert trace.size > 2
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
        # the widened state scores what its last sweep scored
        assert bnmf.lower_bound(m, X) == pytest.approx(trace[-1], rel=1e-12)

    @pytest.mark.parametrize("max_iters", [1, 300])
    def test_empty_columns_hold_the_activation_scale(self, max_iters):
        # an all-zero column's activation shape is exactly 1, so its mean is
        # exactly the activation scale
        X = zeroed(random_matrix(41, M=2, T=120, scale=5.0), some_columns(41, 120))
        empty = ~X.any(axis=0)
        m = bnmf.fit(X, 3, bnmf.FitOptions(max_iters=max_iters, seed=41))
        assert empty.any()
        assert m.iterations == 1 if max_iters == 1 else m.iterations > 1
        assert (m.b_shape[:, empty] == 1.0).all()
        assert (m.activations[:, empty] == m.b_scale).all()

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("layout", range(20))
    def test_empty_columns_count_not_their_place(self, layout, K):
        # the same 12 data columns in the same order, among 48 all-zero
        # columns placed by the layout's seed or all at the end: the same
        # fit and order selection on the data columns, bit for bit
        data = random_matrix(80, T=12, scale=5.0)
        first = np.zeros((2, 60))
        first[:, :12] = data
        placed = np.zeros((2, 60))
        cols = np.sort(np.random.default_rng(layout).choice(60, 12, replace=False))
        placed[:, cols] = data
        opts = bnmf.FitOptions(max_iters=300, tol=1e-9, seed=layout)
        want, got = bnmf.fit(first, K, opts), bnmf.fit(placed, K, opts)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array(got.elbo_trace).tobytes() == np.array(want.elbo_trace).tobytes()
        assert got.bases.tobytes() == want.bases.tobytes()
        assert got.activations[:, cols].tobytes() == want.activations[:, :12].tobytes()
        (k_want, want), (k_got, got) = (bnmf.select_order(X, 1, K, opts) for X in (first, placed))
        assert k_got == k_want
        assert got.bases.tobytes() == want.bases.tobytes()
        assert got.activations[:, cols].tobytes() == want.activations[:, :12].tobytes()

    def test_returned_state_is_last_sweep(self):
        for seed in range(5):
            X = random_matrix(seed, T=24, scale=5.0)
            m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=40, tol=1e-9, seed=seed))
            assert bnmf.lower_bound(m, X) == pytest.approx(m.elbo_trace[-1], rel=1e-12)


def mp_lower_bound(m, X) -> mpmath.mpf:
    """``lower_bound``'s terms at the state m to 50 digits, each Gamma
    mean and log mean taken from its shape and scale."""
    f = mpmath.mpf
    M, K, T = m.eta.shape
    rate_u, rate_w = f(m.prior_rate_u), f(m.prior_rate_w)

    def gamma_terms(shape, scale, rate):
        # the prior and entropy terms of one item, and its log mean
        shape, scale = f(shape), f(scale)
        entropy = -(shape - 1) * mpmath.digamma(shape) + mpmath.log(scale) + shape
        prior = mpmath.log(rate) - rate * shape * scale
        log_mean = mpmath.digamma(shape) + mpmath.log(scale)
        return prior + entropy + mpmath.loggamma(shape), shape * scale, log_mean

    with mpmath.workdps(50):
        total = f(0)
        u = [[None] * K for _ in range(M)]
        w = [[None] * T for _ in range(K)]
        for i, k in np.ndindex(M, K):
            terms, *u[i][k] = gamma_terms(m.a_shape[i, k], m.a_scale[0, k], rate_u)
            total += terms
        for k, t in np.ndindex(K, T):
            terms, *w[k][t] = gamma_terms(m.b_shape[k, t], m.b_scale[k, 0], rate_w)
            total += terms
        for i, t in np.ndindex(M, T):
            x = f(X[i, t])
            total -= mpmath.loggamma(x + 1)
            for k in range(K):
                (u_mean, u_log), (w_mean, w_log) = u[i][k], w[k][t]
                eta = f(m.eta[i, k, t])
                if x:
                    total += x * eta * (u_log + w_log - mpmath.log(eta))
                total -= u_mean * w_mean
        return total


class TestCollapsedBound:
    """``fit`` scores each sweep by the bound in collapsed form: after the
    Gamma step the log means' cross terms cancel the entropies' digammas,
    and the reconstruction cancels the activation prior's means."""

    # 2 x 12 inputs, with and without all-zero columns, up to scale 20
    SMALL = [
        random_matrix(70, T=12, scale=0.5),
        random_matrix(71, T=12, scale=20.0),
        zeroed(random_matrix(72, T=12, scale=2.0), np.s_[:, [1, 4, 5, 9]]),
        zeroed(random_matrix(73, T=12, scale=20.0), np.s_[:, [0, 11]]),
    ]

    @pytest.mark.parametrize("max_iters", [1, 300], ids=["one-sweep", "converged"])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("X", SMALL, ids=["scale-0.5", "scale-20", "empty-2", "empty-20"])
    def test_bound_matches_50_digits(self, X, K, max_iters):
        # measured: at most 1.9e-15 relative here, lower_bound 1.3e-15
        m = bnmf.fit(X, K, bnmf.FitOptions(max_iters=max_iters, tol=1e-9, seed=K))
        assert m.iterations == 1 if max_iters == 1 else m.converged
        want = mp_lower_bound(m, X)
        assert float(abs((m.elbo_trace[-1] - want) / want)) < 1e-13

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_bound_matches_50_digits_at_large_scale(self, K):
        # at input scale 1e6 the bound's terms cancel to a few parts in 1e12
        # in either form (measured: 2.5e-12 here, lower_bound 1.6e-12)
        X = zeroed(random_matrix(74, T=12, scale=1e6), np.s_[:, [3, 7]])
        m = bnmf.fit(X, K, bnmf.FitOptions(max_iters=300, tol=1e-9, seed=K))
        want = mp_lower_bound(m, X)
        assert float(abs((m.elbo_trace[-1] - want) / want)) < 1e-10

    @pytest.mark.parametrize("rate_u,rate_w", [(0.5, 2.0), (2.0, 0.5)])
    @pytest.mark.parametrize("X", SMALL[1:3], ids=["data-columns", "empty-columns"])
    def test_non_unit_rates_match_lower_bound(self, X, rate_u, rate_w, monkeypatch):
        # fit reads the rates off the class, and the model it returns
        # carries them, so lower_bound scores it as the sweeps did
        monkeypatch.setattr(bnmf.FactorModel, "prior_rate_u", rate_u)
        monkeypatch.setattr(bnmf.FactorModel, "prior_rate_w", rate_w)
        for max_iters in (1, 300):
            m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=max_iters, tol=1e-9, seed=3))
            assert (m.prior_rate_u, m.prior_rate_w) == (rate_u, rate_w)
            assert m.elbo_trace[-1] == pytest.approx(bnmf.lower_bound(m, X), rel=1e-12)

    def test_bounds_are_plain_floats(self):
        # a numpy scalar in the trace would reach elbo_trace.csv as its repr
        X = readme_observation()
        m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=50, seed=4))
        assert m.elbo_trace and all(type(e) is float for e in m.elbo_trace)
        opts = bnmf.FitOptions(max_iters=50)
        _, result, scores = bnmf.select_order(X, 1, 3, opts, with_trace=True)
        assert all(type(e) is float for e in result.elbo_trace)
        assert [type(e) for _, e, _ in scores] == [float] * 3


class TestSelectOrder:
    def test_singleton_range(self):
        X = random_matrix(10, T=24, scale=10.0)
        k_star, model = bnmf.select_order(X, 3, 3, bnmf.FitOptions(seed=0))
        assert k_star == 3
        assert model.K == 3

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError):
            bnmf.select_order(random_matrix(0), 3, 2, bnmf.FitOptions(seed=0))

    def test_rank_one_prefers_single_basis(self):
        hits = 0
        trials = 50
        opts = bnmf.FitOptions(max_iters=200, tol=1e-7, seed=0)
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            X = np.outer(rng.uniform(5, 15, 2), rng.uniform(5, 15, 64))
            k_star, _ = bnmf.select_order(X, 1, 4, opts)
            hits += k_star == 1
        assert hits >= int(0.8 * trials)

    def test_two_planted_bases_prefer_two(self):
        hits = 0
        trials = 50
        opts = bnmf.FitOptions(max_iters=200, tol=1e-7, seed=0)
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            W = np.zeros((2, 64))
            W[0, :32] = rng.uniform(5, 15, 32)
            W[1, 32:] = rng.uniform(5, 15, 32)
            U = np.array([[2.0, 0.1], [0.1, 2.0]])
            k_star, _ = bnmf.select_order(U @ W, 1, 5, opts)
            hits += k_star == 2
        assert hits >= int(0.8 * trials)


    @pytest.mark.parametrize(
        "X,opts",
        [
            (planted_two_blocks(60), bnmf.FitOptions(max_iters=200, tol=1e-7, seed=60)),
            (zeroed(random_matrix(61, T=64, scale=5.0), some_columns(61, 64)),
             bnmf.FitOptions(max_iters=300, tol=1e-8, seed=61)),
            (zeroed(random_matrix(62, T=64, scale=5.0), some_columns(62, 64)),
             bnmf.FitOptions(max_iters=1, seed=62)),
            (np.zeros((2, 16)), bnmf.FitOptions(max_iters=50, seed=63)),
        ],
        ids=["data-columns", "empty-columns", "one-sweep-empty-columns", "all-zero"],
    )
    def test_returned_model_is_the_fit_at_the_kept_order(self, X, opts):
        # the kept order's FitResult, built with no full-width model, is the
        # finished fit's at that order and seed
        k_star, result, scores = bnmf.select_order(X, 1, 4, opts, with_trace=True)
        assert isinstance(result, bnmf.FitResult)
        entropy = np.random.SeedSequence(entropy=(opts.seed, k_star))
        child = replace(opts, seed=int(entropy.generate_state(1)[0]))
        want = bnmf.fit(X, k_star, child).result()
        assert result.K == want.K == k_star
        assert (result.iterations, result.converged) == (want.iterations, want.converged)
        assert np.array(result.elbo_trace).tobytes() == np.array(want.elbo_trace).tobytes()
        assert scores[k_star - 1] == (k_star, want.elbo_trace[-1], want.converged)
        for name in ("bases", "activations"):
            got, expected = getattr(result, name), getattr(want, name)
            assert got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("max_iters", [1, 300])
    def test_unfinished_fit_holds_no_full_width_array(self, max_iters):
        T = 200
        X = zeroed(random_matrix(64, T=T, scale=5.0), some_columns(64, T))
        swept = bnmf.fit(X, 3, bnmf.FitOptions(max_iters=max_iters, seed=64), finish=False)
        assert swept.iterations == 1 if max_iters == 1 else swept.iterations > 1
        widths = [
            value.shape[-1] for value in vars(swept).values()
            if isinstance(value, np.ndarray) and value.ndim > 1
        ]
        assert widths and max(widths) == X.any(axis=0).sum() < T

    def test_peak_memory_is_about_the_kept_model(self):
        """At 20000 steps with 54 data columns (K* 2), select_order's
        peak is 1.20 times the returned result's array bytes (0.383
        against 0.32 MB), mostly the widened result itself: no order's
        full-width model is built, and each start is drawn on the data
        columns only.  The bound is 1.25 times."""
        cfg = register.RegisterConfig(horizon=20000, dim=3000, seed=1013)
        X = register.observe(register.generate_input(cfg), cfg).values
        assert X.shape == (2, 20000) and X.any(axis=0).sum() == 54
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            _, result = bnmf.select_order(X, 1, 4, bnmf.FitOptions(300, 1e-6, 1013))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        kept = result.bases.nbytes + result.activations.nbytes
        assert result.K == 2
        assert peak < 1.25 * kept, (peak, kept)


class TestSerialization:
    def test_model_json_roundtrip(self, tmp_path):
        X = random_matrix(12, T=8)
        m = bnmf.fit(X, 2, bnmf.FitOptions(max_iters=20, tol=1e-8, seed=3))
        # to_dict hands its matrices over as arrays, which write_json takes
        write_json(m.result().to_dict(), tmp_path / "model.json")
        with open(tmp_path / "model.json") as fh:
            doc = json.load(fh)
        # both matrices in the column layout, whose decoding is the fit's
        for key, shape in (("bases", [2, 2]), ("activations", [2, 8])):
            assert sorted(doc[key]) == ["cols", "data", "fill", "shape"], key
            assert doc[key]["shape"] == shape
            decoded = decode_columns(doc[key], key)
            assert decoded.tobytes() == getattr(m, key).tobytes(), key
        assert "eta" not in doc
        back = bnmf.FitResult.from_dict(doc)
        assert np.array_equal(back.bases, m.bases)
        assert np.array_equal(back.activations, m.activations)
        assert back.K == m.K
        assert back.converged == m.converged
        assert back.iterations == m.iterations
        assert back.elbo_trace == m.elbo_trace

    def test_mismatched_shapes_rejected(self):
        doc = bnmf.fit(random_matrix(12, T=8), 2).result().to_dict()
        doc["K"] = 3
        with pytest.raises(DimensionError):
            bnmf.FitResult.from_dict(doc)

    @pytest.mark.parametrize("key", ["bases", "activations"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_damaged_values_rejected(self, key, value):
        doc = bnmf.fit(random_matrix(12, T=8), 2).result().to_dict()
        doc[key]["data"][-1] = value
        with pytest.raises(ValidationError, match=key):
            bnmf.FitResult.from_dict(doc)

    @pytest.mark.parametrize(
        "key,value",
        [("K", 2.5), ("K", 2.0), ("K", True), ("K", "2"),
         ("iterations", 2.5), ("converged", "no"), ("converged", 1)],
    )
    def test_mistyped_scalars_rejected(self, key, value):
        doc = bnmf.fit(random_matrix(12, T=8), 2).result().to_dict()
        doc[key] = value
        with pytest.raises(ValidationError, match=key):
            bnmf.FitResult.from_dict(doc)

    @pytest.mark.parametrize(
        "trace",
        [lambda t: "not a trace", lambda t: t[:-1], lambda t: t + t[-1:],
         lambda t: [*t[:-1], float("nan")], lambda t: [*t[:-1], float("-inf")],
         lambda t: [*t[:-1], int(t[-1])], lambda t: [*t[:-1], True],
         lambda t: [*t[:-1], str(t[-1])], lambda t: dict(enumerate(t))],
        ids=["text", "short", "long", "nan", "-inf", "int", "bool", "str", "dict"],
    )
    def test_damaged_trace_rejected(self, trace):
        # one finite float a sweep, as the fit wrote it
        doc = bnmf.fit(random_matrix(12, T=8), 2).result().to_dict()
        assert len(doc["elbo_trace"]) == doc["iterations"] > 1
        doc["elbo_trace"] = trace(doc["elbo_trace"])
        with pytest.raises(ValidationError, match="elbo_trace"):
            bnmf.FitResult.from_dict(doc)
