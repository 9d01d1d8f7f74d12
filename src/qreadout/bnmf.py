"""Variational Bayesian Poisson-Exponential nonnegative matrix factorization.

Decomposes a nonnegative M x T observation into an M x K basis matrix and a
K x T activation matrix.  Every basis entry u_mk carries an exponential
prior with rate ``alpha_mk`` and every activation entry w_kt one with rate
``beta_kt``; the posterior over each entry is a Gamma whose shape/scale are
updated in closed form, the per-observation allocation over bases is a
multinomial with parameter eta, and closed-form estimates of the prior
rates come from the positive root of a quadratic once the fit ends.  Model
order is chosen by maximizing the variational lower bound over K.

All updates are deterministic given the seed; a fit never mutates its
input model, it returns a fresh one.

``fit`` runs its sweeps on the observation columns that hold data.  An
all-zero column receives no counts, so from the second sweep on its
activation posterior is the same on every such column (shape 1, mean the
activation scale), and its share of each sum over time is one constant
per basis times the number of such columns.  That moves the last bits
of a fit with all-zero columns against the full-width step functions
below; a fit with none is bit-identical to them.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import DimensionError, NumericalDomainError, ValidationError

EPS = 1e-12  # floor for denominators and log arguments


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls of a fit: the factorization's, and the partition's."""

    max_iters: int = 500
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        m = self.max_iters
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValidationError(f"max_iters must be an integer >= 1, got {m!r}")
        t = self.tol
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not t > 0:
            raise ValidationError(f"tol must be a real number > 0, got {t!r}")
        s = self.seed
        if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {s!r}")


@dataclass(frozen=True)
class FactorModel:
    """State of the variational factorization.

    ``bases`` and ``activations`` are the Gamma posterior means of the
    basis and activation entries (the point estimates used for the
    reconstruction ``bases @ activations``); ``log_bases`` and
    ``log_activations`` are the corresponding posterior means of the logs.
    ``eta`` holds the per-(m, t) multinomial allocation over the K bases.
    ``ctrl_alpha`` / ``ctrl_beta`` are the closed-form estimates of the
    exponential prior rates at this state; the rates themselves stay fixed at
    ``prior_rate_u`` / ``prior_rate_w`` so every sweep is an exact
    coordinate-ascent move on the bound.
    """

    bases: np.ndarray          # E(u), M x K
    activations: np.ndarray    # E(w), K x T
    log_bases: np.ndarray      # E(log u), M x K
    log_activations: np.ndarray  # E(log w), K x T
    eta: np.ndarray            # M x K x T, sums to 1 over axis 1
    a_shape: np.ndarray        # M x K
    a_scale: np.ndarray        # M x K
    b_shape: np.ndarray        # K x T
    b_scale: np.ndarray        # K x T
    ctrl_alpha: np.ndarray     # M x K
    ctrl_beta: np.ndarray      # K x T
    K: int
    prior_rate_u: float = 1.0
    prior_rate_w: float = 1.0
    converged: bool = False
    iterations: int = 0
    elbo_trace: tuple = field(default_factory=tuple)

    @property
    def shape(self) -> tuple[int, int]:
        return self.bases.shape[0], self.activations.shape[1]

    def reconstruction(self) -> np.ndarray:
        """Point reconstruction of the observation from the Gamma means."""
        return self.bases @ self.activations

    def fixed_point_estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Self-consistent exponential-density point estimates.

        Solves u = a * exp(-a * u) for a = ctrl_alpha (and likewise for the
        activations), which reduces to u = W(a^2)/a with W the principal
        Lambert branch.
        """
        a = np.maximum(self.ctrl_alpha, EPS)
        b = np.maximum(self.ctrl_beta, EPS)
        u = special.lambertw(a**2).real / a
        w = special.lambertw(b**2).real / b
        return u, w

    def check_invariants(self) -> None:
        sums = self.eta.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-10):
            raise NumericalDomainError("eta allocation violates the simplex invariant")
        for name, arr in (
            ("a_shape", self.a_shape),
            ("a_scale", self.a_scale),
            ("b_shape", self.b_shape),
            ("b_scale", self.b_scale),
            ("ctrl_alpha", self.ctrl_alpha),
            ("ctrl_beta", self.ctrl_beta),
        ):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise NumericalDomainError(f"{name} must be strictly positive and finite")
        if np.any(self.a_shape < 1.0 - 1e-12):
            raise NumericalDomainError("a_shape fell below its lower bound of 1")

    _ARRAY_FIELDS = (
        "bases", "activations", "log_bases", "log_activations", "eta",
        "a_shape", "a_scale", "b_shape", "b_scale", "ctrl_alpha", "ctrl_beta",
    )

    def result(self) -> "FitResult":
        """The part of this state that the later pipeline stages read."""
        return FitResult(
            bases=self.bases,
            activations=self.activations,
            K=self.K,
            converged=self.converged,
            iterations=self.iterations,
            elbo_trace=self.elbo_trace,
        )


@dataclass(frozen=True)
class FitResult:
    """What a fit hands to the partition, recovery and verify stages.

    The Gamma posterior means ``bases`` (M x K) and ``activations``
    (K x T) with the fit's order and convergence record; persisted as
    ``model.json``.  The rest of the variational state stays in
    ``FactorModel``, since no later stage reads it.
    """

    bases: np.ndarray
    activations: np.ndarray
    K: int
    converged: bool
    iterations: int
    elbo_trace: tuple

    def __post_init__(self):
        if (self.bases.ndim, self.activations.ndim) != (2, 2) or not (
            self.bases.shape[1] == self.activations.shape[0] == self.K
        ):
            raise DimensionError(
                f"need M x K bases and K x T activations with K={self.K}, got "
                f"{self.bases.shape} and {self.activations.shape}"
            )
        for name in ("bases", "activations"):
            arr = getattr(self, name)
            # a validation failure, not a numerical one: a fit's Gamma means
            # are always finite and positive, so only a damaged input gets here
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValidationError(f"{name} must be finite and nonnegative")

    def to_dict(self) -> dict:
        # matrices go out row-major with their shapes explicit, as flat
        # arrays for artifacts.write_json; json.dumps needs their .tolist()
        doc = {
            "K": self.K,
            "converged": self.converged,
            "iterations": self.iterations,
            "elbo_trace": list(self.elbo_trace),
        }
        for name in ("bases", "activations"):
            arr = getattr(self, name)
            doc[name] = {
                "shape": list(arr.shape),
                "data": arr.ravel(),
            }
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        def arr(key):
            entry = d[key]
            return np.asarray(entry["data"], dtype=float).reshape(entry["shape"])

        for key, kind in (("K", int), ("iterations", int), ("converged", bool)):
            # exact types: JSON's true is not an integer here, nor 2.0
            if type(d[key]) is not kind:
                raise ValidationError(f"{key} must be {kind.__name__}, got {d[key]!r}")
        return cls(
            bases=arr("bases"),
            activations=arr("activations"),
            K=d["K"],
            converged=d["converged"],
            iterations=d["iterations"],
            elbo_trace=tuple(d["elbo_trace"]),
        )


def _as_observation(X) -> np.ndarray:
    X = np.asarray(getattr(X, "values", X), dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"observation must be a 2-D matrix, got ndim={X.ndim}")
    if np.any(X < 0) or not np.all(np.isfinite(X)):
        raise ValidationError("observation entries must be finite and nonnegative")
    return X


def init_model(X, K: int, seed: int = 0) -> FactorModel:
    """Initialize variational state from perturbed data row/column means.

    Prior rates start at one (unit-mean exponential priors), allocations
    start uniform at 1/K, and the Gamma shapes/scales are seeded so the
    initial reconstruction matches the data's magnitude.
    """
    X = _as_observation(X)
    a_shape, a_scale, b_shape, b_scale = _start(X, K, seed)
    M, T = X.shape
    model = FactorModel(
        bases=a_shape * a_scale,
        activations=b_shape * b_scale,
        log_bases=special.psi(a_shape) + np.log(a_scale),
        log_activations=special.psi(b_shape) + np.log(b_scale),
        eta=np.full((M, K, T), 1.0 / K),
        a_shape=a_shape,
        a_scale=a_scale,
        b_shape=b_shape,
        b_scale=b_scale,
        ctrl_alpha=np.ones((M, K)),
        ctrl_beta=np.ones((K, T)),
        K=K,
    )
    model.check_invariants()
    return model


def _start(X: np.ndarray, K: int, seed: int) -> tuple[np.ndarray, ...]:
    """The starting basis and activation Gamma shapes and scales."""
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    rng = np.random.default_rng(seed)
    M, T = X.shape

    row_scale = np.sqrt((X.mean(axis=1) + EPS) / K)   # (M,)
    col_scale = np.sqrt((X.mean(axis=0) + EPS) / K)   # (T,)

    a_shape = 1.0 + rng.uniform(0.0, 0.05, size=(M, K))
    a_scale = row_scale[:, None] * rng.uniform(0.9, 1.1, size=(M, K)) / a_shape
    # the K x T draws are finished in place: the same operations in the
    # same order, with no fresh K x T temporaries
    b_shape = rng.uniform(0.0, 0.05, size=(K, T))
    b_shape += 1.0
    b_scale = rng.uniform(0.9, 1.1, size=(K, T))
    b_scale *= col_scale
    b_scale /= b_shape
    return a_shape, a_scale, b_shape, b_scale


def update_eta(model: FactorModel, X) -> FactorModel:
    """Refresh the multinomial allocation from the current log means.

    eta_mkt is the softmax over k of E(log u_mk) + E(log w_kt), evaluated
    in log space with max subtraction so a common shift leaves it unchanged.
    """
    return replace(model, eta=_eta(model.log_bases, model.log_activations))


def _eta(log_bases: np.ndarray, log_activations: np.ndarray, cols=None) -> np.ndarray:
    """The allocation; ``cols`` names the observation columns that the
    last axis holds, for the error message (all of them when None)."""
    logits = log_bases[:, :, None] + log_activations[None, :, :]
    if not np.isfinite(logits).all():
        idx = _first_non_finite(logits, cols)
        raise NumericalDomainError(f"non-finite log expectation at index {idx}")
    logits -= logits.max(axis=1, keepdims=True)
    eta = np.exp(logits, out=logits)
    eta /= eta.sum(axis=1, keepdims=True)
    return eta


def _first_non_finite(arr: np.ndarray, cols) -> tuple:
    idx = tuple(np.argwhere(~np.isfinite(arr))[0])
    return idx if cols is None else idx[:-1] + (cols[idx[-1]],)


class _Gamma(NamedTuple):
    """Gamma posterior of one factor, with psi(shape) kept for the bound."""

    shape: np.ndarray
    scale: np.ndarray
    mean: np.ndarray
    log_mean: np.ndarray
    psi: np.ndarray


def update_variational(model: FactorModel, X) -> FactorModel:
    """Closed-form Gamma updates for bases then activations.

    The expected allocation counts are E(kappa_mkt) = X_mt * eta_mkt; the
    basis posteriors update first from the current activation means, then
    the activation posteriors update from the refreshed basis means, so
    each half-step is an exact coordinate-ascent move.
    """
    X = _as_observation(X)
    e_kappa = X[:, None, :] * model.eta  # M x K x T
    u, w = _gamma_step(
        e_kappa.sum(axis=2), e_kappa.sum(axis=0), model.activations.sum(axis=1),
        model.prior_rate_u, model.prior_rate_w,
    )
    return replace(model, **_fields(u, w))


def _gamma_step(kappa_u, kappa_w, sum_w, rate_u, rate_w) -> tuple[_Gamma, _Gamma]:
    """Basis then activation posteriors from the expected counts summed
    over time (M x K) and over sources (K x T) and the activation means
    summed over time (K)."""
    u = _gamma_half(kappa_u, sum_w[None, :] + rate_u, "basis")
    w = _gamma_half(kappa_w, u.mean.sum(axis=0)[:, None] + rate_w, "activation")
    return u, w


def _gamma_half(kappa: np.ndarray, denom: np.ndarray, name: str) -> _Gamma:
    if (denom < EPS).any():
        warnings.warn(
            f"zero {name}-scale denominator floored at 1e-12",
            RuntimeWarning,
            stacklevel=3,
        )
    shape = 1.0 + kappa
    scale = 1.0 / _floored(denom)
    psi = special.psi(shape)
    return _Gamma(shape, scale, shape * scale, psi + np.log(scale), psi)


def _fields(u: _Gamma, w: _Gamma) -> dict:
    """The FactorModel fields the two Gamma posteriors determine."""
    return {
        "bases": u.mean, "activations": w.mean,
        "log_bases": u.log_mean, "log_activations": w.log_mean,
        "a_shape": u.shape, "a_scale": u.scale,
        "b_shape": w.shape, "b_scale": w.scale,
    }


def update_control(model: FactorModel) -> FactorModel:
    """Refresh the closed-form estimates of the prior rates.

    The basis-rate estimate is the positive root of
    alpha^2 + s_w * alpha - s_w / E(u) = 0 with s_w the activation sum over
    time; the activation rate solves the mirrored equation with s_u the
    basis sum over sources.  The estimates describe the posterior; the
    rates the updates actually use stay at their fixed values so every
    sweep remains an ascent on the bound.
    """
    sum_w = model.activations.sum(axis=1)[None, :]  # 1 x K
    e_ctrl = _positive_root(sum_w, sum_w / _floored(model.bases))

    sum_u = model.bases.sum(axis=0)[:, None]  # K x 1
    f_ctrl = _positive_root(sum_u, sum_u / _floored(model.activations))

    if not (np.all(np.isfinite(e_ctrl)) and np.all(np.isfinite(f_ctrl))):
        raise NumericalDomainError("control estimate is non-finite")
    return replace(
        model,
        ctrl_alpha=np.maximum(e_ctrl, EPS, out=e_ctrl),
        ctrl_beta=np.maximum(f_ctrl, EPS, out=f_ctrl),
    )


def _positive_root(s, c: np.ndarray) -> np.ndarray:
    """The positive root of x^2 + s x - c = 0, for s, c > 0, written over ``c``.

    Computed as 2c / (s + sqrt(s^2 + 4c)), which holds no subtraction:
    the textbook (-s + sqrt(s^2 + 4c)) / 2 cancels when s^2 dwarfs 4c.
    In place, because ``c`` is K x T and each fresh temporary of that size
    faults in new pages.
    """
    den = 4.0 * c
    den += s**2
    np.sqrt(den, out=den)
    den += s
    c *= 2.0
    return np.divide(c, den, out=c)


def lower_bound(model: FactorModel, X) -> float:
    """Variational lower bound of the marginal likelihood.

    Assembles the expected joint log density (Poisson allocation terms plus
    the exponential prior terms at the model's fixed rates) and the
    Gamma/multinomial entropies.  The delta-constraint and
    log-Gamma(kappa+1) terms cancel between the two halves and are omitted.
    """
    X = _as_observation(X)
    u = _Gamma(model.a_shape, model.a_scale, model.bases, model.log_bases,
               special.psi(model.a_shape))
    w = _Gamma(model.b_shape, model.b_scale, model.activations,
               model.log_activations, special.psi(model.b_shape))
    return _bound(
        u, w, *_counts(X[:, None, :], model.eta),
        -float(special.gammaln(X + 1.0).sum()),
        model.prior_rate_u, model.prior_rate_w,
    )


def _counts(x: np.ndarray, eta: np.ndarray, cols=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Expected counts E(kappa) = X * eta summed over time (M x K) and over
    sources (K x T), and the allocation term sum E(kappa) log eta."""
    e_kappa = x * eta  # M x K x T
    kappa_u, kappa_w = e_kappa.sum(axis=2), e_kappa.sum(axis=0)
    alloc = special.xlogy(e_kappa, eta, out=e_kappa)
    if not np.isfinite(alloc).all():
        idx = _first_non_finite(alloc, cols)
        raise NumericalDomainError(
            f"allocation entropy has log of a nonpositive argument at index {idx}"
        )
    return kappa_u, kappa_w, float(alloc.sum())


def _bound(u, w, kappa_u, kappa_w, alloc, data, rate_u, rate_w, n0=0) -> float:
    """Lower bound of one state from its Gamma posteriors and ``_counts``;
    ``data`` is -sum(log X_mt!).  ``w`` holds the activations of the
    columns with data; each of ``n0`` more columns holds no counts, so its
    activation shape is 1 and its mean the scale."""
    recon = float((u.mean @ w.mean).sum())
    data -= alloc

    cross_u = float((u.log_mean * kappa_u).sum())
    cross_w = float((w.log_mean * kappa_w).sum())

    if not (rate_u > 0 and rate_w > 0):
        raise NumericalDomainError("prior rates must be positive for the bound")
    prior_u = float((np.log(rate_u) - rate_u * u.mean).sum())
    prior_w = float((np.log(rate_w) - rate_w * w.mean).sum())

    ent_u = float(_gamma_entropy(u).sum())
    ent_w = float(_gamma_entropy(w).sum())

    total = -recon + data + cross_u + cross_w + prior_u + prior_w + ent_u + ent_w
    if n0:
        # an empty column's recon, prior and entropy terms; its cross and
        # allocation terms are 0, and so are (shape - 1) psi and log Gamma(1)
        s = w.scale[:, 0]
        empty = np.log(rate_w) + np.log(_floored(s)) + 1.0 - (u.mean.sum(axis=0) + rate_w) * s
        total += n0 * float(empty.sum())
    if not math.isfinite(total):
        raise NumericalDomainError("lower bound evaluated to a non-finite value")
    return total


def _gamma_entropy(g: _Gamma) -> np.ndarray:
    return (
        -(g.shape - 1.0) * g.psi
        + np.log(_floored(g.scale))
        + g.shape
        + special.gammaln(g.shape)
    )


def _floored(arr: np.ndarray) -> np.ndarray:
    return np.maximum(arr, EPS)


def _widen(data: np.ndarray, fill, cols: np.ndarray, T: int) -> np.ndarray:
    """A full-width array: ``data`` on the columns ``cols``, ``fill``
    broadcast on the others."""
    out = np.empty(data.shape[:-1] + (T,))
    out[...] = fill
    out[..., cols] = data
    return out


def fit(X, K: int, opts: FitOptions | None = None) -> FactorModel:
    """Run the full variational loop until the bound stabilizes.

    A sweep is allocation update, Gamma updates, then the bound, run on
    plain arrays through the kernels behind ``update_eta``,
    ``update_variational`` and ``lower_bound``; the expected-count sums
    are shared by the Gamma step and the bound.  Every per-column quantity
    is computed on the columns of X that hold data only.  An all-zero
    column gets no counts, so its activation shape is exactly 1 and its
    mean the activation scale; its terms in the sums over time are folded
    into one constant per basis, times the number of such columns.  The
    first sweep is the exception: it reads the random start on every
    column.  With no all-zero column this is the plain full-width sweep.
    Stops when the relative bound change drops below ``opts.tol`` or after
    ``opts.max_iters`` sweeps; a non-converged model is returned flagged,
    not raised.  An all-zero observation short-circuits after the first
    sweep since there is no mass to allocate.  The full-width model,
    whose allocation comes from the log means the last sweep started
    from, is built once at the end, and the control estimates run once,
    on that final state: no update reads them.
    """
    opts = opts or FitOptions()
    X = _as_observation(X)
    a_shape, a_scale, b_shape, b_scale = _start(X, K, opts.seed)
    rate_u, rate_w = FactorModel.prior_rate_u, FactorModel.prior_rate_w
    T = X.shape[1]
    cols = np.flatnonzero(X.any(axis=0))
    n0 = T - cols.size
    where = cols if n0 else None

    def take(arr):
        # np.take keeps C order, as the full-width arrays have; numpy sums
        # eta over K in another order when K is the contiguous axis
        return np.take(arr, cols, axis=1) if n0 else arr

    x = take(X)
    data = -float(special.gammaln(x + 1.0).sum())
    x = x[:, None, :]  # broadcasts against eta
    log_bases = special.psi(a_shape) + np.log(a_scale)
    log_activations = special.psi(take(b_shape)) + np.log(take(b_scale))
    sum_w = (b_shape * b_scale).sum(axis=1)

    trace: list[float] = []
    converged = False
    previous = w = None
    for _ in range(opts.max_iters):
        # this sweep's allocation reads log_bases, and on the empty columns
        # the log means of the previous w (the random start when None)
        eta_bases, before = log_bases, w
        eta = _eta(log_bases, log_activations, where)
        kappa_u, kappa_w, alloc = _counts(x, eta, where)
        u, w = _gamma_step(kappa_u, kappa_w, sum_w, rate_u, rate_w)
        log_bases, log_activations = u.log_mean, w.log_mean
        sum_w = w.mean.sum(axis=1)
        if n0:
            sum_w = sum_w + n0 * w.scale[:, 0]
        elbo = _bound(u, w, kappa_u, kappa_w, alloc, data, rate_u, rate_w, n0)
        trace.append(elbo)
        if not cols.size:  # no mass to allocate
            converged = True
            break
        if previous is not None:
            if abs(elbo - previous) <= opts.tol * max(abs(previous), EPS):
                converged = True
                break
        previous = elbo

    if n0:
        if before is None:  # one sweep, which read the start on every column
            eta = _eta(eta_bases, special.psi(b_shape) + np.log(b_scale))
        else:
            empty = _eta(eta_bases, special.psi(1.0) + np.log(before.scale))
            eta = _widen(eta, empty, cols, T)
        w = w._replace(
            shape=_widen(w.shape, 1.0, cols, T),
            mean=_widen(w.mean, w.scale, cols, T),
            log_mean=_widen(w.log_mean, special.psi(1.0) + np.log(w.scale), cols, T),
        )
    return update_control(FactorModel(
        **_fields(u, w),
        eta=eta,
        ctrl_alpha=None,  # both set by update_control
        ctrl_beta=None,
        K=K,
        prior_rate_u=rate_u,
        prior_rate_w=rate_w,
        converged=converged,
        iterations=len(trace),
        elbo_trace=tuple(trace),
    ))


def select_order(
    X,
    k_min: int,
    k_max: int,
    opts: FitOptions | None = None,
    with_trace: bool = False,
):
    """Pick the basis count maximizing the converged lower bound.

    Fits every K in [k_min, k_max] with a seed derived per K, and returns
    the argmax; ties resolve toward the smaller K.  Each fit's sweeps cost
    time in the columns of X that hold data; the start it draws and the
    model it returns are full width.
    """
    opts = opts or FitOptions()
    if not 1 <= k_min <= k_max:
        raise ValidationError(
            f"order range requires 1 <= k_min <= k_max, got [{k_min}, {k_max}]"
        )
    X = _as_observation(X)

    best_k = None
    best_model = None
    best_elbo = -np.inf
    scores = []
    for K in range(k_min, k_max + 1):
        child_seed = np.random.SeedSequence(entropy=(opts.seed, K))
        child = replace(opts, seed=int(child_seed.generate_state(1)[0]))
        model = fit(X, K, child)
        elbo = model.elbo_trace[-1]
        scores.append((K, elbo, model.converged))
        if elbo > best_elbo:
            best_k, best_model, best_elbo = K, model, elbo
    if with_trace:
        return best_k, best_model, scores
    return best_k, best_model
