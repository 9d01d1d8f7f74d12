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

import numpy as np
from scipy import special

from .artifacts import decode_columns, encode_columns
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

    An update shares each basis's Gamma scale over m and each activation
    row's over t, so ``a_scale`` and ``b_scale`` are M x K and K x T at
    ``init_model``'s start, and 1 x K and K x 1 once updated.
    """

    bases: np.ndarray          # E(u), M x K
    activations: np.ndarray    # E(w), K x T
    log_bases: np.ndarray      # E(log u), M x K
    log_activations: np.ndarray  # E(log w), K x T
    eta: np.ndarray            # M x K x T, sums to 1 over axis 1
    a_shape: np.ndarray        # M x K
    a_scale: np.ndarray        # M x K at the start, 1 x K once updated
    b_shape: np.ndarray        # K x T
    b_scale: np.ndarray        # K x T at the start, K x 1 once updated
    ctrl_alpha: np.ndarray     # M x K
    ctrl_beta: np.ndarray      # K x T
    K: int
    prior_rate_u: float = 1.0
    prior_rate_w: float = 1.0
    converged: bool = False
    iterations: int = 0
    elbo_trace: tuple = field(default_factory=tuple)

    def reconstruction(self) -> np.ndarray:
        """Point reconstruction of the observation from the Gamma means."""
        return self.bases @ self.activations

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
        # arrays as they are, for artifacts.write_json: the bases row-major
        # with their shape, the activations (one constant a basis on every
        # column with no data) in the column layout
        return {
            "K": self.K,
            "converged": self.converged,
            "iterations": self.iterations,
            "elbo_trace": list(self.elbo_trace),
            "bases": {"shape": list(self.bases.shape), "data": self.bases.ravel()},
            "activations": encode_columns(self.activations),
        }

    @classmethod
    def from_dict(cls, d: dict, horizon: int | None = None) -> "FitResult":
        for key, kind in (("K", int), ("iterations", int), ("converged", bool)):
            # exact types: JSON's true is not an integer here, nor 2.0
            if type(d[key]) is not kind:
                raise ValidationError(f"{key} must be {kind.__name__}, got {d[key]!r}")
        # K bounds the bases' columns and the activations' rows; T has no
        # reference in this file, and is checked against ``horizon`` if given
        return cls(
            bases=decode_columns(d["bases"], "bases", (None, d["K"])),
            activations=decode_columns(d["activations"], "activations", (d["K"], horizon)),
            K=d["K"],
            converged=d["converged"],
            iterations=d["iterations"],
            elbo_trace=tuple(d["elbo_trace"]),
        )


def _as_observation(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
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


def _eta(log_bases: np.ndarray, log_activations: np.ndarray) -> np.ndarray:
    logits = log_bases[:, :, None] + log_activations[None, :, :]
    if not np.isfinite(logits).all():
        raise _logit_error(_first_non_finite(logits))
    logits -= logits.max(axis=1, keepdims=True)
    eta = np.exp(logits, out=logits)
    eta /= eta.sum(axis=1, keepdims=True)
    return eta


def _first_non_finite(arr: np.ndarray, cols=None) -> tuple[int, ...] | None:
    """Index of the first non-finite item of ``arr`` as plain ints, None
    when every item is finite; ``cols`` names the observation columns
    that the last axis holds (all of them when None)."""
    bad = np.argwhere(~np.isfinite(arr))
    if not bad.size:
        return None
    idx = [int(i) for i in bad[0]]
    if cols is not None:
        idx[-1] = int(cols[idx[-1]])
    return tuple(idx)


def _logit_error(idx: tuple) -> NumericalDomainError:
    return NumericalDomainError(f"non-finite log expectation at index {idx}")


def update_variational(model: FactorModel, X) -> FactorModel:
    """Closed-form Gamma updates for bases then activations.

    The expected allocation counts are E(kappa_mkt) = X_mt * eta_mkt; the
    basis posteriors update first from the current activation means, then
    the activation posteriors update from the refreshed basis means, so
    each half-step is an exact coordinate-ascent move.
    """
    X = _as_observation(X)
    e_kappa = X[:, None, :] * model.eta  # M x K x T
    a_denom = model.activations.sum(axis=1)[None, :] + model.prior_rate_u
    a_shape = 1.0 + e_kappa.sum(axis=2)
    a_scale = 1.0 / _floored_denominator(a_denom, "basis")
    bases = a_shape * a_scale
    b_denom = bases.sum(axis=0)[:, None] + model.prior_rate_w
    b_shape = 1.0 + e_kappa.sum(axis=0)
    b_scale = 1.0 / _floored_denominator(b_denom, "activation")
    return replace(
        model, bases=bases, activations=b_shape * b_scale,
        log_bases=special.psi(a_shape) + np.log(a_scale),
        log_activations=special.psi(b_shape) + np.log(b_scale),
        a_shape=a_shape, a_scale=a_scale, b_shape=b_shape, b_scale=b_scale,
    )


def _floored_denominator(denom: np.ndarray, name: str) -> np.ndarray:
    if (denom < EPS).any():
        warnings.warn(
            f"zero {name}-scale denominator floored at 1e-12",
            RuntimeWarning,
            stacklevel=3,
        )
    return _floored(denom)


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
    e_kappa = X[:, None, :] * model.eta  # M x K x T
    kappa_u, kappa_w = e_kappa.sum(axis=2), e_kappa.sum(axis=0)
    alloc = special.xlogy(e_kappa, model.eta, out=e_kappa)
    if not np.isfinite(alloc).all():
        raise _allocation_error(_first_non_finite(alloc))
    data = -float(special.gammaln(X + 1.0).sum()) - float(alloc.sum())

    recon = float((model.bases @ model.activations).sum())
    cross_u = float((model.log_bases * kappa_u).sum())
    cross_w = float((model.log_activations * kappa_w).sum())

    rate_u, rate_w = model.prior_rate_u, model.prior_rate_w
    if not (rate_u > 0 and rate_w > 0):
        raise NumericalDomainError("prior rates must be positive for the bound")
    prior_u = float((np.log(rate_u) - rate_u * model.bases).sum())
    prior_w = float((np.log(rate_w) - rate_w * model.activations).sum())

    ent_u = float(_gamma_entropy(model.a_shape, model.a_scale).sum())
    ent_w = float(_gamma_entropy(model.b_shape, model.b_scale).sum())

    total = -recon + data + cross_u + cross_w + prior_u + prior_w + ent_u + ent_w
    if not math.isfinite(total):
        raise _bound_error()
    return total


def _allocation_error(idx: tuple) -> NumericalDomainError:
    return NumericalDomainError(
        f"allocation entropy has log of a nonpositive argument at index {idx}"
    )


def _bound_error() -> NumericalDomainError:
    return NumericalDomainError("lower bound evaluated to a non-finite value")


def _gamma_entropy(shape: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Entropy of each Gamma(shape, scale) item."""
    return (
        -(shape - 1.0) * special.psi(shape)
        + np.log(scale)
        + shape
        + special.gammaln(shape)
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


@dataclass(frozen=True)
class _Swept:
    """A fit whose sweeps have ended, before ``_finish`` builds its model.

    ``K``, ``iterations``, ``converged`` and ``elbo_trace`` are the fit's
    record.  The activation arrays and ``eta`` hold the data columns
    ``cols`` of a ``T``-column observation only.  The last sweep's
    allocation read the basis log means ``eta_bases``, and on the all-zero
    columns the activation scale ``eta_scale`` after two or more sweeps,
    or the random start's K x T activation shapes and scales ``start``
    after one.  Each of those two is None where no all-zero column needs
    it, so no full-width array outlives the sweeps unless finishing
    reads it.
    """

    K: int
    iterations: int
    converged: bool
    elbo_trace: tuple
    T: int
    cols: np.ndarray
    bases: np.ndarray
    log_bases: np.ndarray
    a_shape: np.ndarray
    a_scale: np.ndarray
    activations: np.ndarray
    log_activations: np.ndarray
    b_shape: np.ndarray
    b_scale: np.ndarray
    eta: np.ndarray
    eta_bases: np.ndarray
    eta_scale: np.ndarray | None
    start: tuple | None


def fit(X, K: int, opts: FitOptions | None = None, *, finish: bool = True):
    """Run the full variational loop until the bound stabilizes.

    A sweep is allocation update, Gamma updates, then the bound: the
    arithmetic of ``update_eta``, ``update_variational`` and
    ``lower_bound``, with the same operations in the same order, fused
    into one pass over plain arrays.  The expected-count sums are shared
    by the Gamma step and the bound; the M x K x T allocation and expected
    counts are computed in place in two buffers allocated per fit, and
    the returned model keeps the allocation one.  Every per-column
    quantity is computed on the columns of X that hold data only.  An
    all-zero column gets no counts, so its activation shape is exactly 1
    and its mean the activation scale; its terms in the sums over time are
    folded into one constant per basis, times the number of such columns.
    The first sweep is the exception: it reads the random start on every
    column.  With no all-zero column this is the plain full-width sweep,
    bit-identical to the step functions.  Stops when the relative bound
    change drops below ``opts.tol`` or after ``opts.max_iters`` sweeps; a
    non-converged model is returned flagged, not raised.  An all-zero
    observation short-circuits after the first sweep since there is no
    mass to allocate.

    The sweeps end in an unfinished state on the data columns.  Finishing
    it builds the full-width model, whose allocation comes from the log
    means the last sweep started from, and runs the control estimates
    once, on that final state: no update reads them.  With
    ``finish=False`` the unfinished state is returned instead, carrying
    ``K``, ``iterations``, ``converged`` and ``elbo_trace``;
    ``select_order`` passes it so that it finishes only the order it
    keeps, through the same finishing step.
    """
    opts = opts or FitOptions()
    X = _as_observation(X)
    a_shape, a_scale, b_shape, b_scale = _start(X, K, opts.seed)
    rate_u, rate_w = FactorModel.prior_rate_u, FactorModel.prior_rate_w
    if not (rate_u > 0 and rate_w > 0):
        raise NumericalDomainError("prior rates must be positive for the bound")
    log_rate_u, log_rate_w = np.log(rate_u), np.log(rate_w)
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
    eta = np.empty((x.shape[0], K, x.shape[2]))  # the logits, then eta
    e_kappa = np.empty_like(eta)  # then the allocation term
    over_k = np.empty_like(x)  # the logits' max over k, then their exponentials' sum
    log_bases = special.psi(a_shape) + np.log(a_scale)
    log_activations = special.psi(take(b_shape)) + np.log(take(b_scale))
    sum_w = (b_shape * b_scale).sum(axis=1)
    b_start = b_shape, b_scale  # what a one-sweep fit's allocation reads
    summed, peak = np.add.reduce, np.maximum.reduce

    trace: list[float] = []
    converged = False
    previous = None
    for _ in range(opts.max_iters):
        # this sweep's allocation reads log_bases, and on the empty columns
        # the log means of the previous activations, whose scale is b_scale
        eta_bases, before = log_bases, b_scale

        # _eta.  A logit adds two log means psi(shape) + log(scale), each
        # under 1500 in size when finite, so the logits are all finite
        # exactly when their sum is
        np.add(log_bases[:, :, None], log_activations[None, :, :], out=eta)
        if not math.isfinite(summed(eta, axis=None)):
            raise _logit_error(_first_non_finite(eta, where))
        eta -= peak(eta, axis=1, out=over_k, keepdims=True)
        np.exp(eta, out=eta)
        eta /= summed(eta, axis=1, out=over_k, keepdims=True)

        # the expected counts of update_variational and lower_bound.  A
        # non-finite item makes the sum non-finite; when only the sum
        # overflows, the bound's check below raises instead
        np.multiply(x, eta, out=e_kappa)
        kappa_u, kappa_w = summed(e_kappa, axis=2), summed(e_kappa, axis=0)
        special.xlogy(e_kappa, eta, out=e_kappa)
        alloc = float(summed(e_kappa, axis=None))
        if not math.isfinite(alloc):
            idx = _first_non_finite(e_kappa, where)
            if idx is not None:
                raise _allocation_error(idx)

        # update_variational.  Each denominator is a sum of the fit's Gamma
        # means plus a rate of 1, so its floor can never apply here
        a_shape = np.add(1.0, kappa_u)
        a_scale = np.divide(1.0, np.add(sum_w[None, :], rate_u))
        a_psi, a_log_scale = special.psi(a_shape), np.log(a_scale)
        bases = np.multiply(a_shape, a_scale)
        log_bases = np.add(a_psi, a_log_scale)
        b_denom = np.add(summed(bases, axis=0)[:, None], rate_w)
        b_shape = np.add(1.0, kappa_w)
        b_scale = np.divide(1.0, b_denom)
        b_psi, b_log_scale = special.psi(b_shape), np.log(b_scale)
        activations = np.multiply(b_shape, b_scale)
        log_activations = np.add(b_psi, b_log_scale)
        sum_w = summed(activations, axis=1)
        if n0:
            sum_w += n0 * b_scale[:, 0]

        # lower_bound
        recon = float(summed(np.matmul(bases, activations), axis=None))
        cross_u = float(summed(np.multiply(log_bases, kappa_u, out=kappa_u), axis=None))
        cross_w = float(summed(np.multiply(log_activations, kappa_w, out=kappa_w), axis=None))
        prior_u = _prior_sum(bases, rate_u, log_rate_u)
        prior_w = _prior_sum(activations, rate_w, log_rate_w)
        ent_u = _entropy_sum(a_shape, a_psi, a_log_scale)
        ent_w = _entropy_sum(b_shape, b_psi, b_log_scale)
        elbo = (
            -recon + (data - alloc) + cross_u + cross_w + prior_u + prior_w
            + ent_u + ent_w
        )
        if n0:
            # an empty column's recon, prior and entropy terms; its cross and
            # allocation terms are 0, and so are (shape - 1) psi and log Gamma(1)
            empty = log_rate_w + b_log_scale[:, 0] + 1.0 - b_denom[:, 0] * b_scale[:, 0]
            elbo += n0 * float(empty.sum())
        if not math.isfinite(elbo):
            raise _bound_error()

        trace.append(elbo)
        if not cols.size:  # no mass to allocate
            converged = True
            break
        if previous is not None:
            if abs(elbo - previous) <= opts.tol * max(abs(previous), EPS):
                converged = True
                break
        previous = elbo

    swept = _Swept(
        K=K,
        iterations=len(trace),
        converged=converged,
        elbo_trace=tuple(trace),
        T=T,
        cols=cols,
        bases=bases,
        log_bases=log_bases,
        a_shape=a_shape,
        a_scale=a_scale,
        activations=activations,
        log_activations=log_activations,
        b_shape=b_shape,
        b_scale=b_scale,
        eta=eta,
        eta_bases=eta_bases,
        eta_scale=before if n0 and len(trace) > 1 else None,
        start=b_start if n0 and len(trace) == 1 else None,
    )
    return _finish(swept) if finish else swept


def _finish(s: _Swept) -> FactorModel:
    """The full-width model of a swept fit, with its control estimates."""
    eta, activations = s.eta, s.activations
    log_activations, b_shape = s.log_activations, s.b_shape
    if s.cols.size < s.T:
        if s.start is not None:  # one sweep, which read the start on every column
            eta = _eta(s.eta_bases, special.psi(s.start[0]) + np.log(s.start[1]))
        else:
            empty = _eta(s.eta_bases, special.psi(1.0) + np.log(s.eta_scale))
            eta = _widen(eta, empty, s.cols, s.T)
        log_activations = _widen(
            log_activations, special.psi(1.0) + np.log(s.b_scale), s.cols, s.T
        )
        activations = _widen(activations, s.b_scale, s.cols, s.T)
        b_shape = _widen(b_shape, 1.0, s.cols, s.T)
    return update_control(FactorModel(
        bases=s.bases,
        activations=activations,
        log_bases=s.log_bases,
        log_activations=log_activations,
        eta=eta,
        a_shape=s.a_shape,
        a_scale=s.a_scale,
        b_shape=b_shape,
        b_scale=s.b_scale,
        ctrl_alpha=None,  # both set by update_control
        ctrl_beta=None,
        K=s.K,
        converged=s.converged,
        iterations=s.iterations,
        elbo_trace=s.elbo_trace,
    ))


def _prior_sum(mean: np.ndarray, rate: float, log_rate: float) -> float:
    """Sum of log(rate) - rate * mean, the prior term of ``lower_bound``."""
    prior = np.multiply(mean, rate)
    return float(np.add.reduce(np.subtract(log_rate, prior, out=prior), axis=None))


def _entropy_sum(shape: np.ndarray, psi: np.ndarray, log_scale: np.ndarray) -> float:
    """Sum of ``_gamma_entropy``'s items, built in place from ``psi`` =
    psi(shape) and ``log_scale`` = log(scale); overwrites ``psi``.
    1 - shape is exactly -(shape - 1)."""
    ent = np.subtract(1.0, shape)
    ent *= psi
    ent += log_scale
    ent += shape
    ent += special.gammaln(shape, out=psi)
    return float(np.add.reduce(ent, axis=None))


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
    time in the columns of X that hold data, and only the order returned
    is finished into a full-width model, by the finishing step of
    ``fit``: the model is the one ``fit`` returns at that order and seed.
    """
    opts = opts or FitOptions()
    if not 1 <= k_min <= k_max:
        raise ValidationError(
            f"order range requires 1 <= k_min <= k_max, got [{k_min}, {k_max}]"
        )
    X = _as_observation(X)

    best = None
    scores = []
    for K in range(k_min, k_max + 1):
        child_seed = np.random.SeedSequence(entropy=(opts.seed, K))
        child = replace(opts, seed=int(child_seed.generate_state(1)[0]))
        swept = fit(X, K, child, finish=False)
        elbo = swept.elbo_trace[-1]
        scores.append((K, elbo, swept.converged))
        if best is None or elbo > best.elbo_trace[-1]:
            best = swept
    model = _finish(best)
    if with_trace:
        return best.K, model, scores
    return best.K, model
