"""Variational Bayesian Poisson-Exponential nonnegative matrix factorization.

Decomposes a nonnegative M x T observation into an M x K basis matrix and a
K x T activation matrix.  Every basis entry u_mk carries an exponential
prior with rate ``alpha_mk`` and every activation entry w_kt one with rate
``beta_kt``; the posterior over each entry is a Gamma whose shape/scale are
updated in closed form, the per-observation allocation over bases is a
multinomial with parameter eta, and ``update_control`` gives closed-form
estimates of the prior rates at a state, the positive root of a quadratic
(no update reads them, so no fit computes them).  Model order is chosen by
maximizing the variational lower bound over K.

All updates are deterministic given the seed; a fit never mutates its
input model, it returns a fresh one.

``fit`` starts and runs its sweeps on the observation columns that hold
data.  An all-zero column receives no counts, so from the start its
activation posterior is the same on every such column (shape 1, mean the
activation scale), and its share of each sum over time is one constant
per basis times the number of such columns: a fit sees its all-zero
columns only by their count.  That moves the last bits of a fit with
all-zero columns against the full-width step functions below; a fit with
none is bit-identical to them.

``fit`` scores each sweep by the bound in collapsed form.  After the Gamma
step the shapes are a = 1 + kappa_u and b = 1 + kappa_w, and the scales
s_k = 1 / (sum_t E w_kt + r_u) and q_k = 1 / (sum_m E u_mk + r_w) for the
prior rates r_u and r_w.  The log means' cross terms then cancel the
entropies' digamma terms, since kappa - (shape - 1) = 0, and the
reconstruction cancels the activation prior's means, since E w = b q.
With c_k the counts allocated to basis k, the bound is

    data - alloc + sum_k [(log s_k + 1 - r_u s_k)(M + c_k) + (T + c_k) log q_k]
        + K (M log r_u + T log r_w) + sum log Gamma(a) + sum log Gamma(b),

equal to ``lower_bound`` at the same state up to rounding (within 1e-12
relative; its sums run in another order).  ``lower_bound`` stays the
reference, valid at any state.

The allocation term alloc = sum kappa log eta comes from the softmax's own
sums.  With l the logits shifted by their max over k, and s the sum over k
of their exponentials, log eta = l - log s, and since kappa sums to x over
k,

    alloc = sum_mkt kappa l - sum_mt x log s.

Every item of the first sum is <= 0 (l <= 0) and of the second >= 0
(s >= 1), so the difference adds terms of one sign and nothing cancels.

At K = 1 the allocation over one basis is exactly 1: the logits less
their max are exactly 0, and exp(0) / 1 = 1.  So from a fit's second
sweep on, the expected counts, the shapes, their digammas and log Gammas
and the bound's elementwise part are the first sweep's, and each later
sweep is scale-only: s = 1 / (W + r_u), the bases a s, q = 1 / (sum_m of
the bases + r_w), the activations b q, W = sum_t of the activations (plus
q per all-zero column), and the bound is the first sweep's elementwise
part plus the one term per basis.  These are the full sweep's operations
on the same operands in the same order, with the sums over m and t the
same numpy reductions over the same arrays, so every value is bit for
bit the full sweep's.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy import special

from .artifacts import decode_columns, encode_columns
from .errors import DimensionError, NumericalDomainError, ValidationError

EPS = 1e-12  # floor for denominators and log arguments


@dataclass(frozen=True)
class FitOptions:
    """Iteration controls of a fit; a config's partition section is checked as one."""

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
    The exponential prior rates stay fixed at ``prior_rate_u`` /
    ``prior_rate_w`` so every sweep is an exact coordinate-ascent move on
    the bound.

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
        ):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise NumericalDomainError(f"{name} must be strictly positive and finite")
        if np.any(self.a_shape < 1.0 - 1e-12):
            raise NumericalDomainError("a_shape fell below its lower bound of 1")

    _ARRAY_FIELDS = (
        "bases", "activations", "log_bases", "log_activations", "eta",
        "a_shape", "a_scale", "b_shape", "b_scale",
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
        # arrays as they are, for artifacts.write_json, both in the column
        # layout (the activations are one constant a basis on every column
        # with no data)
        return {
            "K": self.K,
            "converged": self.converged,
            "iterations": self.iterations,
            "elbo_trace": list(self.elbo_trace),
            "bases": encode_columns(self.bases),
            "activations": encode_columns(self.activations),
        }

    @classmethod
    def from_dict(cls, d: dict, horizon: int | None = None) -> "FitResult":
        for key, kind in (("K", int), ("iterations", int), ("converged", bool)):
            # exact types: JSON's true is not an integer here, nor 2.0
            if type(d[key]) is not kind:
                raise ValidationError(f"{key} must be {kind.__name__}, got {d[key]!r}")
        # one bound a sweep, each written as a float
        trace = d["elbo_trace"]
        if not (
            type(trace) is list
            and len(trace) == d["iterations"]
            and all(type(e) is float and math.isfinite(e) for e in trace)
        ):
            raise ValidationError(
                f"elbo_trace must be a list of iterations={d['iterations']} finite floats"
            )
        # K bounds the bases' columns and the activations' rows; T has no
        # reference in this file, and is checked against ``horizon`` if given
        return cls(
            bases=decode_columns(d["bases"], "bases", (None, d["K"])),
            activations=decode_columns(d["activations"], "activations", (d["K"], horizon)),
            K=d["K"],
            converged=d["converged"],
            iterations=d["iterations"],
            elbo_trace=tuple(trace),
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

    Prior rates are one (unit-mean exponential priors), allocations
    start uniform at 1/K, and the Gamma shapes/scales are seeded so the
    initial reconstruction matches the data's magnitude.  This is ``fit``'s
    start at full width: an all-zero column's activations start at shape 1
    and scale sqrt(EPS / K), with no random draw.
    """
    X = _as_observation(X)
    M, T = X.shape
    cols, x = _data_columns(X)
    a_shape, a_scale, b_shape, b_scale = _start(x, T, K, seed)
    b_shape = _widen(b_shape, 1.0, cols, T)
    b_scale = _widen(b_scale, math.sqrt(EPS / K), cols, T)
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
        K=K,
    )
    model.check_invariants()
    return model


def _data_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the columns of X that hold data, and X on them: X
    itself where every column does, since numpy's row sums of a copy can
    differ in their last bits."""
    cols = np.flatnonzero(X.any(axis=0))
    return cols, (np.take(X, cols, axis=1) if cols.size < X.shape[1] else X)


def _start(x: np.ndarray, T: int, K: int, seed: int) -> tuple[np.ndarray, ...]:
    """The starting basis and activation Gamma shapes and scales, on the
    data columns ``x`` of a ``T``-column observation."""
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    rng = np.random.default_rng(seed)
    M = x.shape[0]

    # the means over all T columns, a sum then a true divide as X.mean
    # computes them, called here so that an overflow warns from this module
    row_scale = np.sqrt((np.add.reduce(x, axis=1) / T + EPS) / K)   # (M,)
    col_scale = np.sqrt((np.add.reduce(x, axis=0) / M + EPS) / K)   # (T_data,)

    a_shape = 1.0 + rng.uniform(0.0, 0.05, size=(M, K))
    a_scale = row_scale[:, None] * rng.uniform(0.9, 1.1, size=(M, K)) / a_shape
    b_shape = 1.0 + rng.uniform(0.0, 0.05, size=(K, x.shape[1]))
    b_scale = rng.uniform(0.9, 1.1, size=(K, x.shape[1])) * col_scale / b_shape
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


class Control(NamedTuple):
    """Closed-form estimates of the exponential prior rates at a state."""

    ctrl_alpha: np.ndarray     # M x K
    ctrl_beta: np.ndarray      # K x T


def update_control(model: FactorModel) -> Control:
    """The closed-form estimates of the prior rates at ``model``'s state.

    The basis-rate estimate is the positive root of
    alpha^2 + s_w * alpha - s_w / E(u) = 0 with s_w the activation sum over
    time; the activation rate solves the mirrored equation with s_u the
    basis sum over sources.  The estimates describe the posterior; the
    rates the updates actually use stay at their fixed values so every
    sweep remains an ascent on the bound, and no fit computes them.
    """
    sum_w = model.activations.sum(axis=1)[None, :]  # 1 x K
    e_ctrl = _positive_root(sum_w, sum_w / _floored(model.bases))

    sum_u = model.bases.sum(axis=0)[:, None]  # K x 1
    f_ctrl = _positive_root(sum_u, sum_u / _floored(model.activations))

    if not (np.all(np.isfinite(e_ctrl)) and np.all(np.isfinite(f_ctrl))):
        raise NumericalDomainError("control estimate is non-finite")
    return Control(np.maximum(e_ctrl, EPS, out=e_ctrl), np.maximum(f_ctrl, EPS, out=f_ctrl))


def _positive_root(s, c: np.ndarray) -> np.ndarray:
    """The positive root of x^2 + s x - c = 0, for s, c > 0.

    Computed as 2c / (s + sqrt(s^2 + 4c)), which holds no subtraction:
    the textbook (-s + sqrt(s^2 + 4c)) / 2 cancels when s^2 dwarfs 4c.
    """
    return 2.0 * c / (s + np.sqrt(s**2 + 4.0 * c))


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


def _split(buf: np.ndarray, *shapes) -> list[np.ndarray]:
    """Views of consecutive parts of the flat ``buf``, one of each shape."""
    views, start = [], 0
    for shape in shapes:
        views.append(buf[start : start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return views


def _widen(data: np.ndarray, fill, cols: np.ndarray, T: int) -> np.ndarray:
    """A full-width array: ``data`` on the columns ``cols``, ``fill``
    broadcast on the others."""
    out = np.empty(data.shape[:-1] + (T,))
    out[...] = fill
    out[..., cols] = data
    return out


@dataclass(frozen=True)
class _Swept:
    """A fit whose sweeps have ended, unfinished: ``result()`` builds its
    ``FitResult`` alone.

    ``K``, ``iterations``, ``converged`` and ``elbo_trace`` are the fit's
    record.  The activation means hold the data columns ``cols`` of a
    ``T``-column observation only, and ``b_scale`` is the activation scale,
    the mean on every other column: no full-width array outlives the
    sweeps.
    """

    K: int
    iterations: int
    converged: bool
    elbo_trace: tuple
    T: int
    cols: np.ndarray
    bases: np.ndarray
    activations: np.ndarray
    b_scale: np.ndarray

    def full_activations(self) -> np.ndarray:
        """The activation means at full width: on each all-zero column,
        whose activation shape is 1, the scale ``b_scale``."""
        if self.cols.size < self.T:
            return _widen(self.activations, self.b_scale, self.cols, self.T)
        return self.activations

    def result(self) -> FitResult:
        """The ``FitResult`` of the finished model, without finishing it."""
        return FitResult(
            bases=self.bases,
            activations=self.full_activations(),
            K=self.K,
            converged=self.converged,
            iterations=self.iterations,
            elbo_trace=self.elbo_trace,
        )


def fit(X, K: int, opts: FitOptions | None = None, *, finish: bool = True):
    """Run the full variational loop until the bound stabilizes.

    A sweep is allocation update, Gamma updates, then the bound: the
    arithmetic of ``update_eta`` and ``update_variational``, with the same
    operations in the same order, fused into one pass over plain arrays,
    and the bound in the collapsed form of the module docstring, which
    needs no reconstruction and no digamma of its own: the allocation
    term, the log Gamma sums of the shapes and a few numbers per basis.
    The expected-count sums are shared by the Gamma step and the bound.
    Every per-column quantity is computed on the columns of X that hold
    data only, the random start too.  An all-zero column gets no counts,
    so its activation shape is exactly 1 and its mean the activation
    scale, from the start (scale sqrt(EPS / K)) on; its terms in the sums
    over time are folded into one constant per basis, times the number of
    such columns, so a fit sees those columns only by their count.  With
    no all-zero column this is the plain full-width sweep, whose arrays
    are bit-identical to the step functions'.  Stops when the relative
    bound change drops below ``opts.tol`` or after ``opts.max_iters``
    sweeps; a non-converged model is returned flagged, not raised.  An
    all-zero observation short-circuits after the first sweep since there
    is no mass to allocate.  At K = 1 every sweep after the first is the
    scale-only sweep of the module docstring, in plain floats, with one
    log call for both scales; the final log means are rebuilt once from
    the shapes' digammas.

    A sweep works in place in buffers allocated once per fit, but for the
    Gamma step's scales, means and log means, which it allocates anew
    every sweep.  Three buffers are M x K x T: the shifted logits, the
    allocation and the expected counts;
    the returned model keeps the allocation one.  The counts' sums over t
    and over m share one buffer of M K + K T entries, where one call adds 1
    to make them the basis and activation shapes; a second buffer of that
    size takes both shapes' digammas, then both their log Gammas.  The
    bound's elementwise part, alloc - sum log Gamma(a) - sum log Gamma(b),
    is one dot product: the expected counts, -x and -1 against the
    shifted logits, log s and the log Gammas, each pair of operands held
    as views into two flat buffers.  A finite bound has every shape and
    scale of its sweep finite, so the next sweep's logits are finite: only
    the start's are checked, and a non-finite one is named by its
    full-width index.

    The sweeps end in an unfinished state on the data columns.  Finishing
    it widens the final locals into the full-width model, whose allocation
    on the all-zero columns comes from the log means the last sweep
    started from; no control estimates are computed, since no update reads
    them.  With ``finish=False`` the unfinished state is returned instead,
    carrying ``K``, ``iterations``, ``converged`` and ``elbo_trace``;
    ``select_order`` passes it, and takes only the kept order's
    ``result()``, whose activations are widened as finishing widens them.
    """
    opts = opts or FitOptions()
    X = _as_observation(X)
    M, T = X.shape
    cols, x = _data_columns(X)
    n0 = T - cols.size
    a_shape, a_scale, b_shape, b_scale = _start(x, T, K, opts.seed)
    rate_u, rate_w = FactorModel.prior_rate_u, FactorModel.prior_rate_w
    if not (rate_u > 0 and rate_w > 0):
        raise NumericalDomainError("prior rates must be positive for the bound")

    # the bound's terms that no sweep changes: the data term and the
    # priors' log rates
    fixed = -float(special.gammaln(x + 1.0).sum()) + K * (
        M * math.log(rate_u) + T * math.log(rate_w)
    )
    log_bases = special.psi(a_shape) + np.log(a_scale)
    log_activations = special.psi(b_shape) + np.log(b_scale)
    # the start's logits; a finite bound makes the next sweep's finite
    if not (np.isfinite(log_bases).all() and np.isfinite(log_activations).all()):
        logits = log_bases[:, :, None] + log_activations[None, :, :]
        raise _logit_error(_first_non_finite(logits, cols if n0 else None))
    sum_w = np.add.reduce(b_shape * b_scale, axis=1)
    # an all-zero column starts where every sweep leaves it, at shape 1 and
    # one scale a basis: its column scale, the mean its random draw had
    b_scale = np.full((K, 1), math.sqrt(EPS / K))
    sum_w += n0 * b_scale[:, 0]

    # the buffers of the docstring: the bound's dot product is of weights
    # [kappa, -x, -1] with terms [l, log s, log Gamma(shapes)].  over_k
    # holds the logits' max over k, then their exponentials' sum s, then
    # log s; gammas the shapes' digammas, then their log Gammas
    T_data = x.shape[1]
    n_shapes = M * K + K * T_data
    weights = np.empty(M * (K + 1) * T_data + n_shapes)
    terms = np.empty_like(weights)
    e_kappa, neg_x, minus_ones = _split(weights, (M, K, T_data), (M, T_data), (n_shapes,))
    logits, over_k, gammas = _split(terms, (M, K, T_data), (M, 1, T_data), (n_shapes,))
    np.negative(x, out=neg_x)
    minus_ones.fill(-1.0)
    x = x[:, None, :]  # broadcasts against eta
    eta = np.empty_like(logits)
    # kappa_u and kappa_w, then the shapes 1 + kappa
    shapes = np.empty(n_shapes)
    a_shape, b_shape = _split(shapes, (M, K), (K, T_data))
    a_psi, b_psi = _split(gammas, (M, K), (K, T_data))
    ones_m = np.ones(M)
    summed, peak, dot = np.add.reduce, np.maximum.reduce, np.dot

    trace: list[float] = []
    converged = False
    previous = None
    for _ in range(opts.max_iters):
        if K == 1 and trace:
            # the scale-only sweep of the docstring: at K = 1 the allocation
            # is 1, so the shapes and the bound's elementwise part are the
            # first sweep's
            s = 1.0 / (sum_w.item() + rate_u)
            bases = np.multiply(a_shape, s)
            q = 1.0 / (summed(bases, axis=0).item() + rate_w)
            activations = np.multiply(b_shape, q)
            sum_w = summed(activations, axis=1)
            if n0:
                sum_w += n0 * q
            log_s, log_q = np.log([s, q]).tolist()
            c = counts[0]
            elbo = elementwise + ((log_s + 1.0 - rate_u * s) * (M + c) + (T + c) * log_q)
        else:
            # this sweep's allocation reads log_bases, and on the empty
            # columns the log means of the previous activations, whose scale
            # is b_scale
            eta_bases, before = log_bases, b_scale

            # _eta, with the shifted logits kept for the allocation term
            np.add(log_bases[:, :, None], log_activations, out=logits)
            logits -= peak(logits, axis=1, out=over_k, keepdims=True)
            np.exp(logits, out=eta)
            eta /= summed(eta, axis=1, out=over_k, keepdims=True)

            # the expected counts of update_variational and lower_bound, and
            # their sums over t and m
            np.multiply(x, eta, out=e_kappa)
            summed(e_kappa, axis=2, out=a_shape)
            summed(e_kappa, axis=0, out=b_shape)
            counts = dot(ones_m, a_shape).tolist()  # c_k, for the bound

            # update_variational.  Each denominator is a sum of the fit's
            # Gamma means plus a rate of 1, so its floor can never apply here
            shapes += 1.0
            special.psi(shapes, out=gammas)
            a_scale = np.reciprocal(np.add(sum_w[None, :], rate_u))
            a_log_scale = np.log(a_scale)
            bases = np.multiply(a_shape, a_scale)
            log_bases = np.add(a_psi, a_log_scale)
            b_scale = np.reciprocal(np.add(summed(bases, axis=0)[:, None], rate_w))
            b_log_scale = np.log(b_scale)
            activations = np.multiply(b_shape, b_scale)
            log_activations = np.add(b_psi, b_log_scale)
            sum_w = summed(activations, axis=1)
            if n0:
                sum_w += n0 * b_scale[:, 0]

            # lower_bound, collapsed (see the module docstring): the
            # allocation term less the log Gamma sums, then one term per
            # basis in plain floats.  An all-zero column's b is 1, so its
            # log Gamma is 0 and it counts in T alone
            np.log(over_k, out=over_k)
            special.gammaln(shapes, out=gammas)
            elbo = elementwise = fixed - float(dot(weights, terms))
            for c, s, log_s, log_q in zip(
                counts, a_scale.tolist()[0], a_log_scale.tolist()[0], b_log_scale.T.tolist()[0]
            ):
                elbo += (log_s + 1.0 - rate_u * s) * (M + c) + (T + c) * log_q
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

    if K == 1 and len(trace) > 1:
        # the scale-only sweeps keep their scales as floats and no log
        # means; gammas holds log Gammas, so the digammas are taken again.
        # At K = 1 any finite log means give the allocation 1
        a_scale, b_scale = np.full((1, 1), s), np.full((1, 1), q)
        special.psi(shapes, out=gammas)
        log_bases, log_activations = np.add(a_psi, log_s), np.add(b_psi, log_q)
        eta_bases, before = log_bases, b_scale
    swept = _Swept(
        K=K, iterations=len(trace), converged=converged, elbo_trace=tuple(trace),
        T=T, cols=cols, bases=bases, activations=activations, b_scale=b_scale,
    )
    if not finish:
        return swept
    if n0:
        # the last sweep's allocation on the all-zero columns, from the log
        # means it started from
        empty = _eta(eta_bases, special.psi(1.0) + np.log(before))
        eta = _widen(eta, empty, cols, T)
        log_activations = _widen(log_activations, special.psi(1.0) + np.log(b_scale), cols, T)
        b_shape = _widen(b_shape, 1.0, cols, T)
    return FactorModel(
        bases=bases, activations=swept.full_activations(), log_bases=log_bases,
        log_activations=log_activations, eta=eta, a_shape=a_shape, a_scale=a_scale,
        b_shape=b_shape, b_scale=b_scale, K=K, prior_rate_u=rate_u, prior_rate_w=rate_w,
        converged=converged, iterations=swept.iterations, elbo_trace=swept.elbo_trace,
    )


def select_order(
    X,
    k_min: int,
    k_max: int,
    opts: FitOptions | None = None,
    with_trace: bool = False,
):
    """Pick the basis count maximizing the converged lower bound.

    Fits every K in [k_min, k_max] with a seed derived per K, and returns
    the argmax and its ``FitResult``; ties resolve toward the smaller K.
    Each fit's sweeps cost time in the columns of X that hold data.  The
    result is ``fit(X, K, ...).result()`` at the kept order and its seed,
    bit for bit, but no order's full-width model is built.  With
    ``with_trace`` the orders' ``(K, elbo, converged)`` scores come third.
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
    result = best.result()
    if with_trace:
        return best.K, result, scores
    return best.K, result
