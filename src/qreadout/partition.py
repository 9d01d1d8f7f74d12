"""Basis partitioning via a nonnegative three-tensor decomposition.

The transformed basis-activation product S (an M x T nonnegative matrix)
is decomposed into a translation tensor R (M x 1 x M), a basis tensor E
(M x K) and an activation tensor H (1 x K x T).  The contraction sums the
shared source axis of R and E and then the shared basis axis with H.
Per-basis, per-source scores from the restricted contraction drive the
assignment of each basis to one of the two source clusters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionError, StateError, ValidationError
from .transforms import WindowSpec, cqt

EPS = 1e-12
NUM_CLUSTERS = 2


@dataclass(frozen=True)
class PartitionTensors:
    """Factors of the nonnegative decomposition of S."""

    R: np.ndarray  # M x 1 x M
    E: np.ndarray  # M x K
    H: np.ndarray  # 1 x K x T
    converged: bool = False
    iterations: int = 0
    cost_trace: tuple = ()

    def __post_init__(self):
        R, E, H = (np.asarray(a, dtype=float) for a in (self.R, self.E, self.H))
        if R.ndim != 3 or R.shape[1] != 1 or R.shape[0] != R.shape[2]:
            raise DimensionError(f"R must be M x 1 x M, got {R.shape}")
        if E.ndim != 2 or E.shape[0] != R.shape[0]:
            raise DimensionError(
                f"E must be M x K with M={R.shape[0]}, got {E.shape}"
            )
        if H.ndim != 3 or H.shape[0] != 1 or H.shape[1] != E.shape[1]:
            raise DimensionError(
                f"H must be 1 x K x T with K={E.shape[1]}, got {H.shape}"
            )
        for name, a in (("R", R), ("E", E), ("H", H)):
            if not np.all(np.isfinite(a)) or np.any(a < 0):
                raise ValidationError(f"{name} entries must be finite and nonnegative")

    @property
    def num_sources(self) -> int:
        return self.R.shape[0]

    @property
    def num_bases(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True)
class BasisPartition:
    """Assignment of each of the K bases to one of the source clusters."""

    assignment: np.ndarray  # length K, entries in {1..M}
    num_clusters: int = NUM_CLUSTERS
    degenerate: tuple = ()

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1:
            raise DimensionError("assignment must be a flat vector")
        if a.size and (a.min() < 1 or a.max() > self.num_clusters):
            raise ValidationError(
                f"assignment entries must lie in 1..{self.num_clusters}"
            )

    @property
    def cluster_sizes(self) -> list[int]:
        return [
            int(np.sum(self.assignment == m))
            for m in range(1, self.num_clusters + 1)
        ]

    def members(self, m: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == m)

    def to_dict(self) -> dict:
        return {
            "assignment": self.assignment.tolist(),
            "cluster_sizes": self.cluster_sizes,
            "degenerate": list(self.degenerate),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BasisPartition":
        return cls(
            assignment=np.asarray(d["assignment"], dtype=int),
            degenerate=tuple(d.get("degenerate", ())),
        )


def transform_bases(model, w: WindowSpec, k: int = 0) -> np.ndarray:
    """Constant-Q-transform the learned bases.

    Each row of the basis matrix is treated as a register of K amplitudes
    and modulated by the transform; returns the complex M x K matrix C_B.
    The partition input is the magnitude of C_B @ activations.
    """
    if not getattr(model, "iterations", 0):
        raise StateError("transform_bases requires a fitted model")
    bases = np.asarray(model.bases, dtype=float)
    if w.size != bases.shape[1]:
        raise DimensionError(
            f"window size {w.size} does not match basis count {bases.shape[1]}"
        )
    return cqt(bases, w, k)


def contract(t: PartitionTensors) -> np.ndarray:
    """Full contraction of (R, E, H) to the M x T estimate of S.

    Sums the shared source axis of R and E, then the shared basis axis
    with H: out[m, t] = sum_i sum_k R[i, 0, m] * E[i, k] * H[0, k, t].
    """
    return np.einsum("iam,ik,akt->mt", t.R, t.E, t.H)


def score(t: PartitionTensors) -> tuple[np.ndarray, np.ndarray]:
    """Per-basis contraction scores.

    Returns ``(per_source, total)`` where per_source[m, k] restricts the
    contraction to basis k and target source m, and total[k] sums over
    sources.
    """
    h_sums = t.H[0].sum(axis=1)  # (K,)
    per_source = np.einsum("iam,ik->mk", t.R, t.E) * h_sums[None, :]
    return per_source, per_source.sum(axis=0)


def fit_partition(
    S: np.ndarray,
    K: int,
    max_iters: int = 200,
    tol: float = 1e-7,
    seed: int = 0,
    init_bases: np.ndarray | None = None,
    init_activations: np.ndarray | None = None,
) -> PartitionTensors:
    """Alternating multiplicative updates minimizing D(S || contract).

    Standard KL-divergence multiplicative rules applied to R, E and H in
    turn; each factor update is a majorize-minimize step so the cost is
    non-increasing per sweep.  The fit stops once a sweep changes the cost
    by less than ``tol`` times the larger of the previous cost and the
    data mass ``S.sum()``.  The KL cost grows with the counts, so the mass
    is its natural scale: when the start already reproduces S the cost is
    zero up to rounding, and a change relative to the cost alone would
    compare rounding noise with rounding noise and never fall below
    ``tol``.  Returns a flagged (not raised) result if the tolerance is not
    met within ``max_iters``.

    When the magnitudes of the transformed bases and the activations are
    passed as ``init_bases`` / ``init_activations``, E and H start there
    (with R near identity), which pins the decomposition's basis axis to
    the factorization's basis index instead of an arbitrary relabeling.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise DimensionError(f"S must be a matrix, got ndim={S.ndim}")
    M, T = S.shape
    if K < M:
        raise ValidationError(f"partitioning requires K >= M, got K={K}, M={M}")
    if np.any(S < 0) or not np.all(np.isfinite(S)):
        raise ValidationError("S entries must be finite and nonnegative")

    rng = np.random.default_rng(seed)
    scale = np.sqrt(S.mean() + EPS)
    R = rng.uniform(0.5, 1.5, size=(M, 1, M)) * scale
    E = rng.uniform(0.5, 1.5, size=(M, K)) * scale
    H = rng.uniform(0.5, 1.5, size=(1, K, T)) * scale
    if init_bases is not None:
        E = np.maximum(np.abs(np.asarray(init_bases, dtype=float)), EPS)
        if E.shape != (M, K):
            raise DimensionError(f"init_bases must be {M} x {K}, got {E.shape}")
        R = np.full((M, 1, M), EPS)
        R[np.arange(M), 0, np.arange(M)] = 1.0
    if init_activations is not None:
        H = np.maximum(np.asarray(init_activations, dtype=float), EPS).reshape(1, K, T)

    def model_matrix() -> np.ndarray:
        return np.maximum(np.einsum("iam,ik,akt->mt", R, E, H), EPS)

    def kl_cost(lam: np.ndarray) -> float:
        return float(np.sum(special.xlogy(S, S / lam) - S + lam))

    mass = max(float(S.sum()), EPS)
    trace = [kl_cost(model_matrix())]
    converged = False
    for sweep in range(1, max_iters + 1):
        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("ik,akt,mt->iam", E, H, ratio)
        den = np.maximum(np.einsum("ik,akt->ia", E, H), EPS)[:, :, None]
        R = R * num / den

        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("iam,akt,mt->ik", R, H, ratio)
        den = np.maximum(
            R.sum(axis=(1, 2))[:, None] * H[0].sum(axis=1)[None, :], EPS
        )
        E = E * num / den

        lam = model_matrix()
        ratio = S / lam
        num = np.einsum("iam,ik,mt->akt", R, E, ratio)
        den = np.maximum(np.einsum("iam,ik->ak", R, E), EPS)[:, :, None]
        H = H * num / den

        cost = kl_cost(model_matrix())
        trace.append(cost)
        rel = abs(trace[-2] - cost) / max(abs(trace[-2]), mass)
        if rel < tol:
            converged = True
            break

    return PartitionTensors(
        R=R,
        E=E,
        H=H,
        converged=converged,
        iterations=len(trace) - 1,
        cost_trace=tuple(trace),
    )


def assign(t: PartitionTensors) -> BasisPartition:
    """Assign every basis to the source cluster with the largest score.

    Ties break toward the smaller cluster index; an all-zero score column
    goes to cluster 1 and is reported in ``degenerate``.
    """
    per_source, _ = score(t)
    M, K = per_source.shape
    assignment = np.ones(K, dtype=int)
    degenerate = []
    for k in range(K):
        col = per_source[:, k]
        if np.all(col == 0.0):
            degenerate.append(k)
            continue
        assignment[k] = int(np.argmax(col)) + 1
    if degenerate:
        warnings.warn(
            f"bases {degenerate} have all-zero scores; assigned to cluster 1",
            RuntimeWarning,
            stacklevel=2,
        )
    return BasisPartition(
        assignment=assignment,
        num_clusters=M,
        degenerate=tuple(degenerate),
    )
