"""Target-source recovery: inverse constant-Q, regrouping, concentration.

Chains the inverse constant-Q transform over the partitioned bases, builds
the anchored register superposition for the two clusters, applies the
inverse short-time transform to concentrate the target cluster's mass on
one measurable position, and finishes with a DFT that leaves the uniform
target state over the recovered bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .partition import BasisPartition
from .register import NUM_SOURCES
from .transforms import (
    ProbTable,
    as_state,
    dft,
    icqt,
    idstft,
    superposition,
    synthesize_offsets,
)


@dataclass(frozen=True)
class ClusteredBases:
    """Inverse-transformed bases split into per-source groups.

    ``groups[m]`` holds the M x K_m block of cluster m's bases after the
    inverse constant-Q transform; ``composite`` is the recombined M x K
    matrix in original basis order.
    """

    groups: tuple
    composite: np.ndarray

    @property
    def sizes(self) -> list[int]:
        return [g.shape[1] for g in self.groups]


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of the recovery chain for the target cluster."""

    phi_star: np.ndarray
    prob_table: ProbTable | None
    fidelity_vs_target: float
    recovered_bases: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.fidelity_vs_target <= 1.0 + 1e-12:
            raise ValidationError(
                f"fidelity must lie in [0, 1], got {self.fidelity_vs_target}"
            )

    def to_dict(self) -> dict:
        return {
            "phi_star": [[float(a.real), float(a.imag)] for a in self.phi_star],
            "prob_table": None if self.prob_table is None else self.prob_table.to_dict(),
            "fidelity_vs_target": float(self.fidelity_vs_target),
            "recovered_bases": [int(k) for k in self.recovered_bases],
        }


def regroup(c_b: np.ndarray, part: BasisPartition, k: int = 0) -> ClusteredBases:
    """Invert the constant-Q transform and split bases by cluster."""
    c_b = np.asarray(c_b, dtype=complex)
    if c_b.ndim != 2:
        raise DimensionError(f"transformed bases must be a matrix, got ndim={c_b.ndim}")
    if part.assignment.shape[0] != c_b.shape[1]:
        raise DimensionError(
            f"partition covers {part.assignment.shape[0]} bases but the "
            f"transformed matrix has {c_b.shape[1]} columns"
        )
    theta = icqt(c_b, k)
    groups = tuple(theta[:, part.members(m)] for m in range(1, NUM_SOURCES + 1))
    return ClusteredBases(groups=groups, composite=theta)


def build_superposition(part: BasisPartition, k1: int) -> np.ndarray:
    """Anchored register superposition for the partitioned bases.

    Every target-cluster member carries offset zero (coherent accumulation
    on the anchor position); residual members carry the canonical distinct
    nonzero offsets of ``synthesize_offsets``.
    """
    K1, K2 = part.cluster_sizes
    K = K1 + K2
    return superposition(K, k1, K1, synthesize_offsets(K, K1))


def extract_target(state, k1: int, K: int) -> tuple[np.ndarray, ProbTable]:
    """Concentrate the anchored superposition and read the peak mass.

    Applies the unit-window inverse short-time transform literally and
    builds the measurement table: the coherent anchor amplitude lands on
    position K/k1 with its squared mass over K, other positions carry no
    table mass, and the unconcentrated cross-term mass is reported as
    ``residual_mass``.
    """
    state = as_state(state, K)
    if k1 < 1 or K % k1 != 0:
        raise ValidationError(
            f"k1={k1} must divide the register size K={K} for the "
            "measurement position K/k1 to sit on the register grid"
        )
    out = idstft(state)

    anchor = k1 % K
    peak = (K // k1) % K
    anchor_mass = float(np.abs(state[anchor]) ** 2)
    probs = np.zeros(K)
    probs[peak] = anchor_mass / K
    residual = (float(np.sum(np.abs(state) ** 2)) - anchor_mass) / K
    return out, ProbTable(probabilities=probs, peak_index=peak, residual_mass=residual)


def choose_carrier(K: int, K1: int) -> int:
    """Anchor frequency for the concentration step: k1 = K / gcd(K, K1).

    Always divides K; when the target-cluster size divides the register
    size the measurement peak lands exactly on position K1.
    """
    if K < 1:
        raise ValidationError(f"register size must be >= 1, got {K}")
    K1 = max(int(K1), 1)
    return K // math.gcd(K, K1)


def set_overlap_fidelity(recovered, target) -> float:
    """Squared overlap of uniform states over two basis-index sets."""
    a = set(int(v) for v in recovered)
    b = set(int(v) for v in target)
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter * inter / (len(a) * len(b))


def finalize(
    state,
    K1: int,
    prob_table: ProbTable | None,
    recovered_bases,
    target_bases,
) -> RecoveryResult:
    """Apply the final DFT and score the recovered target state.

    The concentrated register collapses onto the peak position, so the
    DFT input is the corresponding basis state of the K1-sized output
    register and phi_star comes out uniform with amplitude 1/sqrt(K1).
    Fidelity is the squared overlap between the uniform state over the
    recovered basis set and the one over the true target set.
    """
    if K1 < 1:
        raise ValidationError(f"output register size must be >= 1, got {K1}")
    length = as_state(state).shape[0]
    if length < K1:
        raise DimensionError(
            f"output register size {K1} exceeds the concentrated register "
            f"length {length}"
        )
    collapsed = np.zeros(K1, dtype=complex)
    collapsed[0] = 1.0
    phi_star = dft(collapsed, K1)
    return RecoveryResult(
        phi_star=phi_star,
        prob_table=prob_table,
        fidelity_vs_target=set_overlap_fidelity(recovered_bases, target_bases),
        recovered_bases=tuple(int(k) for k in recovered_bases),
    )
