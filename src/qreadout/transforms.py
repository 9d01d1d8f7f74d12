"""Windowed spectral transforms on complex amplitude arrays.

A register state is a complex 1-D ``np.ndarray`` of K amplitudes.  The
constant-Q transform and its inverse, used around the basis-partitioning
step, are one diagonal phase/window modulation: O(K) per register, applied
to every register of a stack along the last axis.  The inverse windowed
short-time transform (applied by :mod:`qreadout.recovery` with a unit
window for the concentration step) and the unitary DFT are dense O(K^2)
matrix applications to one register; no fast path is needed at the
scales this package targets (K <= 1024).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class WindowSpec:
    """Window parameters: shift h, register size K, taper on/off."""

    shift: int
    size: int
    unit_window: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"window size must be >= 1, got {self.size}")

    def values(self, offsets: np.ndarray) -> np.ndarray:
        """Window weight at each integer offset: 1 everywhere when unit, or
        at size 1, since a one-sample window has no taper."""
        if self.unit_window or self.size == 1:
            return np.ones_like(np.asarray(offsets, dtype=float))
        return hann_window(np.asarray(offsets, dtype=float), self.size)


@dataclass(frozen=True)
class ProbTable:
    """Measurement distribution over register positions j = 0..K-1.

    ``probabilities[j]`` is the closed-form measurement mass at position j
    (concentrated at the peak position); ``residual_mass`` is the squared
    amplitude the closed form leaves unassigned (the cross terms whose
    phase sums do not vanish), exposed rather than silently dropped.
    """

    probabilities: np.ndarray
    peak_index: int
    residual_mass: float = 0.0

    def total(self) -> float:
        return float(self.probabilities.sum())

    def peak_probability(self) -> float:
        return float(self.probabilities[self.peak_index])

    def to_dict(self) -> dict:
        return {
            "probabilities": [float(p) for p in self.probabilities],
            "peak_index": int(self.peak_index),
            "residual_mass": float(self.residual_mass),
        }


def hann_window(x, K: int):
    """Cosine taper 0.5 * (1 - cos(2 pi x / (K - 1))) at integer offset x."""
    if K < 2:
        raise ValidationError(f"window requires K >= 2, got {K}")
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.asarray(x, dtype=float) / (K - 1)))


def as_state(state, size: int | None = None, *, stacked: bool = False) -> np.ndarray:
    """``state`` as a complex register: a 1-D array, or with ``stacked``
    an array of any rank >= 1 holding one register per last-axis row.

    ``size``, when given, is the number of amplitudes a register must
    hold.  Raises ``DimensionError`` otherwise.
    """
    amps = np.asarray(state, dtype=complex)
    if amps.ndim != 1 and not (stacked and amps.ndim > 1):
        raise DimensionError(f"amplitudes must be 1-D, got ndim={amps.ndim}")
    if size is not None and amps.shape[-1] != size:
        raise DimensionError(
            f"state length {amps.shape[-1]} does not match transform size {size}"
        )
    return amps


def _modulate(state, w: WindowSpec, k: int, sign: int) -> np.ndarray:
    """Scale amplitude j of each register along the last axis by
    (1/sqrt(K)) * f_W(j - h) * exp(sign * 2 pi i j Q / h), Q = h k / K."""
    amps = as_state(state, w.size, stacked=True)
    K = w.size
    j = np.arange(K)
    q = w.shift * k / K
    coeff = (
        w.values(j - w.shift)
        * np.exp(sign * 2j * np.pi * j * q / w.shift)
        / np.sqrt(K)
    )
    return coeff * amps


def cqt(state, w: WindowSpec, k: int) -> np.ndarray:
    """Constant-Q modulation at frequency index k.

    The output amplitude at position j is the input amplitude scaled by
    (1/sqrt(K)) * f_W(j - h) * exp(2 pi i j Q / h) with Q = h k / K, so the
    transform acts diagonally on the register.  ``state`` may be a stack of
    registers; each last-axis row is modulated.
    """
    if w.shift < 1:
        raise ValidationError("constant-Q transform requires shift h >= 1")
    return _modulate(state, w, k, 1)


def icqt(state, w: WindowSpec, k: int) -> np.ndarray:
    """Inverse constant-Q modulation: conjugated phase, same window."""
    if w.shift < 1:
        raise ValidationError("inverse constant-Q transform requires shift h >= 1")
    return _modulate(state, w, k, -1)


def idstft_matrix(w: WindowSpec) -> np.ndarray:
    """Dense inverse short-time transform matrix M[j, k]."""
    if not 0 <= w.shift <= w.size - 1:
        raise ValidationError(
            f"window shift must satisfy 0 <= h <= K-1, got h={w.shift}, K={w.size}"
        )
    K = w.size
    j = np.arange(K)[:, None]
    k = np.arange(K)[None, :]
    window = w.values(np.arange(K) - w.shift)[:, None]
    return window * np.exp(-2j * np.pi * j * k / K) / np.sqrt(K)


def idstft(state, w: WindowSpec) -> np.ndarray:
    """Inverse windowed short-time transform (matrix application).

    With a unit window this coincides row-for-row with the inverse DFT
    matrix and is unitary; a tapered window breaks unitarity by design.
    """
    amps = as_state(state, w.size)
    return idstft_matrix(w) @ amps


def dft_matrix(size: int) -> np.ndarray:
    j = np.arange(size)[:, None]
    k = np.arange(size)[None, :]
    return np.exp(2j * np.pi * j * k / size) / np.sqrt(size)


def dft(state, size: int) -> np.ndarray:
    """Unitary discrete Fourier transform of a length-``size`` state."""
    if size < 1:
        raise ValidationError(f"DFT size must be >= 1, got {size}")
    amps = as_state(state, size)
    return dft_matrix(size) @ amps


def synthesize_offsets(K: int, cluster_size: int) -> np.ndarray:
    """Canonical residual-cluster offsets: distinct nonzero multiples.

    Returns K - cluster_size offsets x_r = r * delta with the step delta
    chosen so all offsets stay distinct and nonzero modulo K.
    """
    K2 = K - cluster_size
    if K2 < 0:
        raise ValidationError(
            f"cluster size {cluster_size} exceeds register size {K}"
        )
    if K2 == 0:
        return np.zeros(0, dtype=int)
    delta = max(1, K // (K2 + 1))
    return delta * np.arange(1, K2 + 1)


def superposition(K: int, k1: int, offsets_per_cluster: list[np.ndarray]) -> np.ndarray:
    """Amplitude-1/sqrt(K) superposition over anchored register positions.

    Cluster m's member with offset x occupies position (k1 + x) mod K.
    Target-cluster members all carry offset zero and accumulate coherently
    on the anchor position; distinct members of other clusters must map to
    distinct free positions.
    """
    if K < 1:
        raise ValidationError(f"register size must be >= 1, got {K}")
    alpha = 1.0 / np.sqrt(K)
    amps = np.zeros(K, dtype=complex)
    anchor = k1 % K
    occupied: set[int] = set()
    for m, offsets in enumerate(offsets_per_cluster):
        for x in np.asarray(offsets, dtype=int):
            if m == 0:
                if x != 0:
                    raise ValidationError(
                        "target-cluster offsets must all be zero"
                    )
                amps[anchor] += alpha
                continue
            if x % K == 0:
                raise ValidationError(
                    "residual-cluster offsets must be nonzero modulo K"
                )
            idx = (anchor + int(x)) % K
            if idx == anchor or idx in occupied:
                raise ValidationError(
                    f"offset collision: position {idx} already occupied"
                )
            occupied.add(idx)
            amps[idx] += alpha
    return amps

