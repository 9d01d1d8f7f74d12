"""Spectral transforms on complex amplitude arrays.

A register state is a complex 1-D ``np.ndarray`` of K amplitudes.  The
constant-Q transform and its inverse, used around the basis-partitioning
step, are one diagonal phase modulation: O(K) per register, applied to
every register of a stack along the last axis.  The inverse short-time
transform (applied by :mod:`qreadout.recovery` for the concentration
step) and the DFT are dense, unitary O(K^2) matrix applications to one
register; no fast path is needed at the scales this package targets
(K <= 1024).  Every transform uses the unit window, so every one of them
is unitary up to the constant-Q transform's 1/sqrt(K) scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError


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


def _modulate(state, k: int, sign: int) -> np.ndarray:
    """Scale amplitude j of each register along the last axis by
    (1/sqrt(K)) * exp(sign * 2 pi i j k / K)."""
    amps = as_state(state, stacked=True)
    K = amps.shape[-1]
    j = np.arange(K)
    return np.exp(sign * 2j * np.pi * j * k / K) / np.sqrt(K) * amps


def cqt(state, k: int) -> np.ndarray:
    """Constant-Q modulation at frequency index k.

    The output amplitude at position j is the input amplitude scaled by
    (1/sqrt(K)) * exp(2 pi i j k / K), where K is the register size (the
    last axis), so the transform acts diagonally on the register.
    ``state`` may be a stack of registers; each last-axis row is modulated.
    """
    return _modulate(state, k, 1)


def icqt(state, k: int) -> np.ndarray:
    """Inverse constant-Q modulation: the conjugated phase."""
    return _modulate(state, k, -1)


def idstft_matrix(K: int) -> np.ndarray:
    """Dense inverse short-time transform matrix M[j, k] = exp(-2 pi i j k / K) / sqrt(K)."""
    j = np.arange(K)[:, None]
    k = np.arange(K)[None, :]
    return np.exp(-2j * np.pi * j * k / K) / np.sqrt(K)


def idstft(state) -> np.ndarray:
    """Inverse short-time transform of one register (matrix application).

    The window is the unit window, so the transform is the unitary inverse
    DFT of the register's length.
    """
    amps = as_state(state)
    return idstft_matrix(amps.shape[0]) @ amps


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


def superposition(K: int, k1: int, K1: int, residual_offsets) -> np.ndarray:
    """Amplitude-1/sqrt(K) superposition over anchored register positions.

    The K1 target-cluster members accumulate coherently on the anchor
    position k1 mod K; the residual member with offset x occupies position
    (k1 + x) mod K, and distinct residual members must map to distinct free
    positions.
    """
    if K < 1:
        raise ValidationError(f"register size must be >= 1, got {K}")
    alpha = 1.0 / np.sqrt(K)
    amps = np.zeros(K, dtype=complex)
    anchor = k1 % K
    # one addition per member, in order: K1 * alpha may differ in the last bit
    for _ in range(K1):
        amps[anchor] += alpha
    occupied: set[int] = set()
    for x in np.asarray(residual_offsets, dtype=int):
        if x % K == 0:
            raise ValidationError("residual-cluster offsets must be nonzero modulo K")
        idx = (anchor + int(x)) % K
        if idx in occupied:
            raise ValidationError(f"offset collision: position {idx} already occupied")
        occupied.add(idx)
        amps[idx] += alpha
    return amps
