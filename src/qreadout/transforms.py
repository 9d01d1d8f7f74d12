"""Windowed spectral transforms on complex amplitude vectors.

Three stages share this module: the constant-Q transform and its inverse
(diagonal phase/window modulations used around the basis-partitioning
step), the inverse windowed short-time transform (a dense K x K matrix
application; :mod:`qreadout.recovery` applies it with a unit window for
the target-recovery concentration step), and the plain unitary DFT.

All transforms are dense O(K^2) applications; there is no fast path and
none is needed at the scales this package targets (K <= 1024).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError

LABELS = ("raw", "cqt", "icqt", "idstft", "dft")


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
        """Window weight at each integer offset (1 everywhere when unit)."""
        if self.unit_window:
            return np.ones_like(np.asarray(offsets, dtype=float))
        return hann_window(np.asarray(offsets, dtype=float), self.size)


@dataclass(frozen=True)
class SpectralState:
    """Complex amplitude vector tagged with the stage that produced it."""

    amplitudes: np.ndarray
    label: str = "raw"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise DimensionError(f"amplitudes must be 1-D, got ndim={amps.ndim}")
        if self.label not in LABELS:
            raise ValidationError(f"unknown state label {self.label!r}")

    @property
    def basis_size(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "SpectralState":
        n = self.norm()
        if n == 0.0:
            raise ValidationError("cannot normalize a zero state")
        return SpectralState(self.amplitudes / n, self.label)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_json(self) -> list[list[float]]:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]

    @classmethod
    def from_json(cls, pairs, label: str = "raw") -> "SpectralState":
        amps = np.array([complex(re, im) for re, im in pairs])
        return cls(amps, label)


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


def _check_length(state: SpectralState, size: int) -> None:
    if state.basis_size != size:
        raise DimensionError(
            f"state length {state.basis_size} does not match transform size {size}"
        )


def cqt(state: SpectralState, w: WindowSpec, k: int) -> SpectralState:
    """Constant-Q modulation at frequency index k.

    The output amplitude at position j is the input amplitude scaled by
    (1/sqrt(K)) * f_W(j - h) * exp(2 pi i j Q / h) with Q = h k / K, so the
    transform acts diagonally on the register.
    """
    if w.shift < 1:
        raise ValidationError("constant-Q transform requires shift h >= 1")
    _check_length(state, w.size)
    K = w.size
    j = np.arange(K)
    q = w.shift * k / K
    coeff = (
        w.values(j - w.shift)
        * np.exp(2j * np.pi * j * q / w.shift)
        / np.sqrt(K)
    )
    return SpectralState(coeff * state.amplitudes, "cqt")


def icqt(state: SpectralState, w: WindowSpec, k: int) -> SpectralState:
    """Inverse constant-Q modulation: conjugated phase, same window."""
    if w.shift < 1:
        raise ValidationError("inverse constant-Q transform requires shift h >= 1")
    _check_length(state, w.size)
    K = w.size
    j = np.arange(K)
    q = w.shift * k / K
    coeff = (
        w.values(j - w.shift)
        * np.exp(-2j * np.pi * j * q / w.shift)
        / np.sqrt(K)
    )
    return SpectralState(coeff * state.amplitudes, "icqt")


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


def idstft(state: SpectralState, w: WindowSpec) -> SpectralState:
    """Inverse windowed short-time transform (matrix application).

    With a unit window this coincides row-for-row with the inverse DFT
    matrix and is unitary; a tapered window breaks unitarity by design.
    """
    _check_length(state, w.size)
    return SpectralState(idstft_matrix(w) @ state.amplitudes, "idstft")


def dft_matrix(size: int) -> np.ndarray:
    j = np.arange(size)[:, None]
    k = np.arange(size)[None, :]
    return np.exp(2j * np.pi * j * k / size) / np.sqrt(size)


def dft(state: SpectralState, size: int) -> SpectralState:
    """Unitary discrete Fourier transform of a length-``size`` state."""
    if size < 1:
        raise ValidationError(f"DFT size must be >= 1, got {size}")
    _check_length(state, size)
    return SpectralState(dft_matrix(size) @ state.amplitudes, "dft")


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


def superposition(K: int, k1: int, offsets_per_cluster: list[np.ndarray]) -> SpectralState:
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
    return SpectralState(amps, "raw")

