"""Retrieval-efficiency verification: wavefunction energies and output SNR.

The verification oracle scores a state by its Rayleigh quotient against
the number operator diag(0..L-1).  From the three energies S (input),
X (register) and T (output) it derives the energy ratios, their difference
delta, and the SNR figures in dB.

The primary output SNR is 10*log10(S/T).  The additive delta of the ratio
difference and the multiplicative decomposition of the dB chain agree only
when S/T = delta * S/X, so the report carries both forms and a consistency
flag instead of forcing them together.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalDomainError


@dataclass(frozen=True)
class SnrReport:
    """Energies, ratios and dB figures of one verification run.

    ``delta_snr_db`` is the dB image of delta (so 10**(delta_snr_db/10)
    recovers delta exactly); ``snr_difference_db`` is the literal
    difference of the two SNR figures.  ``chain_consistent`` records
    whether the multiplicative dB decomposition reproduces the primary
    output SNR within 1e-9 dB.
    """

    S: float
    X: float
    T: float
    r_st: float
    r_sx: float
    delta: float
    snr_out_db: float
    snr_register_db: float
    delta_snr_db: float
    snr_difference_db: float
    chain_consistent: bool
    no_gain: bool

    def to_dict(self) -> dict:
        return asdict(self)


def energy(state) -> float:
    """Rayleigh quotient <psi|N|psi> / <psi|psi> of a state under the
    number operator N = diag(0..L-1), applied as its diagonal in O(L).

    Invariant under global phase and rescaling; the imaginary residual of
    the quotient must stay below 1e-12 relative, which the Hermitian N
    guarantees up to rounding.
    """
    amps = np.asarray(state, dtype=complex)
    h_amps = np.arange(amps.shape[0]) * amps
    norm_sq = float(np.real(np.vdot(amps, amps)))
    if norm_sq == 0.0:
        raise NumericalDomainError("cannot score a zero-norm state")
    value = complex(np.vdot(amps, h_amps)) / norm_sq
    scale = max(abs(value), 1.0)
    if abs(value.imag) > 1e-12 * scale:
        raise NumericalDomainError(
            f"energy has a non-negligible imaginary part: {value.imag!r}"
        )
    return float(value.real)


def snr_report(S: float, X: float, T: float) -> SnrReport:
    """Assemble the full SNR report from the three energies.

    Requires strictly positive energies.  When delta <= 0 the report is
    flagged ``no_gain`` and the dB image of delta is NaN (there is no real
    logarithm); everything real-valued is still computed.
    """
    for name, value in (("S", S), ("X", X), ("T", T)):
        if not value > 0.0:
            raise NumericalDomainError(
                f"snr_report requires positive energies, got {name}={value!r}"
            )
    r_st = S / T
    r_sx = S / X
    d = r_st - r_sx
    snr_out = 10.0 * np.log10(r_st)
    snr_reg = 10.0 * np.log10(r_sx)
    difference = snr_out - snr_reg

    no_gain = not d > 0.0
    if no_gain:
        delta_db = float("nan")
        chain = False
    else:
        delta_db = 10.0 * np.log10(d)
        # multiplicative decomposition of the chain: valid iff r_st = d * r_sx
        decomposed = 10.0 * (np.log10(d) + np.log10(r_sx))
        chain = bool(abs(decomposed - snr_out) <= 1e-9)

    return SnrReport(
        S=float(S),
        X=float(X),
        T=float(T),
        r_st=float(r_st),
        r_sx=float(r_sx),
        delta=float(d),
        snr_out_db=float(snr_out),
        snr_register_db=float(snr_reg),
        delta_snr_db=float(delta_db),
        snr_difference_db=float(difference),
        chain_consistent=chain,
        no_gain=no_gain,
    )


def sweep_curve(r_sx: float, delta_grid) -> list[tuple[float, float]]:
    """Analytic output-SNR curve over a grid of delta values.

    snr_out_db(delta) = 10*log10(delta + r_sx); grid points with a
    nonpositive ratio are skipped with a diagnostic.
    """
    rows = []
    for d in delta_grid:
        ratio = d + r_sx
        if not ratio > 0.0:
            warnings.warn(
                f"skipping delta={d!r}: ratio {ratio!r} is not positive",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        rows.append((float(d), float(10.0 * np.log10(ratio))))
    return rows
