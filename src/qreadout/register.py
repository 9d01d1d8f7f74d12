"""Synthetic two-source register simulation.

Generates the nonnegative M x T readout matrix that feeds the blind
separation pipeline, together with the ground truth needed to score it
afterwards.  The register holds two sources: the target input system
(channel 0) and a residual system (channel 1) whose overall magnitude is
controlled by ``residual_strength``.

Each source is a sparse spectral envelope over ``dim`` components: the
evolution horizon is split into one time window per component, component
``i`` contributes a raised-cosine bump inside window ``i``, and the two
sources occupy disjoint component bands (target: low indices, residual:
high indices).  This gives the separation stage identifiable structure and
gives the verification stage a well-defined component spectrum for each
register state.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import decode_columns, encode_columns
from .errors import ConfigurationError, DimensionError

NUM_SOURCES = 2  # target + residual; the whole pipeline is specialized to this

# Band width (components per source) and target row magnitude.  Narrow
# disjoint bands keep the two sources' level-energies far apart, which is
# what the verification stage measures; the RMS scale puts the readout in
# the factorization's informative count regime.
_BAND_WIDTH_CAP = 4
_ROW_RMS = 25.0

# the most evolution steps a config may ask for, 50 times the benchmark's
# 20000: a channel row is 8 MB there, and simulate builds a few of them.
# It bounds dim too, since horizon >= dim
MAX_HORIZON = 10**6


@dataclass(frozen=True)
class RegisterConfig:
    """Configuration of a synthetic register run.

    Parameters
    ----------
    horizon : int
        Number of evolution steps T (columns of the observation), at least
        ``dim``: each component gets its own time window; at most
        ``MAX_HORIZON``.
    dim : int
        Number of input components n (the spectral axis).
    residual_strength : float
        Frobenius-norm ratio of the residual row to the target row, in
        [0, 1].  Zero yields a clean register.
    seed : int
        64-bit seed; every stochastic draw flows from it.

    The source count is always ``NUM_SOURCES`` (target + residual).
    """

    horizon: int
    dim: int
    residual_strength: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "dim", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        s = self.residual_strength
        if isinstance(s, bool) or not isinstance(s, numbers.Real):
            raise ConfigurationError(f"residual_strength must be a real number, got {s!r}")
        # stored as a float, so the written config reads 0.0 for 0
        object.__setattr__(self, "residual_strength", float(s))
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigurationError(
                f"horizon must be >= 1 and <= {MAX_HORIZON}, got {self.horizon}"
            )
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.residual_strength <= 1.0:
            raise ConfigurationError(
                "residual_strength must lie in [0, 1], got "
                f"{self.residual_strength}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        # fewer steps than components would leave some components unobservable
        if self.horizon < self.dim:
            raise ConfigurationError(
                f"horizon must be >= dim ({self.dim}), got {self.horizon}"
            )

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "dim": self.dim,
            "residual_strength": self.residual_strength,
            "seed": self.seed,
            "num_sources": NUM_SOURCES,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegisterConfig":
        n = d.get("num_sources", NUM_SOURCES)
        if not isinstance(n, numbers.Integral) or n != NUM_SOURCES:
            raise ConfigurationError(f"num_sources must be exactly {NUM_SOURCES}, got {n!r}")
        # no coercion: __post_init__ refuses 600.5 or true where an integer belongs
        return cls(
            horizon=d["horizon"],
            dim=d["dim"],
            residual_strength=d.get("residual_strength", 0.3),
            seed=d.get("seed", 0),
        )


@dataclass(frozen=True)
class GroundTruth:
    """Planted sources underlying one register observation.

    ``source_rows`` holds the magnitude time series of the target (row 0)
    and the residual (row 1).  ``input_weights`` is the target's component
    power spectrum (sums to one); ``residual_weights`` is the residual's
    component power spectrum scaled by ``residual_strength**2`` so the two
    vectors are directly comparable.
    """

    source_rows: np.ndarray
    input_weights: np.ndarray
    residual_weights: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.source_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != NUM_SOURCES:
            raise DimensionError(
                f"source_rows must be {NUM_SOURCES} x T, got shape {rows.shape}"
            )
        if np.any(rows < 0) or not np.all(np.isfinite(rows)):
            raise ConfigurationError("source_rows must be finite and nonnegative")
        w = np.asarray(self.input_weights, dtype=float)
        r = np.asarray(self.residual_weights, dtype=float)
        if w.ndim != 1 or r.shape != w.shape:
            raise ConfigurationError(
                "input_weights and residual_weights must be vectors of one length, "
                f"got shapes {w.shape} and {r.shape}"
            )
        for name, v in (("input_weights", w), ("residual_weights", r)):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ConfigurationError(f"{name} must be finite and nonnegative")
        # written so that a NaN sum fails too
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ConfigurationError(
                f"input_weights must sum to 1 within 1e-12, got {w.sum()!r}"
            )

    @property
    def horizon(self) -> int:
        return self.source_rows.shape[1]

    def to_dict(self) -> dict:
        # each array in the column layout, for artifacts.write_json
        return {f.name: encode_columns(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class ObservationMatrix:
    """The M x T nonnegative register readout."""

    values: np.ndarray
    metadata: RegisterConfig

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        expected = (NUM_SOURCES, self.metadata.horizon)
        if vals.shape != expected:
            raise DimensionError(
                f"observation must have shape {expected}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ConfigurationError("observation entries must be finite and >= 0")

    @property
    def aggregate(self) -> np.ndarray:
        """The per-step sum over channels (the summed register magnitude)."""
        return self.values.sum(axis=0)

    def to_dict(self) -> dict:
        # the values in the column layout, for artifacts.write_json
        return {"config": self.metadata.to_dict(), "values": encode_columns(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservationMatrix":
        cfg = RegisterConfig.from_dict(d["config"])
        shape = (NUM_SOURCES, cfg.horizon)
        return cls(values=decode_columns(d["values"], "values", shape), metadata=cfg)


def component_windows(horizon: int, dim: int) -> list[slice]:
    """Time window assigned to each component (window i hosts component i)."""
    edges = _window_edges(horizon, dim)
    return [slice(edges[i], edges[i + 1]) for i in range(dim)]


def _window_edges(horizon: int, dim: int) -> np.ndarray:
    return np.linspace(0, horizon, dim + 1).astype(int)


def _bump(length: int) -> np.ndarray:
    """Raised-cosine envelope on ``length`` samples (all positive inside)."""
    if length <= 0:
        return np.zeros(0)
    t = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (t + 0.5) / length))

def _bands(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint dominant supports: target low indices, residual high."""
    width = max(1, min(_BAND_WIDTH_CAP, dim // 8))
    hi = np.arange(dim - width, dim)
    # skip component 0 when possible so the target spectrum has nonzero
    # energy under the number-operator Hamiltonian
    lo_start = 1 if dim - width > 1 else 0
    lo = np.arange(lo_start, min(lo_start + width, dim - width))
    if lo.size == 0:
        lo = np.arange(0, max(1, dim - width))
    return lo, hi


def _row_from_weights(weights: np.ndarray, edges: np.ndarray, horizon: int) -> np.ndarray:
    """A raised-cosine bump in the window of each positively weighted component."""
    row = np.zeros(horizon)
    for i in np.flatnonzero(weights > 0.0):
        start, stop = edges[i], edges[i + 1]
        row[start:stop] = np.sqrt(weights[i]) * _bump(stop - start)
    return row


def generate_input(cfg: RegisterConfig) -> GroundTruth:
    """Generate the planted target and residual sources.

    Row 0 is the target source built from the low component band; row 1 is
    the residual built from the high band and rescaled so its Frobenius
    norm is exactly ``residual_strength`` times the target's.  Deterministic
    for a fixed seed.  The config's ``horizon >= dim`` gives every component
    a nonempty time window.
    """
    rng = np.random.default_rng(cfg.seed)
    n, horizon = cfg.dim, cfg.horizon
    edges = _window_edges(horizon, n)

    lo, hi = _bands(n)

    input_weights = np.zeros(n)
    raw = rng.random(lo.size) + 0.2
    input_weights[lo] = raw / raw.sum()

    residual_shape = np.zeros(n)
    raw = rng.random(hi.size) + 0.2
    residual_shape[hi] = raw / raw.sum()

    target_row = _row_from_weights(input_weights, edges, horizon)
    rms = np.sqrt(np.mean(target_row**2))
    if rms > 0:
        target_row = target_row * (_ROW_RMS / rms)
    residual_row = _row_from_weights(residual_shape, edges, horizon)

    strength = cfg.residual_strength
    if strength == 0.0:
        residual_row = np.zeros(horizon)
        residual_weights = np.zeros(n)
    else:
        norm_t = np.linalg.norm(target_row)
        norm_r = np.linalg.norm(residual_row)
        if norm_r > 0:
            residual_row = residual_row * (strength * norm_t / norm_r)
        residual_weights = residual_shape * strength**2

    rows = np.vstack([target_row, residual_row])
    return GroundTruth(
        source_rows=rows,
        input_weights=input_weights,
        residual_weights=residual_weights,
    )


def observe(gt: GroundTruth, cfg: RegisterConfig) -> ObservationMatrix:
    """Read the register out as per-channel magnitudes of the mixed state.

    Channel m carries source m's magnitude series.
    """
    rows = np.asarray(gt.source_rows, dtype=float)
    if rows.shape != (NUM_SOURCES, cfg.horizon):
        raise DimensionError(
            f"ground truth shape {rows.shape} does not match config "
            f"({NUM_SOURCES}, {cfg.horizon})"
        )
    if gt.input_weights.shape != (cfg.dim,):
        raise DimensionError(
            f"input_weights length {gt.input_weights.shape[0]} does not match "
            f"dim {cfg.dim}"
        )
    return ObservationMatrix(values=rows.copy(), metadata=cfg)


def input_state(gt: GroundTruth) -> np.ndarray:
    """Unit-norm component-space wavefunction of the target input."""
    amps = np.sqrt(gt.input_weights).astype(complex)
    return amps / np.linalg.norm(amps)


def register_state(gt: GroundTruth) -> np.ndarray:
    """Unit-norm component-space wavefunction of the contaminated register."""
    power = gt.input_weights + gt.residual_weights
    amps = np.sqrt(power).astype(complex)
    return amps / np.linalg.norm(amps)


def spectrum_from_row(row: np.ndarray, horizon: int, dim: int) -> np.ndarray:
    """Project a magnitude time series back onto component powers.

    The power captured in each component's time window, normalized to sum
    to one (all-zero rows map to the zero vector).
    """
    row = np.asarray(row, dtype=float)
    # window i is row[edges[i]:edges[i + 1]], cut at the row's end as a slice is
    edges = np.minimum(_window_edges(horizon, dim), len(row))
    starts, lengths = edges[:-1], np.diff(edges)
    power = np.zeros(dim)
    # one (windows, length) gather per window length: summing its rows adds
    # each window in the order np.sum adds it alone
    for length in np.unique(lengths):
        group = np.flatnonzero(lengths == length)
        power[group] = (row[starts[group, None] + np.arange(length)] ** 2).sum(axis=1)
    total = power.sum()
    return power / total if total > 0 else power


def ground_truth_to_dict(gt: GroundTruth, cfg: RegisterConfig) -> dict:
    """The ``ground_truth.json`` document: the planted sources and their config."""
    return {"config": cfg.to_dict(), **gt.to_dict()}


def ground_truth_from_dict(doc: dict) -> tuple[GroundTruth, RegisterConfig]:
    cfg = RegisterConfig.from_dict(doc["config"])
    shapes = {
        "source_rows": (NUM_SOURCES, cfg.horizon),
        "input_weights": (cfg.dim,),
        "residual_weights": (cfg.dim,),
    }
    try:
        arrays = {k: decode_columns(doc[k], k, v) for k, v in shapes.items()}
    except DimensionError as exc:
        raise ConfigurationError(
            f"ground truth does not match its config (horizon {cfg.horizon}, "
            f"dim {cfg.dim}): {exc}"
        ) from exc
    return GroundTruth(**arrays), cfg
