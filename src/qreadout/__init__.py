"""Blind two-source quantum-register readout pipeline, simulated classically.

Stages: synthetic register simulation, variational Poisson-Exponential
nonnegative factorization with order selection, constant-Q transforms,
basis partitioning, target-source recovery, and SNR-based retrieval
verification.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DimensionError,
    NumericalDomainError,
    QReadoutError,
    StateError,
    ValidationError,
)
from .register import (
    GroundTruth,
    ObservationMatrix,
    RegisterConfig,
    generate_input,
    observe,
)
from .bnmf import FactorModel, FitOptions, FitResult, fit, select_order
from .transforms import ProbTable, WindowSpec, cqt, dft, hann_window, icqt, idstft
from .partition import BasisPartition, PartitionTensors, assign, contract, fit_partition, score, transform_bases
from .recovery import ClusteredBases, RecoveryResult, build_superposition, extract_target, finalize, regroup
from .snr import EnergySpec, SnrReport, delta, energy, snr_report, sweep_curve

__all__ = [
    "__version__",
    "QReadoutError",
    "ConfigurationError",
    "ValidationError",
    "DimensionError",
    "NumericalDomainError",
    "StateError",
    "RegisterConfig",
    "GroundTruth",
    "ObservationMatrix",
    "generate_input",
    "observe",
    "FitOptions",
    "FactorModel",
    "FitResult",
    "fit",
    "select_order",
    "WindowSpec",
    "ProbTable",
    "hann_window",
    "cqt",
    "icqt",
    "idstft",
    "dft",
    "PartitionTensors",
    "BasisPartition",
    "transform_bases",
    "contract",
    "fit_partition",
    "score",
    "assign",
    "ClusteredBases",
    "RecoveryResult",
    "regroup",
    "build_superposition",
    "extract_target",
    "finalize",
    "EnergySpec",
    "SnrReport",
    "energy",
    "delta",
    "snr_report",
    "sweep_curve",
]
