"""Continuous level-k driver models.

Discrete level-k policies are trained per state, a multi-output GP
interpolates them over a continuous reasoning level, and observed
action distributions are fitted to a level by maximizing a
Kolmogorov-Smirnov acceptance score with simulated annealing.
"""

from .config import (
    DataConfig,
    DriverSpec,
    EnvConfig,
    FitConfig,
    GPConfig,
    KernelEntryConfig,
    MasterConfig,
    OptimizerConfig,
    RLConfig,
    SAConfig,
    SynthesisConfig,
)
from .fitting import DriverRecord, DriverReport, FitResult, LevelFitter
from .game import MixedStrategy, best_response_set, mixed_utility
from .gp import LMCParams, ModelCache, Policy, PolicyPrediction, StateGP, fit_state_gp
from .gp import kron_factors, lmc_covariance, shift_normalize
from .levelk import PolicySet, train_hierarchy

__version__ = "0.1.0"

__all__ = [
    "DataConfig",
    "DriverSpec",
    "DriverRecord",
    "DriverReport",
    "EnvConfig",
    "FitConfig",
    "FitResult",
    "GPConfig",
    "KernelEntryConfig",
    "LevelFitter",
    "LMCParams",
    "MasterConfig",
    "MixedStrategy",
    "ModelCache",
    "OptimizerConfig",
    "Policy",
    "PolicyPrediction",
    "PolicySet",
    "RLConfig",
    "SAConfig",
    "StateGP",
    "SynthesisConfig",
    "best_response_set",
    "fit_state_gp",
    "kron_factors",
    "lmc_covariance",
    "mixed_utility",
    "shift_normalize",
    "train_hierarchy",
    "__version__",
]
