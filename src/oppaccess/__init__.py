"""Opportunistic spectrum access toolkit.

Models packet-based primary-channel idle times as exponential mixtures
modulated by a semi-Markov chain, fits those mixtures from data, builds
collision-budgeted secondary transmission strategies under three levels of
traffic-state knowledge, and validates their predicted capacity and
collision probability by discrete-event simulation.
"""

from .distribution import HyperExpDist, exponential
from .errors import ConfigError, DataError, ModelError, OppaccessError, SolverError
from .fit import FitResult, TailDiagnostics, WindowedFit, em_fit, tail_diagnostics, windowed_fit
from .simulate import SimResult, run
from .smmpp import (
    IdleTrace,
    NonstationarySchedule,
    SmmppModel,
    generate,
    generate_nonstationary,
    steady_state,
)
from .strategies import (
    Episode,
    Strategy,
    StrategyPrediction,
    always_transmit,
    full_balanced,
    full_optimal,
    markov_opt_balanced,
    markov_optimal,
    markov_os_balanced,
    markov_os_suboptimal,
    multiple_shot,
    predict,
    stat_one_shot,
    stat_optimal,
)
from .traceio import read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataError", "Episode", "FitResult", "HyperExpDist",
    "IdleTrace", "ModelError", "NonstationarySchedule", "OppaccessError",
    "SimResult", "SmmppModel", "SolverError", "Strategy", "StrategyPrediction",
    "TailDiagnostics", "WindowedFit", "always_transmit", "em_fit",
    "exponential", "full_balanced", "full_optimal",
    "generate", "generate_nonstationary", "markov_opt_balanced",
    "markov_optimal", "markov_os_balanced", "markov_os_suboptimal",
    "multiple_shot", "predict", "read_trace", "run",
    "stat_one_shot", "stat_optimal", "steady_state", "tail_diagnostics",
    "windowed_fit", "write_trace",
]
