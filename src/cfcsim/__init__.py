"""Behavioral simulator and decoder for an auto-ranging current-to-frequency
monitor, with stimulus generators and a reproducible experiment harness."""

from .core import (
    DEFAULT_CONFIG,
    CfcConfig,
    ConfigError,
    Polarity,
    RangeSelect,
    dead_time,
    decode,
    ideal_isi,
    ideal_rate,
    rectify,
    select_ranges,
)
from .decoder import (
    ExponentialFit,
    ReconstructedSignal,
    SweepPoint,
    fit_exponential,
    reconstruct,
    sweep_analysis,
)
from .simulator import (
    AckModel,
    EventCapError,
    EventStream,
    Phase,
    SimResult,
    StateTrace,
    power_estimate,
    simulate,
)
from .stimulus import (
    FIVE_RANGE_SWEEPS,
    AdexParams,
    CurrentSignal,
    SpikeTrain,
    adex_neuron,
    constant,
    dpi_synapse,
    pfet_gate_sweep,
    poisson_train,
    regular_train,
    staircase_sweep,
)

__version__ = "0.1.0"
