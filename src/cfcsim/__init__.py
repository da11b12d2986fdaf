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
    select_range,
)
from .decoder import (
    ExponentialFit,
    Placement,
    ReconstructedSignal,
    ResampleMode,
    SweepPoint,
    fit_exponential,
    reconstruct,
    resample,
    sweep_analysis,
)
from .simulator import (
    AckModel,
    EventCapError,
    EventStream,
    Phase,
    SimResult,
    StateTrace,
    oracle_simulate,
    power_estimate,
    simulate,
    simulate_many,
)
from .stimulus import (
    FIVE_RANGE_SWEEPS,
    AdexParams,
    CurrentSignal,
    SpikeTrain,
    SweepSchedule,
    adex_neuron,
    constant,
    dpi_synapse,
    pfet_gate_sweep,
    poisson_train,
    regular_train,
    staircase_sweep,
)

__version__ = "0.1.0"
