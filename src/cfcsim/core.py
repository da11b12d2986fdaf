"""Static transfer functions of the auto-ranging current monitor.

The monitor turns an analog current into a pulse train: the rectified
input (or a copy of it divided by ``beta``) discharges one of two
integrating capacitors from ``v_ref_h`` down to ``v_ref_l``, and every
threshold crossing emits one event.  Currents below the range threshold
``i_sw`` use the small capacitor ``c1`` directly; currents at or above it
take the divided path onto the ``alpha``-times larger capacitor, so the
event rate on the high range is compressed by ``alpha * beta``.

Everything in this module is a pure function of its arguments and safe to
call concurrently.  The event-driven machinery (handshake, reset pulse,
non-idealities) lives in :mod:`cfcsim.simulator`.  This module is the one
home of the transfer rules, :func:`rectify`, :func:`above_floor`,
:func:`above_valid`, :func:`thresholds`, :func:`select_ranges` and the
per-range capacitance :attr:`CfcConfig.caps`, and of the algebra shared
by the simulator and the decoder:

    rate(i)    = i / (caps[range] * delta_v)
    decode(dt) = caps[range] * delta_v / (dt - dead_time)
    dead_time  = t_rst + ack latency + ack jitter / 2
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .simulator import AckModel


class ConfigError(ValueError):
    """A configuration, stimulus or experiment description is invalid."""


#: Rows of run-length numpy columns turned into Python objects at a time,
#: so that a loop over them holds one block, not the run, as objects.
_BLOCK = 8192


def _block_rows(*columns):
    """The rows of equal-length numpy columns as tuples of Python
    scalars, converted ``_BLOCK`` rows at a time."""
    return itertools.chain.from_iterable(
        zip(*(c[lo:lo + _BLOCK].tolist() for c in columns)) for lo in range(0, len(columns[0]), _BLOCK)
    )


def _number(value, key: str, context: str, integer: bool = False):
    """Check one numeric value read from a description file.

    Returns ``value`` when it is a real number that is finite as a float
    (and, with ``integer``, has no fractional part; it is then returned
    as an int).  Anything else, such as null, a string, a boolean, NaN,
    an infinity or an integer too large for a float, raises a
    :class:`ConfigError` that names ``key`` and its ``context``.
    """
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        ok = False
    if ok and integer:
        ok = isinstance(value, numbers.Integral) or float(value).is_integer()
    if not ok:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{context}: {key!r} must be {kind}, got {value!r}")
    return int(value) if integer else value


class Polarity(Enum):
    """Which sign of monitored current the input selector accepts.

    ``SINK_N`` passes positive currents (the monitor sinks them),
    ``SOURCE_P`` passes negative currents (the monitor sources them).
    The blocked sign contributes zero current.
    """

    SOURCE_P = "source_p"
    SINK_N = "sink_n"


class RangeSelect(IntEnum):
    """Active integration range: LOW = unscaled on c1, HIGH = divided onto c2."""

    LOW = 0
    HIGH = 1


@dataclass(frozen=True)
class CfcConfig:
    """All programmable parameters of one converter channel.

    The defaults describe the reference channel used throughout the test
    suite: 100 fF small capacitor, 10x capacitor ratio, 10x current
    divider (total high-range compression 100), 1 V integration swing,
    10 nA range threshold, 0.1 us extended reset pulse and a 5.5 pA
    leakage floor below which no events are produced.
    """

    c1: float = 100e-15             # F, small integrating capacitor
    alpha: float = 10.0             # c2 = alpha * c1, alpha > 1
    beta: float = 10.0              # current divide ratio on the high range, >= 1
    v_ref_h: float = 1.8            # V, integrator start voltage
    v_ref_l: float = 0.8            # V, discriminator threshold
    i_sw: float = 10e-9             # A, range-detector threshold on the rectified current
    t_rst: float = 0.1e-6           # s, extended reset-pulse width
    i_leak_floor: float = 5.5e-12   # A, inputs at or below this produce no output
    i_max_valid: float = 1e-6       # A, documented upper validity bound
    polarity: Polarity = Polarity.SINK_N
    channel_address: int = 0
    hysteresis: float = 0.0         # optional comparator hysteresis band, fraction of i_sw

    def __post_init__(self) -> None:
        if not self.c1 > 0:
            raise ConfigError(f"c1 must be positive, got {self.c1}")
        if not self.alpha > 1:
            raise ConfigError(f"alpha must exceed 1, got {self.alpha}")
        if not self.beta >= 1:
            raise ConfigError(f"beta must be >= 1, got {self.beta}")
        if not self.v_ref_h > self.v_ref_l:
            raise ConfigError(
                f"v_ref_h ({self.v_ref_h}) must exceed v_ref_l ({self.v_ref_l})"
            )
        if not self.i_sw > 0:
            raise ConfigError(f"i_sw must be positive, got {self.i_sw}")
        if not (self.t_rst >= 0 and math.isfinite(self.t_rst)):
            raise ConfigError(f"t_rst must be finite and non-negative, got {self.t_rst}")
        if not self.i_leak_floor >= 0:
            raise ConfigError(f"i_leak_floor must be non-negative, got {self.i_leak_floor}")
        if not self.i_max_valid > 0:
            raise ConfigError(f"i_max_valid must be positive, got {self.i_max_valid}")
        if not 0 <= self.hysteresis < 1:
            raise ConfigError(f"hysteresis must lie in [0, 1), got {self.hysteresis}")
        if not isinstance(self.polarity, Polarity):
            raise ConfigError(f"polarity must be a Polarity, got {self.polarity!r}")
        address = self.channel_address
        if not (isinstance(address, numbers.Integral) and not isinstance(address, bool) and 0 <= address < 2**63):
            raise ConfigError(f"channel_address must be an integer in [0, 2**63), got {address!r}")

    @property
    def delta_v(self) -> float:
        """Integration voltage swing v_ref_h - v_ref_l (strictly positive)."""
        return self.v_ref_h - self.v_ref_l

    @property
    def caps(self) -> tuple[float, float]:
        """Capacitance of each range, indexed by range: c1 and alpha * beta * c1."""
        return (self.c1, self.alpha * self.beta * self.c1)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["polarity"] = self.polarity.value
        return d

    @classmethod
    def from_dict(cls, overrides: dict) -> "CfcConfig":
        """Build a config from the defaults plus overrides.

        Unknown keys are rejected so that typos in configuration files
        fail fast instead of silently running with defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        values = {
            k: v if k == "polarity" else _number(v, k, "config", integer=k == "channel_address")
            for k, v in overrides.items()
        }
        if "polarity" in values and not isinstance(values["polarity"], Polarity):
            try:
                values["polarity"] = Polarity(values["polarity"])
            except ValueError:
                raise ConfigError(
                    f"polarity must be one of {[p.value for p in Polarity]}, got {values['polarity']!r}"
                ) from None
        return cls(**values)


#: Reference configuration shared by tests, presets and the CLI.
DEFAULT_CONFIG = CfcConfig()


def rectify(i_signed, polarity: Polarity):
    """Pass the magnitude of a matching-sign current, block the other sign.

    The input selector steers the monitored current into the converter
    only when its sign matches the configured polarity; the wrong-sign
    path is simply cut off, so this is a total function that never
    raises.  Works elementwise; a scalar gives a float.
    """
    i = np.asarray(i_signed, dtype=np.float64)
    if polarity is Polarity.SINK_N:
        return np.where(i > 0.0, i, 0.0)[()]
    return np.where(i < 0.0, -i, 0.0)[()]


def above_floor(config: CfcConfig, i_rect):
    """Whether a rectified current passes the leak floor: a hard cutoff, as a
    subtracted leak would skew readings just above it by tens of percent."""
    return i_rect > config.i_leak_floor


def above_valid(config: CfcConfig, i_rect):
    """Whether a rectified current lies past the validity bound ``i_max_valid``."""
    return i_rect > config.i_max_valid


def thresholds(config: CfcConfig) -> tuple[float, ...]:
    """The rectified levels where the transfer rules change value: the leak
    floor, ``i_sw`` and, with hysteresis, the band edge ``i_sw * (1 - h)``."""
    edge = (config.i_sw * (1.0 - config.hysteresis),) if config.hysteresis > 0.0 else ()
    return (config.i_leak_floor, config.i_sw) + edge


def select_ranges(config: CfcConfig, i_eff) -> np.ndarray:
    """The comparator's range (uint8, 0 = LOW) for each of a sequence of
    rectified currents: HIGH at or above ``i_sw`` (a real comparator is
    metastable at the tie, and HIGH keeps the rate bounded), LOW below the
    band edge ``i_sw * (1 - hysteresis)``.  Inside the band the range in
    force carries over; the sequence starts LOW."""
    i = np.asarray(i_eff, dtype=np.float64)
    if np.any(i < 0.0):
        raise ValueError(f"rectified current must be non-negative, got {i[i < 0.0][0]}")
    _, i_sw, *edge = thresholds(config)
    high = i >= i_sw
    if edge:
        decisive = high | ~(i >= edge[0])
        last = np.maximum.accumulate(np.where(decisive, np.arange(i.size), -1))
        high = (last >= 0) & high[last]
    return high.astype(np.uint8)


def ideal_rate(
    config: CfcConfig,
    i_rect: float,
    selected: Optional[RangeSelect] = None,
) -> float:
    """Event rate in Hz for a constant rectified current, ignoring dead time.

    ``selected`` defaults to the comparator's own choice; passing it
    explicitly evaluates one branch of the piecewise law, e.g. the low
    range exactly at its upper limit.
    """
    if i_rect < 0:
        raise ValueError(f"rectified current must be non-negative, got {i_rect}")
    if i_rect == 0.0:
        return 0.0
    if selected is None:
        selected = select_ranges(config, [i_rect])[0]
    return i_rect / (config.caps[selected] * config.delta_v)


def ideal_isi(
    config: CfcConfig,
    i_rect: float,
    selected: Optional[RangeSelect] = None,
) -> float:
    """Inter-event interval in seconds; ``inf`` signals "no event ever".

    Exact reciprocal of :func:`ideal_rate`.  Zero input charges nothing,
    so the interval is unbounded and ``math.inf`` is returned instead of
    a numeric interval.
    """
    rate = ideal_rate(config, i_rect, selected)
    if rate == 0.0:
        return math.inf
    return 1.0 / rate


def dead_time(config: CfcConfig, ack: "AckModel") -> float:
    """Mean time a channel spends blind after each event.

    The reset pulse plus the mean acknowledge wait: the fixed latency
    plus half the uniform jitter.  Subtracting this mean from every
    interval is the non-paralyzable dead-time correction, which stays
    unbiased under acknowledge jitter.
    """
    return config.t_rst + ack.latency + 0.5 * ack.jitter


def decode(config: CfcConfig, isis, sf, compensation: float = 0.0):
    """Reconstruct input currents from inter-event intervals.

    ``sf`` is the range flag of each interval's closing event.  With
    ``compensation`` = 0 this is the plain inverse of the rate law;
    setting it to :func:`dead_time` removes the systematic read-low
    error at high rates.  Works elementwise on scalars or arrays.
    """
    if compensation < 0:
        raise ValueError(f"dead-time compensation must be non-negative, got {compensation}")
    isis = np.asarray(isis, dtype=np.float64)
    if np.any(isis <= compensation):
        raise ValueError(
            f"interval shorter than dead time ({compensation} s): "
            "corrupt event stream or mis-set compensation"
        )
    cap = np.where(np.asarray(sf) == int(RangeSelect.HIGH), config.caps[RangeSelect.HIGH], config.caps[RangeSelect.LOW])
    return cap * config.delta_v / (isis - compensation)
