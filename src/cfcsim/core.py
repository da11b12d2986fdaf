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
non-idealities) lives in :mod:`cfcsim.simulator`; this module owns the
algebra shared by the simulator and the decoder:

    rate(i)  = i / (c1 * delta_v)                  low range
    rate(i)  = i / (alpha * beta * c1 * delta_v)   high range
    decode(dt) = scale * c1 * delta_v / (dt - dead_time)
    dead_time  = t_rst + ack latency + ack jitter / 2
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum, IntEnum
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .simulator import AckModel


class ConfigError(ValueError):
    """A configuration, stimulus or experiment description is invalid."""


def _number(value, key: str, context: str, integer: bool = False):
    """Check one numeric value read from a description file.

    Returns ``value`` when it is a real number other than NaN (and,
    with ``integer``, has no fractional part; it is then returned as an
    int).  Anything else, such as null, a string or a boolean, raises a
    :class:`ConfigError` that names ``key`` and its ``context``.
    """
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and not math.isnan(value)
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

    def opposite(self) -> "Polarity":
        return Polarity.SINK_N if self is Polarity.SOURCE_P else Polarity.SOURCE_P


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
        if not self.t_rst >= 0:
            raise ConfigError(f"t_rst must be non-negative, got {self.t_rst}")
        if not self.i_leak_floor >= 0:
            raise ConfigError(f"i_leak_floor must be non-negative, got {self.i_leak_floor}")
        if not self.i_max_valid > 0:
            raise ConfigError(f"i_max_valid must be positive, got {self.i_max_valid}")
        if not 0 <= self.hysteresis < 1:
            raise ConfigError(f"hysteresis must lie in [0, 1), got {self.hysteresis}")
        if not isinstance(self.polarity, Polarity):
            raise ConfigError(f"polarity must be a Polarity, got {self.polarity!r}")
        if not (self.channel_address >= 0 and float(self.channel_address).is_integer()):
            raise ConfigError(f"channel_address must be a small non-negative integer, got {self.channel_address}")

    @property
    def delta_v(self) -> float:
        """Integration voltage swing v_ref_h - v_ref_l (strictly positive)."""
        return self.v_ref_h - self.v_ref_l

    @property
    def c2(self) -> float:
        """Large integrating capacitor, alpha * c1."""
        return self.alpha * self.c1

    def scale(self, selected: RangeSelect) -> float:
        """Effective rate-compression factor of a range: 1 or alpha * beta."""
        return 1.0 if selected is RangeSelect.LOW else self.alpha * self.beta

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["polarity"] = self.polarity.value
        return d

    @classmethod
    def from_dict(cls, overrides: dict, base: Optional["CfcConfig"] = None) -> "CfcConfig":
        """Build a config from defaults (or ``base``) plus overrides.

        Unknown keys are rejected so that typos in configuration files
        fail fast instead of silently running with defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        values = {k: v if k == "polarity" else _number(v, k, "config") for k, v in overrides.items()}
        if "polarity" in values and not isinstance(values["polarity"], Polarity):
            try:
                values["polarity"] = Polarity(values["polarity"])
            except ValueError:
                raise ConfigError(
                    f"polarity must be one of {[p.value for p in Polarity]}, got {values['polarity']!r}"
                ) from None
        if base is None:
            return cls(**values)
        return replace(base, **values)


#: Reference configuration shared by tests, presets and the CLI.
DEFAULT_CONFIG = CfcConfig()


def rectify(i_signed: float, polarity: Polarity) -> float:
    """Pass the magnitude of a matching-sign current, block the other sign.

    The input selector steers the monitored current into the converter
    only when its sign matches the configured polarity; the wrong-sign
    path is simply cut off, so this is a total function that never
    raises.
    """
    if polarity is Polarity.SINK_N:
        return i_signed if i_signed > 0.0 else 0.0
    return -i_signed if i_signed < 0.0 else 0.0


def select_range(
    config: CfcConfig,
    i_rect: float,
    previous: Optional[RangeSelect] = None,
) -> RangeSelect:
    """Pick the integration range for a rectified current.

    The comparator selects HIGH at or above ``i_sw`` (the tie goes to
    HIGH: a real comparator is metastable at threshold and HIGH keeps the
    output rate bounded).  With a non-zero hysteresis band and a known
    ``previous`` state, a channel that is already HIGH falls back to LOW
    only below ``i_sw * (1 - hysteresis)``.
    """
    if i_rect < 0:
        raise ValueError(f"rectified current must be non-negative, got {i_rect}")
    if i_rect >= config.i_sw:
        return RangeSelect.HIGH
    if (
        previous is RangeSelect.HIGH
        and config.hysteresis > 0.0
        and i_rect >= config.i_sw * (1.0 - config.hysteresis)
    ):
        return RangeSelect.HIGH
    return RangeSelect.LOW


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
        selected = select_range(config, i_rect)
    return i_rect / (config.scale(selected) * config.c1 * config.delta_v)


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
    scale = np.where(np.asarray(sf) == int(RangeSelect.HIGH), config.alpha * config.beta, 1.0)
    return scale * config.c1 * config.delta_v / (isis - compensation)
