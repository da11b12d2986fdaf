"""Reconstruct current traces from event streams and analyse them.

Each pair of consecutive events from one channel yields one current
sample: the interval between them, minus an optional dead-time
compensation, is inverted through the rate law at the range flagged on
the second event.  Because the interval measures the *average* current
over itself, the default sample placement is the interval midpoint,
which removes the first-order lag bias on ramps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import curve_fit

from .core import CfcConfig, RangeSelect, decode
from .simulator import EventStream
from .stimulus import SweepSchedule


class Placement(Enum):
    AT_SECOND = "at_second"
    MIDPOINT = "midpoint"


class ResampleMode(Enum):
    HOLD = "hold"
    LINEAR = "linear"


@dataclass(frozen=True)
class ReconstructedSignal:
    """Decoded current samples with per-sample range annotation."""

    t: np.ndarray          # s, strictly increasing sample times
    i_est: np.ndarray      # A, decoded currents (all positive)
    ranges: np.ndarray     # uint8, 0 = low range, 1 = high range

    def __len__(self) -> int:
        return int(self.t.size)


def reconstruct(
    events: EventStream,
    config: CfcConfig,
    compensation: float = 0.0,
    placement: Placement = Placement.MIDPOINT,
    infer_ranges: bool = False,
) -> ReconstructedSignal:
    """Turn a single-channel event stream into current samples.

    Fewer than two events decode to an empty signal (one event carries
    no interval).  ``infer_ranges`` recovers the range flags from decode
    continuity for streams that lack them; it is off by default and the
    flags carried by the events are trusted.
    """
    if np.unique(events.channel).size > 1:
        raise ValueError("event stream mixes multiple channels; reconstruct one at a time")
    t = events.t_req
    isis = np.diff(t)
    if np.any(isis <= 0):
        raise ValueError("event stream must be strictly increasing in time")
    if infer_ranges:
        sf = _infer_ranges(config, isis, compensation)
    else:
        sf = events.sf[1:]
    i_est = decode(config, isis, sf, compensation)
    if placement is Placement.MIDPOINT:
        sample_t = 0.5 * (t[:-1] + t[1:])
    else:
        sample_t = t[1:].copy()
    return ReconstructedSignal(sample_t, i_est, sf.astype(np.uint8))


def _infer_ranges(config: CfcConfig, isis: np.ndarray, compensation: float) -> np.ndarray:
    """Fallback range recovery when events carry no flag.

    A decoded low-range value below i_sw is self-consistent, as is a
    high-range value at or above it; when both readings are consistent
    the range closer in decode value to the previous sample wins (the
    first ambiguous interval defaults to the low range).
    """
    base = decode(config, isis, RangeSelect.LOW, compensation)
    high = decode(config, isis, RangeSelect.HIGH, compensation)
    out = np.zeros(isis.size, dtype=np.uint8)
    prev: Optional[float] = None
    for k in range(isis.size):
        low_ok = base[k] < config.i_sw
        high_ok = high[k] >= config.i_sw
        if low_ok and not high_ok:
            pick = 0
        elif high_ok and not low_ok:
            pick = 1
        elif low_ok and high_ok:
            if prev is None:
                pick = 0
            else:
                pick = 0 if abs(base[k] - prev) <= abs(high[k] - prev) else 1
        else:  # neither reading is consistent; keep the trusted-low fallback
            pick = 0
        out[k] = pick
        prev = high[k] if pick else base[k]
    return out


def resample(
    signal: ReconstructedSignal,
    dt: float,
    mode: ResampleMode = ResampleMode.LINEAR,
) -> tuple[np.ndarray, np.ndarray]:
    """Regrid samples onto a uniform axis spanning [first, last].

    HOLD repeats the most recent sample, LINEAR interpolates between
    neighbours.  A single-sample signal becomes a constant series.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if len(signal) == 0:
        raise ValueError("cannot resample an empty signal")
    t0, t1 = float(signal.t[0]), float(signal.t[-1])
    n = int(math.floor((t1 - t0) / dt + 1e-9)) + 1
    grid = t0 + dt * np.arange(n)
    if len(signal) == 1:
        return grid, np.full(n, float(signal.i_est[0]))
    if mode is ResampleMode.LINEAR:
        return grid, np.interp(grid, signal.t, signal.i_est)
    idx = np.clip(np.searchsorted(signal.t, grid, side="right") - 1, 0, len(signal) - 1)
    return grid, signal.i_est[idx]


@dataclass(frozen=True)
class ExponentialFit:
    amplitude: float      # A
    tau: float            # s
    baseline: float       # A
    residual_norm: float  # A, L2 norm of the fit residual


def fit_exponential(
    signal: ReconstructedSignal,
    window: tuple[float, float],
) -> ExponentialFit:
    """Least-squares fit of ``baseline + amplitude * exp(-(t - t0)/tau)``
    over the samples inside ``window = (t0, t1)``.

    Needs at least five samples and a decaying trend; non-decaying data
    raises rather than returning a meaningless time constant.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError(f"window must satisfy t0 < t1, got {window}")
    mask = (signal.t >= t0) & (signal.t <= t1)
    t = signal.t[mask]
    y = signal.i_est[mask]
    if t.size < 5:
        raise ValueError(f"need at least 5 samples in the window, found {t.size}")
    if y[0] <= y[-1] * (1.0 + 1e-9):
        raise ValueError("no exponential trend: samples do not decay over the window")

    # normalise so the optimiser works on O(1) quantities
    y_scale = float(y[0])
    span = float(t[-1] - t[0])
    tn = (t - t0) / span
    yn = y / y_scale

    amp0 = float(yn[0] - yn[-1])
    base0 = float(yn[-1])
    target = base0 + amp0 / math.e
    below = np.nonzero(yn <= target)[0]
    tau0 = float(tn[below[0]]) if below.size and tn[below[0]] > 0 else 1.0 / 3.0

    def model(x, amp, tau, base):
        return base + amp * np.exp(-x / tau)

    try:
        popt, _ = curve_fit(
            model, tn, yn,
            p0=[max(amp0, 1e-9), tau0, max(base0, 0.0)],
            bounds=([0.0, 1e-12, 0.0], [np.inf, np.inf, np.inf]),
            xtol=1e-14, ftol=1e-14, gtol=1e-14,
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise ValueError(f"exponential fit did not converge: {exc}") from exc
    amp, tau, base = popt
    if amp <= 0 or tau <= 0:
        raise ValueError("no exponential trend: fitted decay is degenerate")
    residual = (model(tn, *popt) - yn) * y_scale
    return ExponentialFit(
        amplitude=float(amp * y_scale),
        tau=float(tau * span),
        baseline=float(base * y_scale),
        residual_norm=float(np.linalg.norm(residual)),
    )


@dataclass(frozen=True)
class SweepPoint:
    level: float               # A, programmed current
    decoded: Optional[float]   # A, mean decoded current; None = no measurement
    n_events: int              # events inside the analysis window


def sweep_analysis(
    events: EventStream,
    schedule: SweepSchedule,
    config: CfcConfig,
    settle_fraction: float = 0.2,
    compensation: float = 0.0,
) -> list[SweepPoint]:
    """Average the decoded current per staircase step.

    The first ``settle_fraction`` of each dwell is discarded as settling
    time; the remaining intervals are decoded individually and averaged.
    Steps with fewer than two usable events (dead-zone levels, or dwells
    too short for the expected rate) report no measurement instead of a
    number.
    """
    if not 0.0 <= settle_fraction < 1.0:
        raise ValueError(f"settle_fraction must lie in [0, 1), got {settle_fraction}")
    t = events.t_req
    start, end = schedule.span
    if len(events) and (t[0] < start - 1e-15 or t[-1] > end + 1e-15):
        raise ValueError(
            f"events outside the sweep schedule span [{start}, {end}]"
        )
    out: list[SweepPoint] = []
    for t0, t1, level in zip(schedule.t_start.tolist(), schedule.t_end.tolist(), schedule.levels.tolist()):
        w0 = t0 + settle_fraction * (t1 - t0)
        lo = int(np.searchsorted(t, w0, side="left"))
        hi = int(np.searchsorted(t, t1, side="right"))
        n = hi - lo
        if n < 2:
            out.append(SweepPoint(level, None, n))
            continue
        decoded = decode(config, np.diff(t[lo:hi]), events.sf[lo + 1:hi], compensation)
        out.append(SweepPoint(level, float(decoded.mean()), n))
    return out
