"""Reconstruct current traces from event streams and analyse them.

Each pair of consecutive events from one channel yields one current
sample: the interval between them, minus an optional dead-time
compensation, is inverted through the rate law at the range flagged on
the second event.  Because the interval measures the *average* current
over itself, each sample is placed at the interval midpoint, which
removes the first-order lag bias on ramps.  :func:`reconstruct` checks
the stream and decodes it; the analyses read its samples, so each
stream is decoded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CfcConfig, _check_compensation, decode
from .simulator import EventStream
from .stimulus import CurrentSignal

#: Fraction of each staircase dwell that sweep analysis discards as settling.
_SETTLE_FRACTION = 0.2

#: The exponential fit solves amplitude and baseline by least squares for
#: each tau, brackets tau on this log grid (in units of the sample span),
#: and narrows the bracket below 1e-13 by 64 golden-section steps on log tau.
_LOG_TAU_GRID = np.linspace(-3.0, 3.0, 49) * math.log(10.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
) -> ReconstructedSignal:
    """Turn a channel's event stream into current samples.

    This is where a stream is checked: the compensation must be finite
    and non-negative and the times must increase by more than it; the
    error names the first event that breaks this.  Fewer than two events
    decode to an empty signal (one event carries no interval).  The
    events' range flags are trusted.
    """
    _check_compensation(compensation)
    t = events.t_req
    dt = np.diff(t)
    # a time that does not increase is the worst case of a short interval
    bad = np.flatnonzero(~(dt > compensation))
    if bad.size:
        k = int(bad[0]) + 1
        if dt[k - 1] > 0:
            problem = f"interval shorter than dead time (compensation {compensation!r} s)"
        else:
            problem = "event stream must be strictly increasing in time"
        raise ValueError(
            f"{problem}: event {k} at t = {float(t[k])!r} s follows event {k - 1} at t = {float(t[k - 1])!r} s"
        )
    sf = events.sf[1:]
    i_est = decode(config, dt, sf, compensation)
    return ReconstructedSignal(0.5 * (t[:-1] + t[1:]), i_est, sf.astype(np.uint8))


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
    """Least-squares fit of ``baseline + amplitude * exp(-(t - t0)/tau)``,
    amplitude and baseline >= 0, over the samples inside ``window = (t0, t1)``.

    Needs finite window ends and samples, at least five samples and a decaying
    trend; non-decaying data raises rather than returning a meaningless tau.
    """
    t0, t1 = window
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise ValueError(f"window must satisfy t0 < t1 with finite ends, got {window}")
    mask = (signal.t >= t0) & (signal.t <= t1)
    t = signal.t[mask]
    y = signal.i_est[mask]
    if t.size < 5:
        raise ValueError(f"need at least 5 samples in the window, found {t.size}")
    if not np.isfinite(y).all():
        k = int(np.argmin(np.isfinite(y)))
        raise ValueError(f"sample at t = {float(t[k])!r} s must be finite, got {float(y[k])!r}")
    if y[0] <= y[-1] * (1.0 + 1e-9):
        raise ValueError("no exponential trend: samples do not decay over the window")

    # time in sample spans from the first sample, so the grid fits any window
    span = float(t[-1] - t[0])
    x = (t - t[0]) / span

    def solve(log_tau: float) -> tuple[float, float, float]:
        """(squared residual, amplitude at the first sample, baseline)."""
        e = np.exp(-x / math.exp(log_tau))
        (amp, base), *_ = np.linalg.lstsq(np.column_stack([e, np.ones_like(e)]), y, rcond=None)
        if base < 0:
            amp, base = e @ y / (e @ e), 0.0
        amp = max(amp, 0.0)
        r = base + amp * e - y
        return float(r @ r), float(amp), float(base)

    k = 1 + int(np.argmin([solve(g)[0] for g in _LOG_TAU_GRID[1:-1]]))
    lo, hi = _LOG_TAU_GRID[k - 1], _LOG_TAU_GRID[k + 1]
    for _ in range(64):
        a, b = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        lo, hi = (lo, b) if solve(a)[0] < solve(b)[0] else (a, hi)
    sq, amp, base = solve(0.5 * (lo + hi))
    if amp <= 0:
        raise ValueError("no exponential trend: fitted decay is degenerate")
    tau = math.exp(0.5 * (lo + hi)) * span
    return ExponentialFit(
        amplitude=amp * math.exp((float(t[0]) - t0) / tau),
        tau=tau,
        baseline=base,
        residual_norm=math.sqrt(sq),
    )


@dataclass(frozen=True)
class SweepPoint:
    level: float               # A, programmed current
    decoded: Optional[float]   # A, mean decoded current; None = no measurement
    n_events: int              # events inside the analysis window


def sweep_analysis(
    events: EventStream,
    recon: ReconstructedSignal,
    staircase: CurrentSignal,
) -> list[SweepPoint]:
    """Average the decoded current per staircase step.

    ``recon`` is :func:`reconstruct`'s decode of ``events``, one sample
    per interval, so the stream is checked and decoded once.  Each
    segment of ``staircase`` is one step, held flat at its level.  The
    first ``_SETTLE_FRACTION`` of each dwell is discarded as settling
    time; the samples of the intervals between the remaining events are
    averaged.  Steps with fewer than two usable events (dead-zone levels,
    or dwells too short for the expected rate) report no measurement
    instead of a number.
    """
    if np.any(staircase.i_start != staircase.i_end):
        raise ValueError("sweep analysis needs a staircase: a ramp segment has no single level")
    if len(recon) != max(len(events) - 1, 0):
        raise ValueError(f"reconstruction holds {len(recon)} samples, not one per interval of {len(events)} events")
    t = events.t_req
    start, end = float(staircase.times[0]), staircase.end
    if len(events) and (t[0] < start - 1e-15 or t[-1] > end + 1e-15):
        raise ValueError(f"events outside the staircase span [{start}, {end}]")
    out: list[SweepPoint] = []
    for t0, t1, level in zip(staircase.times.tolist(), staircase.ends.tolist(), staircase.i_start.tolist()):
        w0 = t0 + _SETTLE_FRACTION * (t1 - t0)
        lo = int(np.searchsorted(t, w0, side="left"))
        hi = int(np.searchsorted(t, t1, side="right"))
        n = hi - lo
        # sample k decodes the interval from event k to event k + 1
        decoded = float(recon.i_est[lo:hi - 1].mean()) if n >= 2 else None
        out.append(SweepPoint(level, decoded, n))
    return out
