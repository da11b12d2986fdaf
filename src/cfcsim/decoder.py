"""Reconstruct current traces from event streams and analyse them.

Each pair of consecutive events from one channel yields one current
sample: the interval between them, minus an optional dead-time
compensation, is inverted through the rate law at the range flagged on
the second event.  Because the interval measures the *average* current
over itself, each sample is placed at the interval midpoint, which
removes the first-order lag bias on ramps.
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

    The times must increase by more than ``compensation``; the error
    names the first event that breaks this.  Fewer than two events
    decode to an empty signal (one event carries no interval).  The
    events' range flags are trusted.
    """
    _check_stream(events, compensation)
    t = events.t_req
    sf = events.sf[1:]
    i_est = decode(config, np.diff(t), sf, compensation)
    return ReconstructedSignal(0.5 * (t[:-1] + t[1:]), i_est, sf.astype(np.uint8))


def _check_stream(events: EventStream, compensation: float) -> None:
    """Require a finite, non-negative compensation and times that increase
    by more than it; the error names the first event that breaks this."""
    _check_compensation(compensation)
    # a time that does not increase is the worst case of a short interval
    t = events.t_req
    dt = np.diff(t)
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

    # imported here: scipy is most of the package's import time, and
    # nothing else needs it
    from scipy.optimize import curve_fit

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
    staircase: CurrentSignal,
    config: CfcConfig,
    compensation: float = 0.0,
) -> list[SweepPoint]:
    """Average the decoded current per staircase step.

    Each segment of ``staircase`` is one step, held flat at its level.
    The first ``_SETTLE_FRACTION`` of each dwell is discarded as
    settling time; the remaining intervals are decoded individually and
    averaged.  Steps with fewer than two usable events (dead-zone levels, or dwells
    too short for the expected rate) report no measurement instead of a
    number.  The stream is checked as in :func:`reconstruct`.
    """
    if np.any(staircase.i_start != staircase.i_end):
        raise ValueError("sweep analysis needs a staircase: a ramp segment has no single level")
    _check_stream(events, compensation)
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
        if n < 2:
            out.append(SweepPoint(level, None, n))
            continue
        decoded = decode(config, np.diff(t[lo:hi]), events.sf[lo + 1:hi], compensation)
        out.append(SweepPoint(level, float(decoded.mean()), n))
    return out
