"""Ground-truth current stimuli and spike-train generators.

Every stimulus is a :class:`CurrentSignal`: a piecewise-linear current
trace made of contiguous segments, each with its own start/end value so
that step discontinuities are represented exactly.  The simulator's
closed-form crossing solver is exact per linear segment, so generators
whose true shape is an exponential (synapse decays, gate sweeps) emit it
as densely sampled linear pieces with exact values at every breakpoint.

Generators are pure given their parameters and seed, and never consult
wall-clock entropy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import ConfigError, _block_rows, _spans


@dataclass(frozen=True)
class CurrentSignal:
    """Piecewise-linear signed current vs. time on the domain [0, end].

    Segment ``j`` covers ``[times[j], times[j+1])`` (the last one ends at
    ``end``) and ramps linearly from ``i_start[j]`` to ``i_end[j]``.
    Consecutive segments may disagree at their shared boundary, which is
    how step changes and synaptic jumps are encoded; evaluation at a
    boundary returns the value of the later segment (right-continuous),
    and evaluation at ``end`` returns the final segment's end value.
    """

    times: np.ndarray    # segment start times, strictly increasing, times[0] == 0
    i_start: np.ndarray  # A, current at segment start
    i_end: np.ndarray    # A, current at segment end
    end: float           # s, domain end

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        i_start = np.asarray(self.i_start, dtype=np.float64)
        i_end = np.asarray(self.i_end, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "i_start", i_start)
        object.__setattr__(self, "i_end", i_end)
        if times.ndim != 1 or times.size == 0:
            raise ConfigError("signal needs at least one segment")
        if i_start.shape != times.shape or i_end.shape != times.shape:
            raise ConfigError("times, i_start and i_end must have matching shapes")
        if times[0] != 0.0:
            raise ConfigError(f"signal must start at t = 0, got {times[0]}")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(i_start)) or not np.all(np.isfinite(i_end)):
            raise ConfigError("signal breakpoints must be finite")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("breakpoint times must be strictly increasing")
        if not (math.isfinite(self.end) and self.end > times[-1]):
            raise ConfigError(
                f"domain end ({self.end}) must be finite and lie beyond the last "
                f"breakpoint ({times[-1]})"
            )

    @property
    def ends(self) -> np.ndarray:
        """Segment end times: the next segment's start, ``end`` for the last."""
        return self._ends(0, self.times.size)

    def _ends(self, lo: int, hi: int) -> np.ndarray:
        """The end times of segments ``lo`` to ``hi - 1`` (see :attr:`ends`)."""
        return np.append(self.times[lo + 1:hi + 1], self.end)[:hi - lo]

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised evaluation at sorted-or-not times within [0, end];
        at a breakpoint it takes the later segment's value, right-continuous
        like the signal itself.  A NaN time lies outside the domain.  Each
        time reads only its own segment's bounds and values.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= self.end * (1 + 1e-12) + 1e-300):
            raise ValueError(f"time outside signal domain [0, {self.end}]")
        n = self.times.size
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, n - 1)
        start, i0 = self.times[idx], self.i_start[idx]
        end = np.where(idx + 1 < n, self.times.take(idx + 1, mode="clip"), self.end)
        frac = np.clip((ts - start) / (end - start), 0.0, 1.0)
        return i0 + (self.i_end[idx] - i0) * frac

    def pieces(self, duration: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The segments clipped to a run over [0, duration], as the linear
        pieces ``(a, b, i_a, i_b)`` in columns, one block of at most
        ``core._BLOCK`` segments at a time, each piece with a finite rise
        ``i_b - i_a`` and so finite ends.

        Every segment of the run is checked when this is called, before
        any block is read: a segment whose piece has no finite rise is
        refused with a ``ConfigError`` naming it by its index in the signal
        and what overflows a float: its slope, or else the slope times the
        width in the run (``i0 + inf * 0`` is NaN)."""
        n = int(np.searchsorted(self.times, duration, side="left"))  # segments starting in the run
        blocks = _spans(n)
        for lo, hi in blocks:
            self._clipped(lo, hi, duration)
        return (self._clipped(lo, hi, duration) for lo, hi in blocks)

    def _clipped(self, lo: int, hi: int, duration: float):
        """The pieces of segments ``lo`` to ``hi - 1`` over [0, duration]
        (see :meth:`pieces`), or the ``ConfigError`` of the first that
        has no finite rise."""
        a = self.times[lo:hi]
        seg_end = self._ends(lo, hi)
        b = np.minimum(seg_end, duration)  # max(a, 0) is a itself: times start at 0
        i0, i1 = self.i_start[lo:hi], self.i_end[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = (i1 - i0) / (seg_end - a)
            i_a, i_b = i0 + slope * 0.0, i0 + slope * (b - a)  # i0 + inf * 0 is NaN
            finite = np.isfinite(i_b - i_a)
        if not finite.all():
            j = int(np.argmin(finite))
            what = "rise over the run" if np.isfinite(slope[j]) else "slope"
            raise ConfigError(f"segment {lo + j} ramps from {i0[j]} A to {i1[j]} A in {seg_end[j] - a[j]} s: "
                              f"its {what} overflows a float")
        return a, b, i_a, i_b

    @classmethod
    def from_samples(cls, ts: Sequence[float], values: Sequence[float]) -> "CurrentSignal":
        """Connect point samples with linear segments (no discontinuities)."""
        ts = np.array(ts, dtype=np.float64)
        values = np.array(values, dtype=np.float64)
        if ts.size < 2:
            raise ConfigError("need at least two samples")
        return cls(ts[:-1], values[:-1], values[1:], float(ts[-1]))


@dataclass(frozen=True)
class SpikeTrain:
    """Strictly increasing spike times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ConfigError("spike times must be one-dimensional")
        if times.size and not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0) and times[0] >= 0):
            raise ConfigError("spike times must be finite, non-negative and strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


def constant(i: float, duration: float) -> CurrentSignal:
    """Flat current of value ``i`` over [0, duration]."""
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    return CurrentSignal(np.asarray([0.0]), np.asarray([i]), np.asarray([i]), float(duration))


def staircase_sweep(
    start: float,
    stop: float,
    steps: int,
    dwell: float,
) -> CurrentSignal:
    """Linear-in-current staircase from ``start`` to ``stop``.

    Step ``k`` is the flat segment at ``start + k * ((stop - start) /
    (steps - 1))`` from ``k * dwell`` to ``(k + 1) * dwell``; the last
    step is ``stop`` exactly.
    """
    if steps < 2:
        raise ConfigError(f"need at least 2 steps, got {steps}")
    if not dwell > 0:
        raise ConfigError(f"dwell must be positive, got {dwell}")
    if not start < stop:
        raise ConfigError(f"start ({start}) must be below stop ({stop})")
    levels = np.linspace(start, stop, steps)
    return CurrentSignal(np.arange(steps) * dwell, levels, levels.copy(), float(steps * dwell))


#: The five factory sweep ranges exercised by the `fig4` preset (A).
FIVE_RANGE_SWEEPS: tuple[tuple[float, float], ...] = (
    (3.2e-12, 820e-12),
    (26e-12, 6.5e-9),
    (196e-12, 50e-9),
    (1.57e-9, 4e-6),
    (12.5e-9, 3.2e-6),
)


def pfet_gate_sweep(
    vg_start: float,
    vg_stop: float,
    duration: float,
    i0: float,
    slope_per_decade: float,
    i_sat: float,
    vg_ref: Optional[float] = None,
    points_per_decade: int = 100,
) -> CurrentSignal:
    """Drain current of a subthreshold p-FET while ramping its gate voltage.

    I(t) = min(i_sat, i0 * 10 ** ((vg_ref - vg(t)) / slope_per_decade))
    with vg linear in time.  ``vg_ref`` defaults to ``vg_start`` so the
    sweep starts at ``i0``; lowering the gate raises the current
    exponentially until it saturates at ``i_sat``.  The exponential is
    emitted as linear pieces: values are exact at every breakpoint.
    """
    if not slope_per_decade > 0:
        raise ConfigError(f"slope_per_decade must be positive, got {slope_per_decade}")
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if not (i0 > 0 and i_sat > 0):
        raise ConfigError("i0 and i_sat must be positive")
    if points_per_decade < 1:
        raise ConfigError("points_per_decade must be at least 1")
    ref = vg_start if vg_ref is None else vg_ref
    for name, value in (("vg_start", vg_start), ("vg_stop", vg_stop), ("vg_ref", ref)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    decades_span = abs(vg_stop - vg_start) / slope_per_decade
    n = max(2, int(math.ceil(decades_span * points_per_decade)) + 1)
    ts = np.linspace(0.0, duration, n)
    vg = vg_start + (vg_stop - vg_start) * (ts / duration)
    current = np.minimum(i_sat, i0 * np.power(10.0, (ref - vg) / slope_per_decade))
    return CurrentSignal.from_samples(ts, current)


def dpi_synapse(
    spikes: SpikeTrain,
    tau: float,
    weight_jump: float,
    i_base: float,
    duration: float,
    resolution: Optional[float] = None,
) -> CurrentSignal:
    """Synapse output current: first-order decay with a jump per input spike.

    Between spikes the current relaxes toward ``i_base`` with time
    constant ``tau``; each spike adds ``weight_jump`` instantaneously.
    Decay arcs are emitted as dense linear pieces at ``resolution``
    spacing (default tau / 100) whose breakpoint values are the exact
    exponential.
    """
    if not tau > 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    res = tau / 100.0 if resolution is None else float(resolution)
    if not res > 0:
        raise ConfigError(f"resolution must be positive, got {res}")

    spike_times = [float(t) for t in spikes.times if 0.0 <= t < duration]
    anchors = [0.0] + spike_times + [duration]

    arcs = []  # per arc, its pieces' start times, start values and end values
    level = float(i_base)
    for idx in range(len(anchors) - 1):
        t_a, t_b = anchors[idx], anchors[idx + 1]
        if idx > 0:  # a spike fires at t_a
            level += weight_jump
        if t_b <= t_a:
            continue
        amp = level - i_base
        if amp == 0.0:
            arcs.append([[t_a], [level], [level]])
            continue
        n = max(1, int(math.ceil((t_b - t_a) / res)))
        pts = np.linspace(t_a, t_b, n + 1)
        vals = i_base + amp * np.exp(-(pts - t_a) / tau)
        arcs.append((pts[:-1], vals[:-1], vals[1:]))
        level = float(vals[-1])
    t0, i0, i1 = np.concatenate(arcs, axis=1)
    return CurrentSignal(t0, i0, i1, float(duration))


@dataclass(frozen=True)
class AdexParams:
    """Adaptive-exponential integrate-and-fire neuron parameters.

    Defaults are illustrative (picked to spike at a few Hz under a
    20 Hz synaptic drive), not measured values; override freely.
    """

    c_m: float = 200e-12      # F, membrane capacitance
    g_l: float = 10e-9        # S, leak conductance
    e_l: float = -0.070       # V, leak reversal / rest
    v_t: float = -0.050       # V, exponential threshold
    delta_t: float = 0.002    # V, spike-initiation slope factor
    a: float = 2e-9           # S, subthreshold adaptation coupling
    tau_w: float = 120e-3     # s, adaptation time constant
    b: float = 50e-12         # A, spike-triggered adaptation increment
    v_reset: float = -0.070   # V, post-spike reset
    v_peak: Optional[float] = None   # V, spike cutoff; default v_t + 5 * delta_t
    dt: float = 10e-6         # s, fixed integration step (classic 4th order)
    i_rest_proxy: float = 10e-12     # A, proxy current at rest
    proxy_gain: float = 1.0   # scales the leak-current proxy

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value is None and f.name == "v_peak" or math.isfinite(value)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("c_m", "g_l", "tau_w", "delta_t", "dt"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.peak > self.v_t:
            raise ConfigError(f"v_peak ({self.peak}) must exceed v_t ({self.v_t})")

    @property
    def peak(self) -> float:
        return self.v_t + 5.0 * self.delta_t if self.v_peak is None else self.v_peak

    def rheobase(self) -> float:
        """Smallest constant input current that makes the quasi-static
        voltage nullcline lose its stable fixed point (spiking onset)."""
        g_tot = self.g_l + self.a
        v_star = self.v_t + self.delta_t * math.log(g_tot / self.g_l)
        return g_tot * (v_star - self.e_l) - self.g_l * self.delta_t * math.exp(
            (v_star - self.v_t) / self.delta_t
        )


def adex_neuron(
    i_in: CurrentSignal,
    params: AdexParams,
    duration: float,
) -> tuple[CurrentSignal, SpikeTrain]:
    """Integrate the adaptive-exponential neuron and expose its membrane
    current as a monitorable signal.

        c_m dv/dt = -g_l (v - e_l) + g_l delta_t exp((v - v_t)/delta_t) - w + i_in
        tau_w dw/dt = a (v - e_l) - w
        v >= v_peak  ->  spike, v <- v_reset, w <- w + b

    Fixed-step classic Runge-Kutta on the grid ``k * dt``, ended by
    ``duration`` itself, with one step fewer where ``(n - 1) * dt``
    already reaches ``duration`` (``n = ceil(duration / dt)``), so every
    step has positive length.  The spike cutoff is checked once per
    step, so spike times are quantised to the step.  A step that leaves
    ``v`` more than 1 V below ``min(e_l, v_reset)`` has diverged (the
    drive is too strong for ``dt``) and raises :class:`ConfigError`.

    The returned current proxy is
    ``i_rest_proxy + proxy_gain * g_l * (v - e_l)`` sampled at every
    step: a non-negative-at-rest image of the membrane state that a
    current monitor can digest (it goes negative below rest, where the
    monitor's input selector blocks it).
    """
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if i_in.end < duration:
        raise ConfigError("input current must be defined over the full duration")
    p = params
    dt = p.dt
    n_steps = int(math.ceil(duration / dt))
    if (n_steps - 1) * dt >= duration:  # the quotient rounded up: the last step would be empty
        n_steps -= 1
    grid = np.minimum(np.arange(n_steps + 1) * dt, duration)

    # The four RK stages evaluate
    #   dv = (-g_l (v - e_l) + g_l delta_t exp(min((v - v_t) / delta_t, exp_cap)) - w + i) / c_m
    #   dw = (a (v - e_l) - w) / tau_w
    # with exp_cap = 40, which keeps runaway stages finite; a step that
    # ends 1 V below rest has overshot, not integrated
    consts = (-p.g_l, p.g_l * p.delta_t, p.e_l, p.v_t, p.delta_t, p.c_m, p.a, p.tau_w, 40.0, p.peak,
              p.v_reset, p.b, min(p.e_l, p.v_reset) - 1.0, dt)
    v, w = p.e_l, 0.0
    v_out = np.empty(n_steps + 1)
    v_out[0] = v
    spike_steps: list[int] = []
    # a block of steps lo..hi-1 reads three columns: each step's length
    # and the drive at its middle and end, points 2k+1 and 2k+2 of the
    # half-step grid the RK stages use.  A step's start drive, point 2k,
    # is the end drive of the step before, carried over; the block's
    # first step starts from drive[0], point 2*lo
    for lo, hi in _spans(n_steps):
        drive = i_in.values(np.minimum(np.arange(2 * lo, 2 * hi + 1) * (dt / 2.0), duration))
        rows = _block_rows(grid[lo + 1:hi + 1] - grid[lo:hi], drive[1::2], drive[2::2])
        v, w, v_out[lo + 1:hi + 1] = _rk4_block(rows, v, w, float(drive[0]), consts, grid, lo, spike_steps)

    # the proxy, formed in place on the voltage column by the operations of
    # i_rest + (gain * g_l) * (v - e_l); the signal holds it and the grid
    v_out -= p.e_l
    v_out *= p.proxy_gain * p.g_l
    v_out += p.i_rest_proxy
    signal = CurrentSignal(grid[:-1], v_out[:-1], v_out[1:], float(grid[-1]))
    return signal, SpikeTrain(grid[np.asarray(spike_steps, dtype=np.intp)])


def _rk4_block(rows, v, w, i0, consts, grid, lo, spike_steps: list):
    """One block of :func:`adex_neuron`'s RK4 steps from the state (v, w),
    the first of them step ``lo`` of ``grid``, which starts at drive ``i0``.

    ``rows`` holds each step's positive length ``h`` and the drive at its
    middle and end; the start drive of every later step is the end drive
    of the step before.  ``consts`` holds the neuron's constants in the
    order ``adex_neuron`` packs them.  The RK stages are written out
    inline on local floats, every operation in the order of the formula,
    ``0.5 * h`` and ``h / 6.0`` included.  A spike appends the index of
    its step's end in ``grid`` to ``spike_steps``; returns v, w and the
    voltage after each step.
    """
    neg_g_l, gd, e_l, v_t, delta_t, c_m, a, tau_w, exp_cap, v_peak, v_reset, b, v_floor, dt = consts
    exp = math.exp
    v_hist = array("d")
    append = v_hist.append
    for h, i1, i2 in rows:
        half = 0.5 * h
        d = v - e_l
        arg = (v - v_t) / delta_t
        if arg > exp_cap:
            arg = exp_cap
        k1v = (neg_g_l * d + gd * exp(arg) - w + i0) / c_m
        k1w = (a * d - w) / tau_w
        v2, w2 = v + half * k1v, w + half * k1w
        d = v2 - e_l
        arg = (v2 - v_t) / delta_t
        if arg > exp_cap:
            arg = exp_cap
        k2v = (neg_g_l * d + gd * exp(arg) - w2 + i1) / c_m
        k2w = (a * d - w2) / tau_w
        v3, w3 = v + half * k2v, w + half * k2w
        d = v3 - e_l
        arg = (v3 - v_t) / delta_t
        if arg > exp_cap:
            arg = exp_cap
        k3v = (neg_g_l * d + gd * exp(arg) - w3 + i1) / c_m
        k3w = (a * d - w3) / tau_w
        v4, w4 = v + h * k3v, w + h * k3w
        d = v4 - e_l
        arg = (v4 - v_t) / delta_t
        if arg > exp_cap:
            arg = exp_cap
        k4v = (neg_g_l * d + gd * exp(arg) - w4 + i2) / c_m
        k4w = (a * d - w4) / tau_w
        sixth = h / 6.0
        v += sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        w += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        i0 = i2
        if v >= v_peak:
            spike_steps.append(lo + len(v_hist) + 1)
            v = v_reset
            w += b
        if not v >= v_floor:  # NaN included
            raise ConfigError(
                f"adex_neuron diverged at t = {grid.item(lo + len(v_hist) + 1)!r} s (v = {v!r} V): "
                f"the step dt = {dt!r} s is too coarse for this drive"
            )
        append(v)
    return v, w, v_hist


def regular_train(rate: float, duration: float) -> SpikeTrain:
    """Evenly spaced spikes at ``k / rate`` for k = 1..floor(rate * duration)."""
    if not 0 < rate < math.inf:
        raise ConfigError(f"rate must be positive and finite, got {rate}")
    if not 0 <= duration < math.inf:
        raise ConfigError(f"duration must be finite and non-negative, got {duration}")
    n = int(math.floor(rate * duration * (1.0 + 1e-12)))
    return SpikeTrain(np.arange(1, n + 1) / rate)


def poisson_train(rate: float, duration: float, seed: int) -> SpikeTrain:
    """Homogeneous Poisson spikes: seeded exponential gaps, reproducible."""
    if not 0 < rate < math.inf:
        raise ConfigError(f"rate must be positive and finite, got {rate}")
    if not 0 <= duration < math.inf:
        raise ConfigError(f"duration must be finite and non-negative, got {duration}")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"poisson seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate, size=256)
        for g in gaps:
            t += g
            if t >= duration:
                return SpikeTrain(np.asarray(times))
            times.append(t)
