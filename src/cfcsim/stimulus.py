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
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import ConfigError


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
        if not self.end > times[-1]:
            raise ConfigError(
                f"domain end ({self.end}) must lie beyond the last breakpoint ({times[-1]})"
            )

    @property
    def duration(self) -> float:
        return self.end

    def _segment_ends(self) -> np.ndarray:
        return np.append(self.times[1:], self.end)

    def value(self, t: float) -> float:
        """Current at time ``t`` (right-continuous at segment boundaries)."""
        return float(self.values(np.asarray([t]))[0])

    def values(self, ts: np.ndarray, side: str = "right") -> np.ndarray:
        """Vectorised evaluation at sorted-or-not times within [0, end].

        ``side`` picks which limit to take exactly at a breakpoint with a
        step discontinuity: ``"right"`` (the default, matching
        :meth:`value`) or ``"left"``.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and (ts.min() < 0.0 or ts.max() > self.end * (1 + 1e-12) + 1e-300):
            raise ValueError(f"time outside signal domain [0, {self.end}]")
        idx = np.clip(np.searchsorted(self.times, ts, side=side) - 1, 0, self.times.size - 1)
        ends = self._segment_ends()
        span = ends[idx] - self.times[idx]
        frac = np.clip((ts - self.times[idx]) / span, 0.0, 1.0)
        return self.i_start[idx] + (self.i_end[idx] - self.i_start[idx]) * frac

    def iter_segments(self, t0: float, t1: float) -> Iterator[tuple[float, float, float, float]]:
        """Yield linear pieces ``(a, b, i_a, i_b)`` covering [t0, t1], clipped."""
        if t1 <= t0:
            return
        ends = self._segment_ends()
        first = max(0, int(np.searchsorted(ends, t0, side="right")))
        for j in range(first, self.times.size):
            a, b = self.times[j], ends[j]
            if a >= t1:
                break
            lo, hi = max(a, t0), min(b, t1)
            if hi <= lo:
                continue
            slope = (self.i_end[j] - self.i_start[j]) / (b - a)
            ia = self.i_start[j] + slope * (lo - a)
            ib = self.i_start[j] + slope * (hi - a)
            yield float(lo), float(hi), float(ia), float(ib)

    @classmethod
    def from_segments(
        cls,
        seg_t0: Sequence[float],
        seg_i0: Sequence[float],
        seg_i1: Sequence[float],
        end: float,
    ) -> "CurrentSignal":
        return cls(np.asarray(seg_t0), np.asarray(seg_i0), np.asarray(seg_i1), float(end))

    @classmethod
    def from_samples(cls, ts: Sequence[float], values: Sequence[float], end: Optional[float] = None) -> "CurrentSignal":
        """Connect point samples with linear segments (no discontinuities)."""
        ts = np.asarray(ts, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if ts.size < 2:
            raise ConfigError("need at least two samples")
        t0 = list(ts[:-1])
        i0 = list(values[:-1])
        i1 = list(values[1:])
        sig_end = float(ts[-1]) if end is None else float(end)
        if end is not None and end > ts[-1]:
            t0.append(float(ts[-1]))
            i0.append(float(values[-1]))
            i1.append(float(values[-1]))
        return cls(np.asarray(t0), np.asarray(i0), np.asarray(i1), sig_end)

    @classmethod
    def from_breakpoints(
        cls,
        points: Sequence[tuple[float, float]],
        kinds: str | Sequence[str] = "step",
        end: Optional[float] = None,
    ) -> "CurrentSignal":
        """Build from ``(t, i)`` breakpoints with per-gap segment kinds.

        ``kinds`` is either a single kind for every gap or one entry per
        gap: ``"step"`` holds the earlier value until the next breakpoint,
        ``"linear"`` ramps between the two.  The final value is held from
        the last breakpoint to ``end`` (default: the last breakpoint).
        """
        if not points:
            raise ConfigError("need at least one breakpoint")
        ts = [float(t) for t, _ in points]
        vs = [float(i) for _, i in points]
        n_gaps = len(points) - 1
        if isinstance(kinds, str):
            kind_list = [kinds] * n_gaps
        else:
            kind_list = list(kinds)
            if len(kind_list) != n_gaps:
                raise ConfigError(f"expected {n_gaps} segment kinds, got {len(kind_list)}")
        for k in kind_list:
            if k not in ("step", "linear"):
                raise ConfigError(f"segment kind must be 'step' or 'linear', got {k!r}")
        sig_end = float(end) if end is not None else ts[-1]
        t0, i0, i1 = [], [], []
        for j in range(n_gaps):
            t0.append(ts[j])
            i0.append(vs[j])
            i1.append(vs[j] if kind_list[j] == "step" else vs[j + 1])
        if sig_end > ts[-1] or n_gaps == 0:
            t0.append(ts[-1])
            i0.append(vs[-1])
            i1.append(vs[-1])
        return cls(np.asarray(t0), np.asarray(i0), np.asarray(i1), sig_end)


@dataclass(frozen=True)
class SpikeTrain:
    """Strictly increasing spike times, reproducible for a given seed."""

    times: np.ndarray
    rate: Optional[float] = None   # Hz, generator parameter when applicable
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ConfigError("spike times must be one-dimensional")
        if times.size and (np.any(np.diff(times) <= 0) or times[0] < 0):
            raise ConfigError("spike times must be non-negative and strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True, eq=False)
class SweepSchedule:
    """Step timing emitted next to a staircase stimulus: step ``k`` holds
    ``levels[k]`` (A) from ``t_start[k]`` to ``t_end[k]`` (s)."""

    t_start: np.ndarray
    t_end: np.ndarray
    levels: np.ndarray

    @property
    def span(self) -> tuple[float, float]:
        return float(self.t_start[0]), float(self.t_end[-1])


def constant(i: float, duration: float) -> CurrentSignal:
    """Flat current of value ``i`` over [0, duration]."""
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    return CurrentSignal(np.asarray([0.0]), np.asarray([i]), np.asarray([i]), float(duration))


def staircase_sweep(
    start: float,
    stop: float,
    steps: int,
    dwell: float,
) -> tuple[CurrentSignal, SweepSchedule]:
    """Linear-in-current staircase from ``start`` to ``stop``.

    Step ``k`` sits at ``start + k * (stop - start) / (steps - 1)`` and
    lasts ``dwell`` seconds.  Returns the signal together with the step
    schedule needed by the decoder's sweep analysis.
    """
    if steps < 2:
        raise ConfigError(f"need at least 2 steps, got {steps}")
    if dwell <= 0:
        raise ConfigError(f"dwell must be positive, got {dwell}")
    if start >= stop:
        raise ConfigError(f"start ({start}) must be below stop ({stop})")
    levels = start + np.arange(steps) * ((stop - start) / (steps - 1))
    t0 = np.arange(steps) * dwell
    end = steps * dwell
    schedule = SweepSchedule(t0, np.arange(1, steps + 1) * dwell, levels)
    return CurrentSignal(t0, levels, levels.copy(), float(end)), schedule


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
    if slope_per_decade <= 0:
        raise ConfigError(f"slope_per_decade must be positive, got {slope_per_decade}")
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if i0 <= 0 or i_sat <= 0:
        raise ConfigError("i0 and i_sat must be positive")
    if points_per_decade < 1:
        raise ConfigError("points_per_decade must be at least 1")
    ref = vg_start if vg_ref is None else vg_ref
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
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    res = tau / 100.0 if resolution is None else float(resolution)
    if res <= 0:
        raise ConfigError(f"resolution must be positive, got {res}")

    spike_times = [float(t) for t in spikes.times if 0.0 <= t < duration]
    anchors = [0.0] + spike_times + [duration]

    seg_t0: list[float] = []
    seg_i0: list[float] = []
    seg_i1: list[float] = []
    level = float(i_base)
    for idx in range(len(anchors) - 1):
        t_a, t_b = anchors[idx], anchors[idx + 1]
        if idx > 0:  # a spike fires at t_a
            level += weight_jump
        if t_b <= t_a:
            continue
        amp = level - i_base
        if amp == 0.0:
            seg_t0.append(t_a)
            seg_i0.append(level)
            seg_i1.append(level)
            continue
        n = max(1, int(math.ceil((t_b - t_a) / res)))
        pts = np.linspace(t_a, t_b, n + 1)
        vals = i_base + amp * np.exp(-(pts - t_a) / tau)
        seg_t0.extend(pts[:-1].tolist())
        seg_i0.extend(vals[:-1].tolist())
        seg_i1.extend(vals[1:].tolist())
        level = float(vals[-1])
    return CurrentSignal.from_segments(seg_t0, seg_i0, seg_i1, duration)


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
        for name in ("c_m", "g_l", "tau_w", "delta_t", "dt"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.peak <= self.v_t:
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

    Fixed-step classic Runge-Kutta; the spike cutoff is checked once per
    step, so spike times are quantised to the step.  The returned current
    proxy is ``i_rest_proxy + proxy_gain * g_l * (v - e_l)`` sampled at
    every step: a non-negative-at-rest image of the membrane state that a
    current monitor can digest (it goes negative below rest, where the
    monitor's input selector blocks it).
    """
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if i_in.end < duration:
        raise ConfigError("input current must be defined over the full duration")
    p = params
    dt = p.dt
    n_steps = int(math.ceil(duration / dt))
    grid = np.minimum(np.arange(n_steps + 1) * dt, duration)
    # drive evaluated once on the half-step grid used by the RK stages
    half_grid = np.minimum(np.arange(2 * n_steps + 1) * (dt / 2.0), duration)
    drive = i_in.values(half_grid)

    v_peak = p.peak
    exp_cap = 40.0  # clamp the exponent so runaway RK stages stay finite

    def dvw(v: float, w: float, i_ext: float) -> tuple[float, float]:
        arg = min((v - p.v_t) / p.delta_t, exp_cap)
        dv = (-p.g_l * (v - p.e_l) + p.g_l * p.delta_t * math.exp(arg) - w + i_ext) / p.c_m
        dw = (p.a * (v - p.e_l) - w) / p.tau_w
        return dv, dw

    v = p.e_l
    w = 0.0
    v_hist = np.empty(n_steps + 1)
    v_hist[0] = v
    spike_times: list[float] = []
    for k in range(n_steps):
        h = grid[k + 1] - grid[k]
        if h <= 0:
            v_hist[k + 1] = v
            continue
        i0, i1, i2 = drive[2 * k], drive[2 * k + 1], drive[2 * k + 2]
        k1v, k1w = dvw(v, w, i0)
        k2v, k2w = dvw(v + 0.5 * h * k1v, w + 0.5 * h * k1w, i1)
        k3v, k3w = dvw(v + 0.5 * h * k2v, w + 0.5 * h * k2w, i1)
        k4v, k4w = dvw(v + h * k3v, w + h * k3w, i2)
        v += (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        w += (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
        if v >= v_peak:
            spike_times.append(float(grid[k + 1]))
            v = p.v_reset
            w += p.b
        v_hist[k + 1] = v

    proxy = p.i_rest_proxy + p.proxy_gain * p.g_l * (v_hist - p.e_l)
    signal = CurrentSignal.from_samples(grid, proxy)
    return signal, SpikeTrain(np.asarray(spike_times))


def regular_train(rate: float, duration: float) -> SpikeTrain:
    """Evenly spaced spikes at ``k / rate`` for k = 1..floor(rate * duration)."""
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if duration < 0:
        raise ConfigError(f"duration must be non-negative, got {duration}")
    n = int(math.floor(rate * duration * (1.0 + 1e-12)))
    return SpikeTrain(np.arange(1, n + 1) / rate, rate=rate)


def poisson_train(rate: float, duration: float, seed: int) -> SpikeTrain:
    """Homogeneous Poisson spikes: seeded exponential gaps, reproducible."""
    if rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if duration < 0:
        raise ConfigError(f"duration must be non-negative, got {duration}")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate, size=256)
        for g in gaps:
            t += g
            if t >= duration:
                return SpikeTrain(np.asarray(times), rate=rate, seed=seed)
            times.append(t)
