"""Event-driven simulation of converter channels.

One channel cycles through three phases:

    Integrating     the effective current discharges the selected
                    capacitor from v_ref_h toward v_ref_l
    RequestPending  the threshold crossing raised a request; the channel
                    waits for the receiver's acknowledge (latency from
                    the :class:`AckModel`)
    ResetPulse      the extended reset (t_rst) clamps the integrator and
                    restores BOTH capacitors to v_ref_h

Input charge arriving during RequestPending or ResetPulse is discarded,
which is exactly the dead-time mechanism that makes uncompensated decode
read low at high rates.  A range switch mid-integration freezes the
deselected capacitor at its held voltage; it resumes from there when
reselected.

Threshold crossings are solved in closed form.  The stimulus is reduced
to linear pieces of *effective* current (rectified, leak floor applied,
split wherever the range selection can change), and within one piece the
charge balance

    integral i_eff dt  =  C_equiv * (v_active - v_ref_l)

is a quadratic in the crossing time.  No fixed time step exists in this
path; :func:`oracle_simulate` is the deliberately different brute-force
integrator used to cross-check it in the tests.

The state trace (capacitor voltages, phase and range over time) is
rebuilt after the run from the pieces and the events, so asking for it
leaves the event kernel and its output unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import CfcConfig, ConfigError, Polarity, RangeSelect, dead_time, ideal_rate, rectify, select_range
from .stimulus import CurrentSignal

DEFAULT_EVENT_CAP = 100_000_000


class Phase(Enum):
    INTEGRATING = "integrating"
    REQUEST_PENDING = "request_pending"
    RESET_PULSE = "reset_pulse"


class EventStream:
    """Columnar, immutable-by-convention batch of events.

    Request times, channel addresses and range flags (0 = low, 1 = high)
    in three flat arrays rather than one object per event.
    """

    __slots__ = ("t_req", "channel", "sf")

    def __init__(self, t_req: np.ndarray, channel: np.ndarray, sf: np.ndarray):
        self.t_req = np.asarray(t_req, dtype=np.float64)
        self.channel = np.asarray(channel, dtype=np.int64)
        self.sf = np.asarray(sf, dtype=np.uint8)
        if not (self.t_req.shape == self.channel.shape == self.sf.shape):
            raise ValueError("event columns must have matching shapes")

    @classmethod
    def empty(cls) -> "EventStream":
        return cls(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))

    @classmethod
    def merge(cls, streams: Sequence["EventStream"]) -> "EventStream":
        """Merge per-channel streams into one, ordered by (time, channel)."""
        if not streams:
            return cls.empty()
        t = np.concatenate([s.t_req for s in streams])
        ch = np.concatenate([s.channel for s in streams])
        sf = np.concatenate([s.sf for s in streams])
        order = np.lexsort((ch, t))
        return cls(t[order], ch[order], sf[order])

    def __len__(self) -> int:
        return int(self.t_req.size)

    def isis(self) -> np.ndarray:
        return np.diff(self.t_req)


@dataclass(frozen=True)
class AckModel:
    """Acknowledge latency of the off-chip receiver.

    ``latency`` is the fixed part; a positive ``jitter`` adds a uniform
    draw in [0, jitter) per event from a generator seeded with
    ``(seed, channel_address)``, so the sequence is reproducible and
    independent per channel.
    """

    latency: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.latency >= 0:
            raise ConfigError(f"ack latency must be non-negative, got {self.latency}")
        if not self.jitter >= 0:
            raise ConfigError(f"ack jitter must be non-negative, got {self.jitter}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"ack seed must be a non-negative integer, got {self.seed!r}")

    def rng_for(self, channel_address: int) -> Optional[np.random.Generator]:
        if self.jitter > 0.0:
            return np.random.default_rng([self.seed, channel_address])
        return None


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Rows (t, v_low, v_high, phase, selected) of a run, held as columns.

    ``phase`` holds :class:`Phase` members and ``selected`` the range in
    force at each row (0 = low, 1 = high).
    """

    t: np.ndarray
    v_low: np.ndarray
    v_high: np.ndarray
    phase: np.ndarray
    selected: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass
class SimResult:
    events: EventStream
    trace: Optional[StateTrace] = None


class EventCapError(RuntimeError):
    """The event-count safety cap was hit; the events so far are attached."""

    def __init__(self, cap: int, events: EventStream):
        super().__init__(
            f"event cap of {cap} exceeded; simulation truncated (partial events attached)"
        )
        self.cap = cap
        self.events = events


def power_estimate(
    events: EventStream,
    duration: float,
    energy_per_event: float = 0.36e-12,
    static_power: float = 0.0,
) -> float:
    """Average power of a run: static part plus energy per emitted event.

    The default 0.36 pJ/event reproduces 36 nW at a sustained 100 kHz
    output, the worst-case operating point of the reference channel.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    return static_power + energy_per_event * len(events) / duration


# ---------------------------------------------------------------------------
# stimulus preprocessing: signed piecewise-linear current -> effective pieces
# ---------------------------------------------------------------------------


def _split_linear(a, b, ya, yb, targets):
    """Split the line (a,ya)-(b,yb) at strict interior crossings of targets."""
    cuts = []
    if yb != ya:
        inv = (b - a) / (yb - ya)
        for tg in targets:
            if (ya - tg) * (yb - tg) < 0.0:
                cuts.append((a + (tg - ya) * inv, tg))
    if not cuts:
        return [(a, b, ya, yb)]
    cuts.sort()
    pieces = []
    t0, y0 = a, ya
    for tc, tg in cuts:
        if tc > t0:
            pieces.append((t0, tc, y0, tg))
            t0, y0 = tc, tg
    if b > t0:
        pieces.append((t0, b, y0, yb))
    return pieces


def _effective_segments(config: CfcConfig, stimulus: CurrentSignal, duration: float):
    """Linear pieces of effective (rectified + floored) current covering
    [0, duration], split so no piece straddles the leak floor, the range
    threshold or its hysteresis band edge.

    The leak floor is a hard cutoff rather than a subtracted leak: a
    subtractive leak would skew readings just above the floor by tens of
    percent, while measured behaviour there is accurate.
    """
    accept_positive = config.polarity is Polarity.SINK_N
    thresholds = [config.i_leak_floor, config.i_sw]
    if config.hysteresis > 0:
        thresholds.append(config.i_sw * (1.0 - config.hysteresis))
    out = []
    for a, b, ia, ib in stimulus.iter_segments(0.0, duration):
        for pa, pb, pia, pib in _split_linear(a, b, ia, ib, [0.0]):
            mid = 0.5 * (pia + pib)
            accepted = (mid > 0.0) if accept_positive else (mid < 0.0)
            if not accepted:
                out.append((pa, pb, 0.0, 0.0))
                continue
            ra, rb = abs(pia), abs(pib)
            for qa, qb, qra, qrb in _split_linear(pa, pb, ra, rb, thresholds):
                if 0.5 * (qra + qrb) <= config.i_leak_floor:
                    out.append((qa, qb, 0.0, 0.0))
                else:
                    out.append((qa, qb, qra, qrb))
    return out


def _segment_selection(config: CfcConfig, segments) -> list[RangeSelect]:
    """Range selection per effective piece (constant within each by
    construction); hysteresis makes it a stateful fold over midpoints."""
    sels: list[RangeSelect] = []
    prev: Optional[RangeSelect] = None
    for _, _, ia, ib in segments:
        prev = select_range(config, 0.5 * (ia + ib), previous=prev)
        sels.append(prev)
    return sels


# ---------------------------------------------------------------------------
# production simulation: closed-form crossings, no fixed time step
# ---------------------------------------------------------------------------


def _channel_stream(config: CfcConfig, ev_t: list[float], ev_sf: list[int]) -> EventStream:
    """One channel's event times and ranges as a stream."""
    return EventStream(
        np.asarray(ev_t),
        np.full(len(ev_t), config.channel_address, dtype=np.int64),
        np.asarray(ev_sf, dtype=np.uint8),
    )


def simulate(
    config: CfcConfig,
    stimulus: CurrentSignal,
    duration: float,
    ack: Optional[AckModel] = None,
    trace: bool = False,
    max_events: int = DEFAULT_EVENT_CAP,
) -> SimResult:
    """Run one channel against a stimulus and collect its event stream.

    Deterministic: the same config, stimulus and ack seed produce
    bit-identical event lists on every run, with or without ``trace``,
    which only adds the :class:`StateTrace` rebuilt from the finished
    run.  Raises :class:`EventCapError` (with the events so far
    attached) if more than ``max_events`` crossings occur.
    """
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if stimulus.end < duration:
        raise ConfigError(
            f"stimulus is defined up to {stimulus.end} s but the run lasts {duration} s"
        )
    if max_events < 1:
        raise ConfigError("max_events must be at least 1")
    ack = AckModel() if ack is None else ack
    rng = ack.rng_for(config.channel_address)

    segments = _effective_segments(config, stimulus, duration)
    selections = _segment_selection(config, segments)

    v_ref_h, v_ref_l, t_rst = config.v_ref_h, config.v_ref_l, config.t_rst
    caps = tuple(config.scale(r) * config.c1 for r in RangeSelect)  # indexed by range
    dead = dead_time(config, ack)  # exact per cycle on the jitter-free batched path

    ev_t: list[float] = []
    ev_sf: list[int] = []

    v = [v_ref_h, v_ref_h]  # capacitor voltages, indexed by range
    dead_until = 0.0
    in_dead = False

    for (a, b, ia, ib), sel in zip(segments, selections):
        slope = (ib - ia) / (b - a)
        c_eq = caps[sel]
        t = a
        if in_dead:
            if dead_until >= b:
                continue
            t = dead_until
            v = [v_ref_h, v_ref_h]
            in_dead = False
        while t < b:
            v_active = v[sel]
            q_need = c_eq * (v_active - v_ref_l)
            i_t = ia + slope * (t - a)

            # batched steady-state cycles on flat stretches
            if slope == 0.0 and rng is None and i_t > 0.0 and v[0] == v_ref_h and v[1] == v_ref_h:
                isi_int = q_need / i_t
                first = t + isi_int
                if first > b:
                    v[sel] = v_active - (b - t) * i_t / c_eq
                    break
                period = isi_int + dead
                # largest n with first + period * (n - 1) <= b, counted on
                # the expression that places the events below
                n = int((b - first) / period) + 1
                while n > 1 and first + period * (n - 1) > b:
                    n -= 1
                while first + period * n <= b:
                    n += 1
                room = max_events - len(ev_t)
                clipped = n > room
                n = min(n, room)
                times = first + period * np.arange(n, dtype=np.float64)
                ev_t.extend(times.tolist())
                ev_sf.extend([int(sel)] * n)
                if clipped:
                    raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf))
                dead_until = float(times[-1]) + dead
                if dead_until >= b:
                    in_dead = True
                    break
                t = dead_until
                v = [v_ref_h, v_ref_h]
                continue

            q_avail = 0.5 * (i_t + ib) * (b - t)
            if q_need > 0.0 and q_avail < q_need:
                v[sel] = v_active - q_avail / c_eq
                break

            if q_need <= 0.0:
                if i_t <= 0.0 and slope == 0.0:
                    # rounding dust left the voltage a hair past threshold
                    # at a boundary, but no current flows here: hold rather
                    # than emit a zero-current event that exact arithmetic
                    # would never produce
                    break
                t_ev = t
            else:
                disc = i_t * i_t + 2.0 * slope * q_need
                t_ev = t + 2.0 * q_need / (i_t + math.sqrt(disc))
                if t_ev > b:
                    t_ev = b
            if len(ev_t) >= max_events:
                raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf))
            ev_t.append(t_ev)
            ev_sf.append(int(sel))
            latency = ack.latency + (rng.uniform(0.0, ack.jitter) if rng is not None else 0.0)
            dead_until = t_ev + latency + t_rst
            if dead_until >= b:
                in_dead = True
                break
            t = dead_until
            v = [v_ref_h, v_ref_h]

    events = _channel_stream(config, ev_t, ev_sf)
    if not trace:
        return SimResult(events=events)
    # the kernel drew one latency per event from this same generator
    rng = ack.rng_for(config.channel_address)
    n = len(events)
    jitter = rng.uniform(0.0, ack.jitter, size=n) if rng is not None else np.zeros(n)
    latencies = ack.latency + jitter
    return SimResult(events, _state_trace(config, segments, selections, events, latencies, duration))


def _state_trace(
    config: CfcConfig, segments, selections, events: EventStream, latencies: np.ndarray, duration: float
) -> StateTrace:
    """Rebuild the state trace of a finished run from its effective pieces,
    their range selections, its events and their acknowledge latencies.

    Rows: the start, every range switch, the end of the run and, per
    event, its request, its acknowledge (kept at or before the end) and
    the end of its reset (kept before the end), sorted by time.  While
    integrating, each capacitor sits at v_ref_h less the charge its range
    took in since the last reset ended, over its capacitance.  From a
    request to the end of its reset, the capacitor that fired holds
    v_ref_l and the other one keeps its value at the request.
    """
    starts, ends, i_a, i_b = np.asarray(segments, dtype=np.float64).T
    sel = np.asarray(selections, dtype=np.uint8)
    slope = (i_b - i_a) / (ends - starts)
    caps = np.asarray([config.scale(r) * config.c1 for r in RangeSelect])

    # charge each range took in from t = 0 to the start of every piece
    q_piece = 0.5 * (i_a + i_b) * (ends - starts)
    q_start = np.zeros((2, starts.size))
    for r in RangeSelect:
        q_start[r, 1:] = np.cumsum(np.where(sel == r, q_piece, 0.0))[:-1]

    def charge(t):
        """Charge per range (rows) taken in over [0, t] (columns)."""
        k = np.searchsorted(starts, t, side="right") - 1
        dt = t - starts[k]
        q = q_start[:, k]
        q[sel[k], np.arange(t.size)] += i_a[k] * dt + 0.5 * slope[k] * dt * dt
        return q

    t_ev = events.t_req
    n = t_ev.size
    ack = t_ev + latencies
    reset_end = ack + config.t_rst

    # each event's request, acknowledge and reset end, in that order
    t_cycle = np.column_stack((t_ev, ack, reset_end)).ravel()
    cycle = np.array([Phase.REQUEST_PENDING, Phase.RESET_PULSE, Phase.INTEGRATING], dtype=object)
    phase_cycle = np.tile(cycle, n)
    keep = np.column_stack((np.ones(n, dtype=bool), ack <= duration, reset_end < duration)).ravel()

    # the start, each range switch and the end take the phase in force
    t_fixed = np.concatenate(([0.0], starts[np.flatnonzero(sel[1:] != sel[:-1]) + 1], [duration]))
    in_force = np.searchsorted(t_cycle, t_fixed, side="right") - 1
    phase_fixed = np.append(phase_cycle, Phase.INTEGRATING)[in_force]  # -1: before any event

    # the end row goes last, after any acknowledge at the very end
    t = np.concatenate((t_fixed[:-1], t_cycle[keep], t_fixed[-1:]))
    phase = np.concatenate((phase_fixed[:-1], phase_cycle[keep], phase_fixed[-1:]))
    row_in_cycle = np.concatenate((in_force[:-1], np.flatnonzero(keep), in_force[-1:]))
    order = np.argsort(t, kind="stable")
    t, phase = t[order], phase[order]
    owner = row_in_cycle[order] // 3  # the last event at or before the row; -1 for none

    # charge counts from the last reset end up to the row, or, from a
    # request to its reset end, up to the request
    integrating = phase == Phase.INTEGRATING
    dead = np.flatnonzero(~integrating)
    since = np.concatenate(([0.0], reset_end))[owner + integrating]
    held = t.copy()
    held[dead] = t_ev[owner[dead]]
    v = config.v_ref_h - (charge(held) - charge(since)) / caps[:, None]
    v[events.sf[owner[dead]], dead] = config.v_ref_l
    selected = sel[np.searchsorted(starts, t, side="right") - 1]
    return StateTrace(t, v[RangeSelect.LOW], v[RangeSelect.HIGH], phase, selected)


def simulate_many(
    channels: Sequence[tuple[CfcConfig, CurrentSignal]],
    duration: float,
    ack: Optional[AckModel] = None,
) -> EventStream:
    """Simulate independent channels and merge their events by timestamp."""
    addresses = [cfg.channel_address for cfg, _ in channels]
    if len(set(addresses)) != len(addresses):
        raise ConfigError("channel addresses must be unique")
    return EventStream.merge([simulate(cfg, stim, duration, ack=ack).events for cfg, stim in channels])


# ---------------------------------------------------------------------------
# brute-force oracle: fixed-step accumulation, used only for verification
# ---------------------------------------------------------------------------


def _raw_crossings(stimulus: CurrentSignal, duration: float, targets) -> list[float]:
    """Times where the raw signed stimulus crosses any target level."""
    times = []
    for a, b, ia, ib in stimulus.iter_segments(0.0, duration):
        if ib == ia:
            continue
        inv = (b - a) / (ib - ia)
        for tg in targets:
            if (ia - tg) * (ib - tg) < 0.0:
                times.append(a + (tg - ia) * inv)
    return times


def _fastest_ideal_isi(config: CfcConfig, stimulus: CurrentSignal, duration: float) -> Optional[float]:
    """Shortest ideal inter-event interval the stimulus can provoke."""
    max_rate = 0.0
    for _, _, ia, ib in stimulus.iter_segments(0.0, duration):
        ra = rectify(ia, config.polarity)
        rb = rectify(ib, config.polarity)
        lo, hi = min(ra, rb), max(ra, rb)
        # the rectified range of this piece also covers zero when the
        # signed piece changes sign
        if (ia < 0 < ib) or (ib < 0 < ia):
            lo = 0.0
        if hi <= config.i_leak_floor:
            continue
        # rate is increasing on each branch; its supremum over [lo, hi]
        # sits at the top of whichever branches the interval touches
        if lo < config.i_sw:
            max_rate = max(max_rate, ideal_rate(config, min(hi, config.i_sw), RangeSelect.LOW))
        if hi >= config.i_sw:
            max_rate = max(max_rate, ideal_rate(config, hi, RangeSelect.HIGH))
    if max_rate == 0.0:
        return None
    return 1.0 / max_rate


def oracle_simulate(
    config: CfcConfig,
    stimulus: CurrentSignal,
    duration: float,
    dt: float,
    ack: Optional[AckModel] = None,
    max_events: int = DEFAULT_EVENT_CAP,
) -> EventStream:
    """Fixed-step reference integrator for verifying :func:`simulate`.

    Accumulates trapezoidal charge on a time grid of pitch ``dt`` (the
    grid additionally lands on stimulus breakpoints and threshold
    crossings so every step sees a single linear piece and one range),
    then places each event by linear interpolation inside the step that
    crossed.  Event times agree with the closed-form path within 2 * dt.

    Refuses to run when ``dt`` is coarser than 1/1000 of the fastest
    ideal inter-event interval the stimulus can provoke.  Supports zero
    comparator hysteresis only.  Test machinery: not meant for
    production use.
    """
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if stimulus.end < duration:
        raise ConfigError("stimulus ends before the requested duration")
    if config.hysteresis != 0.0:
        raise ConfigError("the oracle supports zero comparator hysteresis only")
    fastest = _fastest_ideal_isi(config, stimulus, duration)
    if fastest is not None and dt > fastest / 1000.0:
        raise ConfigError(
            f"dt = {dt} too coarse for the fastest expected interval "
            f"{fastest}; need dt <= {fastest / 1000.0}"
        )
    ack = AckModel() if ack is None else ack
    rng = ack.rng_for(config.channel_address)

    accept_positive = config.polarity is Polarity.SINK_N
    floor = config.i_leak_floor
    i_sw = config.i_sw
    v_ref_h, v_ref_l, t_rst = config.v_ref_h, config.v_ref_l, config.t_rst
    c_low = config.c1
    c_high = config.alpha * config.beta * config.c1

    sign_targets = [0.0]
    sign_targets += [floor, i_sw] if accept_positive else [-floor, -i_sw]
    specials = np.asarray(sorted(set(
        list(stimulus.times[(stimulus.times > 0) & (stimulus.times < duration)])
        + [x for x in _raw_crossings(stimulus, duration, sign_targets) if 0.0 < x < duration]
    )))

    def eff_values(ts: np.ndarray, side: str = "right") -> np.ndarray:
        raw = stimulus.values(ts, side=side)
        r = np.maximum(raw, 0.0) if accept_positive else np.maximum(-raw, 0.0)
        return np.where(r > floor, r, 0.0)

    ev_t: list[float] = []
    ev_sf: list[int] = []
    t = 0.0
    v_low = v_high = v_ref_h
    chunk = 1 << 16

    while t < duration:
        if len(ev_t) >= max_events:
            raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf))
        t_hi = min(duration, t + chunk * dt)
        n = max(1, int(math.ceil((t_hi - t) / dt - 1e-12)))
        ts = t + dt * np.arange(n + 1)
        ts[-1] = t_hi
        lo_idx, hi_idx = np.searchsorted(specials, [t, t_hi], side="right")
        inside = specials[lo_idx:hi_idx]
        if inside.size:
            ts = np.unique(np.concatenate([ts, inside]))
        # step starts take right limits, step ends take left limits, so a
        # stimulus jump sitting exactly on a grid point charges each side
        # of the discontinuity with its own segment's current
        ie = eff_values(ts)
        ie_end = eff_values(ts, side="left")
        steps = np.diff(ts)
        mids = 0.5 * (ie[:-1] + ie_end[1:])
        sel_high = mids >= i_sw
        dq = mids * steps
        dv_low = np.where(sel_high, 0.0, dq / c_low)
        dv_high = np.where(sel_high, dq / c_high, 0.0)
        cum_low = v_low - np.cumsum(dv_low)
        cum_high = v_high - np.cumsum(dv_high)
        active_end = np.where(sel_high, cum_high, cum_low)
        hit = active_end <= v_ref_l
        if not hit.any():
            v_low = float(cum_low[-1])
            v_high = float(cum_high[-1])
            t = float(ts[-1])
            continue
        k = int(np.argmax(hit))
        vl_k = float(cum_low[k - 1]) if k else v_low
        vh_k = float(cum_high[k - 1]) if k else v_high
        start_active = vh_k if sel_high[k] else vl_k
        step_drop = float(dv_high[k] if sel_high[k] else dv_low[k])
        need = start_active - v_ref_l
        frac = 0.0 if step_drop <= 0.0 else min(max(need / step_drop, 0.0), 1.0)
        t_ev = float(ts[k]) + frac * float(steps[k])
        ev_t.append(t_ev)
        ev_sf.append(1 if sel_high[k] else 0)
        latency = ack.latency + (rng.uniform(0.0, ack.jitter) if rng is not None else 0.0)
        t = t_ev + latency + t_rst
        v_low = v_high = v_ref_h

    return _channel_stream(config, ev_t, ev_sf)
