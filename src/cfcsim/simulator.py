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
split wherever the range selection can change), built as numpy columns
together with each piece's range in vectorised passes over blocks of
the stimulus, and within one piece the charge balance

    integral i_eff dt  =  C_equiv * (v_active - v_ref_l)

is a quadratic in the crossing time.  No fixed time step exists in this
path; the test suite cross-checks it against a deliberately different
brute-force integrator, the fixed-step oracle in ``tests/oracle.py``.

Events are found one at a time, except on a flat stretch of current
entered with both capacitors reset: there every cycle is alike, and
batches of at most ``core._BLOCK`` cycles place its events.  Without
jitter each cycle lasts the same period, and the events sit at
``first + period * k`` however the batches cut the stretch, which can
differ from the per-event loop's running sum in the last bits.  With
jitter, one cumulative sum over the interval and the latencies, read
by event index as one numpy column, is that loop's sum bit for bit.

The effective pieces are built one block of at most ``core._BLOCK``
stimulus segments at a time, and the kernel reads each block's rows as
Python floats as it is built.  It keeps the events in typed buffers, 9
bytes an event, which the finished stream wraps without a copy; its
memory grows with the events, not with the pieces, Python objects per
piece or candidate cycles per stretch.

The state trace (capacitor voltages, phase and range over time) is
not made by the kernel: :func:`state_trace` rebuilds it from a finished
run's events and the pieces, built again, so the kernel has no trace
option and its events are the same whether a trace is asked for or not.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional

import numpy as np

from . import core
from .core import (CfcConfig, ConfigError, RangeSelect, _block_rows, _is_address, above_floor, rectify,
                   select_ranges, thresholds)
from .stimulus import CurrentSignal

DEFAULT_EVENT_CAP = 100_000_000


class Phase(IntEnum):
    INTEGRATING = 0
    REQUEST_PENDING = 1
    RESET_PULSE = 2


class EventStream:
    """Columnar, immutable-by-convention batch of one channel's events.

    Request times and range flags (0 = low, 1 = high) in two flat arrays
    rather than one object per event, 9 bytes an event, and the channel
    address they were all sent under, one int in [0, 2**63).  A time that
    is not finite and a flag other than 0 and 1 are refused, naming the
    first such event.
    """

    __slots__ = ("t_req", "channel", "sf")

    def __init__(self, t_req: np.ndarray, channel: int, sf: np.ndarray):
        if not _is_address(channel):
            raise ValueError(f"an event stream holds one channel, an integer in [0, 2**63), got {channel!r}")
        t = self.t_req = np.asarray(t_req, dtype=np.float64)
        self.channel = int(channel)
        sf = np.asarray(sf)
        if t.ndim != 1 or t.shape != sf.shape:
            raise ValueError("event columns must be one-dimensional, of matching shapes")
        # min and max, which propagate a NaN, make no temporary the size of the stream
        if not (math.isfinite(t.min(initial=0.0)) and math.isfinite(t.max(initial=0.0))):
            k = int(np.argmin(np.isfinite(t)))
            raise ValueError(f"event times must be finite: event {k} is at t = {float(t[k])!r} s")
        if not (sf.dtype == np.uint8 and sf.max(initial=0) <= 1 or ((sf == 0) | (sf == 1)).all()):
            k = int(np.argmin((sf == 0) | (sf == 1)))
            raise ValueError(f"range flags must be 0 or 1: event {k} has flag {sf[k].item()!r}")
        self.sf = sf.astype(np.uint8, copy=False)

    @classmethod
    def empty(cls) -> "EventStream":
        return cls(np.empty(0), 0, np.empty(0, dtype=np.uint8))

    def __len__(self) -> int:
        return int(self.t_req.size)


@dataclass(frozen=True)
class AckModel:
    """Acknowledge latency of the off-chip receiver.

    ``latency`` is the fixed part; a positive ``jitter`` adds a uniform
    draw in [0, jitter) per event.  :meth:`draws` is the one source of
    these values: event k of a channel waits the k-th draw of a generator
    seeded with ``(seed, channel_address)``, so draw k depends only on the
    seed, the channel and k, and the sequences of channels are independent.
    """

    latency: float = 0.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.latency >= 0 and math.isfinite(self.latency)):
            raise ConfigError(f"ack latency must be finite and non-negative, got {self.latency}")
        if not (self.jitter >= 0 and math.isfinite(self.jitter)):
            raise ConfigError(f"ack jitter must be finite and non-negative, got {self.jitter}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"ack seed must be a non-negative integer, got {self.seed!r}")

    def draws(self, channel_address: int, start: int, count: int) -> np.ndarray:
        """The latencies of events ``start`` to ``start + count - 1`` of a channel, as one column.  A
        float64 uniform takes one PCG64 output, so advancing ``start`` outputs (never back) reaches draw ``start``."""
        for name, value in (("start", start), ("count", count)):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.jitter == 0.0:
            return np.full(count, self.latency)
        rng = np.random.default_rng([self.seed, channel_address])
        rng.bit_generator.advance(start)
        return self.latency + rng.uniform(0.0, self.jitter, count)

    def latencies(self, channel_address: int, start: int = 0) -> Iterator[float]:
        """:meth:`draws` from event ``start`` on, as Python floats, taken
        ``core._BLOCK`` at a time, as it is when this is called; without
        jitter, blocks of the latency repeated."""
        size = core._BLOCK
        blocks = (self.draws(channel_address, k, size).tolist() for k in itertools.count(start, size))
        return itertools.chain.from_iterable(blocks)


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Rows (t, v_low, v_high, phase, selected) of a run, held as columns.

    ``phase`` holds the :class:`Phase` code of each row as a uint8 and
    ``selected`` the range in force at it (0 = low, 1 = high).
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


class EventCapError(RuntimeError):
    """The event-count safety cap was hit; the message names the channel
    and the simulated time it stopped at, and the events so far are
    attached."""

    def __init__(self, cap: int, events: EventStream, t: float):
        super().__init__(
            f"event cap of {cap} exceeded on channel {events.channel} at t = {t!r} s;"
            " simulation truncated (partial events attached)"
        )
        self.cap = cap
        self.events = events


#: J per emitted event: 36 nW at a sustained 100 kHz output, the
#: worst-case operating point of the reference channel.
_ENERGY_PER_EVENT = 0.36e-12


def power_estimate(events: EventStream, duration: float) -> float:
    """Average power of a run: a fixed energy per emitted event (the
    channel draws no static power)."""
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    return _ENERGY_PER_EVENT * len(events) / duration


# ---------------------------------------------------------------------------
# stimulus preprocessing: signed piecewise-linear current -> effective pieces
# ---------------------------------------------------------------------------


def _split_at(a, b, ya, yb, targets):
    """Split the lines (a, ya)-(b, yb) at strict interior crossings of the
    target levels, as columns in, columns out.

    Every rise ``yb - ya`` must be finite, as it is for the pieces of
    :meth:`CurrentSignal.pieces` and for non-negative finite ends.
    Within a line the cuts are taken in (time, level) order, and a cut is
    kept only if it lies after the line's start and after the cut before
    it: the same pieces, bit for bit, as walking the sorted cuts and
    keeping each one past the last kept.  Only lines that cross a target
    are cut, so the work beyond a few comparisons is on those alone.
    """
    # compared, not multiplied: a product of the two distances underflows
    # to -0.0 or overflows
    lo, hi = np.minimum(ya, yb), np.maximum(ya, yb)
    crosses = [(lo < tg) & (tg < hi) for tg in targets]
    crossing = np.logical_or.reduce(crosses)
    rows = np.flatnonzero(crossing)
    ra, rb, rya, ryb = a[rows], b[rows], ya[rows], yb[rows]
    # a line only a few subnormals tall has no finite inv and is cut at the
    # crossed share of its length; any other inf or nan falls at a target
    # the line does not cross, which is dropped below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        dy = ryb - rya
        inv = (rb - ra) / dy
        by_share = np.isinf(inv)
        cuts = [np.where(by_share, ra + (tg - rya) / dy * (rb - ra), ra + (tg - rya) * inv) for tg in targets]
    # one column per target; inf marks a target the line does not cross
    tc = np.column_stack([np.where(c[rows], t, np.inf) for c, t in zip(crosses, cuts)])
    level = np.broadcast_to(np.asarray(targets, dtype=np.float64), tc.shape)
    order = np.lexsort((level, tc), axis=-1)
    tc = np.take_along_axis(tc, order, axis=-1)
    level = np.take_along_axis(level, order, axis=-1)
    keep = (tc < np.inf) & (tc > np.maximum(ra[:, None], np.column_stack((ra, tc[:, :-1]))))
    last = np.where(keep, tc, ra[:, None]).max(axis=1)

    # a cut line's points are its start, its kept cuts and, past the last
    # of them, its end; consecutive points bound its pieces
    point = np.column_stack((np.ones(rows.size, dtype=bool), keep, rb > last))
    pt_t = np.column_stack((ra, tc, rb))[point]
    pt_y = np.column_stack((rya, level, ryb))[point]
    n_pts = point.sum(axis=1)
    row_last = np.cumsum(n_pts) - 1
    row_first = row_last - n_pts + 1

    counts = np.ones(a.size, dtype=np.intp)
    counts[rows] = n_pts - 1
    src = np.repeat(np.arange(a.size), counts)  # the line each piece comes from
    a, b, ya, yb, cut = (col[src] for col in (a, b, ya, yb, crossing))
    a[cut], b[cut] = np.delete(pt_t, row_last), np.delete(pt_t, row_first)
    ya[cut], yb[cut] = np.delete(pt_y, row_last), np.delete(pt_y, row_first)
    return a, b, ya, yb


def _effective_pieces(config: CfcConfig, stimulus: CurrentSignal, duration: float):
    """Linear pieces of effective (rectified + floored) current covering
    [0, duration] and the range each selects, as the columns ``starts,
    ends, i_a, i_b, sel``, one block per block of stimulus pieces.

    The stimulus pieces (:meth:`CurrentSignal.pieces`, which checks every
    segment before the first block) are split where they cross zero; the
    pieces of the accepted sign are rectified and split at the
    :func:`~cfcsim.core.thresholds`.  Each piece is judged at its midpoint
    by the rules of :mod:`cfcsim.core`.  Every step but the range works
    on each piece alone, and the range in force at the end of a block
    carries into the next, so the blocks joined end to end are the
    columns one pass over the whole stimulus would build, bit for bit.
    """
    sel = RangeSelect.LOW
    for block in stimulus.pieces(duration):
        block = _effective_block(config, *block, sel)  # drops the stimulus block
        sel = block[-1][-1]  # the range in force at the block's end
        yield block


def _effective_block(config: CfcConfig, a, b, ia, ib, sel):
    """The columns of :func:`_effective_pieces` for one block of stimulus
    pieces, with ``sel`` the range in force before it."""
    starts, ends, ia, ib = _split_at(a, b, ia, ib, [0.0])

    # accepted by its midpoint's sign, then the magnitude of its ends: a
    # zero cut that rounds onto a piece's start is dropped, so a piece can
    # still change sign.  A blocked piece becomes 0 A, at or below every level
    accepted = rectify(0.5 * (ia + ib), config.polarity) > 0.0
    ra, rb = np.where(accepted, np.abs((ia, ib)), 0.0)
    starts, ends, ra, rb = _split_at(starts, ends, ra, rb, thresholds(config))
    i_a, i_b = np.where(above_floor(config, 0.5 * (ra + rb)), (ra, rb), 0.0)
    return starts, ends, i_a, i_b, select_ranges(config, 0.5 * (i_a + i_b), sel)


def _joined(blocks):
    """Column blocks joined end to end into whole columns."""
    return [np.concatenate(column) for column in zip(*blocks)]


# ---------------------------------------------------------------------------
# production simulation: closed-form crossings, no fixed time step
# ---------------------------------------------------------------------------


def _channel_stream(config: CfcConfig, ev_t: array, ev_sf: array) -> EventStream:
    """One channel's event times and ranges as a stream over the typed
    buffers ``ev_t`` (``array("d")``) and ``ev_sf`` (``array("B")``),
    which it wraps without a copy: they take no events after this."""
    return EventStream(np.frombuffer(ev_t), config.channel_address, np.frombuffer(ev_sf, dtype=np.uint8))


def _jittered_stretch(t, b, i_t, ib, q_need, isi, t_rst, lat):
    """The events the per-event loop emits on a flat stretch [t, b) of
    current ``i_t`` (``ib`` at b), one candidate cycle per latency in the
    numpy column ``lat``, as ``(times, t_next, q_avail)``.

    Candidate k integrates from t_k for ``isi``, fires at t_ev_k and
    integrates again from t_{k+1} = (t_ev_k + lat_k) + t_rst.  One
    cumulative sum over [t, isi, lat_0, t_rst, isi, lat_1, t_rst, ...]
    places them all; ``np.add.accumulate`` adds in order, so each value
    is the per-event loop's sum bit for bit.  The loop's tests then apply
    elementwise: the stretch stops at the first cycle that starts at or
    after b or has less than ``q_need`` of charge left before b, and an
    event past b fires at b.  ``t_next`` is where integration resumes
    after the last event (the start t if there is none); ``q_avail`` is
    the charge left when the stretch stops short of b, else None.
    """
    m = len(lat)
    x = np.empty(3 * m + 1)
    x[0] = t
    x[1::3] = isi
    x[2::3] = lat
    x[3::3] = t_rst
    c = np.cumsum(x)
    starts = c[0:3 * m:3]
    q_avail = 0.5 * (i_t + ib) * (b - starts)
    stop = np.flatnonzero((starts >= b) | (q_avail < q_need))
    n = int(stop[0]) if stop.size else m
    times = np.minimum(c[1:3 * n:3], b)
    if n and c[3 * n - 2] > b:  # the last event fired at b
        t_next = b + lat.item(n - 1) + t_rst  # a Python float, as in the per-event loop
    else:
        t_next = float(c[3 * n])
    short = n < m and starts[n] < b
    return times, t_next, float(q_avail[n]) if short else None


def simulate(
    config: CfcConfig,
    stimulus: CurrentSignal,
    duration: float,
    ack: Optional[AckModel] = None,
    max_events: int = DEFAULT_EVENT_CAP,
) -> SimResult:
    """Run one channel against a stimulus and collect its event stream.

    Deterministic: the same config, stimulus and ack seed produce
    bit-identical event lists on every run.  Raises
    :class:`EventCapError` (with the events so far attached) if more
    than ``max_events`` crossings occur, and a ``ConfigError`` for a
    stimulus segment :meth:`CurrentSignal.pieces` refuses, before any
    event.
    """
    _check_run(stimulus, duration)
    if max_events < 1:
        raise ConfigError("max_events must be at least 1")
    ack = AckModel() if ack is None else ack
    latencies = ack.latencies(config.channel_address)

    # the kernel takes each block of pieces as it is built
    blocks = _effective_pieces(config, stimulus, duration)

    v_ref_h, v_ref_l, t_rst = config.v_ref_h, config.v_ref_l, config.t_rst
    caps = config.caps
    sqrt = math.sqrt
    shortest_dead = ack.latency + t_rst  # of the shortest cycle, and of every cycle without jitter

    # 9 bytes an event: the time as a C double, the range as one byte;
    # a batch is appended as the raw bytes of its numpy times
    ev_t = array("d")
    ev_sf = array("B")

    v = [v_ref_h, v_ref_h]  # capacitor voltages, indexed by range
    dead_until = 0.0  # end of the last reset; a piece integrates from here on

    for a, b, ia, ib, sel in itertools.chain.from_iterable(_block_rows(*block) for block in blocks):
        slope = (ib - ia) / (b - a)
        c_eq = caps[sel]
        t = dead_until if dead_until > a else a
        stretch = None  # a jitter-free stretch cut at a batch's end: (first, next k)
        while t < b:
            v_active = v[sel]
            q_need = c_eq * (v_active - v_ref_l)
            i_t = ia + slope * (t - a)

            # a flat stretch from a full reset: its events in batches
            if slope == 0.0 and i_t > 0.0 and v[0] == v_ref_h and v[1] == v_ref_h:
                room = max_events - len(ev_t)
                # the per-event loop's interval expression, not q_need / i_t
                isi = 2.0 * q_need / (i_t + sqrt(i_t * i_t + 2.0 * slope * q_need))
                # enough candidates to reach b, as no cycle is shorter than
                # ``cycle``, but at most one past the cap and one block
                cycle = isi + shortest_dead
                fit = (b - t) / cycle if cycle > 0.0 else math.inf
                m = int(min(fit + 2.0, room + 1, core._BLOCK))
                if ack.jitter:
                    k = len(ev_t)  # every event so far took one draw
                    lat = ack.draws(config.channel_address, k, m)
                    times, t_next, q_avail = _jittered_stretch(t, b, i_t, ib, q_need, isi, t_rst, lat)
                    # the draws no event took go, in order, to the next events
                    latencies = itertools.chain(lat[times.size:].tolist(), ack.latencies(config.channel_address, k + m))
                else:
                    # first + cycle * k, built in place, never decreases in k: one search
                    # counts the events at or before b, and a cut stretch goes on from its
                    # k.  A first interval past b or at inf (0 * inf is nan) leaves none
                    first, k = (t + isi, 0) if stretch is None else stretch
                    times = np.arange(k, k + m if first <= b else k, dtype=np.float64)
                    times *= cycle
                    times += first
                    times = times[:np.searchsorted(times, b, side="right")]
                    stretch = (first, k + m) if times.size == m else None
                    t_next = float(times[-1]) + shortest_dead if times.size else t
                    q_avail = None if times.size else (b - t) * i_t
                n = times.size
                ev_t.frombytes(times[:room].view(np.uint8))
                ev_sf.frombytes(bytes((sel,)) * min(n, room))
                if n > room:
                    raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf), float(times[room]))
                t = dead_until = t_next
                if q_avail is not None:
                    v[sel] = v_active - q_avail / c_eq
                    break
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
                t_ev = t + 2.0 * q_need / (i_t + sqrt(i_t * i_t + 2.0 * slope * q_need))
                if t_ev > b:
                    t_ev = b
            if len(ev_t) >= max_events:
                raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf), t_ev)
            ev_t.append(t_ev)
            ev_sf.append(sel)
            t = dead_until = t_ev + next(latencies) + t_rst
            v[0] = v[1] = v_ref_h

    return SimResult(_channel_stream(config, ev_t, ev_sf))


def _check_run(stimulus: CurrentSignal, duration: float) -> None:
    """Refuse a run that is not positive or outlasts its stimulus."""
    if not duration > 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    if stimulus.end < duration:
        raise ConfigError(f"stimulus is defined up to {stimulus.end} s but the run lasts {duration} s")


def _charge(pieces, t, q_first=(0.0, 0.0)) -> np.ndarray:
    """The charge each range (rows) took in from the first piece's start
    up to each time of ``t`` (columns), which lie in the pieces
    ``starts, ends, i_a, i_b, sel`` of :func:`_effective_pieces`, given
    ``q_first``, the charge per range at the first piece's start.

    The charge at each piece's start is one running sum per range from
    ``q_first`` on, so the pieces cut into blocks, each block given the
    whole's charge at its first start, take in the same charges, bit for
    bit, as the whole.  Within a piece the current is linear in time.
    """
    starts, ends, i_a, i_b, sel = pieces
    slope = (i_b - i_a) / (ends - starts)
    q_piece = 0.5 * (i_a + i_b) * (ends - starts)
    q_start = np.empty((2, starts.size))
    for r in RangeSelect:
        q_start[r, 0] = q_first[r]
        q_start[r, 1:] = np.where(sel[:-1] == r, q_piece[:-1], 0.0)
        q_start[r] = np.cumsum(q_start[r])
    k = np.searchsorted(starts, t, side="right") - 1
    dt = t - starts[k]
    q = q_start[:, k]
    q[sel[k], np.arange(t.size)] += i_a[k] * dt + 0.5 * slope[k] * dt * dt
    return q


def state_trace(config: CfcConfig, stimulus: CurrentSignal, duration: float, events: EventStream,
                ack: Optional[AckModel] = None) -> StateTrace:
    """Rebuild the state trace of a finished run from ``events``, what
    :func:`simulate` returned for the same arguments, the effective pieces,
    built again, and the latencies the kernel drew for them from ``ack``.

    Rows: the start, every range switch, the end of the run and, per
    event, its request, its acknowledge (kept at or before the end) and
    the end of its reset (kept before the end), sorted by time.  While
    integrating, each capacitor sits at v_ref_h less the charge its range
    took in since the last reset ended, over its capacitance.  From a
    request to the end of its reset, the capacitor that fired holds
    v_ref_l and the other one keeps its value at the request.
    """
    _check_run(stimulus, duration)
    ack = AckModel() if ack is None else ack
    pieces = _joined(_effective_pieces(config, stimulus, duration))
    starts, *_, sel = pieces
    caps = np.asarray(config.caps)

    t_ev = events.t_req
    n = t_ev.size
    t_ack = t_ev + ack.draws(config.channel_address, 0, n)
    reset_end = t_ack + config.t_rst

    # each event's request, acknowledge and reset end, in that order
    t_cycle = np.column_stack((t_ev, t_ack, reset_end)).ravel()
    cycle = np.array([Phase.REQUEST_PENDING, Phase.RESET_PULSE, Phase.INTEGRATING], dtype=np.uint8)
    phase_cycle = np.tile(cycle, n)
    keep = np.column_stack((np.ones(n, dtype=bool), t_ack <= duration, reset_end < duration)).ravel()

    # the start, each range switch and the end take the phase in force
    t_fixed = np.concatenate(([0.0], starts[np.flatnonzero(sel[1:] != sel[:-1]) + 1], [duration]))
    in_force = np.searchsorted(t_cycle, t_fixed, side="right") - 1
    phase_fixed = np.append(phase_cycle, np.uint8(Phase.INTEGRATING))[in_force]  # -1: before any event

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
    v = config.v_ref_h - (_charge(pieces, held) - _charge(pieces, since)) / caps[:, None]
    v[events.sf[owner[dead]], dead] = config.v_ref_l
    selected = sel[np.searchsorted(starts, t, side="right") - 1]
    return StateTrace(t, v[RangeSelect.LOW], v[RangeSelect.HIGH], phase, selected)
