"""Test machinery: the brute-force oracle, a breakpoint stimulus builder,
a block-size switch and the reference float kernel.

:func:`oracle_simulate` is the fixed-step reference integrator that the
closed-form event solver of :func:`cfcsim.simulator.simulate` is checked
against (``test_oracle.py`` and criterion 08 of ``test_acceptance.py``):
same channel semantics, entirely different numerics.
:func:`from_breakpoints` builds the piecewise stimuli those tests drive
it with.  :func:`block_size` runs the package's blocked loops with
another block size, to show their results do not depend on it.
:func:`oracle_shortest` is the float kernel's digit search with three
separate round-to-odd products, one for each end of the rounding interval
and one for the value, which ``cfcsim.formats._shortest`` must match bit
for bit, and :func:`oracle_digits` its digit loop that peels one digit a
pass, which ``cfcsim.formats._digits`` must match too.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from array import array
from typing import Optional, Sequence

import numpy as np
import pytest

from cfcsim.core import CfcConfig, ConfigError, Polarity, RangeSelect, _block_rows, ideal_rate, rectify
from cfcsim.formats import _32, _K_MIN, _M32, _multipliers
from cfcsim.simulator import DEFAULT_EVENT_CAP, AckModel, EventCapError, EventStream, _channel_stream
from cfcsim.stimulus import CurrentSignal


@contextlib.contextmanager
def block_size(k: int):
    """Inside the ``with`` statement, ``core._BLOCK`` is ``k``: every
    blocked loop of the package reads it from ``cfcsim.core`` when it runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cfcsim.core._BLOCK", k)
        yield


def from_breakpoints(
    points: Sequence[tuple[float, float]],
    kinds: str | Sequence[str] = "step",
    end: Optional[float] = None,
) -> CurrentSignal:
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
    return CurrentSignal(np.asarray(t0), np.asarray(i0), np.asarray(i1), sig_end)


# ---------------------------------------------------------------------------
# brute-force oracle: fixed-step accumulation, used only for verification
# ---------------------------------------------------------------------------


def _rows(blocks):
    """The rows of blocks of columns, in order, as tuples of floats."""
    return itertools.chain.from_iterable(_block_rows(*block) for block in blocks)


def _raw_crossings(stimulus: CurrentSignal, duration: float, targets) -> list[float]:
    """Times where the raw signed stimulus crosses any target level."""
    times = []
    for a, b, ia, ib in _rows(stimulus.pieces(duration)):
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
    for _, _, ia, ib in _rows(stimulus.pieces(duration)):
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
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not duration > 0:
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
    latencies = ack.latencies(config.channel_address)

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

    def eff_values(raw: np.ndarray) -> np.ndarray:
        r = np.maximum(raw, 0.0) if accept_positive else np.maximum(-raw, 0.0)
        return np.where(r > floor, r, 0.0)

    # the left limit differs from the signal's value only at a breakpoint
    # times[j], j >= 1: there it is segment j - 1 at its end, i_start +
    # rise * 1.0 (the fraction width / width is exactly 1.0).  An inf
    # sentinel keeps every grid point's search inside the array
    breaks = np.append(stimulus.times[1:], np.inf)
    rise = stimulus.i_end[:-1] - stimulus.i_start[:-1]
    left_at_break = eff_values(np.append(stimulus.i_start[:-1] + rise, 0.0))

    ev_t = array("d")
    ev_sf = array("B")
    t = 0.0
    v_low = v_high = v_ref_h
    chunk = 1 << 16

    while t < duration:
        if len(ev_t) >= max_events:
            raise EventCapError(max_events, _channel_stream(config, ev_t, ev_sf), t)
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
        # of the discontinuity with its own segment's current; the left
        # limits are patched in only where the chunk holds a breakpoint
        ie = ie_end = eff_values(stimulus.values(ts))
        if np.searchsorted(breaks, ts.max(), side="right") > np.searchsorted(breaks, ts.min()):
            k = np.searchsorted(breaks, ts)
            at = breaks[k] == ts
            ie_end = ie.copy()
            ie_end[at] = left_at_break[k[at]]
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
        t = t_ev + next(latencies) + t_rst
        v_low = v_high = v_ref_h

    return _channel_stream(config, ev_t, ev_sf)


# The float kernel's digit search as it was with one 64 x 126-bit product
# for each of v and the two ends of its rounding interval.

def _mul_high(x0, x1, gh, gl):
    """floor(x * g / 2**64) for x < 2**60 given as its 32-bit limbs
    (x0 low, x1 high) and g < 2**63 as (gh, gl); no sum overflows."""
    return ((gl * x0 >> _32) + gl * x1 + gh * x0 >> _32) + gh * x1


def _round_to_odd(x, g):
    """x * g / 2**127 rounded down, with its lowest bit set if that
    dropped a nonzero fraction, as ``rop`` of Java's ``DoubleToDecimal``
    computes it; g is ``(g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32)``
    of ``_multipliers`` gathered per value, all uint64."""
    g1, g1h, g1l, g0h, g0l = g
    x0, x1 = x & _M32, x >> _32
    z = g1 * x >> np.uint64(1)
    z += _mul_high(x0, x1, g0h, g0l)
    return _mul_high(x0, x1, g1h, g1l) + (z >> np.uint64(63)) | (z << np.uint64(1) != 0)


def oracle_shortest(bits):
    """The shortest decimal f * 10**k that reads back as each finite,
    nonzero double (given as its bits): f < 10**17 as uint64 and k as
    int16.

    When all the doubles share one biased exponent and none is a power
    of two, the exponent is taken as one numpy scalar, and so are k, the
    multiplier, the shift and the interval's half-width that follow from
    it: the same lines then run on them by broadcasting, and k is 0-d.
    Otherwise each value has its own.  Columns are updated in place (an
    augmented assignment rebinds a scalar) and dropped once used, so
    that few columns of the block are alive at a time.
    """
    q = (bits >> np.uint64(52)).astype(np.int64)
    q &= 0x7FF  # the biased exponent
    c = bits & np.uint64(2**52 - 1)
    del bits
    irregular = (c == 0) & (q > 1)  # a power of two: the double below is half as far as the one above
    if not irregular.any() and (q == q[0]).all():
        q, irregular = q[0], np.False_  # one binade: one multiplier and one shift for the block
    c |= (q != 0) * np.uint64(2**52)
    q = np.maximum(q, 1)
    q -= 1075  # v = c * 2**q
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular (Java's MathUtils)
    k = q * 661_971_961_083
    k -= irregular * 274_743_187_321
    k >>= 41
    k -= _K_MIN
    g1, g0, h = (t[k] for t in _multipliers())
    g = g1, g1 >> _32, g1 & _M32, g0 >> _32, g0 & _M32
    del g1, g0
    k = (k + _K_MIN).astype(np.int16)
    h += q
    del q
    h = h.astype(np.uint8)
    x = c << h + np.uint8(2)  # 4 * c, scaled so that x * g / 2**127 is near 4 * v / 10**k
    odd = (c & np.uint64(1)) != 0  # R excludes its ends when c is odd
    del c
    vb = _round_to_odd(x, g)
    step = np.uint64(2) << h  # R's half-width, or its upper half-width when irregular
    del h
    vbr = _round_to_odd(x + step, g)
    step = step >> irregular
    x -= step
    del step
    vbl = _round_to_odd(x, g)
    del x, g
    vbl += odd
    vbr -= odd
    s = vb >> np.uint64(2)
    # the one-digit-shorter candidates: at most one lies in R
    sp10 = s // np.uint64(10)
    sp10 *= np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    wpin = sp10 + np.uint64(10) << np.uint64(2) <= vbr
    shorter = (upin != wpin) & (s >= np.uint64(10))
    del upin
    # s or s + 1: the one in R, else the closer to v, else the even one
    uin = vbl <= s << np.uint64(2)
    win = s + np.uint64(1) << np.uint64(2) <= vbr
    del vbl, vbr
    vb += s & np.uint64(1)
    up = np.where(uin == win, vb > (s << np.uint64(2)) + np.uint64(2), win)
    del vb
    s += up
    sp10 += wpin * np.uint64(10)
    return np.where(shorter, sp10, s), k


def oracle_digits(f):
    """The 17 decimal digits of each f < 10**17 (uint64) as a ``(17, n)``
    uint8 matrix, the highest first, peeled off one a pass with ``//`` by
    ten on the two uint32 halves of f; f itself is left as it is."""
    hi = (f // np.uint64(10**8)).astype(np.uint32)
    f = f - hi * np.uint64(10**8)
    lo = f.astype(np.uint32)
    del f
    digits = np.empty((17, lo.size), dtype=np.uint8)
    half = lo
    for m in range(16, -1, -1):
        q = half // np.uint32(10)
        np.subtract(half, q * np.uint32(10), out=digits[m], casting="unsafe")
        half = hi if m == 9 else q  # lo holds the last eight digits, hi the nine before them
    return digits
