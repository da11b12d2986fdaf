import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcsim.core import (_BLOCK, CfcConfig, ConfigError, Polarity, RangeSelect, dead_time, decode, ideal_isi,
                         ideal_rate, select_ranges)
from cfcsim.decoder import reconstruct
from cfcsim.simulator import (
    DEFAULT_EVENT_CAP,
    AckModel,
    EventCapError,
    EventStream,
    Phase,
    _STRETCH_BLOCK,
    _charge,
    _effective_pieces,
    _jittered_stretch,
    _joined,
    _split_at,
    power_estimate,
    simulate,
    state_trace,
)
from cfcsim.stimulus import CurrentSignal, constant
from oracle import block_size, from_breakpoints

CFG = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


# ---------------------------------------------------------------------------
# leak floor
# ---------------------------------------------------------------------------


def test_leak_floor_hard_cutoff():
    assert len(simulate(CFG, constant(5.0e-12, 1.0), 1.0).events) == 0
    assert len(simulate(CFG, constant(5.5e-12, 1.0), 1.0).events) == 0  # inclusive at the floor
    # just above it the current is passed unchanged, not reduced by a leak
    above = simulate(CFG, constant(6e-12, 0.1), 0.1).events
    assert len(above) == 5
    assert above.t_req[0] == pytest.approx(ideal_isi(CFG, 6e-12), rel=1e-12)
    # with no floor even a femtoamp integrates: 1 fA fills 100 fF * 1 V in 100 s
    femto = simulate(CfcConfig(i_leak_floor=0.0), constant(1e-15, 250.0), 250.0).events
    assert len(femto) == 2
    assert femto.t_req[0] == pytest.approx(100.0, rel=1e-12)


# ---------------------------------------------------------------------------
# power model
# ---------------------------------------------------------------------------


def test_power_estimate():
    hundred_khz = EventStream(np.arange(1, 100_001) * 1e-5, 0, np.zeros(100_000))
    assert power_estimate(hundred_khz, 1.0) == pytest.approx(36e-9, rel=1e-12)
    assert power_estimate(EventStream.empty(), 1.0) == 0.0
    ten_khz = EventStream(np.arange(1, 10_001) * 1e-4, 0, np.zeros(10_000))
    assert power_estimate(ten_khz, 1.0) == pytest.approx(3.6e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# constant-current behavior
# ---------------------------------------------------------------------------


def test_constant_10pA_ideal_100_events_at_10ms():
    result = simulate(IDEAL, constant(10e-12, 1.0), 1.0)
    ev = result.events
    assert len(ev) == 100
    assert ev.t_req[0] == pytest.approx(0.01, rel=1e-12)
    assert np.diff(ev.t_req) == pytest.approx(np.full(99, 0.01), rel=1e-12)
    assert np.all(ev.sf == 0)
    assert ev.channel == 0


def test_below_floor_produces_nothing():
    assert len(simulate(CFG, constant(5e-12, 10.0), 10.0).events) == 0
    assert len(simulate(CFG, constant(5.5e-12, 10.0), 10.0).events) == 0


def test_high_current_isi_includes_reset_pulse():
    result = simulate(CfcConfig(i_leak_floor=0.0), constant(1e-6, 0.01), 0.01)
    isis = np.diff(result.events.t_req)
    assert isis == pytest.approx(np.full(isis.size, 10.1e-6), rel=1e-12)
    assert np.all(result.events.sf == 1)


@pytest.mark.parametrize("i", [20e-12, 3.3e-9, 9e-9, 10e-9, 50e-9, 1e-6])
def test_measured_isi_equals_ideal_plus_dead_time(i):
    ack = AckModel(latency=2e-7)
    duration = 40 * (ideal_isi(CFG, i) + 3e-7)
    result = simulate(CFG, constant(i, duration), duration, ack=ack)
    isis = np.diff(result.events.t_req)
    expected = ideal_isi(CFG, i) + ack.latency + CFG.t_rst
    assert isis == pytest.approx(np.full(isis.size, expected), rel=1e-12)


def test_empirical_rate_matches_ideal_within_quantization():
    for i in (50e-12, 2e-9, 5e-8):
        rate = ideal_rate(IDEAL, i)
        duration = 20.0 / rate
        n = len(simulate(IDEAL, constant(i, duration), duration).events)
        assert abs(n - rate * duration) <= 1.0


# ---------------------------------------------------------------------------
# hand-derived charge-balance cases
# ---------------------------------------------------------------------------


def test_step_change_mid_cycle_carries_charge_over():
    # 10 pA for 5 ms leaves 0.5 V of swing on the small cap;
    # 20 pA covers the rest in 2.5 ms -> event at 7.5 ms
    stim = from_breakpoints([(0.0, 10e-12), (5e-3, 20e-12)], "step", end=0.02)
    ev = simulate(IDEAL, stim, 0.02).events
    assert ev.t_req[0] == pytest.approx(7.5e-3, rel=1e-12)


def test_range_switch_resumes_held_voltage():
    # 8 nA for 5 us discharges the small cap by 0.4 V (no event), a 2 us
    # burst at 20 nA barely moves the big cap, then back at 8 nA the small
    # cap resumes from 1.4 V: 0.6 V left at 8 nA -> 7.5 us more.
    stim = from_breakpoints(
        [(0.0, 8e-9), (5e-6, 20e-9), (7e-6, 8e-9)], "step", end=40e-6
    )
    ev = simulate(IDEAL, stim, 40e-6).events
    assert ev.t_req[0] == pytest.approx(14.5e-6, rel=1e-9)
    assert ev.sf[0] == 0


def test_range_switch_mid_cycle_to_high_uses_full_big_cap():
    # partial progress on the small cap is parked, then the big cap
    # integrates its full 1 V swing: 10 nC / 20 nA = 0.5 ms after the step
    stim = from_breakpoints([(0.0, 10e-12), (5e-3, 20e-9)], "step", end=0.02)
    ev = simulate(IDEAL, stim, 0.02).events
    assert ev.t_req[0] == pytest.approx(5e-3 + 0.5e-3, rel=1e-12)
    assert ev.sf[0] == 1


# ---------------------------------------------------------------------------
# polarity
# ---------------------------------------------------------------------------


def test_polarity_blocks_wrong_sign():
    sink = simulate(IDEAL, constant(-1e-9, 0.01), 0.01).events
    assert len(sink) == 0
    source_cfg = CfcConfig(t_rst=0.0, i_leak_floor=0.0, polarity=Polarity.SOURCE_P)
    source = simulate(source_cfg, constant(-1e-9, 0.01), 0.01).events
    assert len(source) == 100  # |1 nA| -> 10 kHz for 10 ms


# ---------------------------------------------------------------------------
# hysteresis in the running simulator
# ---------------------------------------------------------------------------


def test_hysteresis_holds_high_range_inside_band():
    cfg = CfcConfig(t_rst=0.0, i_leak_floor=0.0, hysteresis=0.2)
    stim = from_breakpoints(
        [(0.0, 20e-9), (1e-3, 9e-9), (2e-3, 5e-9)], "step", end=3e-3
    )
    ev = simulate(cfg, stim, 3e-3).events
    in_first = ev.sf[ev.t_req <= 1e-3]
    in_band = ev.sf[(ev.t_req > 1.1e-3) & (ev.t_req <= 2e-3)]
    below = ev.sf[ev.t_req > 2.1e-3]
    assert np.all(in_first == 1)
    assert np.all(in_band == 1)  # 9 nA is below i_sw but inside the hold band
    assert np.all(below == 0)    # 5 nA drops out of the band

    no_hyst = simulate(CfcConfig(t_rst=0.0, i_leak_floor=0.0), stim, 3e-3).events
    assert np.all(no_hyst.sf[(no_hyst.t_req > 1.1e-3) & (no_hyst.t_req <= 2e-3)] == 0)


# ---------------------------------------------------------------------------
# stream invariants
# ---------------------------------------------------------------------------


def test_event_stream_monotone_and_dead_time_floor():
    ack = AckModel(latency=1e-6, jitter=2e-6, seed=7)
    stim = from_breakpoints([(0.0, 1e-9), (5e-3, 8e-9)], "linear", end=1e-2)
    ev = simulate(CFG, stim, 1e-2, ack=ack).events
    assert len(ev) > 10
    isis = np.diff(ev.t_req)
    assert np.all(isis > 0)
    assert np.all(isis >= CFG.t_rst + ack.latency - 1e-18)


def test_deterministic_with_jittered_ack():
    ack = AckModel(latency=5e-7, jitter=1e-6, seed=123)
    stim = from_breakpoints([(0.0, 2e-9), (5e-3, 30e-9)], "linear", end=1e-2)
    a = simulate(CFG, stim, 1e-2, ack=ack).events
    b = simulate(CFG, stim, 1e-2, ack=ack).events
    assert np.array_equal(a.t_req, b.t_req)
    assert np.array_equal(a.sf, b.sf)
    c = simulate(CFG, stim, 1e-2, ack=AckModel(latency=5e-7, jitter=1e-6, seed=124)).events
    assert not np.array_equal(a.t_req, c.t_req)


def test_batched_path_emits_no_event_past_the_run():
    # the run ends 1e-10 of a period before a tenth cycle would fire
    isi = ideal_isi(CFG, 1e-9)
    period = isi + CFG.t_rst
    d = isi + 9 * period - 1e-10 * period
    ev = simulate(CFG, constant(1e-9, d), d).events
    assert len(ev) == 9
    assert ev.t_req[-1] <= d


# staircases and ramps of up to four levels, with and without
# acknowledge latency and jitter, on the reference and the ideal channel
_STAIRCASE_RUNS = dict(
    levels=st.lists(st.floats(min_value=0.0, max_value=3e-6), min_size=1, max_size=4),
    dwell=st.floats(min_value=1e-4, max_value=1e-3),
    latency=st.sampled_from([0.0, 1e-7]),
    jitter=st.sampled_from([0.0, 2e-7]),
    linear=st.booleans(),
    config=st.sampled_from([CFG, IDEAL]),
)


# forty 30 ns steps cycling 2, 1, 3 and 2.5 uA against a dead time of at
# least 0.2 us: each event's reset outlasts the pieces after it
_DEAD_TIME_STEPS = dict(
    levels=[2e-6, 1e-6, 3e-6, 2.5e-6] * 10, dwell=3e-8, latency=1e-7, linear=False, config=CfcConfig(c1=1e-17)
)


def _staircase_run(levels, dwell, latency, jitter, linear):
    """Stimulus, duration and acknowledge model of one drawn run."""
    duration = len(levels) * dwell
    stim = from_breakpoints(
        [(k * dwell, lv) for k, lv in enumerate(levels)],
        "linear" if linear else "step",
        end=duration,
    )
    return stim, duration, AckModel(latency=latency, jitter=jitter, seed=3)


@settings(max_examples=25, deadline=None)
@given(**_STAIRCASE_RUNS)
# a constant on the ideal channel: the batched path, cycle after cycle
@example(levels=[2e-9], dwell=2e-3, latency=0.0, jitter=0.0, linear=False, config=IDEAL)
# steps shorter than the dead time: whole pieces pass while the channel is blind
@example(**_DEAD_TIME_STEPS, jitter=0.0)
@example(**_DEAD_TIME_STEPS, jitter=2e-7)
# a subnormal current: the interval overflows to inf, no event fits
@example(levels=[5e-324], dwell=1e-3, latency=0.0, jitter=0.0, linear=False, config=IDEAL)
@example(levels=[5e-324], dwell=1e-3, latency=0.0, jitter=2e-7, linear=False, config=IDEAL)
def test_no_event_falls_past_the_run(levels, dwell, latency, jitter, linear, config):
    stim, duration, ack = _staircase_run(levels, dwell, latency, jitter, linear)
    assert np.all(simulate(config, stim, duration, ack=ack).events.t_req <= duration)


@settings(max_examples=25, deadline=None)
@given(**_STAIRCASE_RUNS)
# intervals near 1 ns against a 0.2 us dead time, on a ramp (per event)
# then a flat piece (batched): a request before the previous reset ended
# would show here
@example(levels=[1e-6, 2e-6], dwell=1e-4, latency=1e-7, jitter=0.0, linear=True, config=CfcConfig(c1=1e-17))
@example(**_DEAD_TIME_STEPS, jitter=0.0)
@example(**_DEAD_TIME_STEPS, jitter=2e-7)
def test_every_event_fires_from_an_integrating_stretch(levels, dwell, latency, jitter, linear, config):
    stim, duration, ack = _staircase_run(levels, dwell, latency, jitter, linear)
    events = simulate(config, stim, duration, ack=ack).events
    t_req, tr = events.t_req, state_trace(config, stim, duration, events, ack)
    # the first row at each request time is request_pending, and the row
    # in force up to it is integrating
    first = np.searchsorted(tr.t, t_req, side="left")
    assert np.all(first >= 1)
    assert np.array_equal(tr.t[first], t_req)
    assert np.all(tr.phase[first] == Phase.REQUEST_PENDING)
    assert np.all(tr.phase[first - 1] == Phase.INTEGRATING)
    # an event's reset ends at the first integrating row after its request,
    # and the next request comes at or after that
    integrating = np.flatnonzero(tr.phase == Phase.INTEGRATING)
    reset_end = tr.t[integrating[np.searchsorted(integrating, first[:-1], side="right")]]
    assert np.all(t_req[1:] >= reset_end)


# ---------------------------------------------------------------------------
# jitter-free batches against the period rule
# ---------------------------------------------------------------------------


def _period_rule_reference(config, i, duration, ack, max_events):
    """The jitter-free batch rule on ``constant(i, duration)`` as a scalar
    loop: from a reset at t the events sit at first + period * k, with
    first = t + isi, for k below ``_STRETCH_BLOCK`` and up to the end of
    the run, and integration resumes at the last event plus the dead
    time.  Returns the event times and the time of the event the cap
    refused (None when the cap was not hit)."""
    sel = int(select_ranges(config, [i])[0])
    isi = config.caps[sel] * (config.v_ref_h - config.v_ref_l) / i
    dead = dead_time(config, ack)
    period = isi + dead
    times, t = [], 0.0
    while t < duration and t + isi <= duration:
        first, k = t + isi, 0
        while k < _STRETCH_BLOCK and first + period * k <= duration:
            if len(times) == max_events:
                return times, first + period * k
            times.append(first + period * k)
            k += 1
        t = times[-1] + dead
    return times, None


@settings(max_examples=100, deadline=None)
@given(
    config=st.sampled_from([CfcConfig(t_rst=0.0), CFG]),
    i=st.one_of(st.floats(min_value=6e-12, max_value=9.9e-9), st.floats(min_value=1e-8, max_value=3e-6)),
    latency=st.sampled_from([0.0, 1e-7]),
    duration=st.floats(min_value=1e-5, max_value=1e-2),
    cap=st.one_of(st.just(DEFAULT_EVENT_CAP), st.integers(min_value=1, max_value=400)),
)
# the run ends at the tenth event of the batch
@example(config=CFG, i=1e-9, latency=0.0, duration=0.0010008999999999999, cap=DEFAULT_EVENT_CAP)
# a cycle that rounds to zero length: the batch fills to the cap
@example(config=CfcConfig(c1=1e-320, t_rst=0.0, i_leak_floor=0.0), i=1e10, latency=0.0, duration=1.0, cap=1000)
# about 70,800 cycles: the rule restarts from the reset after the last
# event of the first block
@example(config=CFG, i=3e-6, latency=1e-7, duration=0.25, cap=DEFAULT_EVENT_CAP)
def test_jitter_free_batches_follow_the_period_rule(config, i, latency, duration, cap):
    ack = AckModel(latency=latency)
    want, refused = _period_rule_reference(config, i, duration, ack, cap)
    if refused is None:
        got = simulate(config, constant(i, duration), duration, ack=ack, max_events=cap).events
    else:
        with pytest.raises(EventCapError) as exc:
            simulate(config, constant(i, duration), duration, ack=ack, max_events=cap)
        got = exc.value.events
        assert f"at t = {refused!r} s" in str(exc.value)
    assert got.t_req.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
    assert np.all(got.sf == select_ranges(config, [i])[0])


def _cycle_charge(i):
    """The exact charge C_r (v_ref_h - v_ref_l) of one cycle from a reset,
    under ``CFG``, in the range of current ``i``, and that range."""
    sel = int(select_ranges(CFG, [i])[0])
    return Fraction(CFG.caps[sel]) * (Fraction(CFG.v_ref_h) - Fraction(CFG.v_ref_l)), sel


def _max_ulps(got, exact):
    """The largest distance of a float time from its exact value, in ulps
    of the exact value."""
    return max(abs(Fraction(t) - x) / Fraction(math.ulp(float(x))) for t, x in zip(got, exact, strict=True))


@pytest.mark.parametrize("i, duration, count", [(10e-12, 1.0, 99), (100e-9, 0.5, 4_995), (3e-6, 0.05, 14_563)])
def test_flat_input_events_lie_within_2_ulp_of_exact(i, duration, count):
    # the exact times of the float inputs, in rational arithmetic:
    # t_k = isi + k (isi + t_rst), with isi = C_r (v_ref_h - v_ref_l) / i
    q, _ = _cycle_charge(i)
    isi = q / Fraction(i)
    period = isi + Fraction(CFG.t_rst)
    assert (Fraction(duration) - isi) // period + 1 == count  # the t_k <= duration
    got = simulate(CFG, constant(i, duration), duration).events.t_req.tolist()
    assert len(got) == count
    assert _max_ulps(got, (isi + period * k for k in range(count))) <= 2


_BITS = 200  # the fractional bits an exact ramp reference keeps


@pytest.mark.parametrize("i0, i1, duration, count, budget", [
    (10e-12, 9e-9, 0.1, 4_478, 599),  # measured 598.1 ulp
    (9e-9, 10e-12, 0.1, 4_478, 25_260),  # measured 25,259.5, at the last event
    (20e-9, 3e-6, 0.02, 2_960, 331),  # measured 330.2
    (3e-6, 20e-9, 0.02, 2_960, 2_734),  # measured 2,733.9, at the last event
], ids=["low-rising", "low-falling", "high-rising", "high-falling"])
def test_ramp_events_lie_within_the_per_event_budget_of_exact(i0, i1, duration, count, budget):
    # one linear piece that stays in one range runs the per-event loop.
    # From a reset at t the current is i_t and its slope s, and a cycle's
    # charge q is in at t + tau, where i_t tau + s tau**2 / 2 = q:
    # tau = 2 q / (i_t + sqrt(i_t**2 + 2 s q)).  The exact times take the
    # root by ``math.isqrt`` and keep _BITS fractional bits, so that their
    # denominators stay bounded.  The loop's float running sum drifts from
    # them, most where a falling ramp barely holds a cycle's charge and the
    # discriminant cancels
    q, sel = _cycle_charge(i0)
    a, b, end, dead = Fraction(i0), Fraction(i1), Fraction(duration), Fraction(CFG.t_rst)
    slope = (b - a) / end
    exact, t = [], Fraction(0)
    while (a + slope * t + b) / 2 * (end - t) >= q:  # a cycle's charge is left before the end
        i_t = a + slope * t
        disc = i_t * i_t + 2 * slope * q
        root = Fraction(math.isqrt(disc.numerator * 4**_BITS // disc.denominator), 2**_BITS)
        exact.append(Fraction(round((t + 2 * q / (i_t + root)) * 2**_BITS), 2**_BITS))
        t = exact[-1] + dead
    got = simulate(CFG, CurrentSignal.from_samples([0.0, duration], [i0, i1]), duration).events
    assert len(exact) == len(got) == count
    assert np.all(got.sf == sel)
    assert _max_ulps(got.t_req.tolist(), exact) <= budget


@pytest.mark.parametrize("i, duration, count, budget", [
    (10e-12, 1.0, 99, 19),  # measured 18.0 ulp
    (100e-9, 0.5, 4_985, 444),  # measured 443.1
    (3e-6, 0.05, 13_761, 2_854),  # measured 2,853.8
])
def test_jittered_flat_events_lie_within_the_batch_budget_of_exact(i, duration, count, budget):
    # a jittered flat input runs the jittered batch.  Event k is at
    # s_k + isi, with isi = q / i, and the next cycle starts at
    # s_k+1 = s_k + isi + lat_k + t_rst, summed exactly over the run's own
    # float latency draws lat_k
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=1)
    q, _ = _cycle_charge(i)
    isi, dead = q / Fraction(i), Fraction(CFG.t_rst)
    exact, s = [], Fraction(0)
    for lat in ack.latencies(CFG.channel_address):
        if s + isi > duration:
            break
        exact.append(s + isi)
        s += isi + Fraction(lat) + dead
    got = simulate(CFG, constant(i, duration), duration, ack=ack).events.t_req.tolist()
    assert len(exact) == len(got) == count
    assert _max_ulps(got, exact) <= budget


# ---------------------------------------------------------------------------
# jittered batches against the per-event loop
# ---------------------------------------------------------------------------


def _per_event_reference(config, stimulus, duration, ack, max_events):
    """The kernel's per-event loop with no batch: every event found one
    at a time, each taking the next acknowledge latency.  Returns the
    event times and ranges, and whether the cap stopped the run."""
    latencies = ack.latencies(config.channel_address)
    v_ref_h, v_ref_l, t_rst = config.v_ref_h, config.v_ref_l, config.t_rst
    caps = config.caps
    ev_t, ev_sf = [], []
    v = [v_ref_h, v_ref_h]
    dead_until = 0.0
    for a, b, ia, ib, sel in zip(*(col.tolist() for col in _joined(_effective_pieces(config, stimulus, duration)))):
        slope = (ib - ia) / (b - a)
        c_eq = caps[sel]
        t = dead_until if dead_until > a else a
        while t < b:
            v_active = v[sel]
            q_need = c_eq * (v_active - v_ref_l)
            i_t = ia + slope * (t - a)
            q_avail = 0.5 * (i_t + ib) * (b - t)
            if q_need > 0.0 and q_avail < q_need:
                v[sel] = v_active - q_avail / c_eq
                break
            if q_need <= 0.0:
                if i_t <= 0.0 and slope == 0.0:
                    break
                t_ev = t
            else:
                disc = i_t * i_t + 2.0 * slope * q_need
                t_ev = t + 2.0 * q_need / (i_t + math.sqrt(disc))
                if t_ev > b:
                    t_ev = b
            if len(ev_t) >= max_events:
                return ev_t, ev_sf, True
            ev_t.append(t_ev)
            ev_sf.append(sel)
            t = dead_until = t_ev + next(latencies) + t_rst
            v = [v_ref_h, v_ref_h]
    return ev_t, ev_sf, False


def _assert_matches_per_event_reference(config, stim, duration, ack, cap):
    want_t, want_sf, capped = _per_event_reference(config, stim, duration, ack, cap)
    if capped:
        with pytest.raises(EventCapError) as exc:
            simulate(config, stim, duration, ack=ack, max_events=cap)
        got = exc.value.events
    else:
        got = simulate(config, stim, duration, ack=ack, max_events=cap).events
    assert got.t_req.tobytes() == np.asarray(want_t, dtype=np.float64).tobytes()
    assert got.sf.tolist() == want_sf


@settings(max_examples=60, deadline=None)
@given(
    **dict(_STAIRCASE_RUNS, jitter=st.sampled_from([1e-12, 2e-7, 3e-6])),
    cap=st.one_of(st.just(DEFAULT_EVENT_CAP), st.integers(min_value=1, max_value=400)),
)
@example(**_DEAD_TIME_STEPS, jitter=2e-7, cap=DEFAULT_EVENT_CAP)
# flat steps, then a ramp whose per-event cycles take the draws the last
# batch left unused
@example(levels=[2e-6, 2e-6, 5e-7], dwell=1e-3, latency=1e-7, jitter=2e-7, linear=True, config=CFG,
         cap=DEFAULT_EVENT_CAP)
# a long step leaves many unused draws for a short one, which must take
# them all before any new draw
@example(levels=[3e-6, 1e-9], dwell=1e-3, latency=0.0, jitter=3e-6, linear=False, config=CFG,
         cap=DEFAULT_EVENT_CAP)
# a range switch leaves a capacitor part-charged: one cycle per event,
# then batches
@example(levels=[5e-9, 2e-8, 5e-9], dwell=3e-4, latency=0.0, jitter=2e-7, linear=False, config=IDEAL, cap=90)
# the first batch places 8,258 events from 8,492 draws; the event at the
# step takes its first spare draw per event, and the second batch reads
# its draws from event 8,259 on, past the first _BLOCK of the stream
@example(levels=[3e-6, 2e-6], dwell=0.03, latency=1e-7, jitter=2e-7, linear=False, config=CFG,
         cap=DEFAULT_EVENT_CAP)
def test_jittered_runs_match_the_per_event_loop(levels, dwell, latency, jitter, linear, config, cap):
    stim, duration, ack = _staircase_run(levels, dwell, latency, jitter, linear)
    _assert_matches_per_event_reference(config, stim, duration, ack, cap)


def test_jittered_event_fired_at_the_end_of_its_piece():
    # the first interval ends 1 ulp past the step at b, yet the charge
    # left before b rounds up to a full cycle's: the event fires at b, and
    # its reset runs from there into the next step
    i, b = 3.445580712804024e-09, 2.9022683934929417e-05
    stim = CurrentSignal(np.array([0.0, b]), np.array([i, 2e-9]), np.array([i, 2e-9]), 1e-3)
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=1)
    assert simulate(CFG, stim, 1e-3, ack=ack).events.t_req[0] == b
    _assert_matches_per_event_reference(CFG, stim, 1e-3, ack, DEFAULT_EVENT_CAP)
    # the reset runs from b, not from the unclamped crossing 1 ulp later
    q_need = CFG.c1 * CFG.delta_v
    lat = ack.draws(0, 0, 3)
    isi = 2.0 * q_need / (i + math.sqrt(i * i))
    times, t_next, q_avail = _jittered_stretch(0.0, b, i, i, q_need, isi, CFG.t_rst, lat)
    assert times.tolist() == [b] and q_avail is None
    assert t_next == b + lat.item(0) + CFG.t_rst


@pytest.mark.parametrize("b, fired_at_b", [(2.9022683934929417e-05, True), (1e-3, False)])
def test_jittered_stretch_resumes_at_a_python_float(b, fired_at_b):
    # t_next becomes the per-event loop's t and dead_until: a numpy scalar
    # there would turn every later per-event value into one.  The event at
    # b and the running sum are the two ways t_next is found
    i = 3.445580712804024e-09
    q_need = CFG.c1 * CFG.delta_v
    isi = 2.0 * q_need / (i + math.sqrt(i * i))
    lat = AckModel(latency=1e-7, jitter=2e-7, seed=1).draws(0, 0, 3)
    times, t_next, _ = _jittered_stretch(0.0, b, i, i, q_need, isi, CFG.t_rst, lat)
    assert (times[-1] == b) == fired_at_b
    assert type(t_next) is float


def test_per_event_root_past_its_piece_is_clamped_to_the_end():
    # two flat steps: the charge left at the step at a is in 0.13 ulp
    # before the run's end d, exactly, but the per-event root rounds to
    # 1 ulp past d.  The event is clamped to d, the end of its piece
    i1, i2 = 4.900790617011122e-10, 2.2651479755136995e-10
    a, d = 8.2287396618404e-05, 0.00034572568197763085
    events = simulate(CFG, CurrentSignal([0.0, a], [i1, i2], [i1, i2], d), d).events
    assert events.t_req.tolist() == [d] and events.sf.tolist() == [0]
    q, sel = _cycle_charge(i1)
    assert sel == 0
    exact = Fraction(a) + (q - Fraction(i1) * Fraction(a)) / Fraction(i2)
    assert exact < d and _max_ulps([d], [exact]) <= 1


def test_jittered_interval_of_a_current_whose_square_is_subnormal():
    # (1e-160 A)**2 underflows, so the loop's interval 2q/(i + sqrt(i*i))
    # is not q/i; the batch takes the loop's expression
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=1)
    _assert_matches_per_event_reference(IDEAL, constant(1e-160, 1e148), 1e148, ack, DEFAULT_EVENT_CAP)


def test_jittered_flat_piece_longer_than_one_batch():
    # about 83,000 cycles at 3 uA: more than one batch block and many
    # blocks of latency draws
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=9)
    _assert_matches_per_event_reference(CFG, constant(3e-6, 0.3), 0.3, ack, DEFAULT_EVENT_CAP)


# ---------------------------------------------------------------------------
# effective pieces against the per-piece reference
# ---------------------------------------------------------------------------


def _ref_split_linear(a, b, ya, yb, targets):
    """Split the line (a,ya)-(b,yb) at strict interior crossings of targets."""
    cuts = []
    for tg in targets:
        if min(ya, yb) < tg < max(ya, yb):
            inv = (b - a) / (yb - ya)
            # a line a few subnormals tall is cut at the crossed share of its length
            tc = a + (tg - ya) / (yb - ya) * (b - a) if math.isinf(inv) else a + (tg - ya) * inv
            cuts.append((tc, tg))
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


def _ref_clip(stimulus, duration):
    """The stimulus segments clipped to [0, duration], one at a time."""
    ends = np.append(stimulus.times[1:], stimulus.end)
    for j in range(stimulus.times.size):
        a, b = stimulus.times[j], ends[j]
        if a >= duration:
            break
        lo, hi = max(a, 0.0), min(b, duration)
        if hi <= lo:
            continue
        slope = (stimulus.i_end[j] - stimulus.i_start[j]) / (b - a)
        ia = stimulus.i_start[j] + slope * (lo - a)
        ib = stimulus.i_start[j] + slope * (hi - a)
        yield float(lo), float(hi), float(ia), float(ib)


def _ref_effective_segments(config, stimulus, duration):
    """Effective pieces built one stimulus piece at a time."""
    accept_positive = config.polarity is Polarity.SINK_N
    thresholds = [config.i_leak_floor, config.i_sw]
    if config.hysteresis > 0:
        thresholds.append(config.i_sw * (1.0 - config.hysteresis))
    out = []
    for a, b, ia, ib in _ref_clip(stimulus, duration):
        for pa, pb, pia, pib in _ref_split_linear(a, b, ia, ib, [0.0]):
            mid = 0.5 * (pia + pib)
            accepted = (mid > 0.0) if accept_positive else (mid < 0.0)
            if not accepted:
                out.append((pa, pb, 0.0, 0.0))
                continue
            ra, rb = abs(pia), abs(pib)
            for qa, qb, qra, qrb in _ref_split_linear(pa, pb, ra, rb, thresholds):
                if 0.5 * (qra + qrb) <= config.i_leak_floor:
                    out.append((qa, qb, 0.0, 0.0))
                else:
                    out.append((qa, qb, qra, qrb))
    return out


def _ref_segment_selection(config, segments):
    """Range per piece, folded over the midpoints one piece at a time: HIGH
    at or above i_sw, LOW below the band edge, else the range before (LOW
    for the first piece)."""
    sels = []
    high = False
    for _, _, ia, ib in segments:
        mid = 0.5 * (ia + ib)
        if mid >= config.i_sw:
            high = True
        elif mid < config.i_sw * (1.0 - config.hysteresis):
            high = False
        sels.append(int(high))
    return sels


# thresholds of the configs below and their negatives, 8 nA inside both
# hysteresis bands, or any level
_LEVELS = st.one_of(
    st.sampled_from([s * v for v in (0.0, 2e-12, 5.5e-12, 7e-9, 7.5e-9, 8e-9, 1e-8, 2.5e-8) for s in (1.0, -1.0)]),
    st.floats(min_value=-3e-8, max_value=3e-8),
)

_SIGNED_CONFIGS = st.sampled_from([
    CFG,
    CfcConfig(hysteresis=0.3),
    CfcConfig(polarity=Polarity.SOURCE_P),
    CfcConfig(polarity=Polarity.SOURCE_P, hysteresis=0.25, i_leak_floor=0.0),
])


@st.composite
def _signed_signals(draw, min_size=1, max_size=8, longest=1e-2):
    """Columns of a signed signal: ``min_size`` to ``max_size`` flat or
    ramping pieces up to ``longest`` seconds long, each starting where the
    last ended or stepping to a new level."""
    gaps = draw(st.lists(st.floats(min_value=1e-4, max_value=longest), min_size=min_size, max_size=max_size))
    times = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    i_start, i_end = [], []
    for _ in gaps:
        i0 = i_end[-1] if i_end and draw(st.booleans()) else draw(_LEVELS)
        i_start.append(i0)
        i_end.append(draw(_LEVELS) if draw(st.booleans()) else i0)
    return times, np.asarray(i_start), np.asarray(i_end), float(times[-1] + gaps[-1])


@settings(max_examples=300, deadline=None)
@given(
    signal=_signed_signals(),
    config=_SIGNED_CONFIGS,
    run_to=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
)
# the run ends inside a ramp that has just crossed zero and the floor
@example(
    signal=(np.array([0.0, 1e-3]), np.array([2e-9, -1e-8]), np.array([3e-8, 2e-8]), 2e-3),
    config=CfcConfig(hysteresis=0.3),
    run_to=0.7,
)
# the run starts inside the hysteresis band, so LOW, and later goes HIGH
@example(
    signal=(np.array([0.0, 1e-3]), np.array([8e-9, 2e-8]), np.array([8e-9, 2e-8]), 2e-3),
    config=CfcConfig(hysteresis=0.3),
    run_to=1.0,
)
# a ramp 4 ulp long on which the band edge (7 nA) and i_sw (10 nA) cut at
# the same instant: the lower level is kept, the other dropped
@example(
    signal=(np.array([0.0, 1.0, 1.0 + 4 * math.ulp(1.0)]), np.array([0.0, 0.0, 4e-8]), np.array([0.0, 4e-8, 4e-8]), 2.0),
    config=CfcConfig(hysteresis=0.3),
    run_to=1.0,
)
# a ramp between subnormal levels crosses zero, though the product of its
# ends' distances to zero underflows to -0.0
@example(
    signal=(np.array([0.0, 0.0078125]), np.array([0.0, 5e-324]), np.array([5e-324, -2.225e-309]), 0.015625),
    config=CFG,
    run_to=1.0,
)
def test_effective_pieces_match_the_per_piece_reference(signal, config, run_to):
    times, i_start, i_end, end = signal
    stim = CurrentSignal(times, i_start, i_end, end)
    duration = end * run_to
    segments = _ref_effective_segments(config, stim, duration)
    ref = [*np.array(segments, dtype=np.float64).T, np.array(_ref_segment_selection(config, segments), dtype=np.uint8)]
    got = _joined(_effective_pieces(config, stim, duration))
    for want, have in zip(ref, got, strict=True):
        assert have.dtype == want.dtype
        assert have.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here


# levels a line may cross: zero, the default floor, band edge and i_sw,
# and two ties of i_sw a rounding apart
_SPLIT_LEVELS = [0.0, 5.5e-12, -7e-9, 7e-9, 1e-8, 1e-8 * (1 - 1e-16), math.nextafter(1e-8, 1.0)]


@st.composite
def _split_cases(draw):
    """Lines of positive length, some a few ulp long, whose ends lie on,
    next to or away from the target levels, and the targets, which may
    repeat or nearly tie."""
    targets = draw(st.lists(st.sampled_from(_SPLIT_LEVELS) | st.floats(-3e-8, 3e-8), min_size=1, max_size=4))
    near = st.tuples(st.sampled_from(targets), st.integers(-2, 2)).map(lambda p: p[0] + p[1] * math.ulp(p[0]))
    value = near | st.floats(-3e-8, 3e-8)
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.floats(0.0, 1.0))
        length = draw(st.floats(1e-12, 1.0) | st.integers(1, 4).map(lambda k: k * math.ulp(a)))
        lines.append((a, a + length, draw(value), draw(value)))
    return [np.array(col) for col in zip(*lines)], targets


def _bits(*values):
    """The float64 bytes of ``values``: -0.0 and 0.0 differ."""
    return np.array(values, dtype=np.float64).tobytes()


def _crossed_share(tg, ya, yb):
    """The share of the (finite) rise from ya to yb that lies below tg."""
    return (tg - ya) / (yb - ya)


def _split_example(a, b, ya, yb, targets):
    return {"case": ([np.array([v]) for v in (a, b, ya, yb)], targets)}


@settings(max_examples=100, deadline=None)
@given(case=_split_cases())
# the distances to the target multiply to -0.0, or overflow
@example(**_split_example(0.0, 1.0, -1e-170, 1e-170, [0.0]))
@example(**_split_example(0.0, 1.0, 1e300, 1e301, [0.0, 7e-9]))
# so few subnormals tall that the inverse slope overflows
@example(**_split_example(0.25, 1.0, -5e-324, 1e-323, [0.0, 5e-324, 7e-9]))
def test_split_at_cuts_each_line_at_its_crossings(case):
    lines, targets = case
    got = _split_at(*lines, targets)
    alone = [_split_at(*(col[j:j + 1] for col in lines), targets) for j in range(lines[0].size)]
    for k, column in enumerate(got):
        assert column.tobytes() == np.concatenate([pieces[k] for pieces in alone]).tobytes()
    for (a, b, ya, yb), (pa, pb, pya, pyb) in zip(zip(*lines), alone):
        levels = [tg for tg in targets if min(ya, yb) < tg < max(ya, yb)]
        crossed = {_bits(tg) for tg in levels}
        if not crossed:
            assert _bits(*pa, *pb, *pya, *pyb) == _bits(a, b, ya, yb)
            continue
        # a crossing more than two ulp after the start is never lost
        if max(_crossed_share(tg, ya, yb) * (b - a) for tg in levels) > 2 * math.ulp(a):
            assert _bits(*pa, *pb, *pya, *pyb) != _bits(a, b, ya, yb)
        assert pa.size <= 1 + len(crossed)
        assert _bits(pa[0], pya[0]) == _bits(a, ya)
        assert pb[:-1].tobytes() == pa[1:].tobytes() and pyb[:-1].tobytes() == pya[1:].tobytes()
        assert (np.diff(pa) > 0).all()
        assert all(_bits(y) in crossed for y in pya[1:])
        assert _bits(pb[-1], pyb[-1]) == _bits(b, yb) or (pb[-1] >= b and _bits(pyb[-1]) in crossed)


# ---------------------------------------------------------------------------
# blocks of pieces
# ---------------------------------------------------------------------------


@st.composite
def _block_edge_runs(draw):
    """A block size of three to seven segments and a signed signal of up
    to four such blocks and a bit, so that crossings and range changes
    fall on every side of the block edges."""
    k = draw(st.integers(3, 7))
    return k, draw(_signed_signals(k - 1, 4 * k + 1, 2e-3))


def _flat_steps(*levels):
    """A signal of 1 ms flat segments at ``levels``."""
    n = len(levels)
    return np.arange(n) * 1e-3, np.array(levels), np.array(levels), n * 1e-3


@settings(max_examples=100, deadline=None)
@given(
    run=_block_edge_runs(),
    config=_SIGNED_CONFIGS,
    run_to=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
    jitter=st.booleans(),
)
# HIGH ends the first block and the second opens inside the band, where
# HIGH carries over
@example(run=(3, _flat_steps(2e-8, 2e-8, 2e-8, 8e-9, 8e-9, 5e-9)), config=CfcConfig(hysteresis=0.3), run_to=1.0,
         jitter=False)
def test_events_do_not_depend_on_block_boundaries(run, config, run_to, jitter):
    k, signal = run
    stim = CurrentSignal(*signal)
    duration = stim.end * run_to
    ack = AckModel(latency=1e-7, jitter=2e-7 if jitter else 0.0, seed=3)

    def run_all():
        events = simulate(config, stim, duration, ack=ack).events
        return events, state_trace(config, stim, duration, events, ack), _joined(
            _effective_pieces(config, stim, duration))

    want, want_trace, want_pieces = run_all()
    with block_size(k):
        got, got_trace, got_pieces = run_all()
    for have, ref in zip(got_pieces, want_pieces, strict=True):
        assert have.dtype == ref.dtype and have.tobytes() == ref.tobytes()
    assert got.t_req.tobytes() == want.t_req.tobytes()
    assert got.sf.tobytes() == want.sf.tobytes()
    for column in ("t", "v_low", "v_high", "phase", "selected"):
        have, ref = getattr(got_trace, column), getattr(want_trace, column)
        assert have.dtype == ref.dtype and have.tobytes() == ref.tobytes(), column


@pytest.mark.parametrize("traced", [False, True])
def test_a_refused_segment_past_the_first_block_is_named_before_any_event(traced):
    # ten flat segments of 1 nA, about 1,250 events each, around one whose
    # slope overflows; blocks of four segments put it second in the third
    # block, and the message gives its index in the signal; the traced case
    # asks state_trace, the other simulate
    i_start = np.full(11, 1e-9)
    i_end = i_start.copy()
    i_start[9], i_end[9] = -1e308, 1e308
    stim = CurrentSignal(np.arange(11) * 0.125, i_start, i_end, 1.375)
    refused = r"^segment 9 ramps from -1e\+308 A to 1e\+308 A in 0\.125 s: its slope overflows a float$"
    with block_size(4):
        with pytest.raises(ConfigError, match=refused):
            stim.pieces(1.375)
        for polarity in Polarity:
            with pytest.raises(ConfigError, match=refused):
                if traced:
                    state_trace(CfcConfig(polarity=polarity), stim, 1.375, EventStream.empty())
                else:
                    simulate(CfcConfig(polarity=polarity), stim, 1.375, max_events=1)


# ---------------------------------------------------------------------------
# validation, cap, trace
# ---------------------------------------------------------------------------


def test_ack_model_validation():
    for kwargs in ({"latency": -1e-9}, {"latency": float("nan")}, {"jitter": float("nan")},
                   {"latency": float("inf")}, {"jitter": float("inf")}, {"seed": -1}, {"seed": 1.5},
                   {"seed": True}):
        with pytest.raises(ConfigError):
            AckModel(**kwargs)
    # a generator advanced by a negative step rewinds without an error,
    # so a negative event index is refused, with jitter or without
    for jitter in (0.0, 2e-6):
        ack = AckModel(latency=1e-6, jitter=jitter)
        for args, name in (((-1, 3), "start"), ((0, -1), "count"), ((-2, -1), "start")):
            with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -[12]$"):
                ack.draws(0, *args)
        with pytest.raises(ValueError, match="^start must be non-negative, got -1$"):
            next(ack.latencies(0, -1))


def test_simulate_validation():
    with pytest.raises(ConfigError, match="duration"):
        simulate(CFG, constant(1e-9, 1.0), 0.0)
    with pytest.raises(ConfigError, match="defined up to"):
        simulate(CFG, constant(1e-9, 0.5), 1.0)
    # the trace refuses the same runs with the same messages
    for duration in (math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError, match=f"^duration must be positive, got {duration}$"):
            state_trace(CFG, constant(1e-9, 1.0), duration, EventStream.empty())
    with pytest.raises(ConfigError, match="^stimulus is defined up to 0.5 s but the run lasts 1.0 s$"):
        state_trace(CFG, constant(1e-9, 0.5), 1.0, EventStream.empty())


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: simulate(CFG, constant(1e-9, 1.0), math.nan), "duration", id="simulate"),
    pytest.param(lambda: state_trace(CFG, constant(1e-9, 1.0), math.nan, EventStream.empty()), "duration",
                 id="state_trace"),
    pytest.param(lambda: power_estimate(EventStream.empty(), math.nan), "duration", id="power_estimate"),
    pytest.param(lambda: power_estimate(EventStream.empty(), math.inf), "duration", id="power_estimate-inf"),
    pytest.param(lambda: simulate(CFG, constant(1e-9, 1.0), 1.0, max_events=0), "max_events", id="max_events-0"),
    *(pytest.param(call, "compensation must be finite and non-negative", id=f"{name}-compensation-{bad}")
      for bad in (math.nan, math.inf, -1.0)
      for name, call in [
          ("decode", lambda c=bad: decode(CFG, [1e-3, 2e-3], [0, 0], compensation=c)),
          ("reconstruct", lambda c=bad: reconstruct(EventStream([1e-3, 2e-3], 0, [0, 0]), CFG, compensation=c)),
      ]),
    pytest.param(lambda: constant(1e-9, 1.0).values([0.5, math.nan]), "outside signal domain", id="values"),
])
def test_nan_time_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_event_cap_truncates_with_partial_results():
    cfg = CfcConfig(t_rst=0.0, i_leak_floor=0.0, channel_address=5)
    full = simulate(cfg, constant(1e-9, 0.1), 0.1).events
    with pytest.raises(EventCapError) as exc:
        simulate(cfg, constant(1e-9, 0.1), 0.1, max_events=25)
    assert len(exc.value.events) == 25
    assert exc.value.events.t_req[-1] < 0.1
    # the message names the channel and the request the cap refused
    assert str(exc.value).startswith(f"event cap of 25 exceeded on channel 5 at t = {float(full.t_req[25])!r} s")
    # ramp path hits the same guard
    ramp = from_breakpoints([(0.0, 0.0), (0.1, 2e-9)], "linear", end=0.1)
    full_ramp = simulate(cfg, ramp, 0.1).events
    with pytest.raises(EventCapError) as exc2:
        simulate(cfg, ramp, 0.1, max_events=10)
    assert len(exc2.value.events) == 10
    assert f"on channel 5 at t = {float(full_ramp.t_req[10])!r} s" in str(exc2.value)


def test_event_cap_inside_a_jittered_batch():
    # one flat piece of about 130 cycles, placed in one batch; the cap
    # falls in its middle
    cfg = CfcConfig(channel_address=2)
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=4)
    full = simulate(cfg, constant(1e-9, 0.014), 0.014, ack=ack).events
    assert len(full) > 100
    with pytest.raises(EventCapError) as exc:
        simulate(cfg, constant(1e-9, 0.014), 0.014, ack=ack, max_events=60)
    capped = exc.value.events
    assert capped.t_req.tobytes() == full.t_req[:60].tobytes()
    assert capped.channel == 2
    assert f"cap of 60 exceeded on channel 2 at t = {float(full.t_req[60])!r} s" in str(exc.value)


def test_simulate_memory_per_piece_is_bounded(traced_peak):
    # about 5k events on a ramp of _BLOCK + 1 or of 100k pieces.  The
    # pieces are built and read one block of stimulus segments at a time,
    # so the peak grows with the events, 9 bytes each, not with the pieces.
    # Measured traced peaks at 100k pieces: 171 B a piece when the five
    # columns became whole Python lists, 109 B with whole numpy columns
    # read in blocks, and 1.44 MB at both lengths with the pieces built
    # in blocks
    def run(n):
        ramp = CurrentSignal.from_samples(np.linspace(0.0, 1.0, n + 1), np.linspace(1e-11, 1e-9, n + 1))
        done = []
        peak = traced_peak(lambda: done.append(simulate(CFG, ramp, 1.0)))
        return peak, len(done[0].events)

    one, events_one = run(_BLOCK + 1)
    many, events = run(100_000)
    assert many <= 1.1 * one + 9 * abs(events - events_one)
    assert many < 2e6


def _simulate_to_the_cap(config, stimulus, duration, max_events):
    """The events of a run, or those a cap error attached."""
    try:
        return simulate(config, stimulus, duration, max_events=max_events).events
    except EventCapError as exc:
        return exc.events


@pytest.mark.parametrize("config, i, cap, n", [
    # a cycle that rounds to zero length: one flat stretch up to the cap
    pytest.param(CfcConfig(c1=1e-320, t_rst=0.0, i_leak_floor=0.0), 1e10, 1_000_000, 1_000_000, id="zero-cycle"),
    pytest.param(CFG, 3e-6, DEFAULT_EVENT_CAP, 291_262, id="3uA"),
])
def test_flat_stretch_memory_per_event_is_bounded(traced_peak, config, i, cap, n):
    # the events take 9 bytes each in their buffers, and a batch places at
    # most _STRETCH_BLOCK cycles at once.  Measured traced peaks: 25.6 and
    # 18.6 B an event when a jitter-free batch placed a whole stretch, 10.1
    # and 11.2 B with the block
    stim = constant(i, 1.0)
    assert len(_simulate_to_the_cap(config, stim, 1.0, cap)) == n
    assert traced_peak(_simulate_to_the_cap, config, stim, 1.0, cap) <= 12 * n


_NEXT_PHASE = {
    Phase.INTEGRATING: Phase.REQUEST_PENDING,
    Phase.REQUEST_PENDING: Phase.RESET_PULSE,
    Phase.RESET_PULSE: Phase.INTEGRATING,
}


def _assert_trace_in_order(tr):
    """Times never decrease, and each row enters the next phase of the
    cycle, or keeps its phase where the range switches or the run ends."""
    assert np.all(np.diff(tr.t) >= 0)
    for k in range(1, len(tr)):
        before, phase = tr.phase[k - 1], tr.phase[k]
        if phase == before:
            assert tr.selected[k] != tr.selected[k - 1] or k == len(tr) - 1, f"row {k} repeats {phase}"
        else:
            assert phase == _NEXT_PHASE[before], f"illegal phase transition {before} -> {phase}"


def test_trace_phases_and_voltage_bounds():
    ack = AckModel(latency=3e-6)
    cfg = CfcConfig(i_leak_floor=0.0)
    stim = constant(1e-9, 1e-3)
    tr = state_trace(cfg, stim, 1e-3, simulate(cfg, stim, 1e-3, ack=ack).events, ack)
    assert len(tr) > 10
    assert tr.phase.dtype == np.uint8
    assert np.all(np.asarray(tr.v_low) >= cfg.v_ref_l - 1e-12)
    assert np.all(np.asarray(tr.v_low) <= cfg.v_ref_h + 1e-12)
    assert np.all(np.asarray(tr.v_high) >= cfg.v_ref_l - 1e-12)
    assert np.all(np.asarray(tr.v_high) <= cfg.v_ref_h + 1e-12)
    # phases cycle integrating -> request_pending -> reset_pulse -> integrating
    _assert_trace_in_order(tr)
    # a pending request holds the active capacitor at the threshold
    pending = tr.phase == Phase.REQUEST_PENDING
    assert pending.any()
    assert np.all(np.where(tr.selected == 0, tr.v_low, tr.v_high)[pending] == cfg.v_ref_l)


def test_trace_time_runs_forward_across_a_switch_during_a_pending_request():
    # the low cap fires at 100 us, the range switches at 101 us while the
    # request waits 3 us for its acknowledge
    stim = from_breakpoints([(0.0, 1e-9), (101e-6, 20e-9)], "step", end=300e-6)
    cfg = CfcConfig(i_leak_floor=0.0)
    ack = AckModel(latency=3e-6)
    tr = state_trace(cfg, stim, 300e-6, simulate(cfg, stim, 300e-6, ack=ack).events, ack)
    _assert_trace_in_order(tr)
    assert [(Phase(phase), int(sel)) for phase, sel in zip(tr.phase, tr.selected)] == [
        (Phase.INTEGRATING, 0),
        (Phase.REQUEST_PENDING, 0),
        (Phase.REQUEST_PENDING, 1),
        (Phase.RESET_PULSE, 1),
        (Phase.INTEGRATING, 1),
        (Phase.INTEGRATING, 1),
    ]


def test_trace_replays_the_kernel_latency_draws():
    # on a jittered flat piece every event after the first lands one ideal
    # interval after the reset that precedes it ends, over more than two
    # blocks of latency draws
    i, duration = 1e-6, 0.11
    ack = AckModel(latency=1e-6, jitter=2e-6, seed=11)
    stim = constant(i, duration)
    events = simulate(CFG, stim, duration, ack=ack).events
    tr = state_trace(CFG, stim, duration, events, ack)
    reset_ends = tr.t[(tr.phase == Phase.INTEGRATING) & (tr.t > 0.0) & (tr.t < duration)]
    gaps = events.t_req[1:] - reset_ends[: len(events) - 1]
    assert len(gaps) > 2 * 4096
    assert gaps == pytest.approx(np.full(len(gaps), ideal_isi(CFG, i)), rel=1e-12)


def _ramp_pieces(cuts, ranges):
    """The ramp i(t) = 2t A, cut at ``cuts``, one range a piece."""
    starts, ends = np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float)
    return starts, ends, 2.0 * starts, 2.0 * ends, np.array(ranges, dtype=np.uint8)


@pytest.mark.parametrize("q_first", [(0.0, 0.0), (0.25, 0.5)])
def test_charge_is_the_trapezoid_of_each_range(q_first):
    # LOW over [0, 1] and [3, 4], HIGH over [1, 3]; the charge over [a, b]
    # of a linear current is the trapezoid (i(a) + i(b)) / 2 * (b - a)
    pieces = _ramp_pieces([0.0, 1.0, 3.0, 4.0], [RangeSelect.LOW, RangeSelect.HIGH, RangeSelect.LOW])
    t = np.array([0.0, 0.5, 1.0, 2.5, 3.0, 3.5, 4.0])

    def trapezoid(a, b):
        b = np.clip(t, a, b)
        return (2.0 * a + 2.0 * b) / 2 * (b - a)

    q = _charge(pieces, t, q_first)
    assert q.shape == (2, t.size)
    assert q[RangeSelect.LOW] == pytest.approx(q_first[0] + trapezoid(0.0, 1.0) + trapezoid(3.0, 4.0), rel=1e-15)
    assert q[RangeSelect.HIGH] == pytest.approx(q_first[1] + trapezoid(1.0, 3.0), rel=1e-15)
    assert q[:, 0].tolist() == list(q_first)


def test_charge_carries_across_blocks_bit_for_bit():
    # pieces cut into two blocks, the second given the charge at its
    # first start, take in what the whole takes in
    rng = np.random.default_rng(5)
    cuts = np.cumsum(rng.random(41) * 1e-4)
    pieces = _ramp_pieces(cuts, rng.integers(0, 2, 40))
    t = np.sort(rng.uniform(cuts[17], cuts[-1], 100))
    whole = _charge(pieces, t)
    carry = _charge(pieces, cuts[17:18])[:, 0]
    second = _charge([column[17:] for column in pieces], t, tuple(carry))
    assert second.tobytes() == whole.tobytes()


def test_ack_latencies_are_the_scalar_draws_in_order():
    n = 2 * 4096 + 1
    rng = np.random.default_rng([11, 3])
    expected = [1e-6 + rng.uniform(0.0, 2e-6) for _ in range(n)]
    drawn = list(itertools.islice(AckModel(latency=1e-6, jitter=2e-6, seed=11).latencies(3), n))
    assert drawn == expected
    fixed = list(itertools.islice(AckModel(latency=1e-6, seed=11).latencies(3), n))
    assert fixed == [1e-6] * n


@settings(max_examples=40, deadline=None)
@given(jitter=st.sampled_from([0.0, 2e-6]), start=st.integers(0, 3 * _BLOCK), count=st.integers(0, 2 * _BLOCK + 1))
@example(jitter=2e-6, start=_BLOCK - 1, count=2)
@example(jitter=2e-6, start=_BLOCK, count=_BLOCK + 1)
@example(jitter=2e-6, start=_BLOCK + 1, count=2 * _BLOCK + 1)
def test_ack_draws_read_the_stream_at_any_event(jitter, start, count):
    # a batch reads draws from the event it starts at; the per-event loop
    # reads them in order from event 0, or from after a batch
    ack = AckModel(latency=1e-6, jitter=jitter, seed=11)
    in_order = list(itertools.islice(ack.latencies(3), start, start + count))
    assert ack.draws(3, start, count).tolist() == in_order
    assert list(itertools.islice(ack.latencies(3, start), count)) == in_order
    # and both are one block of draws from a fresh generator, cut at start
    rng = np.random.default_rng([11, 3])
    assert in_order == (1e-6 + rng.uniform(0.0, jitter, start + count)[start:]).tolist()


# ---------------------------------------------------------------------------
# event stream container
# ---------------------------------------------------------------------------


def test_event_stream_container():
    ev = EventStream([1e-3, 2e-3], np.int64(7), [RangeSelect.LOW, RangeSelect.HIGH])
    assert len(ev) == 2
    assert (ev.t_req.dtype, ev.sf.dtype) == (np.float64, np.uint8)
    assert type(ev.channel) is int and ev.channel == 7
    assert ev.sf.tolist() == [0, 1]
    assert np.diff(ev.t_req) == pytest.approx([1e-3])
    assert len(EventStream.empty()) == 0 and EventStream.empty().channel == 0
    assert EventStream([0.0], 2**63 - 1, [0]).channel == 2**63 - 1
    with pytest.raises(ValueError, match="matching shapes"):
        EventStream([0.0], 0, [0, 0])


@pytest.mark.parametrize("t_req, sf", [
    pytest.param(np.zeros((2, 2)), np.zeros((2, 2), np.uint8), id="2-d"),
    pytest.param(0.0, 0, id="0-d"),
])
def test_event_stream_refuses_columns_that_are_not_1d(t_req, sf):
    # as SpikeTrain refuses them: a (2, 2) stream would count 4 events,
    # decode to a (2, 2) signal and fail to write
    with pytest.raises(ValueError, match="event columns must be one-dimensional"):
        EventStream(t_req, 0, sf)


@pytest.mark.parametrize("t_req, sf, error", [
    pytest.param([0.0, 1e-3, 2e-3], [0, 2, 1], "range flags must be 0 or 1: event 1 has flag 2", id="flag-2"),
    # a uint8 cast would make 256 a low-range 0
    pytest.param([0.0, 1e-3], np.array([1, 256]), "event 1 has flag 256", id="int64-flag-256"),
    pytest.param([0.0, 1e-3], np.array([0, 3], dtype=np.uint8), "event 1 has flag 3", id="uint8-flag-3"),
    pytest.param([0.0, 1e-3], [0.5, 1.0], "event 0 has flag 0.5", id="float-flag"),
    pytest.param([0.0, np.nan, 1.0], [0, 0, 0], r"event times must be finite: event 1 is at t = nan s", id="nan"),
    pytest.param([0.0, -np.inf], [0, 0], "event 1 is at t = -inf s", id="-inf"),
])
def test_event_stream_refuses_non_finite_times_and_other_flags(t_req, sf, error):
    # such a stream would decode a flag of 2 as the low range, and write a
    # file that the events reader refuses
    with pytest.raises(ValueError, match=error):
        EventStream(t_req, 0, sf)


@pytest.mark.parametrize("channel", [
    pytest.param(np.zeros(2, dtype=np.int64), id="array"),
    pytest.param([0, 0], id="list"),
    pytest.param(True, id="bool"),
    pytest.param(-1, id="negative"),
    pytest.param(2**63, id="2**63"),
    pytest.param(1.0, id="float"),
])
def test_event_stream_holds_one_channel_address(channel):
    # the addresses CfcConfig refuses, refused by the stream too
    with pytest.raises(ConfigError, match="channel_address"):
        CfcConfig(channel_address=channel)
    with pytest.raises(ValueError, match=r"one channel, an integer in \[0, 2\*\*63\)"):
        EventStream([0.0, 1.0], channel, [0, 0])


# ---------------------------------------------------------------------------
# randomized stimulus property
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(
    st.lists(st.floats(min_value=0.0, max_value=60e-9), min_size=2, max_size=5),
    st.booleans(),
)
def test_random_piecewise_stimuli_respect_invariants(levels, linear):
    dwell = 2e-4
    points = [(k * dwell, lv) for k, lv in enumerate(levels)]
    stim = from_breakpoints(
        points, "linear" if linear else "step", end=len(levels) * dwell
    )
    duration = len(levels) * dwell
    ev = simulate(CFG, stim, duration, ack=AckModel(latency=1e-7)).events
    if len(ev) < 2:
        return
    isis = np.diff(ev.t_req)
    assert np.all(isis > 0)
    assert np.all(isis >= CFG.t_rst + 1e-7 - 1e-18)
    assert ev.t_req[-1] <= duration * (1 + 1e-12)
