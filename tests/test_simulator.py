import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcsim.core import CfcConfig, ConfigError, Polarity, RangeSelect, ideal_isi, ideal_rate
from cfcsim.simulator import (
    AckModel,
    EventCapError,
    EventStream,
    Phase,
    power_estimate,
    simulate,
    simulate_many,
)
from cfcsim.stimulus import CurrentSignal, constant

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
    hundred_khz = EventStream(
        np.arange(1, 100_001) * 1e-5, np.zeros(100_000), np.zeros(100_000)
    )
    assert power_estimate(hundred_khz, 1.0) == pytest.approx(36e-9, rel=1e-12)
    assert power_estimate(EventStream.empty(), 1.0, static_power=2e-9) == 2e-9
    ten_khz = EventStream(np.arange(1, 10_001) * 1e-4, np.zeros(10_000), np.zeros(10_000))
    assert power_estimate(ten_khz, 1.0) == pytest.approx(3.6e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# constant-current behavior
# ---------------------------------------------------------------------------


def test_constant_10pA_ideal_100_events_at_10ms():
    result = simulate(IDEAL, constant(10e-12, 1.0), 1.0)
    ev = result.events
    assert len(ev) == 100
    assert ev.t_req[0] == pytest.approx(0.01, rel=1e-12)
    assert ev.isis() == pytest.approx(np.full(99, 0.01), rel=1e-12)
    assert np.all(ev.sf == 0)
    assert np.all(ev.channel == 0)


def test_below_floor_produces_nothing():
    assert len(simulate(CFG, constant(5e-12, 10.0), 10.0).events) == 0
    assert len(simulate(CFG, constant(5.5e-12, 10.0), 10.0).events) == 0


def test_high_current_isi_includes_reset_pulse():
    result = simulate(CfcConfig(i_leak_floor=0.0), constant(1e-6, 0.01), 0.01)
    isis = result.events.isis()
    assert isis == pytest.approx(np.full(isis.size, 10.1e-6), rel=1e-12)
    assert np.all(result.events.sf == 1)


@pytest.mark.parametrize("i", [20e-12, 3.3e-9, 9e-9, 10e-9, 50e-9, 1e-6])
def test_measured_isi_equals_ideal_plus_dead_time(i):
    ack = AckModel(latency=2e-7)
    duration = 40 * (ideal_isi(CFG, i) + 3e-7)
    result = simulate(CFG, constant(i, duration), duration, ack=ack)
    isis = result.events.isis()
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
    stim = CurrentSignal.from_breakpoints([(0.0, 10e-12), (5e-3, 20e-12)], "step", end=0.02)
    ev = simulate(IDEAL, stim, 0.02).events
    assert ev.t_req[0] == pytest.approx(7.5e-3, rel=1e-12)


def test_range_switch_resumes_held_voltage():
    # 8 nA for 5 us discharges the small cap by 0.4 V (no event), a 2 us
    # burst at 20 nA barely moves the big cap, then back at 8 nA the small
    # cap resumes from 1.4 V: 0.6 V left at 8 nA -> 7.5 us more.
    stim = CurrentSignal.from_breakpoints(
        [(0.0, 8e-9), (5e-6, 20e-9), (7e-6, 8e-9)], "step", end=40e-6
    )
    ev = simulate(IDEAL, stim, 40e-6).events
    assert ev.t_req[0] == pytest.approx(14.5e-6, rel=1e-9)
    assert ev.sf[0] == 0


def test_range_switch_mid_cycle_to_high_uses_full_big_cap():
    # partial progress on the small cap is parked, then the big cap
    # integrates its full 1 V swing: 10 nC / 20 nA = 0.5 ms after the step
    stim = CurrentSignal.from_breakpoints([(0.0, 10e-12), (5e-3, 20e-9)], "step", end=0.02)
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
    stim = CurrentSignal.from_breakpoints(
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
    stim = CurrentSignal.from_breakpoints([(0.0, 1e-9), (5e-3, 8e-9)], "linear", end=1e-2)
    ev = simulate(CFG, stim, 1e-2, ack=ack).events
    assert len(ev) > 10
    isis = ev.isis()
    assert np.all(isis > 0)
    assert np.all(isis >= CFG.t_rst + ack.latency - 1e-18)


def test_deterministic_with_jittered_ack():
    ack = AckModel(latency=5e-7, jitter=1e-6, seed=123)
    stim = CurrentSignal.from_breakpoints([(0.0, 2e-9), (5e-3, 30e-9)], "linear", end=1e-2)
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
    for trace in (False, True):
        ev = simulate(CFG, constant(1e-9, d), d, trace=trace).events
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


def _staircase_run(levels, dwell, latency, jitter, linear):
    """Stimulus, duration and acknowledge model of one drawn run."""
    duration = len(levels) * dwell
    stim = CurrentSignal.from_breakpoints(
        [(k * dwell, lv) for k, lv in enumerate(levels)],
        "linear" if linear else "step",
        end=duration,
    )
    return stim, duration, AckModel(latency=latency, jitter=jitter, seed=3)


@settings(max_examples=25, deadline=None)
@given(**_STAIRCASE_RUNS)
# a constant on the ideal channel: the batched path, cycle after cycle
@example(levels=[2e-9], dwell=2e-3, latency=0.0, jitter=0.0, linear=False, config=IDEAL)
def test_events_match_with_trace_on_and_off(levels, dwell, latency, jitter, linear, config):
    stim, duration, ack = _staircase_run(levels, dwell, latency, jitter, linear)
    plain = simulate(config, stim, duration, ack=ack).events
    traced = simulate(config, stim, duration, ack=ack, trace=True).events
    assert np.array_equal(plain.t_req, traced.t_req)
    assert np.array_equal(plain.sf, traced.sf)
    assert np.all(plain.t_req <= duration)


@settings(max_examples=25, deadline=None)
@given(**_STAIRCASE_RUNS)
# intervals near 1 ns against a 0.2 us dead time, on a ramp (per event)
# then a flat piece (batched): a request before the previous reset ended
# would show here
@example(levels=[1e-6, 2e-6], dwell=1e-4, latency=1e-7, jitter=0.0, linear=True, config=CfcConfig(c1=1e-17))
def test_every_event_fires_from_an_integrating_stretch(levels, dwell, latency, jitter, linear, config):
    stim, duration, ack = _staircase_run(levels, dwell, latency, jitter, linear)
    result = simulate(config, stim, duration, ack=ack, trace=True)
    t_req, tr = result.events.t_req, result.trace
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
# validation, cap, trace
# ---------------------------------------------------------------------------


def test_ack_model_validation():
    for kwargs in ({"latency": -1e-9}, {"latency": float("nan")}, {"jitter": float("nan")},
                   {"seed": -1}, {"seed": 1.5}):
        with pytest.raises(ConfigError):
            AckModel(**kwargs)


def test_simulate_validation():
    with pytest.raises(ConfigError, match="duration"):
        simulate(CFG, constant(1e-9, 1.0), 0.0)
    with pytest.raises(ConfigError, match="defined up to"):
        simulate(CFG, constant(1e-9, 0.5), 1.0)


def test_event_cap_truncates_with_partial_results():
    with pytest.raises(EventCapError) as exc:
        simulate(IDEAL, constant(1e-9, 0.1), 0.1, max_events=25)
    assert len(exc.value.events) == 25
    assert exc.value.events.t_req[-1] < 0.1
    # ramp path hits the same guard
    ramp = CurrentSignal.from_breakpoints([(0.0, 0.0), (0.1, 2e-9)], "linear", end=0.1)
    with pytest.raises(EventCapError) as exc2:
        simulate(IDEAL, ramp, 0.1, max_events=10)
    assert len(exc2.value.events) == 10


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
        if phase is before:
            assert tr.selected[k] != tr.selected[k - 1] or k == len(tr) - 1, f"row {k} repeats {phase}"
        else:
            assert phase is _NEXT_PHASE[before], f"illegal phase transition {before} -> {phase}"


def test_trace_phases_and_voltage_bounds():
    ack = AckModel(latency=3e-6)
    cfg = CfcConfig(i_leak_floor=0.0)
    result = simulate(cfg, constant(1e-9, 1e-3), 1e-3, ack=ack, trace=True)
    tr = result.trace
    assert tr is not None and len(tr) > 10
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
    stim = CurrentSignal.from_breakpoints([(0.0, 1e-9), (101e-6, 20e-9)], "step", end=300e-6)
    cfg = CfcConfig(i_leak_floor=0.0)
    tr = simulate(cfg, stim, 300e-6, ack=AckModel(latency=3e-6), trace=True).trace
    _assert_trace_in_order(tr)
    assert [(phase.value, int(sel)) for phase, sel in zip(tr.phase, tr.selected)] == [
        ("integrating", 0),
        ("request_pending", 0),
        ("request_pending", 1),
        ("reset_pulse", 1),
        ("integrating", 1),
        ("integrating", 1),
    ]


def test_trace_replays_the_kernel_latency_draws():
    # on a jittered flat piece every event after the first lands one ideal
    # interval after the reset that precedes it ends
    i = 1e-9
    ack = AckModel(latency=1e-6, jitter=2e-6, seed=11)
    result = simulate(CFG, constant(i, 2e-3), 2e-3, ack=ack, trace=True)
    tr = result.trace
    reset_ends = tr.t[(tr.phase == Phase.INTEGRATING) & (tr.t > 0.0) & (tr.t < 2e-3)]
    gaps = result.events.t_req[1:] - reset_ends[: len(result.events) - 1]
    assert len(gaps) > 10
    assert gaps == pytest.approx(np.full(len(gaps), ideal_isi(CFG, i)), rel=1e-12)


# ---------------------------------------------------------------------------
# multi-channel
# ---------------------------------------------------------------------------


def test_simulate_many_merges_by_timestamp():
    cfg_a = CfcConfig(t_rst=0.0, i_leak_floor=0.0, channel_address=0)
    cfg_b = CfcConfig(t_rst=0.0, i_leak_floor=0.0, channel_address=3)
    channels = [(cfg_a, constant(1e-9, 1e-2)), (cfg_b, constant(3e-9, 1e-2))]
    merged = simulate_many(channels, 1e-2)
    assert np.all(np.diff(merged.t_req) >= 0)
    assert set(np.unique(merged.channel)) == {0, 3}
    for cfg, stim in channels:
        alone = simulate(cfg, stim, 1e-2).events
        assert np.array_equal(merged.t_req[merged.channel == cfg.channel_address], alone.t_req)
    with pytest.raises(ConfigError, match="unique"):
        simulate_many([(cfg_a, constant(1e-9, 1e-2)), (cfg_a, constant(1e-9, 1e-2))], 1e-2)


def test_event_stream_container():
    ev = EventStream([1e-3, 2e-3], [0, 0], [RangeSelect.LOW, RangeSelect.HIGH])
    assert len(ev) == 2
    assert (ev.t_req.dtype, ev.channel.dtype, ev.sf.dtype) == (np.float64, np.int64, np.uint8)
    assert ev.sf.tolist() == [0, 1]
    assert ev.isis() == pytest.approx([1e-3])
    assert len(EventStream.empty()) == 0
    with pytest.raises(ValueError, match="matching shapes"):
        EventStream([0.0], [0, 0], [0])


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
    stim = CurrentSignal.from_breakpoints(
        points, "linear" if linear else "step", end=len(levels) * dwell
    )
    duration = len(levels) * dwell
    ev = simulate(CFG, stim, duration, ack=AckModel(latency=1e-7)).events
    if len(ev) < 2:
        return
    isis = ev.isis()
    assert np.all(isis > 0)
    assert np.all(isis >= CFG.t_rst + 1e-7 - 1e-18)
    assert ev.t_req[-1] <= duration * (1 + 1e-12)
