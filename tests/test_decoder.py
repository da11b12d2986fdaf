import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcsim.core import CfcConfig, RangeSelect, dead_time, select_range
from cfcsim.decoder import (
    Placement,
    ReconstructedSignal,
    ResampleMode,
    fit_exponential,
    reconstruct,
    resample,
    sweep_analysis,
)
from cfcsim.simulator import AckModel, EventStream, simulate
from cfcsim.stimulus import (
    CurrentSignal,
    SpikeTrain,
    constant,
    dpi_synapse,
    staircase_sweep,
)

CFG = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


def _stream(times, sf, channel=0):
    n = len(times)
    return EventStream(
        np.asarray(times), np.full(n, channel), np.asarray(sf, dtype=np.uint8)
    )


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_two_events_100ms_apart_decode_to_1pA():
    rec = reconstruct(_stream([0.0, 0.1], [0, 0]), CFG)
    assert len(rec) == 1
    assert rec.i_est[0] == pytest.approx(1e-12, rel=1e-12)
    assert rec.t[0] == pytest.approx(0.05)  # midpoint placement by default
    assert rec.ranges[0] == 0


def test_single_event_or_empty_is_empty_signal():
    assert len(reconstruct(_stream([0.5], [1]), CFG)) == 0
    assert len(reconstruct(EventStream.empty(), CFG)) == 0


def test_dead_time_compensated_high_range():
    times = 10.1e-6 * np.arange(1, 12)
    rec = reconstruct(_stream(times, np.ones(11)), CFG, compensation=0.1e-6)
    assert rec.i_est == pytest.approx(np.full(10, 1e-6), rel=1e-12)


def test_placement_modes():
    ev = _stream([0.0, 0.1, 0.3], [0, 0, 0])
    mid = reconstruct(ev, CFG, placement=Placement.MIDPOINT)
    ats = reconstruct(ev, CFG, placement=Placement.AT_SECOND)
    assert mid.t == pytest.approx([0.05, 0.2])
    assert ats.t == pytest.approx([0.1, 0.3])
    assert mid.i_est == pytest.approx(ats.i_est)


def test_reconstruct_rejects_bad_streams():
    with pytest.raises(ValueError, match="multiple channels"):
        reconstruct(
            EventStream(np.array([0.0, 1.0]), np.array([0, 1]), np.array([0, 0], dtype=np.uint8)),
            CFG,
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        reconstruct(_stream([0.1, 0.1], [0, 0]), CFG)
    with pytest.raises(ValueError, match="shorter than dead time"):
        reconstruct(_stream([0.0, 5e-8], [0, 0]), CFG, compensation=1e-7)
    with pytest.raises(ValueError):
        reconstruct(_stream([0.0, 0.1], [0, 0]), CFG, compensation=-1.0)


def test_infer_ranges_tracks_a_threshold_crossing():
    # inference anchors on continuity, so give it a continuous monitored
    # current that rides through the range switch
    stim = CurrentSignal.from_breakpoints([(0.0, 5e-11), (0.02, 40e-9)], "linear", end=0.02)
    ev = simulate(IDEAL, stim, 0.02).events
    stripped = EventStream(ev.t_req, ev.channel, np.zeros(len(ev), dtype=np.uint8))
    inferred = reconstruct(stripped, IDEAL, infer_ranges=True)
    trusted = reconstruct(ev, IDEAL)
    assert np.array_equal(inferred.ranges, trusted.ranges)
    assert inferred.i_est == pytest.approx(trusted.i_est, rel=1e-12)


def test_infer_ranges_ambiguous_start_defaults_low():
    ev = simulate(IDEAL, constant(1e-9, 0.01), 0.01).events
    stripped = EventStream(ev.t_req, ev.channel, np.zeros(len(ev), dtype=np.uint8))
    rec = reconstruct(stripped, IDEAL, infer_ranges=True)
    assert np.all(rec.ranges == 0)
    assert rec.i_est == pytest.approx(np.full(len(rec), 1e-9), rel=1e-9)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------


def _recon_from(times, values):
    return ReconstructedSignal(
        np.asarray(times, dtype=float),
        np.asarray(values, dtype=float),
        np.zeros(len(times), dtype=np.uint8),
    )


def test_resample_single_sample_constant():
    grid, vals = resample(_recon_from([0.5], [2e-9]), 0.1)
    assert grid == pytest.approx([0.5])
    assert vals == pytest.approx([2e-9])


def test_resample_linear_interpolation():
    grid, vals = resample(_recon_from([0.0, 1.0], [1e-9, 2e-9]), 0.5, ResampleMode.LINEAR)
    assert grid == pytest.approx([0.0, 0.5, 1.0])
    assert vals == pytest.approx([1e-9, 1.5e-9, 2e-9])


def test_resample_hold_previous_value():
    grid, vals = resample(_recon_from([0.0, 1.0], [1e-9, 2e-9]), 0.5, ResampleMode.HOLD)
    assert vals == pytest.approx([1e-9, 1e-9, 2e-9])


def test_resample_validation():
    with pytest.raises(ValueError, match="empty"):
        resample(_recon_from([], []), 0.1)
    with pytest.raises(ValueError, match="dt"):
        resample(_recon_from([0.0], [1e-9]), 0.0)


def test_staircase_hold_roundtrip_preserves_steps():
    sig, sched = staircase_sweep(1e-9, 5e-9, 5, 0.01)
    ev = simulate(IDEAL, sig, sched.span[1]).events
    rec = reconstruct(ev, IDEAL)
    grid, vals = resample(rec, 1e-3, ResampleMode.HOLD)
    for t0, t1, level in zip(sched.t_start, sched.t_end, sched.levels):
        # probe well inside the dwell, away from the transition intervals
        inside = (grid > t0 + 0.003) & (grid < t1 - 0.003)
        assert np.all(np.abs(vals[inside] - level) / level < 0.005)


# ---------------------------------------------------------------------------
# exponential fit
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_decay():
    t = np.linspace(0.0, 0.1, 300)
    rec = _recon_from(t, 1e-9 * np.exp(-t / 20e-3))
    fit = fit_exponential(rec, (0.0, 0.1))
    assert fit.tau == pytest.approx(20e-3, rel=1e-6)
    assert fit.amplitude == pytest.approx(1e-9, rel=1e-6)
    assert fit.baseline == pytest.approx(0.0, abs=1e-15)
    assert fit.residual_norm < 1e-15


def test_fit_recovers_decay_with_baseline():
    t = np.linspace(0.0, 0.15, 400)
    rec = _recon_from(t, 5e-11 + 2e-9 * np.exp(-t / 30e-3))
    fit = fit_exponential(rec, (0.0, 0.15))
    assert fit.tau == pytest.approx(30e-3, rel=1e-6)
    assert fit.baseline == pytest.approx(5e-11, rel=1e-4)


def test_fit_rejects_flat_and_rising_data():
    t = np.linspace(0.0, 0.1, 50)
    with pytest.raises(ValueError, match="no exponential trend"):
        fit_exponential(_recon_from(t, np.full(50, 1e-9)), (0.0, 0.1))
    with pytest.raises(ValueError, match="no exponential trend"):
        fit_exponential(_recon_from(t, 1e-9 * np.exp(t / 50e-3)), (0.0, 0.1))


def test_fit_needs_five_samples():
    t = np.linspace(0.0, 0.1, 4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_exponential(_recon_from(t, 1e-9 * np.exp(-t / 20e-3)), (0.0, 0.1))


def test_fit_window_bounds():
    t = np.linspace(0.0, 0.2, 100)
    rec = _recon_from(t, 1e-9 * np.exp(-t / 20e-3))
    with pytest.raises(ValueError, match="window"):
        fit_exponential(rec, (0.1, 0.1))


def test_end_to_end_dpi_decay_recovery():
    # encode a synthetic synapse decay through the full pipeline at
    # default settings, then pull the time constant back out
    tau, peak = 20e-3, 1e-9
    spike_t = 1e-3
    sig = dpi_synapse(SpikeTrain(np.array([spike_t])), tau, peak, 0.0, 0.12)
    ev = simulate(CFG, sig, 0.12).events
    rec = reconstruct(ev, CFG)
    fit = fit_exponential(rec, (spike_t + 1e-3, spike_t + 0.08))
    assert fit.tau == pytest.approx(tau, rel=0.05)


# ---------------------------------------------------------------------------
# sweep analysis
# ---------------------------------------------------------------------------


def test_sweep_roundtrip_within_half_percent():
    sig, sched = staircase_sweep(1e-9, 10e-9, 10, 0.01)
    ev = simulate(IDEAL, sig, sched.span[1]).events
    points = sweep_analysis(ev, sched, IDEAL)
    assert len(points) == 10
    for p in points:
        assert p.decoded is not None
        assert abs(p.decoded - p.level) / p.level < 0.005


def test_sweep_dead_zone_reports_no_measurement():
    sig, sched = staircase_sweep(3e-12, 30e-12, 4, 0.5)
    ev = simulate(CFG, sig, sched.span[1]).events
    points = sweep_analysis(ev, sched, CFG)
    assert points[0].decoded is None  # 3 pA sits under the 5.5 pA floor
    assert points[0].n_events == 0
    assert all(p.decoded is not None for p in points[1:])


def test_sweep_boundary_step_decodes_on_high_range():
    sig, sched = staircase_sweep(5e-9, 10e-9, 2, 0.05)
    ev = simulate(IDEAL, sig, sched.span[1]).events
    last_dwell = ev.sf[ev.t_req > sched.t_start[1] + 1e-3]
    assert np.all(last_dwell == 1)  # the tie at i_sw lands on the high range
    points = sweep_analysis(ev, sched, IDEAL)
    assert points[1].decoded == pytest.approx(10e-9, rel=1e-6)


def test_sweep_rejects_out_of_schedule_events():
    _, sched = staircase_sweep(1e-9, 2e-9, 2, 0.1)
    ev = _stream([0.05, 0.5], [0, 0])  # second event after the sweep ends
    with pytest.raises(ValueError, match="outside the sweep schedule"):
        sweep_analysis(ev, sched, CFG)
    with pytest.raises(ValueError, match="settle_fraction"):
        sweep_analysis(_stream([0.05, 0.06], [0, 0]), sched, CFG, settle_fraction=1.0)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(st.floats(min_value=10e-12, max_value=1e-6))
def test_roundtrip_constant_currents(i):
    sel = select_range(CFG, i)
    isi = CFG.scale(sel) * CFG.c1 * CFG.delta_v / i
    duration = 15 * (isi + CFG.t_rst)
    ev = simulate(CFG, constant(i, duration), duration).events
    # compensated decode is exact up to rounding
    rec = reconstruct(ev, CFG, compensation=CFG.t_rst)
    assert rec.i_est == pytest.approx(np.full(len(rec), i), rel=0.005)
    # and with everything ideal, exact to numerical precision
    ev0 = simulate(IDEAL, constant(i, duration), duration).events
    rec0 = reconstruct(ev0, IDEAL)
    assert rec0.i_est == pytest.approx(np.full(len(rec0), i), rel=1e-9)


@settings(max_examples=20)
@given(st.floats(min_value=10e-12, max_value=1e-6))
def test_range_flag_matches_decoded_current(i):
    # stay clear of the switch boundary where the flag legitimately differs
    if 0.98 <= i / CFG.i_sw <= 1.02:
        return
    duration = 15 * (CFG.scale(select_range(CFG, i)) * CFG.c1 * CFG.delta_v / i + CFG.t_rst)
    ev = simulate(CFG, constant(i, duration), duration).events
    rec = reconstruct(ev, CFG, compensation=CFG.t_rst)
    for k in range(len(rec)):
        assert RangeSelect(int(rec.ranges[k])) is select_range(CFG, float(rec.i_est[k]))


def test_mean_dead_time_compensates_ack_jitter():
    # 1 uA with 0.1 us latency and 0.2 us uniform jitter: subtracting only
    # the fixed part reads ~1% low, the mean dead time is unbiased
    ack = AckModel(latency=1e-7, jitter=2e-7, seed=0)
    ev = simulate(CFG, constant(1e-6, 0.05), 0.05, ack=ack).events
    fixed_only = reconstruct(ev, CFG, compensation=CFG.t_rst + ack.latency).i_est.mean()
    mean_dead = reconstruct(ev, CFG, compensation=dead_time(CFG, ack)).i_est.mean()
    assert -0.012 < fixed_only / 1e-6 - 1 < -0.008
    assert abs(mean_dead / 1e-6 - 1) < 5e-4


def test_midpoint_beats_at_second_on_ramps():
    stim = CurrentSignal.from_breakpoints([(0.0, 1e-9), (0.01, 9e-9)], "linear", end=0.01)
    ev = simulate(IDEAL, stim, 0.01).events
    truth = lambda ts: stim.values(ts)
    mid = reconstruct(ev, IDEAL, placement=Placement.MIDPOINT)
    ats = reconstruct(ev, IDEAL, placement=Placement.AT_SECOND)
    err_mid = np.linalg.norm(mid.i_est - truth(mid.t))
    err_ats = np.linalg.norm(ats.i_est - truth(ats.t))
    assert err_mid < err_ats
