import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcsim.core import CfcConfig, dead_time, select_ranges
from cfcsim.decoder import ReconstructedSignal, fit_exponential, reconstruct, sweep_analysis
from cfcsim.simulator import AckModel, EventStream, simulate
from cfcsim.stimulus import (
    SpikeTrain,
    constant,
    dpi_synapse,
    staircase_sweep,
)
from oracle import from_breakpoints

CFG = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


def _stream(times, sf, channel=0):
    return EventStream(np.asarray(times), channel, np.asarray(sf, dtype=np.uint8))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_two_events_100ms_apart_decode_to_1pA():
    rec = reconstruct(_stream([0.0, 0.1], [0, 0]), CFG)
    assert len(rec) == 1
    assert rec.i_est[0] == pytest.approx(1e-12, rel=1e-12)
    assert rec.t[0] == pytest.approx(0.05)  # sampled at the interval midpoint
    assert rec.ranges[0] == 0
    three = reconstruct(_stream([0.0, 0.1, 0.3], [0, 0, 0]), CFG)
    assert three.t == pytest.approx([0.05, 0.2])


def test_single_event_or_empty_is_empty_signal():
    assert len(reconstruct(_stream([0.5], [1]), CFG)) == 0
    assert len(reconstruct(EventStream.empty(), CFG)) == 0


def test_dead_time_compensated_high_range():
    times = 10.1e-6 * np.arange(1, 12)
    rec = reconstruct(_stream(times, np.ones(11)), CFG, compensation=0.1e-6)
    assert rec.i_est == pytest.approx(np.full(10, 1e-6), rel=1e-12)


def test_reconstruct_rejects_bad_streams():
    with pytest.raises(ValueError, match="strictly increasing"):
        reconstruct(_stream([0.1, 0.1], [0, 0]), CFG)
    with pytest.raises(ValueError, match="strictly increasing"):
        reconstruct(_stream([0.1, np.nan], [0, 0]), CFG)
    with pytest.raises(ValueError, match="shorter than dead time"):
        reconstruct(_stream([0.0, 5e-8], [0, 0]), CFG, compensation=1e-7)
    with pytest.raises(ValueError, match=r"event 1 at t = 5e-08 s follows event 0 at t = 0\.0 s"):
        reconstruct(_stream([0.0, 5e-8], [0, 0]), CFG, compensation=1e-7)
    with pytest.raises(ValueError):
        reconstruct(_stream([0.0, 0.1], [0, 0]), CFG, compensation=-1.0)


def test_interval_not_longer_than_the_compensation_is_named():
    # the interval that closes event 3 is 50 ns, under a 100 ns compensation
    times = [0.0, 0.1, 0.2, 0.20000005, 0.3]
    with pytest.raises(ValueError, match=r"event 3 at t = 0\.20000005 s follows event 2 at t = 0\.2 s"):
        reconstruct(_stream(times, [0] * 5), CFG, compensation=1e-7)
    # an interval equal to the compensation is not longer than it
    with pytest.raises(ValueError, match=r"event 1 at t = 1e-07 s"):
        reconstruct(_stream([0.0, 1e-7], [0, 0]), CFG, compensation=1e-7)
    # sweep analysis names the event by its index in the whole stream
    sig = staircase_sweep(1e-12, 2e-12, 2, 0.5)
    times = [0.05, 0.2, 0.3, 0.6, 0.7, 0.70000005, 0.9]
    with pytest.raises(ValueError, match=r"event 5 at t = 0\.70000005 s follows event 4 at t = 0\.7 s"):
        sweep_analysis(_stream(times, [0] * 7), sig, CFG, compensation=1e-7)
    # without compensation the same streams decode
    assert len(reconstruct(_stream(times, [0] * 7), CFG)) == 6
    assert [p.n_events for p in sweep_analysis(_stream(times, [0] * 7), sig, CFG)] == [2, 4]


# ---------------------------------------------------------------------------
# reconstruct end to end
# ---------------------------------------------------------------------------


def test_staircase_hold_roundtrip_preserves_steps():
    sig = staircase_sweep(1e-9, 5e-9, 5, 0.01)
    ev = simulate(IDEAL, sig, sig.end).events
    rec = reconstruct(ev, IDEAL)
    for t0, t1, level in zip(sig.times, sig.ends, sig.i_start):
        # samples well inside the dwell, away from the transition intervals
        inside = (rec.t > t0 + 0.003) & (rec.t < t1 - 0.003)
        assert inside.sum() > 10
        assert np.all(np.abs(rec.i_est[inside] - level) / level < 0.005)


# ---------------------------------------------------------------------------
# exponential fit
# ---------------------------------------------------------------------------


def _recon_from(times, values):
    return ReconstructedSignal(
        np.asarray(times, dtype=float),
        np.asarray(values, dtype=float),
        np.zeros(len(times), dtype=np.uint8),
    )


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


def test_fit_holds_the_baseline_at_zero():
    # the unconstrained best baseline of this decay is negative
    t = np.linspace(0.0, 0.1, 300)
    fit = fit_exponential(_recon_from(t, 1e-9 * np.exp(-t / 20e-3) - 2e-12), (0.0, 0.1))
    assert fit.baseline == pytest.approx(0.0, abs=1e-20)
    assert fit.amplitude > 0
    assert fit.tau == pytest.approx(0.019852962, rel=1e-6)


@settings(max_examples=60)
@given(
    st.floats(min_value=0.02, max_value=5.0),
    st.floats(min_value=1e-12, max_value=1e-6),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=10, max_value=500),
)
def test_fit_recovers_tau_of_any_noise_free_decay(tau_per_span, amp, base_per_amp, n):
    span = 0.1
    t = np.linspace(0.0, span, n)
    tau = tau_per_span * span
    fit = fit_exponential(_recon_from(t, base_per_amp * amp + amp * np.exp(-t / tau)), (0.0, span))
    assert fit.tau == pytest.approx(tau, rel=1e-6)


def test_fit_rejects_flat_and_rising_data():
    t = np.linspace(0.0, 0.1, 50)
    with pytest.raises(ValueError, match="no exponential trend"):
        fit_exponential(_recon_from(t, np.full(50, 1e-9)), (0.0, 0.1))
    with pytest.raises(ValueError, match="no exponential trend"):
        fit_exponential(_recon_from(t, 1e-9 * np.exp(t / 50e-3)), (0.0, 0.1))
    # the last sample is below the first, but the samples rise until a
    # drop at the end, so the best fit of every tau has no decaying part
    t = [0.0848, 0.5829, 0.6132, 0.6633, 0.6681, 0.7409, 0.8016]
    y = [1.0, 1.1306, 1.0837, 1.3231, 1.9276, 1.4726, 0.5]
    with pytest.raises(ValueError, match="^no exponential trend: fitted decay is degenerate$"):
        fit_exponential(_recon_from(t, y), (t[0], t[-1]))


def test_fit_needs_five_samples():
    t = np.linspace(0.0, 0.1, 4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_exponential(_recon_from(t, 1e-9 * np.exp(-t / 20e-3)), (0.0, 0.1))


def test_fit_window_bounds():
    t = np.linspace(0.0, 0.2, 100)
    rec = _recon_from(t, 1e-9 * np.exp(-t / 20e-3))
    with pytest.raises(ValueError, match="window"):
        fit_exponential(rec, (0.1, 0.1))
    with pytest.raises(ValueError, match=r"window must satisfy t0 < t1 with finite ends, got \(-inf, inf\)"):
        fit_exponential(rec, (-np.inf, np.inf))
    with pytest.raises(ValueError, match=r"finite ends, got \(0\.0, nan\)"):
        fit_exponential(rec, (0.0, np.nan))


def test_fit_names_a_non_finite_sample():
    t = np.linspace(0.0, 0.2, 100)
    y = 1e-9 * np.exp(-t / 20e-3)
    y[30] = np.nan
    with pytest.raises(ValueError, match=rf"sample at t = {float(t[30])!r} s must be finite, got nan"):
        fit_exponential(_recon_from(t, y), (0.0, 0.2))
    y[30] = np.inf
    with pytest.raises(ValueError, match=r"must be finite, got inf"):
        fit_exponential(_recon_from(t, y), (0.0, 0.2))
    # a non-finite sample outside the window is not fitted
    fit = fit_exponential(_recon_from(t, y), (0.1, 0.2))
    assert fit.tau == pytest.approx(20e-3, rel=1e-6)


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
    sig = staircase_sweep(1e-9, 10e-9, 10, 0.01)
    ev = simulate(IDEAL, sig, sig.end).events
    points = sweep_analysis(ev, sig, IDEAL)
    assert len(points) == 10
    for p in points:
        assert p.decoded is not None
        assert abs(p.decoded - p.level) / p.level < 0.005


def test_sweep_dead_zone_reports_no_measurement():
    sig = staircase_sweep(3e-12, 30e-12, 4, 0.5)
    ev = simulate(CFG, sig, sig.end).events
    points = sweep_analysis(ev, sig, CFG)
    assert points[0].decoded is None  # 3 pA sits under the 5.5 pA floor
    assert points[0].n_events == 0
    assert all(p.decoded is not None for p in points[1:])


def test_sweep_boundary_step_decodes_on_high_range():
    sig = staircase_sweep(5e-9, 10e-9, 2, 0.05)
    ev = simulate(IDEAL, sig, sig.end).events
    last_dwell = ev.sf[ev.t_req > sig.times[1] + 1e-3]
    assert np.all(last_dwell == 1)  # the tie at i_sw lands on the high range
    points = sweep_analysis(ev, sig, IDEAL)
    assert points[1].decoded == pytest.approx(10e-9, rel=1e-6)


def test_sweep_rejects_out_of_schedule_events():
    sig = staircase_sweep(1e-9, 2e-9, 2, 0.1)
    ev = _stream([0.05, 0.5], [0, 0])  # second event after the sweep ends
    with pytest.raises(ValueError, match="events outside the staircase span"):
        sweep_analysis(ev, sig, CFG)


def test_sweep_rejects_a_ramp_segment():
    ramp = from_breakpoints([(0.0, 1e-9), (0.1, 2e-9), (0.2, 3e-9)], ["step", "linear"], end=0.3)
    ev = _stream([0.05, 0.15], [0, 0])
    with pytest.raises(ValueError, match="ramp segment"):
        sweep_analysis(ev, ramp, CFG)


def test_sweep_rejects_a_shuffled_stream():
    sig = staircase_sweep(1e-9, 2e-9, 2, 0.02)
    ev = simulate(IDEAL, sig, sig.end).events
    t = ev.t_req.copy()
    t[[40, 41]] = t[[41, 40]]
    shuffled = EventStream(t, ev.channel, ev.sf)
    where = rf"event 41 at t = {float(t[41])!r} s follows event 40"
    with pytest.raises(ValueError, match=f"strictly increasing in time: {where}"):
        sweep_analysis(shuffled, sig, IDEAL)
    with pytest.raises(ValueError, match="event 41 at t = "):
        reconstruct(shuffled, IDEAL)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(st.floats(min_value=10e-12, max_value=1e-6))
def test_roundtrip_constant_currents(i):
    isi = CFG.caps[select_ranges(CFG, [i])[0]] * CFG.delta_v / i
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
    duration = 15 * (CFG.caps[select_ranges(CFG, [i])[0]] * CFG.delta_v / i + CFG.t_rst)
    ev = simulate(CFG, constant(i, duration), duration).events
    rec = reconstruct(ev, CFG, compensation=CFG.t_rst)
    # without hysteresis the comparator judges each decoded current alone
    assert rec.ranges.tolist() == select_ranges(CFG, rec.i_est).tolist()


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
    stim = from_breakpoints([(0.0, 1e-9), (0.01, 9e-9)], "linear", end=0.01)
    ev = simulate(IDEAL, stim, 0.01).events
    rec = reconstruct(ev, IDEAL)
    err_mid = np.linalg.norm(rec.i_est - stim.values(rec.t))
    # the same samples placed at each interval's closing event instead
    err_at_second = np.linalg.norm(rec.i_est - stim.values(ev.t_req[1:]))
    assert err_mid < err_at_second
