import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcsim.core import ConfigError
from cfcsim.stimulus import (
    AdexParams,
    CurrentSignal,
    SpikeTrain,
    adex_neuron,
    constant,
    dpi_synapse,
    pfet_gate_sweep,
    poisson_train,
    regular_train,
    staircase_sweep,
)


# ---------------------------------------------------------------------------
# CurrentSignal container
# ---------------------------------------------------------------------------


def test_constant_signal():
    sig = constant(1e-12, 1.0)
    assert sig.value(0.0) == 1e-12
    assert sig.value(0.5) == 1e-12
    assert sig.value(1.0) == 1e-12
    assert constant(0.0, 1.0).value(0.3) == 0.0
    assert constant(1e-6, 1e-3).value(1e-3) == 1e-6
    with pytest.raises(ConfigError):
        constant(1e-9, 0.0)


def test_breakpoints_step_vs_linear():
    step = CurrentSignal.from_breakpoints([(0.0, 1.0), (1.0, 3.0)], "step", end=2.0)
    assert step.value(0.5) == 1.0
    assert step.value(1.0) == 3.0  # right-continuous at the jump
    assert step.value(1.7) == 3.0
    ramp = CurrentSignal.from_breakpoints([(0.0, 1.0), (1.0, 3.0)], "linear", end=1.0)
    assert ramp.value(0.5) == pytest.approx(2.0)
    assert ramp.value(1.0) == pytest.approx(3.0)


def test_signal_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        CurrentSignal(np.array([0.0, 0.5, 0.5]), np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ConfigError, match="start at t = 0"):
        CurrentSignal(np.array([0.1]), np.zeros(1), np.zeros(1), 1.0)
    with pytest.raises(ConfigError, match="beyond the last breakpoint"):
        CurrentSignal(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ConfigError, match="must be finite"):
        CurrentSignal(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2), np.inf)
    with pytest.raises(ValueError, match="domain"):
        constant(1e-9, 1.0).value(2.0)


def test_pieces_clip_and_interpolate():
    ramp = CurrentSignal.from_breakpoints([(0.0, 0.0), (1.0, 10.0), (2.0, -0.0)], "linear", end=3.0)
    a, b, ia, ib = ramp.pieces(0.75)
    assert (a.tolist(), b.tolist()) == ([0.0], [0.75])
    assert ia.tolist() == [0.0]
    assert ib.tolist() == [pytest.approx(7.5)]
    # a -0.0 start value comes out as 0.0
    a, b, ia, ib = ramp.pieces(2.5)
    assert (a.tolist(), b.tolist()) == ([0.0, 1.0, 2.0], [1.0, 2.0, 2.5])
    assert np.signbit(ia).tolist() == [False, False, False]
    # a run ending on a breakpoint takes no empty piece past it
    assert [c.size for c in ramp.pieces(1.0)] == [1, 1, 1, 1]
    assert ramp.pieces(3.0)[1].tolist() == ramp.ends.tolist() == [1.0, 2.0, 3.0]


def test_values_vectorized_matches_scalar():
    sig = CurrentSignal.from_breakpoints(
        [(0.0, 1e-9), (0.3, 4e-9), (0.7, 2e-9)], ["linear", "step"], end=1.0
    )
    ts = np.linspace(0.0, 1.0, 37)
    vec = sig.values(ts)
    assert vec == pytest.approx([sig.value(float(t)) for t in ts])


# ---------------------------------------------------------------------------
# staircase sweep
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=400), st.floats(min_value=1e-6, max_value=10.0))
def test_staircase_levels_and_steps(steps, dwell):
    sig = staircase_sweep(1e-9, 10e-9, steps, dwell)
    assert sig.i_start == pytest.approx(1e-9 + np.arange(steps) * (9e-9 / (steps - 1)))
    # step k is the flat segment from k * dwell to (k + 1) * dwell,
    # computed as such
    assert sig.times.tobytes() == (np.arange(steps) * dwell).tobytes()
    assert sig.ends.tobytes() == (np.arange(1, steps + 1) * dwell).tobytes()
    assert sig.i_end.tobytes() == sig.i_start.tobytes()
    # mid-dwell evaluation hits the programmed level exactly
    assert np.array_equal(sig.values(0.5 * (sig.times + sig.ends)), sig.i_start)


def test_five_range_sweep_presets_are_buildable():
    from cfcsim.stimulus import FIVE_RANGE_SWEEPS

    assert FIVE_RANGE_SWEEPS == (
        (3.2e-12, 820e-12),
        (26e-12, 6.5e-9),
        (196e-12, 50e-9),
        (1.57e-9, 4e-6),
        (12.5e-9, 3.2e-6),
    )
    for lo, hi in FIVE_RANGE_SWEEPS:
        sig = staircase_sweep(lo, hi, 20, 0.05)
        assert sig.i_start[0] == lo
        assert sig.i_start[-1] == hi
        assert sig.end == pytest.approx(1.0)


def test_staircase_validation():
    with pytest.raises(ConfigError):
        staircase_sweep(1e-9, 1e-9, 10, 0.1)
    with pytest.raises(ConfigError):
        staircase_sweep(2e-9, 1e-9, 10, 0.1)
    with pytest.raises(ConfigError):
        staircase_sweep(1e-9, 2e-9, 1, 0.1)
    with pytest.raises(ConfigError):
        staircase_sweep(1e-9, 2e-9, 5, 0.0)


# ---------------------------------------------------------------------------
# subthreshold p-FET sweep
# ---------------------------------------------------------------------------


def test_pfet_sweep_spans_six_decades():
    # 0.54 V of gate swing at 90 mV/decade covers exactly 6 decades
    sig = pfet_gate_sweep(1.8, 1.26, 1.0, i0=1e-12, slope_per_decade=0.090, i_sat=1.0)
    assert sig.value(0.0) == pytest.approx(1e-12, rel=1e-9)
    assert sig.value(1.0) == pytest.approx(1e-6, rel=1e-9)


def test_pfet_sweep_log_linear_until_saturation():
    sig = pfet_gate_sweep(1.8, 1.26, 1.0, i0=1e-12, slope_per_decade=0.090, i_sat=1e-8)
    ts = np.asarray([float(t) for t in sig.times] + [sig.end])
    vals = sig.values(ts)
    below = vals < 1e-8
    decs = np.log10(vals[below])
    slopes = np.diff(decs) / np.diff(ts[below])
    # vg moves 0.54 V over 1 s, so log10(I) rises at 6 decades/s
    assert slopes == pytest.approx(np.full(slopes.size, 6.0), rel=1e-6)
    assert vals.max() == 1e-8  # clipped at saturation


def test_pfet_constant_gate_gives_constant_current():
    sig = pfet_gate_sweep(1.5, 1.5, 1.0, i0=3e-10, slope_per_decade=0.090, i_sat=1e-6)
    assert sig.value(0.0) == sig.value(0.5) == sig.value(1.0) == pytest.approx(3e-10)


def test_pfet_monotone():
    sig = pfet_gate_sweep(1.8, 1.0, 1.0, i0=1e-12, slope_per_decade=0.090, i_sat=1e-5)
    ts = np.linspace(0, 1.0, 101)
    vals = sig.values(ts)
    assert np.all(np.diff(vals) >= 0)


# ---------------------------------------------------------------------------
# DPI synapse
# ---------------------------------------------------------------------------


def test_dpi_single_spike_exact_exponential():
    tau, w = 20e-3, 1e-9
    spike_t = 5e-3
    sig = dpi_synapse(SpikeTrain(np.array([spike_t])), tau, w, 0.0, 0.2)
    assert sig.value(spike_t) == pytest.approx(w, rel=1e-12)  # peak equals the jump
    # exact exponential at every emitted breakpoint
    after = sig.times[sig.times >= spike_t]
    expected = w * np.exp(-(after - spike_t) / tau)
    assert sig.values(after) == pytest.approx(expected, rel=1e-9)
    assert sig.value(2e-3) == 0.0  # nothing before the spike


def test_dpi_regular_train_steady_state_peak():
    # geometric accumulation: peak_ss = w / (1 - exp(-1 / (rate * tau)))
    rate, tau, w = 20.0, 20e-3, 1e-9
    train = regular_train(rate, 1.0)
    sig = dpi_synapse(train, tau, w, 0.0, 1.0)
    expected = w / (1.0 - math.exp(-1.0 / (rate * tau)))
    # the final train spike sits exactly at the domain end and is dropped,
    # so probe the one before it (19 jumps in: converged to ~1e-20)
    peak_late = sig.value(float(train.times[-2]))
    assert peak_late == pytest.approx(expected, rel=1e-6)


def test_dpi_zero_weight_is_flat():
    sig = dpi_synapse(regular_train(20.0, 1.0), 20e-3, 0.0, 7e-12, 1.0)
    ts = np.linspace(0, 1.0, 57)
    assert sig.values(ts) == pytest.approx(np.full(57, 7e-12))


def test_dpi_base_current_decay():
    sig = dpi_synapse(SpikeTrain(np.array([0.0])), 10e-3, 1e-9, 1e-10, 0.5)
    # decays toward the base current, not zero
    assert sig.value(0.4) == pytest.approx(1e-10, rel=1e-6)


# ---------------------------------------------------------------------------
# spike trains
# ---------------------------------------------------------------------------


def test_regular_train_counts():
    train = regular_train(20.0, 1.0)
    assert len(train) == 20
    assert train.times[0] == pytest.approx(0.05)
    assert train.times[-1] == pytest.approx(1.0)
    assert len(regular_train(123.0, 0.0)) == 0


def test_poisson_train_deterministic_and_valid():
    a = poisson_train(100.0, 1.0, seed=42)
    b = poisson_train(100.0, 1.0, seed=42)
    c = poisson_train(100.0, 1.0, seed=43)
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)
    assert np.all(np.diff(a.times) > 0)
    assert len(poisson_train(100.0, 0.0, seed=1)) == 0


def test_spike_train_validation():
    with pytest.raises(ConfigError):
        SpikeTrain(np.array([0.2, 0.1]))
    with pytest.raises(ConfigError):
        SpikeTrain(np.array([-0.1, 0.1]))
    # every comparison with NaN is false, so only positive checks catch these
    for times in ([0.001, np.nan, 0.002], [np.nan, 0.001], [0.001, np.inf]):
        with pytest.raises(ConfigError, match="finite"):
            SpikeTrain(np.array(times))


# ---------------------------------------------------------------------------
# AdEx neuron
# ---------------------------------------------------------------------------


def test_adex_rest_is_stable():
    p = AdexParams()
    proxy, spikes = adex_neuron(constant(0.0, 0.3), p, 0.3)
    assert len(spikes) == 0
    # the zero-input equilibrium sits a few 1e-16 A above the rest offset
    # (leak balancing the spike-initiation exponential ten slope-factors
    # below threshold), so the proxy never leaves the rest value's vicinity
    assert proxy.value(0.29) == pytest.approx(p.i_rest_proxy, abs=2e-15)


def test_adex_decays_monotonically_to_rest_with_zero_input():
    # lift the membrane with a sub-rheobase step (no spike possible),
    # then release and watch it relax
    p = AdexParams(a=0.0, b=0.0)
    kick_i = 0.8 * p.rheobase()
    kick = CurrentSignal.from_breakpoints([(0.0, kick_i), (0.05, 0.0)], "step", end=0.4)
    proxy, spikes = adex_neuron(kick, p, 0.4)
    assert len(spikes) == 0
    ts = np.linspace(0.06, 0.4, 200)
    vals = proxy.values(ts)
    assert np.all(np.diff(vals) <= 1e-18)
    assert vals[-1] == pytest.approx(p.i_rest_proxy, rel=0.01)


def test_adex_rheobase_separates_silence_from_spiking():
    p = AdexParams(a=0.0, b=0.0)  # no adaptation: clean threshold behavior
    i_rh = p.rheobase()
    _, silent = adex_neuron(constant(0.8 * i_rh, 1.0), p, 1.0)
    assert len(silent) == 0
    _, firing = adex_neuron(constant(1.3 * i_rh, 1.0), p, 1.0)
    assert len(firing) >= 3
    isis = np.diff(firing.times)
    assert np.std(isis) / np.mean(isis) < 0.02  # periodic without adaptation


def test_adex_epsp_pipeline_rises_after_each_input_spike():
    train = regular_train(20.0, 0.5)
    syn = dpi_synapse(train, 20e-3, 0.2e-9, 0.0, 0.5)
    p = AdexParams()
    proxy, _ = adex_neuron(syn, p, 0.5)
    for t_spk in train.times[:5]:
        before = proxy.value(float(t_spk))
        after = proxy.value(float(t_spk) + 5e-3)
        assert after > before  # excitatory rise on every input spike


def _adex_reference(i_in, p, duration):
    """The RK4 loop with the derivative as a function called per stage;
    returns the proxy samples, the spike times and how often a stage hit
    the exponent clamp."""
    dt = p.dt
    n_steps = int(math.ceil(duration / dt))
    grid = np.minimum(np.arange(n_steps + 1) * dt, duration)
    drive = i_in.values(np.minimum(np.arange(2 * n_steps + 1) * (dt / 2.0), duration))
    exp_cap = 40.0
    capped = 0

    def dvw(v, w, i_ext):
        nonlocal capped
        capped += (v - p.v_t) / p.delta_t > exp_cap
        arg = min((v - p.v_t) / p.delta_t, exp_cap)
        dv = (-p.g_l * (v - p.e_l) + p.g_l * p.delta_t * math.exp(arg) - w + i_ext) / p.c_m
        dw = (p.a * (v - p.e_l) - w) / p.tau_w
        return dv, dw

    v, w = p.e_l, 0.0
    v_hist = np.empty(n_steps + 1)
    v_hist[0] = v
    spikes = []
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
        if v >= p.peak:
            spikes.append(float(grid[k + 1]))
            v = p.v_reset
            w += p.b
        v_hist[k + 1] = v
    proxy = p.i_rest_proxy + p.proxy_gain * p.g_l * (v_hist - p.e_l)
    return grid, proxy, np.asarray(spikes), capped


@pytest.mark.parametrize(
    "drive, params, duration, outcome",
    [
        # the fig6 preset: a 20 Hz train through the synapse, 150k steps
        (dpi_synapse(regular_train(20.0, 1.5), 20e-3, 0.5e-9, 20e-12, 1.5), AdexParams(proxy_gain=40.0), 1.5, "plain"),
        # 20 uA overshoots v_t by far more than 40 slope factors in a stage;
        # the step after the first spike lands hundreds of volts below rest
        (constant(20e-6, 0.0101), AdexParams(), 0.010095, "diverges"),
        # 1.5 uA fires on every step and hits the exponent clamp without
        # diverging, and the run ends between two grid points
        (constant(1.5e-6, 0.1001), AdexParams(), 0.100005, "clamped"),
        # steady firing, where the order of the exponential term's product
        # in the first (2 nA) and the last (5 nA) stage shows
        (constant(2e-9, 0.1), AdexParams(), 0.1, "plain"),
        (constant(5e-9, 0.1), AdexParams(), 0.1, "plain"),
    ],
    ids=["fig6", "exp-cap", "1.5uA-cap", "2nA", "5nA"],
)
def test_adex_matches_the_per_stage_reference(drive, params, duration, outcome):
    grid, ref_proxy, ref_spikes, capped = _adex_reference(drive, params, duration)
    assert (capped > 0) == (outcome != "plain")
    if outcome == "diverges":
        # refused at the first step that ends more than 1 V below rest
        v = params.e_l + (ref_proxy - params.i_rest_proxy) / (params.proxy_gain * params.g_l)
        first = float(grid[np.argmax(v < min(params.e_l, params.v_reset) - 1.0)])
        message = rf"t = {re.escape(repr(first))} s .* dt = {re.escape(repr(params.dt))} s"
        with pytest.raises(ConfigError, match=message):
            adex_neuron(drive, params, duration)
        return
    proxy, spikes = adex_neuron(drive, params, duration)
    # the proxy is an affine image of v, so equal bytes mean equal v
    assert proxy.times.tobytes() == grid[:-1].tobytes()
    assert proxy.i_start.tobytes() == ref_proxy[:-1].tobytes()
    assert proxy.i_end.tobytes() == ref_proxy[1:].tobytes()
    assert spikes.times.tobytes() == ref_spikes.tobytes()
    assert proxy.end == grid[-1]


def test_adex_memory_per_step_is_bounded(traced_peak):
    # 100k steps.  The grid and the voltage are numpy columns, the drive
    # is evaluated a block at a time, and the RK4 loop reads them as
    # Python floats one block at a time.
    # Measured traced peaks: 201 B a step with whole-run Python lists,
    # 50 B with the blocks.
    duration = 1.0  # 100k steps of the default 10 us
    assert traced_peak(adex_neuron, constant(1e-9, duration), AdexParams(), duration) < 120 * 100_000


def test_from_samples_joins_the_samples_and_holds_the_last_to_end():
    ts, vals = np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0, 2.0])
    sig = CurrentSignal.from_samples(ts, vals)
    assert sig.times.tolist() == [0.0, 0.5] and sig.end == 1.0
    assert sig.i_start.tolist() == [1.0, 3.0] and sig.i_end.tolist() == [3.0, 2.0]
    ts[0], vals[0] = -1.0, 9.0  # the signal keeps its own copy
    assert sig.times[0] == 0.0 and sig.i_start[0] == 1.0


def test_adex_parameter_validation():
    with pytest.raises(ConfigError):
        AdexParams(c_m=0.0)
    with pytest.raises(ConfigError):
        AdexParams(v_peak=-0.060)  # below v_t


# ---------------------------------------------------------------------------
# generator invariants
# ---------------------------------------------------------------------------


@settings(max_examples=25)
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=1e-12, max_value=1e-7),
    st.floats(min_value=2e-12, max_value=1e-6),
)
def test_generators_produce_evaluable_signals(steps, start, span, ):
    sig = staircase_sweep(start, start + span, steps, 0.01)
    ts = np.linspace(0.0, sig.end, 31)
    assert np.all(np.isfinite(sig.values(ts)))
    assert np.all(np.diff(sig.times) > 0)
    assert sig.times.size == sig.ends.size == sig.i_start.size == steps


@settings(max_examples=25)
@given(st.floats(min_value=1e-3, max_value=0.2), st.integers(min_value=0, max_value=2**32 - 1))
def test_dpi_of_random_trains_is_valid(tau, seed):
    train = poisson_train(50.0, 0.3, seed=seed)
    sig = dpi_synapse(train, tau, 1e-9, 1e-11, 0.3)
    ts = np.linspace(0.0, 0.3, 61)
    vals = sig.values(ts)
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 1e-11 - 1e-24)
