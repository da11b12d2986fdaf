import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcsim.core import CfcConfig, ConfigError, Polarity
from cfcsim.simulator import _joined, simulate
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
from oracle import block_size, from_breakpoints


def _value(sig, t):
    """The signal's current at the one time ``t``, right-continuous."""
    return float(sig.values(np.asarray([t]))[0])


# ---------------------------------------------------------------------------
# CurrentSignal container
# ---------------------------------------------------------------------------


def test_constant_signal():
    sig = constant(1e-12, 1.0)
    assert _value(sig, 0.0) == 1e-12
    assert _value(sig, 0.5) == 1e-12
    assert _value(sig, 1.0) == 1e-12
    assert _value(constant(0.0, 1.0), 0.3) == 0.0
    assert _value(constant(1e-6, 1e-3), 1e-3) == 1e-6
    with pytest.raises(ConfigError):
        constant(1e-9, 0.0)


def test_breakpoints_step_vs_linear():
    step = from_breakpoints([(0.0, 1.0), (1.0, 3.0)], "step", end=2.0)
    assert _value(step, 0.5) == 1.0
    assert _value(step, 1.0) == 3.0  # right-continuous at the jump
    assert _value(step, 1.7) == 3.0
    ramp = from_breakpoints([(0.0, 1.0), (1.0, 3.0)], "linear", end=1.0)
    assert _value(ramp, 0.5) == pytest.approx(2.0)
    assert _value(ramp, 1.0) == pytest.approx(3.0)


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
        _value(constant(1e-9, 1.0), 2.0)


def test_pieces_clip_and_interpolate():
    ramp = from_breakpoints([(0.0, 0.0), (1.0, 10.0), (2.0, -0.0)], "linear", end=3.0)
    a, b, ia, ib = _joined(ramp.pieces(0.75))
    assert (a.tolist(), b.tolist()) == ([0.0], [0.75])
    assert ia.tolist() == [0.0]
    assert ib.tolist() == [pytest.approx(7.5)]
    # a -0.0 start value comes out as 0.0
    a, b, ia, ib = _joined(ramp.pieces(2.5))
    assert (a.tolist(), b.tolist()) == ([0.0, 1.0, 2.0], [1.0, 2.0, 2.5])
    assert np.signbit(ia).tolist() == [False, False, False]
    # a run ending on a breakpoint takes no empty piece past it
    assert [c.size for c in _joined(ramp.pieces(1.0))] == [1, 1, 1, 1]
    assert _joined(ramp.pieces(3.0))[1].tolist() == ramp.ends.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("signal, segment, duration, what", [
    pytest.param(CurrentSignal([0.0, 0.5], [0.0, -1e308], [0.0, 1e308], 1.0), 1, 1.0, "slope", id="rise"),
    pytest.param(CurrentSignal([0.0, 5e-324], [0.0, 0.0], [1e300, 0.0], 1.0), 0, 1.0, "slope", id="width"),
    # a finite slope, -6e307, whose value at the end rounds past the largest float
    pytest.param(CurrentSignal([0.0], [1.0], [-1.7976931348623157e308], 3.0), 0, 3.0, "rise over the run",
                 id="end"),
])
def test_pieces_refuse_a_slope_past_the_largest_float(signal, segment, duration, what):
    # i0 + inf * 0 is nan: the run would take the ramp for no current, or
    # (accepting the negative side) emit an event at t = nan
    runs = [signal.pieces] + [lambda d, p=p: simulate(CfcConfig(polarity=p), signal, d) for p in Polarity]
    for run in runs:
        with pytest.raises(ConfigError, match=rf"^segment {segment} ramps from .*: its {what} overflows a float$"):
            run(duration)


def test_values_vectorized_matches_scalar():
    sig = from_breakpoints(
        [(0.0, 1e-9), (0.3, 4e-9), (0.7, 2e-9)], ["linear", "step"], end=1.0
    )
    ts = np.linspace(0.0, 1.0, 37)
    vec = sig.values(ts)
    assert vec == pytest.approx([_value(sig, float(t)) for t in ts])


def _values_from_whole_columns(sig, ts):
    """:meth:`CurrentSignal.values` with every segment's width and rise
    built first, then gathered."""
    idx = np.clip(np.searchsorted(sig.times, ts, side="right") - 1, 0, sig.times.size - 1)
    width = sig.ends - sig.times
    rise = sig.i_end - sig.i_start
    frac = np.clip((ts - sig.times[idx]) / width[idx], 0.0, 1.0)
    return sig.i_start[idx] + rise[idx] * frac


@settings(max_examples=100)
@given(
    gaps=st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=12),
    levels=st.lists(st.floats(min_value=-1e-6, max_value=1e-6), min_size=24, max_size=24),
    shares=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
)
def test_values_gather_each_segment_alone(gaps, levels, shares):
    # the same operations on the same operands as when the widths and
    # rises of all segments were built first: the same bits, at
    # breakpoints, at the end and between
    times = np.concatenate(([0.0], np.cumsum(gaps[:-1])))
    n = times.size
    end = float(times[-1] + gaps[-1])
    sig = CurrentSignal(times, np.array(levels[:n]), np.array(levels[12:12 + n]), end)
    ts = np.concatenate((times, [end], np.array(shares) * end))
    assert sig.values(ts).tobytes() == _values_from_whole_columns(sig, ts).tobytes()


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
    assert _value(sig, 0.0) == pytest.approx(1e-12, rel=1e-9)
    assert _value(sig, 1.0) == pytest.approx(1e-6, rel=1e-9)


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
    assert _value(sig, 0.0) == _value(sig, 0.5) == _value(sig, 1.0) == pytest.approx(3e-10)


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
    assert _value(sig, spike_t) == pytest.approx(w, rel=1e-12)  # peak equals the jump
    # exact exponential at every emitted breakpoint
    after = sig.times[sig.times >= spike_t]
    expected = w * np.exp(-(after - spike_t) / tau)
    assert sig.values(after) == pytest.approx(expected, rel=1e-9)
    assert _value(sig, 2e-3) == 0.0  # nothing before the spike


def test_dpi_regular_train_steady_state_peak():
    # geometric accumulation: peak_ss = w / (1 - exp(-1 / (rate * tau)))
    rate, tau, w = 20.0, 20e-3, 1e-9
    train = regular_train(rate, 1.0)
    sig = dpi_synapse(train, tau, w, 0.0, 1.0)
    expected = w / (1.0 - math.exp(-1.0 / (rate * tau)))
    # the final train spike sits exactly at the domain end and is dropped,
    # so probe the one before it (19 jumps in: converged to ~1e-20)
    peak_late = _value(sig, float(train.times[-2]))
    assert peak_late == pytest.approx(expected, rel=1e-6)


def test_dpi_zero_weight_is_flat():
    sig = dpi_synapse(regular_train(20.0, 1.0), 20e-3, 0.0, 7e-12, 1.0)
    ts = np.linspace(0, 1.0, 57)
    assert sig.values(ts) == pytest.approx(np.full(57, 7e-12))


def test_dpi_base_current_decay():
    sig = dpi_synapse(SpikeTrain(np.array([0.0])), 10e-3, 1e-9, 1e-10, 0.5)
    # decays toward the base current, not zero
    assert _value(sig, 0.4) == pytest.approx(1e-10, rel=1e-6)


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
    for seed in (-1, True):
        with pytest.raises(ConfigError, match="poisson seed"):
            poisson_train(100.0, 1.0, seed=seed)


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
    assert _value(proxy, 0.29) == pytest.approx(p.i_rest_proxy, abs=2e-15)


def test_adex_decays_monotonically_to_rest_with_zero_input():
    # lift the membrane with a sub-rheobase step (no spike possible),
    # then release and watch it relax
    p = AdexParams(a=0.0, b=0.0)
    kick_i = 0.8 * p.rheobase()
    kick = from_breakpoints([(0.0, kick_i), (0.05, 0.0)], "step", end=0.4)
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
        before = _value(proxy, float(t_spk))
        after = _value(proxy, float(t_spk) + 5e-3)
        assert after > before  # excitatory rise on every input spike


def _adex_reference(i_in, p, duration):
    """The RK4 loop with the derivative as a function called per stage;
    returns the proxy samples, the spike times and how often a stage hit
    the exponent clamp."""
    dt = p.dt
    n_steps = int(math.ceil(duration / dt))
    if (n_steps - 1) * dt >= duration:  # no empty last step
        n_steps -= 1
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
        # ceil(duration / dt) rounds up past a whole step: (n - 1) * dt
        # already reaches the end, so the grid takes one step fewer
        (constant(1e-10, 1.0103647254408115), AdexParams(dt=8.120532108251914e-06), 1.0103647254408115, "plain"),
    ],
    ids=["fig6", "exp-cap", "1.5uA-cap", "2nA", "5nA", "rounded-up-steps"],
)
def test_adex_matches_the_per_stage_reference(drive, params, duration, outcome):
    grid, ref_proxy, ref_spikes, capped = _adex_reference(drive, params, duration)
    assert (np.diff(grid) > 0).all() and grid[-1] == duration
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


def test_adex_first_stage_exp_is_clamped_after_a_reset_far_above_threshold():
    # a reset at 1.4 V puts the first RK stage's exp argument at 725 after
    # every spike, past what math.exp takes: the neuron fires every step
    # from 6.38 ms on and the proxy stays finite
    proxy, spikes = adex_neuron(constant(1e-9, 0.05), AdexParams(v_reset=1.4, v_peak=2.0), 0.05)
    assert len(spikes) == 4363
    assert spikes.times[0] == pytest.approx(6.38e-3)
    assert np.all(np.isfinite(proxy.i_start)) and np.all(np.isfinite(proxy.i_end))


def test_adex_memory_per_step_is_bounded(traced_peak):
    # 100k steps.  The grid and the voltage are numpy columns, the drive
    # is evaluated a block at a time, and the RK4 loop reads them as
    # Python floats one block at a time.
    # Measured traced peaks: 201 B a step with whole-run Python lists,
    # 50 B with the blocks, 28 B with the proxy formed in place on the
    # voltage column and the signal built over it.
    duration = 1.0  # 100k steps of the default 10 us
    assert traced_peak(adex_neuron, constant(1e-9, duration), AdexParams(), duration) < 40 * 100_000


@pytest.mark.parametrize("k", [1, 2, 7])
def test_adex_does_not_depend_on_block_boundaries(k):
    # a block's first step starts from the block's own first drive point,
    # and every later step from the end drive of the step before.  1.5 uA
    # fires on every step but the last, which is shorter, as the run ends
    # between two grid points; 2 nA fires steadily; fig6's drive, cut to
    # 0.12 s, takes two input spikes, at 50 and 100 ms; 20 uA diverges
    # after its first spike
    fig6 = dpi_synapse(regular_train(20.0, 1.5), 20e-3, 0.5e-9, 20e-12, 1.5)
    runs = [(constant(1.5e-6, 0.1001), AdexParams(), 0.100005), (constant(2e-9, 0.1), AdexParams(), 0.1),
            (fig6, AdexParams(proxy_gain=40.0), 0.12)]
    diverging = (constant(20e-6, 0.0101), AdexParams(), 0.010095)
    want = [adex_neuron(*run) for run in runs]
    with pytest.raises(ConfigError) as diverged:
        adex_neuron(*diverging)
    assert len(want[0][1]) == len(want[0][0].times) - 1 == 10_000
    with block_size(k):
        got = [adex_neuron(*run) for run in runs]
        with pytest.raises(ConfigError, match=f"^{re.escape(str(diverged.value))}$"):
            adex_neuron(*diverging)
    for (proxy, spikes), (ref_proxy, ref_spikes) in zip(got, want, strict=True):
        for column in ("times", "i_start", "i_end"):
            assert getattr(proxy, column).tobytes() == getattr(ref_proxy, column).tobytes(), column
        assert proxy.end == ref_proxy.end
        assert spikes.times.tobytes() == ref_spikes.times.tobytes()


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


_NAN = math.nan
_TRAIN = SpikeTrain(np.array([0.1]))


_NAN_CASES = [
    ("duration", constant, (1e-9, _NAN)),
    ("dwell", staircase_sweep, (1e-12, 1e-9, 3, _NAN)),
    ("start", staircase_sweep, (_NAN, 1e-9, 3, 0.1)),
    ("stop", staircase_sweep, (1e-12, _NAN, 3, 0.1)),
    ("slope_per_decade", pfet_gate_sweep, (0.0, -0.5, 1.0, 1e-12, _NAN, 1e-6)),
    ("duration", pfet_gate_sweep, (0.0, -0.5, _NAN, 1e-12, 0.1, 1e-6)),
    ("i0 and i_sat", pfet_gate_sweep, (0.0, -0.5, 1.0, _NAN, 0.1, 1e-6)),
    ("tau", dpi_synapse, (_TRAIN, _NAN, 1e-9, 1e-12, 1.0)),
    ("duration", dpi_synapse, (_TRAIN, 0.01, 1e-9, 1e-12, _NAN)),
    ("resolution", dpi_synapse, (_TRAIN, 0.01, 1e-9, 1e-12, 1.0, _NAN)),
    ("duration", adex_neuron, (constant(1e-10, 1.0), AdexParams(), _NAN)),
    ("dt", AdexParams, (200e-12, 10e-9, -0.07, -0.05, 0.002, 2e-9, 0.12, 50e-12, -0.07, None, _NAN)),
    ("rate", regular_train, (_NAN, 1.0)),
    ("duration", regular_train, (10.0, _NAN)),
    ("rate", poisson_train, (_NAN, 1.0, 0)),
    ("duration", poisson_train, (10.0, _NAN, 0)),
    ("finite", CurrentSignal, ([0.0], [_NAN], [0.0], 1.0)),
    # and inputs of the wrong size, shape or span
    ("segment", CurrentSignal, ([], [], [], 1.0)),
    ("shapes", CurrentSignal, ([0.0], [0.0, 1.0], [0.0], 1.0)),
    ("samples", CurrentSignal.from_samples, ([0.0], [1.0])),
    ("one-dimensional", SpikeTrain, (np.zeros((2, 2)),)),
    ("points_per_decade", pfet_gate_sweep, (0.0, -0.5, 1.0, 1e-12, 0.1, 1e-6, None, 0)),
    ("full duration", adex_neuron, (constant(1e-10, 0.5), AdexParams(), 1.0)),
]


def _adex_args(name, value):
    """AdexParams' default field values, in order, with ``name`` set to ``value``."""
    return tuple(value if f.name == name else f.default for f in fields(AdexParams))


def _gate_args(name, value):
    """A valid gate sweep's arguments, in order, with ``name`` set to ``value``."""
    gate = {"vg_start": 0.0, "vg_stop": -0.5, "duration": 1.0, "i0": 1e-12, "slope_per_decade": 0.1,
            "i_sat": 1e-6, "vg_ref": 0.0}
    return tuple(value if key == name else v for key, v in gate.items())


@pytest.mark.parametrize("name, make, args", [pytest.param(*case, id=f"{case[1].__name__}-{case[0]}")
                                              for case in _NAN_CASES]
                         + [pytest.param(f.name, AdexParams, _adex_args(f.name, bad), id=f"AdexParams-{f.name}-{bad}")
                            for f in fields(AdexParams) for bad in (_NAN, math.inf)]
                         + [pytest.param(name, pfet_gate_sweep, _gate_args(name, bad), id=f"pfet_gate_sweep-{name}-{bad}")
                            for name in ("vg_start", "vg_stop", "vg_ref") for bad in (_NAN, math.inf)]
                         # an infinite rate has no gaps: the Poisson draw would never stop
                         + [pytest.param(name, make, args + seed, id=f"{make.__name__}-{name}-inf")
                            for make, seed in ((regular_train, ()), (poisson_train, (0,)))
                            for name, args in (("rate", (math.inf, 1.0)), ("duration", (10.0, math.inf)))])
def test_generators_refuse_nan_by_name(name, make, args):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        make(*args)


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
