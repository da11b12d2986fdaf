"""The fixed-step oracle is the independent check on the closed-form
event solver: same channel semantics, entirely different numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcsim.core import CfcConfig, ConfigError
from cfcsim.simulator import AckModel, simulate
from cfcsim.stimulus import constant
from oracle import _fastest_ideal_isi, from_breakpoints, oracle_simulate

CFG = CfcConfig(i_leak_floor=0.0)


def _agree(config, stim, duration, dt, ack=None):
    sim = simulate(config, stim, duration, ack=ack).events
    orc = oracle_simulate(config, stim, duration, dt, ack=ack)
    assert len(sim) == len(orc), f"event counts differ: {len(sim)} vs {len(orc)}"
    if len(sim):
        worst = np.abs(sim.t_req - orc.t_req).max()
        assert worst <= 2 * dt, f"event times differ by {worst} > 2*dt"
        assert np.array_equal(sim.sf, orc.sf)
    return sim, orc


def test_constant_current_agreement():
    # 10 nA low range: ideal interval 10 us, oracle stepped at 0.1 ns
    sim, orc = _agree(CFG, constant(10e-9 * (1 - 1e-9), 60e-6), 60e-6, dt=1e-10)
    assert len(sim) == 5
    assert np.abs(sim.t_req - orc.t_req).max() <= 2e-10


def test_zero_stimulus_is_empty():
    assert len(oracle_simulate(CFG, constant(0.0, 1e-3), 1e-3, dt=1e-7)) == 0


def test_ramp_agreement():
    stim = from_breakpoints([(0.0, 0.0), (1e-3, 20e-9)], "linear", end=1e-3)
    _agree(CFG, stim, 1e-3, dt=1e-9)


def test_triangle_with_range_crossings():
    stim = from_breakpoints(
        [(0.0, 2e-9), (0.5e-3, 15e-9), (1e-3, 1e-9)], "linear", end=1e-3
    )
    _agree(CFG, stim, 1e-3, dt=1e-10)


def test_agreement_with_ack_latency_and_reset():
    cfg = CfcConfig(i_leak_floor=0.0, t_rst=2e-7)
    stim = from_breakpoints([(0.0, 5e-9), (4e-4, 2e-9)], "step", end=1e-3)
    _agree(cfg, stim, 1e-3, dt=5e-10, ack=AckModel(latency=3e-7))


def test_agreement_with_jittered_ack():
    # a jittered acknowledge sends fresh flat pieces through the per-event
    # path, and both integrators must draw the same latencies
    stim = from_breakpoints(
        [(0.0, 2e-9), (2e-4, 30e-9), (4e-4, 5e-9)], "step", end=6e-4
    )
    sim, _ = _agree(CFG, stim, 6e-4, dt=5e-10, ack=AckModel(latency=1e-7, jitter=2e-7, seed=5))
    assert len(sim) == 13


def test_high_current_reset_pulse_agreement():
    # ~1 uA on the high range: the 0.1 us reset pulse stretches the ideal
    # 10 us interval, and both paths must stretch it identically
    cfg = CfcConfig(i_leak_floor=0.0)
    sim, orc = _agree(cfg, constant(1.0137e-6, 1.3e-4), 1.3e-4, dt=1e-9)
    expected = 100 * cfg.c1 * cfg.delta_v / 1.0137e-6 + cfg.t_rst
    assert np.diff(sim.t_req) == pytest.approx(np.full(len(sim) - 1, expected), rel=1e-12)


def test_leak_floor_agreement():
    cfg = CfcConfig()  # default 5.5 pA floor
    stim = from_breakpoints([(0.0, 2e-12), (0.05, 40e-12)], "linear", end=0.1)
    sim = simulate(cfg, stim, 0.1).events
    orc = oracle_simulate(cfg, stim, 0.1, dt=1e-6)
    assert len(sim) == len(orc)
    assert np.abs(sim.t_req - orc.t_req).max() <= 2e-6


def test_dt_guard_refuses_coarse_steps():
    # 10 nA just below threshold -> fastest interval 10 us; 1/1000 of that
    # is the limit, so 100 ns must be rejected
    with pytest.raises(ConfigError, match="too coarse"):
        oracle_simulate(CFG, constant(9.99e-9, 1e-3), 1e-3, dt=1e-7)
    with pytest.raises(ConfigError):
        oracle_simulate(CFG, constant(1e-9, 1e-3), 1e-3, dt=0.0)


@pytest.mark.parametrize("key, dt, duration", [
    pytest.param("dt", np.nan, 1e-3, id="dt-nan"),
    pytest.param("duration", 1e-9, np.nan, id="duration-nan"),
    pytest.param("duration", 1e-9, 0.0, id="duration-zero"),
])
def test_nan_step_and_duration_are_refused_by_name(key, dt, duration):
    with pytest.raises(ConfigError, match=f"{key} must be positive"):
        oracle_simulate(CFG, constant(1e-9, 1e-3), duration, dt=dt)


def test_oracle_rejects_hysteresis():
    with pytest.raises(ConfigError, match="hysteresis"):
        oracle_simulate(CfcConfig(hysteresis=0.1), constant(1e-9, 1e-3), 1e-3, dt=1e-9)


def test_fastest_isi_helper():
    # constant 10 pA -> 10 ms interval
    assert _fastest_ideal_isi(CFG, constant(10e-12, 1.0), 1.0) == pytest.approx(1e-2)
    # a ramp through the threshold is dominated by the low range just below it
    ramp = from_breakpoints([(0.0, 1e-9), (1e-3, 50e-9)], "linear", end=1e-3)
    assert _fastest_ideal_isi(CFG, ramp, 1e-3) == pytest.approx(1e-5)
    assert _fastest_ideal_isi(CFG, constant(0.0, 1.0), 1.0) is None


@settings(max_examples=12)
@given(
    st.lists(st.floats(min_value=1e-9, max_value=50e-9), min_size=2, max_size=4),
    st.booleans(),
)
def test_random_stimuli_match_oracle(levels, linear):
    # scale drawn values off round numbers: shrinking loves simple floats,
    # and those can park a crossing exactly on a segment boundary, where
    # two correct numerical paths may disagree about which side the event
    # falls on
    levels = [lv * 1.0137 for lv in levels]
    dwell = 1.51373e-4
    points = [(k * dwell, lv) for k, lv in enumerate(levels)]
    duration = len(levels) * dwell
    stim = from_breakpoints(points, "linear" if linear else "step", end=duration)
    fastest = _fastest_ideal_isi(CFG, stim, duration)
    dt = fastest / 2e4
    _agree(CFG, stim, duration, dt=dt)
