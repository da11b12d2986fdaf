import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfcsim.core import (
    CfcConfig,
    ConfigError,
    Polarity,
    RangeSelect,
    dead_time,
    decode,
    ideal_isi,
    ideal_rate,
    rectify,
    select_range,
)
from cfcsim.simulator import AckModel

CFG = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)

currents = st.floats(min_value=1e-13, max_value=1e-5, allow_nan=False)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_default_config_anchors():
    assert CFG.delta_v == pytest.approx(1.0)
    assert CFG.c2 == pytest.approx(1e-12)  # 10 * 100 fF
    assert CFG.scale(RangeSelect.LOW) == 1.0
    assert CFG.scale(RangeSelect.HIGH) == 100.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c1": 0.0},
        {"c1": -1e-15},
        {"alpha": 1.0},
        {"beta": 0.5},
        {"v_ref_h": 0.5, "v_ref_l": 0.5},
        {"v_ref_h": 0.5, "v_ref_l": 0.9},
        {"i_sw": 0.0},
        {"t_rst": -1e-9},
        {"i_leak_floor": -1e-12},
        {"hysteresis": 1.0},
        {"hysteresis": -0.1},
        {"channel_address": -1},
        {"t_rst": float("nan")},
        {"i_leak_floor": float("nan")},
        {"i_max_valid": 0.0},
        {"i_max_valid": float("nan")},
        {"channel_address": float("nan")},
    ],
)
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ConfigError):
        CfcConfig(**kwargs)


def test_config_dict_roundtrip_and_unknown_keys():
    d = CFG.to_dict()
    assert d["polarity"] == "sink_n"
    assert CfcConfig.from_dict(d) == CFG
    with pytest.raises(ConfigError, match="unknown config key"):
        CfcConfig.from_dict({"c_one": 1e-13})
    with pytest.raises(ConfigError, match="polarity"):
        CfcConfig.from_dict({"polarity": "sideways"})


# ---------------------------------------------------------------------------
# rectification
# ---------------------------------------------------------------------------


def test_rectify_examples():
    assert rectify(5e-9, Polarity.SINK_N) == 5e-9
    assert rectify(-5e-9, Polarity.SOURCE_P) == 5e-9
    assert rectify(-5e-9, Polarity.SINK_N) == 0.0
    assert rectify(5e-9, Polarity.SOURCE_P) == 0.0
    assert rectify(0.0, Polarity.SINK_N) == 0.0
    assert rectify(0.0, Polarity.SOURCE_P) == 0.0


@given(st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False))
def test_rectify_mirror_property(x):
    for p in Polarity:
        assert rectify(x, p) == rectify(-x, p.opposite())
        assert rectify(x, p) >= 0.0


# ---------------------------------------------------------------------------
# range selection
# ---------------------------------------------------------------------------


def test_select_range_examples():
    assert select_range(CFG, 1e-12) is RangeSelect.LOW
    assert select_range(CfcConfig(i_sw=100e-9), 1e-6) is RangeSelect.HIGH
    # boundary convention: the tie goes to HIGH
    assert select_range(CFG, 10e-9) is RangeSelect.HIGH


def test_select_range_hysteresis_band():
    cfg = CfcConfig(hysteresis=0.2)  # fall back to LOW only below 8 nA
    assert select_range(cfg, 9e-9, previous=RangeSelect.HIGH) is RangeSelect.HIGH
    assert select_range(cfg, 9e-9, previous=RangeSelect.LOW) is RangeSelect.LOW
    assert select_range(cfg, 9e-9, previous=None) is RangeSelect.LOW
    assert select_range(cfg, 7.9e-9, previous=RangeSelect.HIGH) is RangeSelect.LOW
    # zero hysteresis ignores history entirely
    assert select_range(CFG, 9e-9, previous=RangeSelect.HIGH) is RangeSelect.LOW


def test_select_range_rejects_negative():
    with pytest.raises(ValueError):
        select_range(CFG, -1e-9)


# ---------------------------------------------------------------------------
# rate law
# ---------------------------------------------------------------------------


def test_rate_anchors():
    # 1 pA -> 10 Hz, 10 nA at the low-range limit -> 100 kHz,
    # 10 nA scaled -> 1 kHz, 1 uA -> 100 kHz
    assert ideal_rate(CFG, 1e-12) == pytest.approx(10.0, rel=1e-12)
    assert ideal_rate(CFG, 10e-9, RangeSelect.LOW) == pytest.approx(1e5, rel=1e-12)
    assert ideal_rate(CFG, 10e-9) == pytest.approx(1e3, rel=1e-12)
    assert ideal_rate(CFG, 1e-6) == pytest.approx(1e5, rel=1e-12)
    assert ideal_rate(CFG, 0.0) == 0.0
    # cross-checked against the fixed-step oracle in test_oracle.py
    assert ideal_rate(CFG, 3.3e-9) == pytest.approx(33e3, rel=1e-12)


def test_isi_anchors():
    assert ideal_isi(CFG, 1e-12) == pytest.approx(0.1, rel=1e-12)
    assert ideal_isi(CFG, 10e-9) == pytest.approx(1e-3, rel=1e-12)
    assert math.isinf(ideal_isi(CFG, 0.0))


@given(currents)
def test_isi_is_bitwise_reciprocal_of_rate(i):
    assert ideal_isi(CFG, i) == 1.0 / ideal_rate(CFG, i)


@given(currents, currents)
def test_rate_strictly_increasing_per_branch(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    for branch in RangeSelect:
        assert ideal_rate(CFG, lo, branch) < ideal_rate(CFG, hi, branch)


def test_rate_drop_at_switch_point_is_alpha_beta():
    eps = CFG.i_sw * 1e-12
    ratio = ideal_rate(CFG, CFG.i_sw - eps) / ideal_rate(CFG, CFG.i_sw)
    assert ratio == pytest.approx(CFG.alpha * CFG.beta, rel=1e-9)


@given(currents, st.floats(min_value=0.25, max_value=4.0))
def test_rate_scale_invariance(i, k):
    scaled = CfcConfig(c1=CFG.c1 * k)
    sel = select_range(CFG, i)
    assert ideal_rate(scaled, i * k, sel) == pytest.approx(ideal_rate(CFG, i, sel), rel=1e-12)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_anchors():
    assert decode(CFG, 0.1, RangeSelect.LOW) == pytest.approx(1e-12, rel=1e-12)
    assert decode(CFG, 10e-6, RangeSelect.HIGH) == pytest.approx(1e-6, rel=1e-12)


def test_decode_is_vectorised_over_intervals_and_flags():
    out = decode(CFG, np.array([0.1, 10e-6]), np.array([0, 1], dtype=np.uint8))
    assert out == pytest.approx([1e-12, 1e-6], rel=1e-12)


def test_decode_dead_time_compensation():
    # 10.1 us measured at 1 uA with a 0.1 us reset pulse
    raw = decode(CFG, 10.1e-6, RangeSelect.HIGH)
    assert raw == pytest.approx(1e-6 * (10.0 / 10.1), rel=1e-12)
    fixed = decode(CFG, 10.1e-6, RangeSelect.HIGH, compensation=0.1e-6)
    assert fixed == pytest.approx(1e-6, rel=1e-12)


def test_decode_interval_shorter_than_dead_time():
    with pytest.raises(ValueError, match="shorter than dead time"):
        decode(CFG, 50e-9, RangeSelect.LOW, compensation=100e-9)
    with pytest.raises(ValueError):
        decode(CFG, 1e-3, RangeSelect.LOW, compensation=-1e-9)


def test_dead_time_is_reset_plus_mean_ack_wait():
    assert dead_time(CFG, AckModel()) == CFG.t_rst
    assert dead_time(CFG, AckModel(latency=4e-7)) == pytest.approx(5e-7, rel=1e-12)
    # uniform jitter in [0, 0.2 us) waits 0.1 us on average
    assert dead_time(CFG, AckModel(latency=1e-7, jitter=2e-7)) == pytest.approx(3e-7, rel=1e-12)


@given(currents)
def test_roundtrip_identity_both_ranges(i):
    for sel in RangeSelect:
        isi = ideal_isi(CFG, i, sel)
        assert decode(CFG, isi, sel) == pytest.approx(i, rel=1e-12)


@given(currents, st.floats(min_value=0.0, max_value=1e-6))
def test_roundtrip_with_compensation(i, comp):
    sel = select_range(CFG, i)
    isi = ideal_isi(CFG, i, sel) + comp
    assert decode(CFG, isi, sel, compensation=comp) == pytest.approx(i, rel=1e-12)
