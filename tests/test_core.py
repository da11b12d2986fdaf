import importlib
import math
from dataclasses import fields

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
    select_ranges,
    thresholds,
)
from cfcsim.core import _spans
from cfcsim.simulator import AckModel
from oracle import block_size

CFG = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)

currents = st.floats(min_value=1e-13, max_value=1e-5, allow_nan=False)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_default_config_anchors():
    assert CFG.delta_v == pytest.approx(1.0)
    assert CFG.caps[RangeSelect.LOW] == 100e-15
    assert CFG.caps[RangeSelect.HIGH] == pytest.approx(100.0 * 100e-15, rel=1e-15)


def test_caps_are_c1_and_the_divided_paths_capacitance():
    cfg = CfcConfig(c1=123e-15, alpha=3.7, beta=2.9)
    assert cfg.caps == (123e-15, 3.7 * 2.9 * 123e-15)
    # the rate of each range is its current over its capacitor's charge swing
    for r in RangeSelect:
        assert ideal_rate(cfg, 1e-9, r) == 1e-9 / (cfg.caps[r] * cfg.delta_v)


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
        {"channel_address": 2.0},
        {"channel_address": 2**63},
        {"channel_address": True},
        {"t_rst": float("inf")},
        {"polarity": "sink_n"},  # the enum's value, not the enum
    ],
)
def test_config_invariants_rejected(kwargs):
    with pytest.raises(ConfigError):
        CfcConfig(**kwargs)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(CfcConfig) if f.name not in ("polarity", "channel_address")])
def test_config_refuses_an_infinite_field_by_name(name, value):
    # as CfcConfig.from_dict does for a description file
    with pytest.raises(ConfigError, match=rf"^{name} must be finite, got {value}$"):
        CfcConfig(**{name: value})


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
    assert rectify(x, Polarity.SINK_N) == rectify(-x, Polarity.SOURCE_P)
    assert rectify(x, Polarity.SOURCE_P) == rectify(-x, Polarity.SINK_N)
    for p in Polarity:
        assert rectify(x, p) >= 0.0
        assert isinstance(rectify(x, p), float)


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e-3, 1e-3)), max_size=20))
def test_rectify_is_elementwise(xs):
    x = np.asarray(xs, dtype=np.float64)
    for p in Polarity:
        got = rectify(x, p)
        assert got.shape == x.shape
        want = np.asarray([rectify(v, p) for v in xs], dtype=np.float64)
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here
        assert np.array_equal(got, rectify(-x, Polarity.SOURCE_P if p is Polarity.SINK_N else Polarity.SINK_N))
    # a blocked or zero input, signed zero included, gives +0.0
    assert rectify(np.array([-0.0, 0.0, 1e-9]), Polarity.SINK_N).tobytes() == np.array([0.0, 0.0, 1e-9]).tobytes()
    assert rectify(np.array([-0.0, 0.0, 1e-9]), Polarity.SOURCE_P).tobytes() == np.zeros(3).tobytes()


# ---------------------------------------------------------------------------
# range selection
# ---------------------------------------------------------------------------


def _fold_ranges(config, currents):
    """The comparator one current at a time: HIGH at or above i_sw, LOW
    below i_sw * (1 - hysteresis), else the range before (LOW at first)."""
    high, out = False, []
    for i in currents:
        if i >= config.i_sw:
            high = True
        elif i < config.i_sw * (1.0 - config.hysteresis):
            high = False
        out.append(int(high))
    return out


def test_select_range_examples():
    assert select_ranges(CFG, [1e-12]).tolist() == [RangeSelect.LOW]
    assert select_ranges(CfcConfig(i_sw=100e-9), [1e-6]).tolist() == [RangeSelect.HIGH]
    # boundary convention: the tie goes to HIGH
    assert select_ranges(CFG, [10e-9]).tolist() == [RangeSelect.HIGH]
    assert select_ranges(CFG, [1e-9, 10e-9, 9.99e-9, 0.0]).tolist() == [0, 1, 0, 0]
    assert select_ranges(CFG, []).dtype == np.uint8


def test_select_range_hysteresis_band():
    cfg = CfcConfig(hysteresis=0.2)  # fall back to LOW only below 8 nA
    assert thresholds(cfg) == (cfg.i_leak_floor, 10e-9, 10e-9 * (1.0 - 0.2))
    # inside the band the range in force carries over, from HIGH ...
    assert select_ranges(cfg, [12e-9, 9e-9, 8e-9]).tolist() == [1, 1, 1]
    # ... and from LOW; a sequence that starts inside the band starts LOW
    assert select_ranges(cfg, [5e-9, 9e-9]).tolist() == [0, 0]
    assert select_ranges(cfg, [9e-9, 9.9e-9, 10e-9, 9e-9]).tolist() == [0, 0, 1, 1]
    # a fall below the edge goes LOW, and the band then holds LOW
    assert select_ranges(cfg, [12e-9, 7.9e-9, 9e-9]).tolist() == [1, 0, 0]
    # zero hysteresis ignores history entirely
    assert thresholds(CFG) == (CFG.i_leak_floor, CFG.i_sw)
    assert select_ranges(CFG, [12e-9, 9e-9]).tolist() == [1, 0]


@given(
    st.lists(st.one_of(st.sampled_from([0.0, 8e-9, 10e-9, 20e-9]), st.floats(0.0, 2e-8)), max_size=30),
    st.sampled_from([0.0, 0.2]),
)
def test_select_ranges_is_the_scalar_fold(currents, h):
    cfg = CfcConfig(hysteresis=h)
    got = select_ranges(cfg, currents)
    assert got.dtype == np.uint8
    assert got.tolist() == _fold_ranges(cfg, currents)


def test_select_range_rejects_negative():
    with pytest.raises(ValueError):
        select_ranges(CFG, [-1e-9])
    with pytest.raises(ValueError, match="rectified current must be non-negative"):
        ideal_rate(CFG, -1e-9)
    with pytest.raises(ValueError):
        select_ranges(CfcConfig(hysteresis=0.2), [1e-9, -1e-9])


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
    sel = select_ranges(CFG, [i])[0]
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


def test_decode_refuses_a_nan_interval_and_a_flag_other_than_0_and_1():
    # a NaN is not longer than any compensation, and a flag of 2 is no range
    with pytest.raises(ValueError, match="shorter than dead time .* or not a number"):
        decode(CFG, [math.nan], [0])
    with pytest.raises(ValueError, match=r"range flag must be 0 \(low\) or 1 \(high\), got 2$"):
        decode(CFG, [1e-3], [2])
    with pytest.raises(ValueError, match="got 0.5$"):
        decode(CFG, np.array([1e-3, 1e-3]), np.array([1.0, 0.5]))


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
    sel = select_ranges(CFG, [i])[0]
    isi = ideal_isi(CFG, i, sel) + comp
    assert decode(CFG, isi, sel, compensation=comp) == pytest.approx(i, rel=1e-12)


# ---------------------------------------------------------------------------
# the block size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, k", [(0, 3), (1, 3), (3, 3), (7, 3), (7, 1)])
def test_spans_cover_the_rows_in_blocks_of_the_block_size(n, k):
    with block_size(k):
        spans = _spans(n)
    assert [i for lo, hi in spans for i in range(lo, hi)] == list(range(n))
    assert [hi - lo for lo, hi in spans] == [k] * (n // k) + ([n % k] if n % k else [])


@pytest.mark.parametrize("module", ["stimulus", "simulator", "formats", "decoder", "experiment"])
def test_only_core_binds_the_block_size(module):
    # ``oracle.block_size`` sets ``core._BLOCK`` alone, so a module with a
    # binding of its own would keep the old size inside the ``with``
    assert "_BLOCK" not in vars(importlib.import_module(f"cfcsim.{module}"))
