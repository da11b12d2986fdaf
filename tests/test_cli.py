import json
import re

import numpy as np
import pytest

from cfcsim.cli import main
from cfcsim.core import CfcConfig
from cfcsim.experiment import load_spec
from cfcsim.formats import read_events_csv, read_fit_record
from cfcsim.simulator import simulate
from cfcsim.stimulus import constant


def _write_spec(path, **updates):
    spec = {
        "name": "const-demo",
        "duration": 0.02,
        "stimulus": {"kind": "constant", "i": 3e-9},
        "config": {"t_rst": 0.0, "i_leak_floor": 0.0},
    }
    spec.update(updates)
    path.write_text(json.dumps(spec))
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_expected_files(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0
    ev = read_events_csv(out / "events.csv")
    direct = simulate(CfcConfig(t_rst=0.0, i_leak_floor=0.0), constant(3e-9, 0.02), 0.02).events
    assert np.array_equal(ev.t_req, direct.t_req)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["event_count"] == len(direct)
    assert summary["seed"] == 0  # documented default, never wall-clock
    assert (out / "truth.csv").exists()
    assert not (out / "trace.csv").exists()


def test_simulate_trace_flag(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json", duration=1e-3)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(spec_path), "--out", str(out), "--trace"]) == 0
    assert (out / "trace.csv").exists()


def test_simulate_duration_override(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json")
    out = tmp_path / "run"
    assert main([
        "simulate", "--config", str(spec_path), "--out", str(out), "--duration", "0.01",
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["duration_s"] == 0.01


def test_simulate_missing_and_unknown_keys_exit_2(tmp_path):
    p = tmp_path / "missing.json"
    p.write_text(json.dumps({"name": "x", "duration": 1.0}))  # no stimulus
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "a")]) == 2

    p2 = tmp_path / "unknown.json"
    p2.write_text(json.dumps({
        "duration": 1.0, "stimulus": {"kind": "constant", "i": 1e-9}, "typo_key": 5,
    }))
    assert main(["simulate", "--config", str(p2), "--out", str(tmp_path / "b")]) == 2

    p3 = tmp_path / "badcfg.json"
    p3.write_text(json.dumps({
        "duration": 1.0, "stimulus": {"kind": "constant", "i": 1e-9},
        "config": {"c_one": 1e-13},
    }))
    assert main(["simulate", "--config", str(p3), "--out", str(tmp_path / "c")]) == 2


def test_simulate_rerun_is_byte_identical(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(spec_path), "--out", str(out1), "--seed", "9"]) == 0
    assert main(["simulate", "--config", str(spec_path), "--out", str(out2), "--seed", "9"]) == 0
    for name in ("events.csv", "truth.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_roundtrip(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json")
    run = tmp_path / "run"
    main(["simulate", "--config", str(spec_path), "--out", str(run)])
    assert main(["decode", str(run / "events.csv"), "--out", str(run)]) == 0
    rows = (run / "recon.csv").read_text().splitlines()
    assert rows[0] == "t_s,i_A,range"
    decoded = np.asarray([float(r.split(",")[1]) for r in rows[1:]])
    assert decoded == pytest.approx(np.full(decoded.size, 3e-9), rel=1e-9)


def test_decode_empty_file_succeeds(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "recon.csv").read_text() == "t_s,i_A,range\n"


def test_decode_shuffled_rows_exit_3(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.2,0,0\n0.1,0,0\n0.3,0,0\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 3


def test_decode_malformed_row_exit_3_names_line(tmp_path, capsys):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.1,0,0\noops\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 3
    assert "line 3" in capsys.readouterr().err


def test_decode_compensate_flag(tmp_path):
    cfg = CfcConfig(i_leak_floor=0.0)  # t_rst = 0.1 us
    ev = simulate(cfg, constant(1e-6, 1e-3), 1e-3).events
    from cfcsim.formats import write_events_csv

    p = write_events_csv(tmp_path / "events.csv", ev)
    out = tmp_path / "out"
    assert main(["decode", str(p), "--out", str(out), "--compensate"]) == 0
    rows = (out / "recon.csv").read_text().splitlines()[1:]
    decoded = np.asarray([float(r.split(",")[1]) for r in rows])
    assert decoded == pytest.approx(np.full(decoded.size, 1e-6), rel=1e-9)


def test_decode_missing_file_exit_2(tmp_path):
    assert main(["decode", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# presets and sweep
# ---------------------------------------------------------------------------


def test_preset_fig7_emits_fit(tmp_path):
    out = tmp_path / "fig7"
    assert main(["preset", "fig7", "--out", str(out)]) == 0
    fit = read_fit_record(out / "fit.txt")
    assert fit["tau_s"] == pytest.approx(20e-3, rel=0.05)
    for name in ("events.csv", "recon.csv", "truth.csv", "summary.json", "input_spikes.csv"):
        assert (out / name).exists()


def test_preset_fig5_flags_divergence_bands(tmp_path):
    out = tmp_path / "fig5"
    assert main(["preset", "fig5", "--out", str(out)]) == 0
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == "t_s,i_model_A,i_decoded_A,rel_err,flag"
    flags = {r.rsplit(",", 1)[1] for r in rows[1:]}
    assert "ok" in flags
    assert "below_floor" in flags  # the sweep starts at 1 pA
    assert "above_valid" in flags  # and tops out at 4 uA
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["i_sw"] == 100e-9


def test_decode_compensation_includes_ack_latency(tmp_path):
    from cfcsim.formats import write_events_csv
    from cfcsim.simulator import AckModel

    cfg = CfcConfig(i_leak_floor=0.0)
    ack = AckModel(latency=4e-7)
    ev = simulate(cfg, constant(1e-6, 2e-3), 2e-3, ack=ack).events
    p = write_events_csv(tmp_path / "events.csv", ev)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "duration": 2e-3,
        "stimulus": {"kind": "constant", "i": 1e-6},
        "config": {"i_leak_floor": 0.0},
        "ack": {"latency": 4e-7},
    }))
    out = tmp_path / "out"
    assert main(["decode", str(p), "--out", str(out), "--config", str(spec), "--compensate"]) == 0
    rows = (out / "recon.csv").read_text().splitlines()[1:]
    decoded = np.asarray([float(r.split(",")[1]) for r in rows])
    # compensation = t_rst + ack latency makes the decode exact again
    assert decoded == pytest.approx(np.full(decoded.size, 1e-6), rel=1e-9)


def test_decode_compensation_uses_mean_ack_jitter(tmp_path):
    from cfcsim.formats import write_events_csv
    from cfcsim.simulator import AckModel

    cfg = CfcConfig(i_leak_floor=0.0)
    ack = AckModel(latency=1e-7, jitter=2e-7)
    ev = simulate(cfg, constant(1e-6, 0.02), 0.02, ack=ack).events
    p = write_events_csv(tmp_path / "events.csv", ev)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "duration": 0.02,
        "stimulus": {"kind": "constant", "i": 1e-6},
        "config": {"i_leak_floor": 0.0},
        "ack": {"latency": 1e-7, "jitter": 2e-7},
    }))
    out = tmp_path / "out"
    assert main(["decode", str(p), "--out", str(out), "--config", str(spec), "--compensate"]) == 0
    rows = (out / "recon.csv").read_text().splitlines()[1:]
    decoded = np.asarray([float(r.split(",")[1]) for r in rows])
    # subtracting t_rst + latency + jitter / 2 leaves the mean unbiased
    assert abs(decoded.mean() / 1e-6 - 1) < 1e-3


def test_preset_unknown_name_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "nosuch", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_sweep_command(tmp_path):
    out = tmp_path / "swp"
    assert main([
        "sweep", "--start", "1e-12", "--stop", "20e-12", "--steps", "5",
        "--dwell", "0.2", "--out", str(out),
    ]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "level_A,i_decoded_A,n_events"
    # first step (1 pA) is under the default 5.5 pA floor: empty decode field
    assert rows[1].split(",")[1] == ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_no_measurement"] >= 1


@pytest.mark.parametrize(
    "key, updates",
    [
        pytest.param("latency", {"ack": {"latency": float("nan")}}, id="nan-latency"),
        pytest.param("t_rst", {"config": {"t_rst": float("nan")}}, id="nan-t_rst"),
        pytest.param("i_leak_floor", {"config": {"i_leak_floor": float("nan")}}, id="nan-i_leak_floor"),
        pytest.param("seed", {"seed": -1, "ack": {"jitter": 1e-7}}, id="negative-seed"),
        pytest.param("i", {"stimulus": {"kind": "constant", "i": None}}, id="null-i"),
        pytest.param("c1", {"config": {"c1": None}}, id="null-c1"),
        pytest.param("seed", {"seed": "x"}, id="string-seed"),
        pytest.param("duration", {"duration": "x"}, id="string-duration"),
        pytest.param("vg_ref", {"stimulus": {
            "kind": "pfet_sweep", "vg_start": 0.5, "vg_stop": 1.5, "i0": 1e-12, "slope_per_decade": 0.1,
            "i_sat": 1e-6, "vg_ref": "x",
        }}, id="string-vg_ref"),
        pytest.param("resolution", {"stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11, "resolution": "x",
            "train": {"kind": "regular", "rate": 20.0},
        }}, id="string-resolution"),
    ],
)
def test_simulate_bad_value_exit_2_names_key(tmp_path, capsys, key, updates):
    spec_path = _write_spec(tmp_path / "spec.json", **updates)
    assert main(["simulate", "--config", str(spec_path), "--out", str(tmp_path / "run")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


# ---------------------------------------------------------------------------
# experiment spec loader details
# ---------------------------------------------------------------------------


def test_load_spec_staircase_duration_from_schedule(tmp_path):
    spec = load_spec({
        "stimulus": {"kind": "staircase", "start": 1e-9, "stop": 2e-9, "steps": 4, "dwell": 0.05},
    })
    assert spec.duration == pytest.approx(0.2)
    assert spec.schedule is not None


def test_load_spec_rejects_unknown_stimulus_kind():
    from cfcsim.core import ConfigError

    with pytest.raises(ConfigError, match="unknown stimulus kind"):
        load_spec({"duration": 1.0, "stimulus": {"kind": "sawtooth"}})
    with pytest.raises(ConfigError, match="unknown key"):
        load_spec({"duration": 1.0, "stimulus": {"kind": "constant", "i": 1e-9, "amp": 2}})


def test_load_spec_dpi_with_poisson_train_uses_seed():
    desc = {
        "duration": 0.5,
        "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "poisson", "rate": 50.0},
        },
    }
    a = load_spec(desc, seed_override=5)
    b = load_spec(desc, seed_override=5)
    c = load_spec(desc, seed_override=6)
    assert np.array_equal(a.stimulus.times, b.stimulus.times)
    assert not np.array_equal(a.stimulus.times, c.stimulus.times)
