import json
import os
import re
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cfcsim.cli import main
from cfcsim.core import CfcConfig
from cfcsim.experiment import load_spec
from cfcsim.formats import read_events_csv
from cfcsim.simulator import simulate
from cfcsim.stimulus import constant


def _spec_text(**updates):
    spec = {
        "name": "const-demo",
        "duration": 0.02,
        "stimulus": {"kind": "constant", "i": 3e-9},
        "config": {"t_rst": 0.0, "i_leak_floor": 0.0},
    }
    spec.update(updates)
    return json.dumps(spec)


def _write_spec(path, **updates):
    path.write_text(_spec_text(**updates))
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


def test_simulate_seed_flag_replaces_the_description_seed(tmp_path):
    # with acknowledge jitter the seed moves the events: a description at
    # seed 3 run with --seed 9 is the same run as that description at seed 9
    ack = {"latency": 1e-7, "jitter": 2e-7}
    runs = {}
    for name, seed, argv in (("flag", 3, ["--seed", "9"]), ("nine", 9, []), ("three", 3, [])):
        spec_path = _write_spec(tmp_path / f"{name}.json", seed=seed, ack=ack)
        out = tmp_path / name
        assert main(["simulate", "--config", str(spec_path), "--out", str(out), *argv]) == 0
        runs[name] = out
    assert json.loads((runs["flag"] / "summary.json").read_text())["seed"] == 9
    assert (runs["flag"] / "events.csv").read_bytes() == (runs["nine"] / "events.csv").read_bytes()
    assert (runs["flag"] / "events.csv").read_bytes() != (runs["three"] / "events.csv").read_bytes()


def test_simulate_error_after_the_description_names_the_seed(tmp_path, capsys):
    # --out names a regular file: the run fails once its seed is known, and
    # the error line names it; a description that fails to load names none
    out = tmp_path / "out"
    out.write_text("")
    for seed, argv in ((5, []), (9, ["--seed", "9"])):
        spec_path = _write_spec(tmp_path / "spec.json", seed=5)
        assert main(["simulate", "--config", str(spec_path), "--out", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulate: ") and str(out) in err
        assert err.endswith(f" (seed {seed})\n") and err.count("\n") == 1
    spec_path = _write_spec(tmp_path / "spec.json", seed=5, trace="yes")
    assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 2
    assert "seed" not in capsys.readouterr().err


def test_simulate_trace_flag_still_checks_the_description_trace(tmp_path, capsys):
    spec_path = _write_spec(tmp_path / "spec.json", trace="yes")
    assert main(["simulate", "--config", str(spec_path), "--out", str(tmp_path / "run"), "--trace"]) == 2
    assert "'trace' must be true or false" in capsys.readouterr().err


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


def test_decode_malformed_row_exit_2_names_line(tmp_path, capsys):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.1,0,0\noops\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_decode_undecodable_byte_exit_2_names_file_and_line(tmp_path, capsys):
    p = tmp_path / "events.csv"
    p.write_bytes(b"t_req_s,channel,sf\n0.1,0,0\n\xff\xfe,0,0\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"error: decode: {p}: line 3: byte 0xff is not UTF-8" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_decode_pipe_with_a_malformed_row_exit_2_names_line(tmp_path, capsys):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"t_req_s,channel,sf\n0.1,0,2\n")
        os.close(write_end)
        assert main(["decode", f"/dev/fd/{read_end}", "--out", str(tmp_path / "out")]) == 2
    finally:
        os.close(read_end)
    assert f"error: decode: /dev/fd/{read_end}: line 2: sf must be 0 or 1, got 2" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_decode_of_a_file_and_of_a_pipe_write_the_same_recon(tmp_path):
    # a jittered staircase over both ranges: a regular file is parsed by
    # ``np.loadtxt``, a pipe row by row
    spec = {"name": "routes", "seed": 3, "ack": {"latency": 0.1e-6, "jitter": 0.2e-6},
            "stimulus": {"kind": "staircase", "start": 12.5e-9, "stop": 3.2e-6, "steps": 20, "dwell": 0.05}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(spec_path), "--out", str(tmp_path / "run")]) == 0
    events = (tmp_path / "run" / "events.csv").read_bytes()
    assert main(["decode", str(tmp_path / "run" / "events.csv"), "--config", str(spec_path),
                 "--out", str(tmp_path / "file"), "--compensate"]) == 0
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(write_end, events), os.close(write_end)))
    writer.start()  # the file is larger than a pipe's buffer
    try:
        assert main(["decode", f"/dev/fd/{read_end}", "--config", str(spec_path),
                     "--out", str(tmp_path / "pipe"), "--compensate"]) == 0
    finally:
        os.close(read_end)  # a reader that stopped early leaves the writer a broken pipe, not a wait
        writer.join(timeout=60)
    assert not writer.is_alive()
    recon = (tmp_path / "file" / "recon.csv").read_bytes()
    assert recon.count(b"\n") == events.count(b"\n") - 1 > 100_000
    assert (tmp_path / "pipe" / "recon.csv").read_bytes() == recon


def test_decode_channel_of_2_64_exit_2_names_line(tmp_path, capsys):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.1,0,0\n0.2,18446744073709551616,0\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "line 3: channel must be below 2**63" in capsys.readouterr().err


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


def test_decode_compensate_names_a_too_short_interval_exit_3(tmp_path, capsys):
    from cfcsim.formats import write_events_csv
    from cfcsim.simulator import EventStream

    # the default reset pulse is 0.1 us; event 2 follows event 1 by 50 ns
    ev = EventStream(np.array([0.0, 0.1, 0.10000005, 0.2]), 0, np.zeros(4, dtype=np.uint8))
    p = write_events_csv(tmp_path / "events.csv", ev)
    assert main(["decode", str(p), "--out", str(tmp_path / "out"), "--compensate"]) == 3
    assert "event 2 at t = 0.10000005 s" in capsys.readouterr().err
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 0


def test_decode_second_channel_names_its_line_exit_2(tmp_path, capsys):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.1,2,0\n0.2,2,0\n0.3,5,1\n")
    assert main(["decode", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "line 4: channel 5 differs from the first row's channel 2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recon.csv").exists()


def test_decode_missing_file_exit_2(tmp_path):
    assert main(["decode", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


def _events_in_a_directory(tmp_path):
    return tmp_path, tmp_path / "out", tmp_path


def _out_names_a_file(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n0.1,0,0\n")
    return p, p, p


def _unreadable_events(tmp_path):
    p = tmp_path / "events.csv"
    p.symlink_to(p)  # a link to itself cannot be opened, not even by root
    return p, tmp_path / "out", p


@pytest.mark.parametrize("paths", [_events_in_a_directory, _out_names_a_file, _unreadable_events])
def test_decode_unusable_path_exit_2_names_it(tmp_path, capsys, paths):
    events, out, bad = paths(tmp_path)
    assert main(["decode", str(events), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: decode: ") and str(bad) in err


# ---------------------------------------------------------------------------
# presets and sweep
# ---------------------------------------------------------------------------


def _read_fit(path):
    """A fit record's ``key=value`` lines as a dict of floats."""
    pairs = (line.split("=") for line in path.read_text(encoding="utf-8").splitlines())
    return {key: float(value) for key, value in pairs}


def test_preset_fig7_emits_fit(tmp_path):
    out = tmp_path / "fig7"
    assert main(["preset", "fig7", "--out", str(out)]) == 0
    fit = _read_fit(out / "fit.txt")
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


def test_decode_compensation_includes_ack_latency(tmp_path, monkeypatch):
    from cfcsim import experiment
    from cfcsim.formats import write_events_csv
    from cfcsim.simulator import AckModel

    def no_stimulus(*args):
        raise AssertionError("decode built the stimulus")

    # decode reads only the converter part of a spec
    monkeypatch.setattr(experiment, "build_stimulus", no_stimulus)
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


@pytest.mark.parametrize(
    "key, text",
    [
        pytest.param("seed", _spec_text(seed=-1), id="negative-seed"),
        pytest.param("extra", _spec_text(extra=1), id="unknown-top-level-key"),
        pytest.param("config", _spec_text(config=5), id="scalar-config"),
        pytest.param("ack", _spec_text(ack=5), id="scalar-ack"),
        pytest.param("c1", json.dumps({"c1": "x"}), id="flat-config-string-c1"),
        pytest.param("JSON", "{", id="invalid-json"),
        pytest.param("top level", "[1]", id="list-top-level"),
    ],
)
def test_decode_bad_spec_converter_exit_2_names_key(tmp_path, capsys, key, text):
    from cfcsim.formats import write_events_csv

    p = write_events_csv(tmp_path / "events.csv", simulate(CfcConfig(), constant(1e-6, 2e-3), 2e-3).events)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    assert main(["decode", str(p), "--out", str(tmp_path / "out"), "--config", str(spec_path)]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


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


def test_sweep_negative_currents_in_the_equals_form(tmp_path):
    # argparse may take a bare "-2e-8" for an option; "--start=-2e-8" is
    # always read as the value
    config = tmp_path / "sp.json"
    config.write_text(json.dumps({"polarity": "source_p"}))
    out = tmp_path / "swp"
    assert main([
        "sweep", "--config", str(config), "--start=-2e-8", "--stop=-1e-9", "--steps", "4", "--dwell", "0.01",
        "--out", str(out),
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["start_A"], summary["stop_A"]) == (-2e-8, -1e-9)
    assert (summary["steps_measured"], summary["steps_no_measurement"]) == (4, 0)
    levels = [float(row.split(",")[0]) for row in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert levels == pytest.approx([-2e-8, -1.3667e-8, -7.333e-9, -1e-9], rel=1e-4)
    assert levels[-1] == summary["stop_A"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--start", "--stop", "--dwell"])
def test_sweep_non_finite_flag_exit_2_names_it(tmp_path, capsys, flag, value):
    args = {"--start": "1e-12", "--stop": "20e-12", "--dwell": "0.2", flag: value}
    argv = ["sweep", "--steps", "5", "--out", str(tmp_path / "swp")]
    assert main(argv + [word for pair in args.items() for word in pair]) == 2
    assert f"'{flag}' must be a number, got {value}" in capsys.readouterr().err


_PFET = {"kind": "pfet_sweep", "vg_start": 0.5, "vg_stop": 1.5, "i0": 1e-12, "slope_per_decade": 0.1, "i_sat": 1e-6}
_DPI = {"kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
        "train": {"kind": "regular", "rate": 20.0}}
_STAIRCASE = {"kind": "staircase", "start": 1e-9, "stop": 2e-9, "steps": 3, "dwell": 0.01}


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
        pytest.param("trace", {"trace": "no"}, id="string-trace"),
        pytest.param("trace", {"trace": 1}, id="number-trace"),
        pytest.param("trace", {"trace": None}, id="null-trace"),
        pytest.param("name", {"name": None}, id="null-name"),
        pytest.param("name", {"name": ["a"]}, id="list-name"),
        pytest.param("seed", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "poisson", "rate": 20.0, "seed": -1},
        }}, id="negative-train-seed"),
        pytest.param("duration", {"duration": float("inf")}, id="inf-duration"),
        pytest.param("latency", {"ack": {"latency": float("inf")}}, id="inf-latency"),
        pytest.param("t_rst", {"config": {"t_rst": float("inf")}}, id="inf-t_rst"),
        pytest.param("i", {"stimulus": {"kind": "constant", "i": float("-inf")}}, id="minus-inf-i"),
        pytest.param("rate", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "regular", "rate": float("inf")},
        }}, id="inf-train-rate"),
        pytest.param("seed", {"seed": 10**400}, id="400-digit-seed"),
        pytest.param("channel_address", {"config": {"channel_address": 1e300}}, id="huge-channel_address"),
        pytest.param("channel_address", {"config": {"channel_address": 2**63}}, id="2**63-channel_address"),
        pytest.param("times", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "explicit", "times": [0.001, float("nan")]},
        }}, id="nan-spike-time"),
        pytest.param("times", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "explicit", "times": ["a"]},
        }}, id="string-spike-time"),
        pytest.param("times", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "explicit", "times": 0.001},
        }}, id="scalar-spike-times"),
        pytest.param("times", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "regular", "rate": 20.0, "times": [0.05, 0.1]},
        }}, id="regular-train-times"),
        pytest.param("seed", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "regular", "rate": 20.0, "seed": 3},
        }}, id="regular-train-seed"),
        pytest.param("rate", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "explicit", "times": [0.05, 0.1], "rate": 1000.0},
        }}, id="explicit-train-rate"),
        pytest.param("times", {"duration": 0.5, "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "poisson", "rate": 20.0, "times": [0.05, 0.1]},
        }}, id="poisson-train-times"),
        pytest.param("points_per_decade", {"stimulus": dict(_PFET, points_per_decade=None)},
                     id="null-points_per_decade"),
        pytest.param("points_per_decade", {"stimulus": dict(_PFET, points_per_decade=2.5)},
                     id="fraction-points_per_decade"),
        pytest.param("seed", {"duration": 0.5, "stimulus": dict(
            _DPI, train={"kind": "poisson", "rate": 20.0, "seed": None},
        )}, id="null-train-seed"),
        pytest.param("steps", {"duration": None, "stimulus": dict(_STAIRCASE, steps=2.5)}, id="fraction-steps"),
        pytest.param("train", {"duration": 0.5, "stimulus": dict(_DPI, train=5)}, id="scalar-train"),
        pytest.param("kind", {"duration": 0.5, "stimulus": dict(_DPI, train={"kind": "burst", "rate": 20.0})},
                     id="unknown-train-kind"),
        pytest.param("stimulus", {"stimulus": 5}, id="scalar-stimulus"),
        pytest.param("duration", {"duration": 1.0, "stimulus": _STAIRCASE}, id="duration-past-staircase"),
        pytest.param("duration", {"duration": None}, id="constant-without-duration"),
        pytest.param("config", None, id="no-config"),  # no description at all
    ],
)
def test_simulate_bad_value_exit_2_names_key(tmp_path, capsys, key, updates):
    config = [] if updates is None else ["--config", str(_write_spec(tmp_path / "spec.json", **updates))]
    assert main(["simulate", *config, "--out", str(tmp_path / "run")]) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)


# an integral float is accepted for an integer key, and null for an
# optional key whose default is null
@pytest.mark.parametrize(
    "updates",
    [
        pytest.param({"stimulus": dict(_PFET, points_per_decade=3.0)}, id="float-points_per_decade"),
        pytest.param({"duration": None, "stimulus": dict(_STAIRCASE, steps=3.0)}, id="float-steps"),
        pytest.param({"stimulus": dict(_PFET, vg_ref=None)}, id="null-vg_ref"),
        pytest.param({"stimulus": dict(_DPI, resolution=None)}, id="null-resolution"),
    ],
)
def test_simulate_accepts_integral_floats_and_null_defaults(tmp_path, updates):
    spec_path = _write_spec(tmp_path / "spec.json", **updates)
    assert main(["simulate", "--config", str(spec_path), "--out", str(tmp_path / "run")]) == 0


def test_simulate_integral_float_channel_address_with_jitter(tmp_path):
    spec_path = _write_spec(tmp_path / "spec.json", config={"channel_address": 2.0}, ack={"jitter": 1e-7})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(spec_path), "--out", str(out)]) == 0
    ev = read_events_csv(out / "events.csv")
    assert len(ev) > 0
    assert ev.channel == 2
    assert json.loads((out / "summary.json").read_text())["config"]["channel_address"] == 2


# ---------------------------------------------------------------------------
# experiment spec loader details
# ---------------------------------------------------------------------------


def test_load_spec_staircase_duration_from_schedule(tmp_path):
    spec = load_spec({
        "stimulus": {"kind": "staircase", "start": 1e-9, "stop": 2e-9, "steps": 4, "dwell": 0.05},
    })
    assert spec.duration == pytest.approx(0.2)
    assert spec.duration == spec.stimulus.end


def test_load_spec_rejects_unknown_stimulus_kind():
    from cfcsim.core import ConfigError

    with pytest.raises(ConfigError, match="unknown stimulus kind"):
        load_spec({"duration": 1.0, "stimulus": {"kind": "sawtooth"}})
    with pytest.raises(ConfigError, match="unknown key"):
        load_spec({"duration": 1.0, "stimulus": {"kind": "constant", "i": 1e-9, "amp": 2}})
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        load_spec([{"duration": 1.0, "stimulus": {"kind": "constant", "i": 1e-9}}])


def test_load_spec_dpi_with_poisson_train_uses_seed():
    desc = {
        "duration": 0.5,
        "stimulus": {
            "kind": "dpi_synapse", "tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11,
            "train": {"kind": "poisson", "rate": 50.0},
        },
    }
    a = load_spec({**desc, "seed": 5})
    b = load_spec({**desc, "seed": 5})
    c = load_spec({**desc, "seed": 6})
    assert np.array_equal(a.stimulus.times, b.stimulus.times)
    assert not np.array_equal(a.stimulus.times, c.stimulus.times)


def test_load_spec_explicit_train_takes_the_listed_times():
    from cfcsim.stimulus import SpikeTrain, dpi_synapse

    synapse = {"tau": 0.02, "weight_jump": 1e-9, "i_base": 1e-11}
    spec = load_spec({
        "duration": 0.5,
        "stimulus": {"kind": "dpi_synapse", **synapse, "train": {"kind": "explicit", "times": [0.1, 0.25]}},
    })
    direct = dpi_synapse(SpikeTrain(np.array([0.1, 0.25])), duration=0.5, **synapse)
    assert np.array_equal(spec.stimulus.times, direct.times)
    assert np.array_equal(spec.stimulus.i_start, direct.i_start)


# Under an ASCII locale Python's default text encoding is ASCII; every file
# must still be read and written as UTF-8.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONIOENCODING": ""}
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli_in_ascii_locale(*args, cwd):
    env = {**os.environ, **_ASCII_LOCALE, "PYTHONPATH": _SRC}
    return subprocess.run([sys.executable, "-m", "cfcsim", *args], cwd=cwd, env=env, capture_output=True,
                          timeout=120)


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "µA-run", "duration": 1e-3, "stimulus": {"kind": "constant", "i": 3e-9},
                                "config": {"t_rst": 0.0, "i_leak_floor": 0.0}}, ensure_ascii=False),
                    encoding="utf-8")
    done = _cli_in_ascii_locale("simulate", "--config", "spec.json", "--out", "run", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))["name"] == "µA-run"
    assert main(["simulate", "--config", str(spec), "--out", str(tmp_path / "here")]) == 0
    for name in ("events.csv", "truth.csv", "summary.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()

    spec.write_bytes(b'{"name": "\xff"}')
    done = _cli_in_ascii_locale("simulate", "--config", "spec.json", "--out", "run", cwd=tmp_path)
    assert done.returncode == 2
    assert re.search(rb"spec\.json: byte 10 \(0xff\) is not UTF-8", done.stderr), done.stderr


@pytest.mark.parametrize("error, line", [
    pytest.param(MemoryError("Unable to allocate 7.28 TiB"), "error: preset: Unable to allocate 7.28 TiB", id="numpy"),
    pytest.param(MemoryError(), "error: preset: MemoryError", id="bare"),
])
def test_running_out_of_memory_exit_3(tmp_path, capsys, monkeypatch, error, line):
    import cfcsim.cli

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cfcsim.cli, "run_preset", exhausted)
    assert main(["preset", "fig4", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == line + "\n"


# ---------------------------------------------------------------------------
# scripts and packaging
# ---------------------------------------------------------------------------

_SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", _SCRIPTS, ids=[p.name for p in _SCRIPTS])
def test_script_imports_cleanly(script):
    # runs the module body only: each script calls main() under __main__
    assert callable(runpy.run_path(str(script), run_name="not_main")["main"])


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    import cfcsim

    assert tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"] == cfcsim.__version__
