import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from cfcsim import cli, experiment, presets
from cfcsim.cli import main
from cfcsim.core import CfcConfig, ConfigError, Polarity
from cfcsim.decoder import ReconstructedSignal
from cfcsim.presets import run_preset
from cfcsim.stimulus import FIVE_RANGE_SWEEPS, CurrentSignal


def assert_record_lists_its_files(record, out):
    """The run record lists every file under ``out``, each once, in the
    order written, with ``summary.json`` last."""
    assert record.out_dir == out
    assert len(set(record.files)) == len(record.files)
    assert sorted(record.files) == sorted(p for p in out.rglob("*") if p.is_file())
    assert record.files[-1] == out / "summary.json"
    assert json.loads(record.files[-1].read_text()) == json.loads(json.dumps(record.summary))


def test_sweep_command_matches_fig4_fifth_sweep(tmp_path):
    # fig4 and `cfcsim sweep` share one sweep pipeline: the same range,
    # steps, dwell and seed must give byte-identical files
    run_preset("fig4", tmp_path / "fig4", seed=1)
    lo, hi = FIVE_RANGE_SWEEPS[4]
    assert main([
        "sweep", "--start", repr(lo), "--stop", repr(hi), "--steps", "20", "--dwell", "0.05",
        "--seed", "1", "--out", str(tmp_path / "swp"),
    ]) == 0
    for name in ("truth.csv", "events.csv", "recon.csv", "sweep.csv"):
        fig4 = (tmp_path / "fig4" / "sweep5" / name).read_bytes()
        assert (tmp_path / "swp" / name).read_bytes() == fig4, name


def test_fig4_writes_five_sweep_tables(tmp_path):
    result = run_preset("fig4", tmp_path, seed=0)
    assert sorted(d.name for d in tmp_path.iterdir() if d.is_dir()) == [
        "sweep1", "sweep2", "sweep3", "sweep4", "sweep5",
    ]
    for d in tmp_path.glob("sweep*"):
        for name in ("truth.csv", "events.csv", "recon.csv", "sweep.csv"):
            assert (d / name).exists()
    assert len(result.summary["sweeps"]) == 5
    assert_record_lists_its_files(result, tmp_path)


def test_fig5_compensation_removes_dead_time_distortion(tmp_path):
    raw = run_preset("fig5", tmp_path / "raw", seed=0, compensate=False)
    comp = run_preset("fig5", tmp_path / "comp", seed=0, compensate=True)
    # with the range threshold at 100 nA the low range runs up to ~1 MHz,
    # so the 0.1 us reset pulse costs ~10% uncompensated
    assert 0.05 < raw.summary["max_rel_err_in_band"] < 0.12
    assert comp.summary["max_rel_err_in_band"] < 0.005
    assert_record_lists_its_files(raw, tmp_path / "raw")
    # the comparison table flags exactly the grid points the summary counts,
    # and the sweep starts below the leak floor
    lines = (tmp_path / "raw" / "comparison.csv").read_text().splitlines()
    assert lines[0] == "t_s,i_model_A,i_decoded_A,rel_err,flag"
    flags = [row.rsplit(",", 1)[1] for row in lines[1:]]
    assert flags[0] == "below_floor"
    assert flags.count("below_floor") == raw.summary["grid_points_below_floor"] > 0
    assert flags.count("above_valid") == raw.summary["grid_points_above_valid"] > 0
    assert set(flags) == {"ok", "below_floor", "above_valid"}


def test_comparison_flag_is_judged_on_the_rectified_current(tmp_path):
    # a source_p monitor takes negative currents: -1 uA sits at the
    # validity bound, +1 uA is blocked, -2 uA lies past the bound
    model = np.array([-1e-6, 1e-6, -2e-6, -1e-12, -1e-9, 0.0, -0.0])
    flags = ["ok", "below_floor", "above_valid", "below_floor", "ok", "below_floor", "below_floor"]
    for config, sign in ((CfcConfig(polarity=Polarity.SOURCE_P), 1.0), (CfcConfig(), -1.0)):
        # one flat segment per grid point 0..6, decoded exactly at each
        signal = CurrentSignal(np.arange(7.0), sign * model, sign * model, 7.0)
        recon = ReconstructedSignal(np.arange(7.0), sign * model, np.zeros(7, dtype=np.uint8))
        grid, rel, flag, path = presets._compare(tmp_path, config, signal, recon, 6.0, 7)
        assert grid.tolist() == list(range(7))
        assert flag.tolist() == flags
        assert np.array_equal(rel, np.where(model != 0, 0.0, np.nan), equal_nan=True)
        assert [row.rsplit(",", 1)[1] for row in path.read_text().splitlines()[1:]] == flags


def test_fig6_monitors_neuron_through_range_switch(tmp_path):
    result = run_preset("fig6", tmp_path, seed=0)
    s = result.summary
    assert 3 <= s["neuron_spikes"] <= 30
    assert s["high_range_events"] >= s["neuron_spikes"]  # switch rides each spike
    assert s["events"] > 1000
    for name in ("input_spikes.csv", "output_spikes.csv", "truth.csv",
                 "events.csv", "recon.csv", "comparison.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary_file = json.loads((tmp_path / "summary.json").read_text())
    assert summary_file["neuron_spikes"] == s["neuron_spikes"]
    assert_record_lists_its_files(result, tmp_path)


def test_fig7_summary_reports_tau(tmp_path):
    result = run_preset("fig7", tmp_path, seed=0)
    assert result.summary["tau_rel_err"] < 0.05
    assert result.summary["stimulus_tau_s"] == pytest.approx(20e-3)
    assert_record_lists_its_files(result, tmp_path)


@pytest.mark.parametrize("trace", [False, True])
def test_simulate_record_lists_its_files(tmp_path, trace):
    spec = experiment.load_spec({"duration": 0.01, "trace": trace, "stimulus": {"kind": "constant", "i": 3e-9}})
    record = experiment.run_simulate(spec, tmp_path)
    assert (tmp_path / "trace.csv").exists() == trace
    assert_record_lists_its_files(record, tmp_path)


def test_sweep_command_record_lists_its_files(tmp_path, monkeypatch):
    # the command returns an exit code, so the record is taken from its
    # finishing step
    records = []
    monkeypatch.setattr(cli, "finish_run", lambda *args: records.append(experiment.finish_run(*args)))
    out = tmp_path / "swp"
    assert main(["sweep", "--start", "1e-9", "--stop", "2e-8", "--steps", "4", "--dwell", "0.01",
                 "--out", str(out)]) == 0
    (record,) = records
    assert_record_lists_its_files(record, out)


def test_fig7_imports_numpy_alone(tmp_path):
    # numpy is the one runtime dependency, and fig7's decay fit is the
    # preset most likely to pull in another package
    code = ("import sys; before = {m.split('.')[0] for m in sys.modules}; "
            "from cfcsim.presets import run_preset; run_preset('fig7', sys.argv[1], seed=7); "
            "print(sorted({m.split('.')[0] for m in sys.modules} - before - set(sys.stdlib_module_names)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['cfcsim', 'numpy']"


def test_unknown_preset_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown preset"):
        run_preset("fig99", tmp_path)
