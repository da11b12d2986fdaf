"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance
and printing a PASS/FAIL line (visible with ``pytest -s``), so the whole
contract can be audited in one run:

    pytest -s tests/test_acceptance.py
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from cfcsim.cli import main
from cfcsim.core import CfcConfig, ideal_isi, select_ranges
from cfcsim.decoder import fit_exponential, reconstruct
from cfcsim.experiment import load_spec, run_decode, run_simulate
from cfcsim.presets import PRESETS, run_preset
from cfcsim.simulator import power_estimate, simulate
from cfcsim.stimulus import SpikeTrain, constant, dpi_synapse
from oracle import _fastest_ideal_isi, from_breakpoints, oracle_simulate

DEFAULTS = CfcConfig()
IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _isi_rate(events) -> float:
    """Rate estimate free of end-of-run quantization: (N-1) / span."""
    assert len(events) >= 2
    return (len(events) - 1) / float(events.t_req[-1] - events.t_req[0])


def _decoded_mean(config, i, compensation=0.0, cycles=14):
    isi = config.caps[select_ranges(config, [i])[0]] * config.delta_v / i
    duration = cycles * (isi + config.t_rst)
    ev = simulate(config, constant(i, duration), duration).events
    rec = reconstruct(ev, config, compensation=compensation)
    return float(np.mean(rec.i_est))


def test_criterion_01_anchor_rates():
    t0 = time.perf_counter()
    cases = [
        (1e-12, 1.05, 10.0, "1 pA -> 10 Hz"),
        (10e-9 * (1 - 1e-9), 3e-3, 1e5, "10 nA low-range limit -> 100 kHz"),
        (10e-9, 0.055, 1e3, "10 nA scaled -> 1 kHz"),
        (1e-6, 3e-3, 1e5, "1 uA -> 100 kHz"),
    ]
    worst = 0.0
    for i, duration, expected, label in cases:
        ev = simulate(IDEAL, constant(i, duration), duration).events
        rate = _isi_rate(ev)
        rel = abs(rate - expected) / expected
        worst = max(worst, rel)
        assert rel <= 1e-3, f"{label}: {rate} Hz"
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 1 (anchor rates)",
        worst <= 1e-3 and elapsed < 5.0,
        f"worst rate error {worst:.2e} (tol 1e-3), runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_six_decade_linearity():
    t0 = time.perf_counter()
    currents = np.logspace(-11, -6, 61)
    worst_ideal = max(
        abs(_decoded_mean(IDEAL, i) - i) / i for i in currents
    )
    worst_default = max(
        abs(_decoded_mean(DEFAULTS, i) - i) / i for i in currents
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 2 (six-decade linearity)",
        worst_ideal <= 0.005 and worst_default <= 0.02 and elapsed < 60.0,
        f"ideal {worst_ideal:.2e} (tol 5e-3), defaults {worst_default:.2e} (tol 2e-2), "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_03_dead_zone():
    counts = {}
    for i in (1e-12, 5.4e-12, 5.5e-12):
        counts[i] = len(simulate(DEFAULTS, constant(i, 10.0), 10.0).events)
    _verdict(
        "criterion 3 (dead zone)",
        all(n == 0 for n in counts.values()),
        f"events over 10 s at/below the floor: {counts}",
    )


def test_criterion_04_high_current_distortion():
    read_low_1u = 1.0 - _decoded_mean(DEFAULTS, 1e-6, cycles=400) / 1e-6
    read_low_4u = 1.0 - _decoded_mean(DEFAULTS, 4e-6, cycles=400) / 4e-6
    comp_1u = abs(_decoded_mean(DEFAULTS, 1e-6, compensation=DEFAULTS.t_rst, cycles=400) - 1e-6) / 1e-6
    comp_4u = abs(_decoded_mean(DEFAULTS, 4e-6, compensation=DEFAULTS.t_rst, cycles=400) - 4e-6) / 4e-6
    ok = (
        abs(read_low_1u - 0.0099) <= 0.0005
        and abs(read_low_4u - 0.0385) <= 0.001
        and comp_1u <= 1e-4
        and comp_4u <= 1e-4
    )
    _verdict(
        "criterion 4 (dead-time distortion)",
        ok,
        f"uncompensated read-low 1uA {read_low_1u * 100:.3f}% (0.99+-0.05), "
        f"4uA {read_low_4u * 100:.3f}% (3.85+-0.1); compensated {comp_1u:.1e}/{comp_4u:.1e} <= 1e-4",
    )


def test_criterion_05_range_switch_factor():
    below = simulate(IDEAL, constant(DEFAULTS.i_sw * (1 - 1e-9), 2e-3), 2e-3).events
    at = simulate(IDEAL, constant(DEFAULTS.i_sw, 0.11), 0.11).events
    ratio = _isi_rate(below) / _isi_rate(at)
    flags_ok = np.all(below.sf == 0) and np.all(at.sf == 1)
    _verdict(
        "criterion 5 (range-switch factor)",
        abs(ratio - 100.0) / 100.0 <= 0.01 and flags_ok,
        f"rate ratio {ratio:.4f} (100 +- 1%), sf flips low->high at the boundary: {flags_ok}",
    )


def test_criterion_06_dpi_time_constant_recovery():
    tau, peak, spike_t = 20e-3, 1e-9, 1e-3
    sig = dpi_synapse(SpikeTrain(np.array([spike_t])), tau, peak, 0.0, 0.12)
    ev = simulate(DEFAULTS, sig, 0.12).events
    rec = reconstruct(ev, DEFAULTS)
    fit = fit_exponential(rec, (spike_t + 1e-3, spike_t + 0.08))
    rel = abs(fit.tau - tau) / tau
    _verdict(
        "criterion 6 (synapse tau recovery)",
        rel <= 0.05,
        f"fitted tau {fit.tau * 1e3:.3f} ms vs {tau * 1e3:.0f} ms, error {rel * 100:.2f}% (tol 5%)",
    )


def test_criterion_07_five_range_sweep_presets(tmp_path):
    result = run_preset("fig4", tmp_path / "fig4", seed=0)
    worst = 0.0
    n_dead = 0
    for sweep_dir in sorted((tmp_path / "fig4").glob("sweep*")):
        rows = (sweep_dir / "sweep.csv").read_text().splitlines()[1:]
        for row in rows:
            level_s, decoded_s, _ = row.split(",")
            level = float(level_s)
            if decoded_s == "":
                assert level <= DEFAULTS.i_leak_floor, (
                    f"no measurement above the floor: {level}"
                )
                n_dead += 1
                continue
            if 10e-12 <= level <= DEFAULTS.i_max_valid:
                worst = max(worst, abs(float(decoded_s) - level) / level)
    _verdict(
        "criterion 7 (five-range sweeps)",
        worst < 0.02 and n_dead >= 1 and len(result.summary["sweeps"]) == 5,
        f"max in-band step error {worst * 100:.3f}% (tol 2%), "
        f"{n_dead} below-floor step(s) report no measurement",
    )


def _oracle_suite():
    """Twenty piecewise-linear stimuli in the 1-100 nA band.

    Values are deliberately non-round so no threshold crossing or event
    coincides with a segment boundary to within rounding; at such
    measure-zero alignments the two (both correct) numerical paths may
    legitimately disagree about which side of the boundary an event
    falls on.
    """
    level = 1.0137e-9  # de-rounding base unit
    dwell_unit = 1.0231e-4
    suite = []
    for k in (1.0, 2.2, 4.6, 6.8, 9.5, 15.0, 40.0, 98.0):
        i = k * level
        suite.append(constant(i, 12.37 * ideal_isi(IDEAL, i)))
    ramps = [
        [(0.0, 1.0 * level), (12 * dwell_unit, 9.2 * level)],
        [(0.0, 9.2 * level), (12 * dwell_unit, 1.0 * level)],
        [(0.0, 2.1 * level), (10 * dwell_unit, 49.0 * level)],
        [(0.0, 49.0 * level), (10 * dwell_unit, 2.1 * level)],
        [(0.0, 5.3 * level), (6 * dwell_unit, 14.6 * level), (12 * dwell_unit, 5.3 * level)],
        [(0.0, 1.1 * level), (12 * dwell_unit, 97.0 * level)],
    ]
    for pts in ramps:
        suite.append(from_breakpoints(pts, "linear", end=pts[-1][0]))
    stairs = [
        ([3.1, 8.2, 2.3], 4 * dwell_unit),
        ([19.5, 5.1], 6 * dwell_unit),
        ([1.05, 11.8, 1.05], 4 * dwell_unit),
        ([9.79, 9.93], 6 * dwell_unit),   # straddles i_sw after de-rounding
        ([2.2, 6.1, 17.9, 58.0], 3 * dwell_unit),
        ([78.0, 8.3, 78.0], 4 * dwell_unit),
    ]
    for levels, dwell in stairs:
        pts = [(k * dwell, lv * level) for k, lv in enumerate(levels)]
        suite.append(from_breakpoints(pts, "step", end=len(levels) * dwell))
    return suite


def test_criterion_08_oracle_equivalence():
    suite = _oracle_suite()
    assert len(suite) >= 20
    worst_ratio = 0.0
    total_events = 0
    oracle_digest = hashlib.sha256()
    for stim in suite:
        duration = stim.end
        dt = _fastest_ideal_isi(IDEAL, stim, duration) / 1e5
        sim = simulate(IDEAL, stim, duration).events
        orc = oracle_simulate(IDEAL, stim, duration, dt)
        oracle_digest.update(orc.t_req.tobytes())
        oracle_digest.update(orc.sf.tobytes())
        assert len(sim) == len(orc), f"count mismatch: {len(sim)} vs {len(orc)}"
        total_events += len(sim)
        if len(sim):
            gap = float(np.abs(sim.t_req - orc.t_req).max())
            worst_ratio = max(worst_ratio, gap / (2 * dt))
            assert gap <= 2 * dt, f"event time gap {gap} > 2*dt={2 * dt}"
            assert np.array_equal(sim.sf, orc.sf)
    # the reference itself must not drift: its events are pinned bit for bit
    assert oracle_digest.hexdigest() == json.loads(PRESET_DIGESTS.read_text())["oracle_events"]
    _verdict(
        "criterion 8 (oracle equivalence)",
        worst_ratio <= 1.0,
        f"{len(suite)} stimuli, {total_events} events, worst gap {worst_ratio:.2e} of the 2*dt budget",
    )


def test_criterion_09_power_figure():
    ev = simulate(IDEAL, constant(1e-6, 1.0), 1.0).events
    power = power_estimate(ev, 1.0)
    rel = abs(power - 36e-9) / 36e-9
    _verdict(
        "criterion 9 (power at 100 kHz)",
        rel <= 0.01,
        f"{power * 1e9:.4f} nW vs 36 nW, error {rel:.2e} (tol 1%)",
    )


#: Recorded SHA-256 of every benchmark output file; the staircase and
#: neuron workloads are the fig4 and fig6 presets.
DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
RECORDED_PRESETS = {"fig4": "staircase", "fig6": "neuron"}
#: The same for the fig5 and fig7 presets at seed 7, which no benchmark
#: workload runs (fig7's ``fit.txt`` comes from ``fit_exponential``'s
#: search in numpy; the file notes the versions it was recorded with),
#: and for the ``simulate --trace`` run of ``SOURCE_P_HYSTERESIS_SPEC``; its
#: ``oracle_events`` is the SHA-256 of the oracle's ``t_req`` and ``sf``
#: bytes over ``_oracle_suite()`` (criterion 08).
PRESET_DIGESTS = Path(__file__).resolve().parent / "preset_digests.json"


def test_criterion_10_preset_determinism(tmp_path):
    seed = 7
    recorded = json.loads(DIGESTS.read_text())
    pinned = json.loads(PRESET_DIGESTS.read_text())
    assert pinned["seed"] == seed
    mismatches = []
    slowest = 0.0
    for name in sorted(PRESETS):
        a_dir, b_dir = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        t0 = time.perf_counter()
        run_preset(name, a_dir, seed=seed)
        slowest = max(slowest, time.perf_counter() - t0)
        run_preset(name, b_dir, seed=seed)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            if (a_dir / rel).read_bytes() != (b_dir / rel).read_bytes():
                mismatches.append(f"{name}/{rel}")
        # and byte-identical to the recorded outputs of this seed
        if name in RECORDED_PRESETS:
            record = recorded[RECORDED_PRESETS[name]]
            expected = {**record["common"], **record["by_seed"][str(seed)]}
        else:
            expected = pinned[name]
        assert sorted(expected) == [rel.as_posix() for rel in a_files]
        for rel, digest in expected.items():
            if hashlib.sha256((a_dir / rel).read_bytes()).hexdigest() != digest:
                mismatches.append(f"{name}/{rel} (recorded digest)")
    assert slowest < 60.0, f"slowest preset took {slowest:.1f}s"
    _verdict(
        "criterion 10 (preset determinism)",
        not mismatches,
        "all presets rerun byte-identical and match their recorded digests"
        + f" (slowest {slowest:.1f}s < 60s)" if not mismatches else f"differs: {mismatches}",
    )


# the benchmark's roundtrip description: a staircase over both ranges with
# seeded acknowledge jitter, so its flat steps take the jittered batch
ROUNDTRIP_SPEC = {
    "name": "roundtrip",
    "config": {},
    "ack": {"latency": 0.1e-6, "jitter": 0.2e-6},
    "stimulus": {"kind": "staircase", "start": 12.5e-9, "stop": 3.2e-6, "steps": 20, "dwell": 0.05},
}


def test_criterion_10_jittered_roundtrip_determinism(tmp_path):
    seed = 7
    spec = load_spec(dict(ROUNDTRIP_SPEC, seed=seed))
    run_simulate(spec, tmp_path)
    run_decode(tmp_path / "events.csv", spec.config, tmp_path, compensation=spec.config.t_rst + spec.ack.latency)
    record = json.loads(DIGESTS.read_text())["roundtrip"]
    expected = {**record["common"], **record["by_seed"][str(seed)]}
    assert sorted(expected) == sorted(p.name for p in tmp_path.iterdir())
    mismatches = [
        name for name, digest in expected.items()
        if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != digest
    ]
    _verdict(
        "criterion 10 (jittered roundtrip determinism)",
        not mismatches,
        f"events, decode and summary match the recorded digests of seed {seed}"
        if not mismatches else f"differs: {mismatches}",
    )


# no preset or benchmark workload runs the source polarity or hysteresis:
# a signed staircase from -20 nA up to +5 nA, whose rectified current
# falls through i_sw, the band edge (7 nA), the leak floor and zero into
# the blocked sign, with seeded acknowledge jitter
SOURCE_P_HYSTERESIS_SPEC = {
    "name": "source-p-hysteresis",
    "seed": 7,
    "config": {"polarity": "source_p", "hysteresis": 0.3},
    "ack": {"latency": 1e-7, "jitter": 2e-7},
    "stimulus": {"kind": "staircase", "start": -2e-8, "stop": 5e-9, "steps": 26, "dwell": 0.005},
}


def test_criterion_10_source_p_hysteresis_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SOURCE_P_HYSTERESIS_SPEC))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(spec), "--out", str(out), "--trace"]) == 0
    expected = json.loads(PRESET_DIGESTS.read_text())["simulate_source_p_hysteresis"]
    assert sorted(expected) == sorted(p.name for p in out.iterdir())
    mismatches = [
        name for name, digest in expected.items()
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]
    _verdict(
        "criterion 10 (source polarity and hysteresis determinism)",
        not mismatches,
        "events, trace, truth and summary match the recorded digests"
        if not mismatches else f"differs: {mismatches}",
    )


# `cfcsim sweep` through both ranges, from a step under the leak floor,
# without and with --compensate, and fig4, fig5 and fig6 decoded with
# compensation (fig4 writes one subdirectory per sweep)
CLI_PINNED_RUNS = {
    "sweep": ["sweep", "--start", "1e-12", "--stop", "2e-6", "--steps", "8", "--dwell", "0.01", "--seed", "7"],
    "sweep_compensate": ["sweep", "--start", "1e-12", "--stop", "2e-6", "--steps", "8", "--dwell", "0.01",
                         "--seed", "7", "--compensate"],
    "fig4_compensate": ["preset", "fig4", "--seed", "7", "--compensate"],
    "fig5_compensate": ["preset", "fig5", "--seed", "7", "--compensate"],
    "fig6_compensate": ["preset", "fig6", "--seed", "7", "--compensate"],
}


def test_criterion_10_cli_sweep_and_compensated_preset_determinism(tmp_path):
    pinned = json.loads(PRESET_DIGESTS.read_text())
    mismatches = []
    for key, argv in CLI_PINNED_RUNS.items():
        out = tmp_path / key
        assert main([*argv, "--out", str(out)]) == 0
        expected = pinned[key]
        assert sorted(expected) == sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        mismatches += [
            f"{key}/{name}" for name, digest in expected.items()
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
        ]
    _verdict(
        "criterion 10 (sweep and compensated preset determinism)",
        not mismatches,
        "sweep with and without --compensate and fig4, fig5 and fig6 --compensate match the recorded digests"
        if not mismatches else f"differs: {mismatches}",
    )
