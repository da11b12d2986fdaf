"""The pipelines the benchmark times and the checks on their outputs.

Each workload is one closed-loop caller: a run starts when the previous
one has ended.  The pipelines call cfcsim through module attributes
(``presets.run_preset``, ``experiment.load_spec``, ...) so that a tracer
that rebinds those attributes sees the calls.  The checks run outside
the traced span of a run, so they add no spans of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from cfcsim import experiment, formats, presets, simulator

# In-band decode tolerance of tests/test_acceptance.py: criterion 7 for
# staircase sweeps and criterion 2 for the uncompensated default config.
DECODE_TOL = 0.02
# Lower edge of the band criterion 7 checks; the upper edge is i_max_valid.
BAND_LOW_A = 10e-12
# Fraction of each staircase step discarded as settling, as sweep_analysis does.
SETTLE_FRACTION = 0.2

ROUNDTRIP_SPEC = {
    "name": "roundtrip",
    "config": {},
    "ack": {"latency": 0.1e-6, "jitter": 0.2e-6},
    "stimulus": {"kind": "staircase", "start": 12.5e-9, "stop": 3.2e-6, "steps": 20, "dwell": 0.05},
}


@dataclass
class Outcome:
    """What the checks found in one run's output directory."""

    failures: list[str] = field(default_factory=list)
    events: int = 0
    events_high: int = 0
    max_rel_err: float = float("nan")


@dataclass
class Workload:
    name: str
    run: Callable[[Path, int], None]
    check: Callable[[Path, int], Outcome]


def _table(path: Path) -> np.ndarray:
    """Numeric CSV body as a 2-D array (header skipped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_events(t: np.ndarray, duration: float, where: str, out: Outcome) -> None:
    if t.size and not np.all(np.diff(t) > 0):
        out.failures.append(f"{where}: event times are not strictly increasing")
    if t.size and (t[0] < 0.0 or t[-1] > duration):
        out.failures.append(
            f"{where}: event times span [{t[0]!r}, {t[-1]!r}], outside [0, {duration!r}]"
        )


def _check_tolerance(out: Outcome) -> None:
    if not out.max_rel_err <= DECODE_TOL:
        out.failures.append(f"in-band decode error {out.max_rel_err!r} exceeds {DECODE_TOL}")


def _step_mean_errors(truth: np.ndarray, ev_t: np.ndarray, recon: np.ndarray, i_max: float) -> list[float]:
    """Relative error of the mean decoded sample over the settled part of
    each in-band flat step of a staircase truth signal.

    A sample counts for a step when both events of its interval lie in
    the step's window, as in ``sweep_analysis``.
    """
    t, i = truth[:, 0], truth[:, 1]
    a, b = ev_t[:-1], ev_t[1:]
    errs = []
    for k in range(len(t) - 1):
        if not (t[k + 1] > t[k] and i[k + 1] == i[k]):
            continue
        level = i[k]
        if not BAND_LOW_A <= level <= i_max:
            continue
        w0 = t[k] + SETTLE_FRACTION * (t[k + 1] - t[k])
        inside = (a >= w0) & (b <= t[k + 1])
        if not inside.any():
            errs.append(float("inf"))
            continue
        errs.append(abs(float(recon[inside, 1].mean()) - level) / level)
    return errs


def _interval_mean_errors(ev: np.ndarray, recon: np.ndarray, truth: np.ndarray, config: dict) -> np.ndarray:
    """Relative error of each decoded sample against the exact mean of the
    piecewise-linear truth over its inter-event interval.

    Only intervals whose truth stays inside (leak floor, i_max_valid],
    does not cross the range threshold, and whose two events carry the
    same range flag are in band.
    """
    tt, ii = truth[:, 0], truth[:, 1]
    width = np.diff(tt)
    slope = np.divide(np.diff(ii), width, out=np.zeros_like(width), where=width > 0)
    q = np.concatenate(([0.0], np.cumsum(0.5 * (ii[1:] + ii[:-1]) * width)))

    def charge(t):
        j = np.clip(np.searchsorted(tt, t, side="right") - 1, 0, tt.size - 2)
        h = t - tt[j]
        return q[j] + ii[j] * h + 0.5 * slope[j] * h * h

    a, b = ev[:-1, 0], ev[1:, 0]
    mean = (charge(b) - charge(a)) / (b - a)
    lo = np.minimum(np.interp(a, tt, ii), np.interp(b, tt, ii))
    hi = np.maximum(np.interp(a, tt, ii), np.interp(b, tt, ii))
    k = np.searchsorted(a, tt, side="right") - 1
    inner = (k >= 0) & (k < a.size) & (tt < b[np.clip(k, 0, a.size - 1)])
    np.minimum.at(lo, k[inner], ii[inner])
    np.maximum.at(hi, k[inner], ii[inner])
    i_sw = config["i_sw"]
    in_band = (
        (lo > config["i_leak_floor"])
        & (hi <= config["i_max_valid"])
        & ~((lo < i_sw) & (hi > i_sw))
        & (ev[:-1, 2] == ev[1:, 2])
    )
    return np.abs(recon[in_band, 1] - mean[in_band]) / mean[in_band]


# --- staircase: run_preset("fig4") -----------------------------------------


def run_staircase(out: Path, seed: int) -> None:
    presets.run_preset("fig4", out, seed=seed)


def check_staircase(out: Path, seed: int) -> Outcome:
    res = Outcome()
    summary = json.loads((out / "summary.json").read_text())
    config = summary["config"]
    errs = []
    for k, stats in enumerate(summary["sweeps"]):
        where = f"sweep{k + 1}"
        ev = _table(out / where / "events.csv")
        duration = float(_table(out / where / "truth.csv")[-1, 0])
        _check_events(ev[:, 0], duration, where, res)
        if len(ev) != stats["events"]:
            res.failures.append(f"{where}: {len(ev)} events on disk, summary says {stats['events']}")
        res.events += len(ev)
        res.events_high += int(ev[:, 2].sum())
        for row in (out / where / "sweep.csv").read_text().splitlines()[1:]:
            level_s, decoded_s, _ = row.split(",")
            level = float(level_s)
            if decoded_s == "":
                if level > config["i_leak_floor"]:
                    res.failures.append(f"{where}: no measurement above the leak floor at {level!r} A")
            elif BAND_LOW_A <= level <= config["i_max_valid"]:
                errs.append(abs(float(decoded_s) - level) / level)
    res.max_rel_err = max(errs)
    _check_tolerance(res)
    return res


# --- neuron: run_preset("fig6") --------------------------------------------


def run_neuron(out: Path, seed: int) -> None:
    presets.run_preset("fig6", out, seed=seed)


def check_neuron(out: Path, seed: int) -> Outcome:
    res = Outcome()
    summary = json.loads((out / "summary.json").read_text())
    ev = _table(out / "events.csv")
    truth = _table(out / "truth.csv")
    recon = _table(out / "recon.csv")
    _check_events(ev[:, 0], float(truth[-1, 0]), "events.csv", res)
    res.events, res.events_high = len(ev), int(ev[:, 2].sum())
    if (res.events, res.events_high) != (summary["events"], summary["high_range_events"]):
        res.failures.append("event counts on disk differ from the summary")
    if len(recon) != len(ev) - 1:
        res.failures.append(f"{len(recon)} decoded samples for {len(ev)} events")
        return res
    errs = _interval_mean_errors(ev, recon, truth, summary["config"])
    res.max_rel_err = float(errs.max()) if errs.size else float("inf")
    _check_tolerance(res)
    return res


# --- roundtrip: load_spec -> run_simulate -> run_decode --------------------


def _roundtrip_spec(seed: int) -> dict:
    return dict(ROUNDTRIP_SPEC, seed=seed)


def run_roundtrip(out: Path, seed: int) -> None:
    spec = experiment.load_spec(_roundtrip_spec(seed))
    experiment.run_simulate(spec, out)
    compensation = spec.config.t_rst + spec.ack.latency
    experiment.run_decode(out / "events.csv", spec.config, out, compensation=compensation)


@cache
def _written_stream(seed: int) -> simulator.EventStream:
    """The event stream run_simulate writes for ``seed``: simulate is
    deterministic, so it is computed once per seed and reused."""
    spec = experiment.load_spec(_roundtrip_spec(seed))
    return simulator.simulate(spec.config, spec.stimulus, spec.duration, ack=spec.ack).events


def check_roundtrip(out: Path, seed: int) -> Outcome:
    res = Outcome()
    summary = json.loads((out / "summary.json").read_text())
    truth = _table(out / "truth.csv")
    ev = _table(out / "events.csv")
    _check_events(ev[:, 0], float(truth[-1, 0]), "events.csv", res)
    res.events, res.events_high = len(ev), int(ev[:, 2].sum())
    if res.events != summary["event_count"]:
        res.failures.append(f"{res.events} events on disk, summary says {summary['event_count']}")
    written = _written_stream(seed)
    read = formats.read_events_csv(out / "events.csv")
    if not (
        np.array_equal(read.t_req, written.t_req)
        and np.array_equal(read.channel, written.channel)
        and np.array_equal(read.sf, written.sf)
    ):
        res.failures.append("read_events_csv does not return the stream that was written")
    recon = _table(out / "recon.csv")
    if len(recon) != len(ev) - 1:
        res.failures.append(f"{len(recon)} decoded samples for {len(ev)} events")
        return res
    errs = _step_mean_errors(truth, ev[:, 0], recon, summary["config"]["i_max_valid"])
    res.max_rel_err = float(max(errs))
    _check_tolerance(res)
    return res


WORKLOADS = {
    w.name: w
    for w in (
        Workload("staircase", run_staircase, check_staircase),
        Workload("neuron", run_neuron, check_neuron),
        Workload("roundtrip", run_roundtrip, check_roundtrip),
    )
}

