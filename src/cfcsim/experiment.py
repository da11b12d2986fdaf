"""Experiment descriptions: JSON loading, validation and execution.

An experiment file is a flat JSON object mirroring the field names of
the runtime types; unknown keys anywhere are configuration errors so
typos fail fast::

    {
      "name": "constant-demo",
      "duration": 1.0,
      "seed": 0,
      "trace": false,
      "config": {"i_sw": 1e-8},
      "ack": {"latency": 0.0, "jitter": 0.0},
      "stimulus": {"kind": "constant", "i": 1e-9}
    }

Every experiment resolves to fully concrete objects (or fails) before
any simulation starts, and all randomness derives from the single seed.
``cfcsim simulate`` writes its ``--seed``, ``--duration`` and ``--trace``
into the description as those keys, so they are checked as the keys are.
A monitored stream is decoded once, by :func:`run_monitor`; a sweep's
per-step means are read off that decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import formats
from .core import CfcConfig, ConfigError, _number, dead_time
from .decoder import ReconstructedSignal, SweepPoint, reconstruct, sweep_analysis
from .simulator import AckModel, EventStream, power_estimate, simulate, state_trace
from .stimulus import (
    CurrentSignal,
    SpikeTrain,
    constant,
    dpi_synapse,
    pfet_gate_sweep,
    poisson_train,
    regular_train,
    staircase_sweep,
)

DEFAULT_SEED = 0


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully resolved run description."""

    name: str
    config: CfcConfig
    stimulus: CurrentSignal
    duration: float
    ack: AckModel
    trace: bool = False


def _reject_unknown(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return d[key]


#: Description keys whose values are integers; every other numeric key is a float.
_INTEGER_KEYS = {"steps", "points_per_decade", "seed"}


def _numbers(desc: dict, required: tuple, optional: dict, context: str, also: tuple = ()) -> dict:
    """The numeric values of a stimulus, spike-train or ack description, by key.

    Every key of ``required`` must be present; an absent key of
    ``optional`` takes its default.  Each value is checked with
    :func:`~cfcsim.core._number` and returned as an int under
    ``_INTEGER_KEYS``, else as a float; a null is kept, as None, only
    where the default is None.  Keys other than these and ``also`` are
    refused.
    """
    _reject_unknown(desc, {*required, *optional, *also}, context)
    values = {key: _require(desc, key, context) for key in required}
    values.update((key, desc.get(key, default)) for key, default in optional.items())
    for key, value in values.items():
        if value is not None or key in required or optional[key] is not None:
            integer = key in _INTEGER_KEYS
            value = _number(value, key, context, integer=integer)
            values[key] = value if integer else float(value)
    return values


def _build_train(desc: dict, duration: float, seed: int) -> SpikeTrain:
    if not isinstance(desc, dict):
        raise ConfigError(f"spike train must be an object with a 'kind' key, got {desc!r}")
    kind = _require(desc, "kind", "spike train")
    context = f"{kind} spike train"
    if kind == "explicit":
        _reject_unknown(desc, {"kind", "times"}, context)
        times = _require(desc, "times", context)
        if not isinstance(times, list):
            raise ConfigError(f"{context}: 'times' must be a list of numbers, got {times!r}")
        return SpikeTrain(np.asarray([_number(t, "times", context) for t in times], dtype=float))
    # each generated kind's function, required keys and optional keys with
    # their defaults; a poisson train's seed defaults to the run's
    kinds = {"regular": (regular_train, ("rate",), {}), "poisson": (poisson_train, ("rate",), {"seed": seed})}
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown spike train kind {kind!r}")
    make, required, optional = kinds[kind]
    return make(duration=duration, **_numbers(desc, required, optional, context, ("kind",)))


def build_stimulus(
    desc: dict,
    duration: Optional[float],
    seed: int,
) -> tuple[CurrentSignal, float]:
    """Build the stimulus named by a description dict.

    Returns the signal and the resolved run duration (staircases define
    their own span).
    """
    if not isinstance(desc, dict):
        raise ConfigError("stimulus must be an object with a 'kind' key")
    kind = _require(desc, "kind", "stimulus")
    context = f"{kind} stimulus"
    # each kind's generator, required keys and optional keys with their
    # defaults; built per call, so a generator name rebound since import
    # (a tracer's wrapper) is the one called
    kinds = {
        "constant": (constant, ("i",), {}),
        "staircase": (staircase_sweep, ("start", "stop", "steps", "dwell"), {}),
        "pfet_sweep": (pfet_gate_sweep, ("vg_start", "vg_stop", "i0", "slope_per_decade", "i_sat"),
                       {"vg_ref": None, "points_per_decade": 100}),
        "dpi_synapse": (dpi_synapse, ("tau", "weight_jump", "i_base"), {"resolution": None}),
    }
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown stimulus kind {kind!r}")
    make, required, optional = kinds[kind]
    values = _numbers(desc, required, optional, context, ("kind", "train") if kind == "dpi_synapse" else ("kind",))

    if kind == "staircase":
        signal = make(**values)
        if duration is not None and duration > signal.end:
            raise ConfigError(f"duration {duration} exceeds the staircase span {signal.end}")
        return signal, duration if duration is not None else signal.end
    if duration is None:
        raise ConfigError(f"{context} needs an explicit duration")
    if kind == "dpi_synapse":
        values["spikes"] = _build_train(_require(desc, "train", context), duration, seed)
    return make(duration=duration, **values), duration


def read_json_object(path: Union[str, Path]) -> dict:
    """Parse a UTF-8 JSON file whose top level must be an object."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} ({exc.object[exc.start]:#04x}) is not UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def load_converter(raw: dict, context: str) -> tuple[CfcConfig, AckModel]:
    """Check the top-level keys of an experiment description and build
    its converter: the ``config`` and the ``ack`` model seeded from
    ``seed``.  The stimulus is not read."""
    _reject_unknown(
        raw, {"name", "config", "stimulus", "duration", "ack", "seed", "trace"}, context
    )
    seed = _number(raw.get("seed", DEFAULT_SEED), "seed", context, integer=True)

    cfg_overrides = raw.get("config", {})
    if not isinstance(cfg_overrides, dict):
        raise ConfigError(f"{context}: 'config' must be an object")
    config = CfcConfig.from_dict(cfg_overrides)

    ack_desc = raw.get("ack", {})
    if not isinstance(ack_desc, dict):
        raise ConfigError(f"{context}: 'ack' must be an object")
    ack = AckModel(**_numbers(ack_desc, (), {"latency": 0.0, "jitter": 0.0}, "ack model"), seed=seed)
    return config, ack


def load_spec(raw: dict, context: str = "experiment spec") -> ExperimentSpec:
    """Resolve a parsed experiment description; ``context`` names it in errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: top level must be a JSON object")
    config, ack = load_converter(raw, context)
    duration = raw.get("duration")
    duration = float(_number(duration, "duration", context)) if duration is not None else None

    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError(f"{context}: 'trace' must be true or false, got {trace!r}")
    name = raw.get("name", "run")
    if not isinstance(name, str):
        raise ConfigError(f"{context}: 'name' must be a string, got {name!r}")

    stimulus_desc = _require(raw, "stimulus", context)
    signal, duration = build_stimulus(stimulus_desc, duration, ack.seed)
    return ExperimentSpec(
        name=name,
        config=config,
        stimulus=signal,
        duration=duration,
        ack=ack,
        trace=trace,
    )


@dataclass(frozen=True)
class RunRecord:
    """A run's output directory, its files as written (``summary.json`` last) and its summary."""

    out_dir: Path
    files: list[Path]
    summary: dict


def output_dir(path: Union[str, Path]) -> Path:
    """The directory ``path``, created with its parents if needed."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def compensation_for(config: CfcConfig, ack: AckModel, compensate: bool) -> float:
    """What ``--compensate`` subtracts from every interval: the mean dead time, else 0."""
    return dead_time(config, ack) if compensate else 0.0


def finish_run(out: Path, files: list[Path], summary: dict, config: CfcConfig, ack: AckModel,
               compensation_s: Optional[float] = None) -> RunRecord:
    """Add the keys every summary shares (``seed``, ``config`` and, for a
    run that decodes, ``compensation_s``) to ``summary``, write it to
    ``summary.json`` after ``files`` and return the run's record."""
    summary.update(seed=ack.seed, config=config.to_dict())
    if compensation_s is not None:
        summary["compensation_s"] = compensation_s
    files.append(formats.write_summary_json(out / "summary.json", summary))
    return RunRecord(out, files, summary)


def run_simulate(spec: ExperimentSpec, out_dir: Union[str, Path]) -> RunRecord:
    """Execute an experiment and emit its files into ``out_dir``.

    Writes ``events.csv``, ``truth.csv``, when the spec asks for it
    ``trace.csv``, and ``summary.json``.  Deterministic for a fixed seed.
    """
    out = output_dir(out_dir)
    events = simulate(spec.config, spec.stimulus, spec.duration, ack=spec.ack).events
    files = [formats.write_events_csv(out / "events.csv", events),
             formats.write_signal_csv(out / "truth.csv", spec.stimulus)]
    if spec.trace:
        trace = state_trace(spec.config, spec.stimulus, spec.duration, events, spec.ack)
        files.append(formats.write_trace_csv(out / "trace.csv", trace))
    n = len(events)
    span = float(events.t_req[-1] - events.t_req[0]) if n >= 2 else 0.0
    return finish_run(out, files, {
        "name": spec.name,
        "duration_s": spec.duration,
        "event_count": n,
        "mean_rate_hz": n / spec.duration,
        "isi_mean_rate_hz": (n - 1) / span if span > 0 else None,
        "power_w": power_estimate(events, spec.duration),
        "ack": {"latency": spec.ack.latency, "jitter": spec.ack.jitter},
    }, spec.config, spec.ack)


def run_monitor(out: Path, config: CfcConfig, signal: CurrentSignal, duration: float, ack: AckModel,
                compensation: float) -> tuple[EventStream, ReconstructedSignal, list[Path]]:
    """Monitor ``signal`` over [0, duration] and decode its events: writes
    ``truth.csv``, ``events.csv`` and ``recon.csv`` into the directory
    ``out`` and returns the events, the reconstruction and those files."""
    events = simulate(config, signal, duration, ack=ack).events
    recon = reconstruct(events, config, compensation=compensation)
    files = [formats.write_signal_csv(out / "truth.csv", signal), formats.write_events_csv(out / "events.csv", events),
             formats.write_recon_csv(out / "recon.csv", recon)]
    return events, recon, files


def run_sweep(
    config: CfcConfig,
    ack: AckModel,
    start: float,
    stop: float,
    steps: int,
    dwell: float,
    out_dir: Union[str, Path],
    compensation: float = 0.0,
) -> tuple[list[SweepPoint], dict, list[Path]]:
    """Run one staircase sweep, decode it once and average the decode per step.

    Writes :func:`run_monitor`'s files and ``sweep.csv`` into ``out_dir``
    and returns the per-step points, the sweep's counts (``events``,
    ``steps_measured``, ``steps_no_measurement``) and the written files;
    the caller writes its own summary.
    """
    out = output_dir(out_dir)
    signal = staircase_sweep(start, stop, steps, dwell)
    events, recon, files = run_monitor(out, config, signal, signal.end, ack, compensation)
    points = sweep_analysis(events, recon, signal)
    measured = sum(1 for p in points if p.decoded is not None)
    counts = {"events": len(events), "steps_measured": measured, "steps_no_measurement": len(points) - measured}
    return points, counts, [*files, formats.write_sweep_csv(out / "sweep.csv", points)]


def run_decode(
    events_path: Union[str, Path],
    config: CfcConfig,
    out_dir: Union[str, Path],
    compensation: float = 0.0,
) -> Path:
    """Decode an events file into ``recon.csv`` inside ``out_dir``."""
    out = output_dir(out_dir)
    events = formats.read_events_csv(events_path)
    recon = reconstruct(events, config, compensation=compensation)
    return formats.write_recon_csv(out / "recon.csv", recon)
