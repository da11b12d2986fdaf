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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import formats
from .core import CfcConfig, ConfigError, _number
from .decoder import SweepPoint, reconstruct, sweep_analysis
from .simulator import AckModel, EventStream, SimResult, simulate, power_estimate
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
    seed: int
    trace: bool = False


def _reject_unknown(d: dict, allowed: set[str], context: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {context}")
    return d[key]


def _float(d: dict, key: str, context: str) -> float:
    """The required numeric value under ``key``, as a float."""
    return float(_number(_require(d, key, context), key, context))


def _optional(d: dict, key: str, context: str):
    """The numeric value under ``key``, or None when it is absent or null."""
    value = d.get(key)
    return None if value is None else _number(value, key, context)


def _build_train(desc: dict, duration: float, seed: int) -> SpikeTrain:
    kind = _require(desc, "kind", "spike train")
    context = f"{kind} spike train"
    if kind == "regular":
        _reject_unknown(desc, {"kind", "rate"}, context)
        return regular_train(_float(desc, "rate", context), duration)
    if kind == "poisson":
        _reject_unknown(desc, {"kind", "rate", "seed"}, context)
        train_seed = _number(desc.get("seed", seed), "seed", context, integer=True)
        return poisson_train(_float(desc, "rate", context), duration, train_seed)
    if kind == "explicit":
        _reject_unknown(desc, {"kind", "times"}, context)
        times = _require(desc, "times", context)
        if not isinstance(times, list):
            raise ConfigError(f"{context}: 'times' must be a list of numbers, got {times!r}")
        return SpikeTrain(np.asarray([_number(t, "times", context) for t in times], dtype=float))
    raise ConfigError(f"unknown spike train kind {kind!r}")


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

    if kind == "constant":
        _reject_unknown(desc, {"kind", "i"}, "constant stimulus")
        if duration is None:
            raise ConfigError("constant stimulus needs an explicit duration")
        return constant(_float(desc, "i", "constant stimulus"), duration), duration

    if kind == "staircase":
        _reject_unknown(desc, {"kind", "start", "stop", "steps", "dwell"}, "staircase stimulus")
        signal = staircase_sweep(
            _float(desc, "start", "staircase"),
            _float(desc, "stop", "staircase"),
            _number(_require(desc, "steps", "staircase"), "steps", "staircase", integer=True),
            _float(desc, "dwell", "staircase"),
        )
        if duration is not None and duration > signal.end:
            raise ConfigError(
                f"duration {duration} exceeds the staircase span {signal.end}"
            )
        return signal, duration if duration is not None else signal.end

    if kind == "pfet_sweep":
        _reject_unknown(
            desc,
            {"kind", "vg_start", "vg_stop", "i0", "slope_per_decade", "i_sat", "vg_ref", "points_per_decade"},
            "pfet_sweep stimulus",
        )
        if duration is None:
            raise ConfigError("pfet_sweep stimulus needs an explicit duration")
        signal = pfet_gate_sweep(
            _float(desc, "vg_start", "pfet_sweep"),
            _float(desc, "vg_stop", "pfet_sweep"),
            duration,
            i0=_float(desc, "i0", "pfet_sweep"),
            slope_per_decade=_float(desc, "slope_per_decade", "pfet_sweep"),
            i_sat=_float(desc, "i_sat", "pfet_sweep"),
            vg_ref=_optional(desc, "vg_ref", "pfet_sweep"),
            points_per_decade=_number(
                desc.get("points_per_decade", 100), "points_per_decade", "pfet_sweep", integer=True
            ),
        )
        return signal, duration

    if kind == "dpi_synapse":
        _reject_unknown(
            desc, {"kind", "tau", "weight_jump", "i_base", "resolution", "train"}, "dpi_synapse stimulus"
        )
        if duration is None:
            raise ConfigError("dpi_synapse stimulus needs an explicit duration")
        train = _build_train(_require(desc, "train", "dpi_synapse"), duration, seed)
        signal = dpi_synapse(
            train,
            tau=_float(desc, "tau", "dpi_synapse"),
            weight_jump=_float(desc, "weight_jump", "dpi_synapse"),
            i_base=_float(desc, "i_base", "dpi_synapse"),
            duration=duration,
            resolution=_optional(desc, "resolution", "dpi_synapse"),
        )
        return signal, duration

    raise ConfigError(f"unknown stimulus kind {kind!r}")


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


def load_converter(
    raw: dict, context: str, seed_override: Optional[int] = None
) -> tuple[CfcConfig, AckModel]:
    """Check the top-level keys of an experiment description and build
    its converter: the ``config`` and the ``ack`` model seeded from
    ``seed``.  The stimulus is not read."""
    _reject_unknown(
        raw, {"name", "config", "stimulus", "duration", "ack", "seed", "trace"}, context
    )
    seed = raw.get("seed", DEFAULT_SEED) if seed_override is None else seed_override
    seed = _number(seed, "seed", context, integer=True)

    cfg_overrides = raw.get("config", {})
    if not isinstance(cfg_overrides, dict):
        raise ConfigError(f"{context}: 'config' must be an object")
    config = CfcConfig.from_dict(cfg_overrides)

    ack_desc = raw.get("ack", {})
    if not isinstance(ack_desc, dict):
        raise ConfigError(f"{context}: 'ack' must be an object")
    _reject_unknown(ack_desc, {"latency", "jitter"}, "ack model")
    ack = AckModel(
        latency=float(_number(ack_desc.get("latency", 0.0), "latency", "ack model")),
        jitter=float(_number(ack_desc.get("jitter", 0.0), "jitter", "ack model")),
        seed=seed,
    )
    return config, ack


def load_spec(
    source: Union[str, Path, dict],
    seed_override: Optional[int] = None,
    duration_override: Optional[float] = None,
) -> ExperimentSpec:
    """Parse an experiment description from a JSON file or a dict."""
    if isinstance(source, (str, Path)):
        raw = read_json_object(source)
        context = str(source)
    else:
        raw = source
        context = "experiment spec"
        if not isinstance(raw, dict):
            raise ConfigError(f"{context}: top level must be a JSON object")
    config, ack = load_converter(raw, context, seed_override)
    duration = duration_override if duration_override is not None else raw.get("duration")
    duration = float(_number(duration, "duration", context)) if duration is not None else None

    trace = raw.get("trace", False)
    if not isinstance(trace, bool):
        raise ConfigError(f"{context}: 'trace' must be true or false, got {trace!r}")

    stimulus_desc = _require(raw, "stimulus", context)
    signal, duration = build_stimulus(stimulus_desc, duration, ack.seed)
    return ExperimentSpec(
        name=str(raw.get("name", "run")),
        config=config,
        stimulus=signal,
        duration=duration,
        ack=ack,
        seed=ack.seed,
        trace=trace,
    )


def summarize(spec: ExperimentSpec, result: SimResult) -> dict:
    events = result.events
    n = len(events)
    isi_rate = None
    if n >= 2:
        span = float(events.t_req[-1] - events.t_req[0])
        if span > 0:
            isi_rate = (n - 1) / span
    return {
        "name": spec.name,
        "seed": spec.seed,
        "duration_s": spec.duration,
        "event_count": n,
        "mean_rate_hz": n / spec.duration,
        "isi_mean_rate_hz": isi_rate,
        "power_w": power_estimate(events, spec.duration),
        "config": spec.config.to_dict(),
        "ack": {"latency": spec.ack.latency, "jitter": spec.ack.jitter},
    }


def run_simulate(spec: ExperimentSpec, out_dir: Union[str, Path]) -> dict:
    """Execute an experiment and emit its files into ``out_dir``.

    Writes ``events.csv``, ``truth.csv``, ``summary.json`` and, when the
    spec asks for it, ``trace.csv``.  Deterministic for a fixed seed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = simulate(spec.config, spec.stimulus, spec.duration, ack=spec.ack, trace=spec.trace)
    formats.write_events_csv(out / "events.csv", result.events)
    formats.write_signal_csv(out / "truth.csv", spec.stimulus)
    if result.trace is not None:
        formats.write_trace_csv(out / "trace.csv", result.trace)
    summary = summarize(spec, result)
    formats.write_summary_json(out / "summary.json", summary)
    return summary


def run_sweep(
    config: CfcConfig,
    ack: AckModel,
    start: float,
    stop: float,
    steps: int,
    dwell: float,
    out_dir: Union[str, Path],
    compensation: float = 0.0,
) -> tuple[EventStream, list[SweepPoint], list[Path]]:
    """Run one staircase sweep and decode it per step and in full.

    Writes ``truth.csv``, ``events.csv``, ``recon.csv`` and ``sweep.csv``
    into ``out_dir`` and returns the events, the per-step points and the
    written files; the caller writes its own summary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    signal = staircase_sweep(start, stop, steps, dwell)
    events = simulate(config, signal, signal.end, ack=ack).events
    points = sweep_analysis(events, signal, config, compensation=compensation)
    recon = reconstruct(events, config, compensation=compensation)
    files = [
        formats.write_signal_csv(out / "truth.csv", signal),
        formats.write_events_csv(out / "events.csv", events),
        formats.write_recon_csv(out / "recon.csv", recon),
        formats.write_sweep_csv(out / "sweep.csv", points),
    ]
    return events, points, files


def run_decode(
    events_path: Union[str, Path],
    config: CfcConfig,
    out_dir: Union[str, Path],
    compensation: float = 0.0,
) -> Path:
    """Decode an events file into ``recon.csv`` inside ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    events = formats.read_events_csv(events_path)
    recon = reconstruct(events, config, compensation=compensation)
    return formats.write_recon_csv(out / "recon.csv", recon)
