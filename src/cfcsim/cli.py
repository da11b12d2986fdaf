"""Command-line front end.

    cfcsim simulate --config spec.json --out run/
    cfcsim decode events.csv --out run/ [--config spec.json] [--compensate]
    cfcsim preset fig4 --out results/fig4 [--seed 1] [--compensate]
    cfcsim sweep --start 1e-9 --stop 1e-8 --steps 10 --dwell 0.1 --out run/

``--compensate`` subtracts the mean dead time (reset pulse, ack latency
and half the ack jitter) from every interval before decoding.

Exit codes: 0 success, 2 configuration/usage error, a malformed events
file or a path that cannot be read or written, 3 runtime error (an event
stream ``reconstruct`` refuses and running out of memory included).  An
error is one stderr line, ``error: <command>: <message>``, ending in
`` (seed N)`` once ``simulate`` has resolved the seed its run draws from.
Omitting ``--seed`` uses the fixed default 0; nothing ever draws from
wall-clock entropy, so identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import CfcConfig, ConfigError, _number
from .experiment import (DEFAULT_SEED, compensation_for, finish_run, load_converter, load_spec, read_json_object,
                         run_decode, run_simulate, run_sweep)
from .formats import CsvFormatError
from .presets import PRESETS, run_preset
from .simulator import AckModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser, config_help: Optional[str]) -> None:
    if config_help is not None:
        p.add_argument("--config", type=Path, default=None, help=config_help)
    p.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfcsim",
        description="Simulate an auto-ranging current-to-frequency monitor and decode its event streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment description")
    _add_common(p_sim, "experiment description JSON (required)")
    p_sim.add_argument("--duration", type=float, default=None, help="override the run duration in seconds")
    p_sim.add_argument("--trace", action="store_true", help="also write the state trace CSV")

    p_dec = sub.add_parser("decode", help="reconstruct currents from an events CSV")
    p_dec.add_argument("events", type=Path, help="events CSV (schema: t_req_s,channel,sf)")
    _add_common(p_dec, "experiment JSON or flat converter-config JSON")
    p_dec.add_argument(
        "--compensate",
        action="store_true",
        help="subtract the mean dead time (reset pulse + ack latency + half the ack jitter) from every interval",
    )

    p_pre = sub.add_parser("preset", help="run a canned end-to-end experiment")
    p_pre.add_argument("name", choices=sorted(PRESETS), help="preset name")
    _add_common(p_pre, None)
    p_pre.add_argument("--compensate", action="store_true", help="decode with dead-time compensation")

    p_swp = sub.add_parser("sweep", help="staircase sweep with per-step decode")
    _add_common(p_swp, "converter-config overrides JSON")
    # argparse takes "-2e-8" for an option, so a negative current needs the "=" form
    p_swp.add_argument("--start", type=float, required=True, help="first step current in A (negative: --start=-2e-8)")
    p_swp.add_argument("--stop", type=float, required=True, help="last step current in A (negative: --stop=-1e-9)")
    p_swp.add_argument("--steps", type=int, required=True, help="number of steps")
    p_swp.add_argument("--dwell", type=float, required=True, help="dwell per step in s")
    p_swp.add_argument("--compensate", action="store_true", help="decode with dead-time compensation")

    # simulate's default None leaves the seed to its experiment description
    for p in (p_sim, p_pre, p_swp):
        what = "random seed" if p is p_sim else "recorded in summary.json only; presets and sweeps draw nothing"
        p.add_argument("--seed", type=int, default=None if p is p_sim else DEFAULT_SEED,
                       help=f"{what} (default {DEFAULT_SEED})")
    return parser


def _report(line: str) -> None:
    """Print a status line; a character the console's encoding cannot
    show (a UTF-8 run name under an ASCII locale) is printed escaped."""
    try:
        print(line)
    except UnicodeEncodeError:
        print(line.encode("ascii", "backslashreplace").decode("ascii"))


def _load_decode_config(path: Optional[Path]) -> tuple[CfcConfig, AckModel]:
    """Decode accepts either a full experiment spec, of which it reads only
    the converter, or flat config overrides."""
    if path is None:
        return CfcConfig(), AckModel()
    raw = read_json_object(path)
    if "config" in raw or "stimulus" in raw:
        return load_converter(raw, str(path))
    return CfcConfig.from_dict(raw), AckModel()


def _cmd_simulate(args) -> int:
    if args.config is None:
        raise ConfigError("simulate requires --config with an experiment description")
    raw = read_json_object(args.config)
    # the flags replace the description's keys, checked as the keys are; --trace only an absent or false one
    raw.update((key, value) for key, value in (("seed", args.seed), ("duration", args.duration)) if value is not None)
    if args.trace and raw.get("trace", False) is False:
        raw["trace"] = True
    spec = load_spec(raw, str(args.config))
    args.drawn_seed = spec.ack.seed  # named by any error from here on
    record = run_simulate(spec, args.out)
    _report(f"{spec.name}: {record.summary['event_count']} events -> {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    config, ack = _load_decode_config(args.config)
    out_path = run_decode(args.events, config, args.out, compensation=compensation_for(config, ack, args.compensate))
    _report(f"decoded {args.events} -> {out_path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    record = run_preset(args.name, args.out, seed=args.seed, compensate=args.compensate)
    _report(f"preset {args.name}: {len(record.files)} files -> {record.out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    for flag in ("start", "stop", "dwell"):
        _number(getattr(args, flag), f"--{flag}", "sweep")
    config = CfcConfig.from_dict(read_json_object(args.config) if args.config is not None else {})
    ack = AckModel(seed=args.seed)
    compensation = compensation_for(config, ack, args.compensate)
    points, counts, files = run_sweep(
        config, ack, args.start, args.stop, args.steps, args.dwell, args.out, compensation=compensation
    )
    events = counts.pop("events")
    summary = {"name": "sweep", "start_A": args.start, "stop_A": args.stop, "steps": args.steps,
               "dwell_s": args.dwell, "event_count": events, **counts}
    finish_run(args.out, files, summary, config, ack, compensation)
    _report(f"sweep: {events} events, {counts['steps_measured']}/{len(points)} steps measured -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "decode": _cmd_decode,
    "preset": _cmd_preset,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, CsvFormatError, OSError) as exc:  # a CsvFormatError and an OSError name their path
        code, message = EXIT_CONFIG, str(exc)
    except (ValueError, RuntimeError, MemoryError) as exc:
        code, message = EXIT_RUNTIME, str(exc) or type(exc).__name__
    seed = getattr(args, "drawn_seed", None)
    print(f"error: {args.command}: {message}" + ("" if seed is None else f" (seed {seed})"), file=sys.stderr)
    return code
