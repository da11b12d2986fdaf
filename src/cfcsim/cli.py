"""Command-line front end.

    cfcsim simulate --config spec.json --out run/
    cfcsim decode events.csv --out run/ [--config spec.json] [--compensate]
    cfcsim preset fig4 --out results/fig4 [--seed 1] [--compensate]
    cfcsim sweep --start 1e-9 --stop 1e-8 --steps 10 --dwell 0.1 --out run/

``--compensate`` subtracts the mean dead time (reset pulse, ack latency
and half the ack jitter) from every interval before decoding.

Exit codes: 0 success, 2 configuration/usage error or a path that cannot
be read or written, 3 runtime error.
Omitting ``--seed`` uses the fixed default 0; nothing ever draws from
wall-clock entropy, so identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import formats
from .core import CfcConfig, ConfigError, _number, dead_time
from .experiment import DEFAULT_SEED, load_converter, load_spec, read_json_object, run_decode, run_simulate, run_sweep
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
    p_swp.add_argument("--start", type=float, required=True, help="first step current in A")
    p_swp.add_argument("--stop", type=float, required=True, help="last step current in A")
    p_swp.add_argument("--steps", type=int, required=True, help="number of steps")
    p_swp.add_argument("--dwell", type=float, required=True, help="dwell per step in s")
    p_swp.add_argument("--compensate", action="store_true", help="decode with dead-time compensation")

    for p in (p_sim, p_pre, p_swp):
        what = "random seed" if p is p_sim else "recorded in summary.json only; presets and sweeps draw nothing"
        p.add_argument("--seed", type=int, default=None, help=f"{what} (default {DEFAULT_SEED})")
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
    spec = load_spec(args.config, seed_override=args.seed, duration_override=args.duration)
    if args.trace and not spec.trace:
        spec = dataclasses.replace(spec, trace=True)
    summary = run_simulate(spec, args.out)
    _report(f"{spec.name}: {summary['event_count']} events -> {args.out}")
    return EXIT_OK


def _cmd_decode(args) -> int:
    config, ack = _load_decode_config(args.config)
    compensation = dead_time(config, ack) if args.compensate else 0.0
    out_path = run_decode(args.events, config, args.out, compensation=compensation)
    _report(f"decoded {args.events} -> {out_path}")
    return EXIT_OK


def _cmd_preset(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    result = run_preset(args.name, args.out, seed=seed, compensate=args.compensate)
    _report(f"preset {result.name}: {len(result.files)} files -> {result.out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    for flag in ("start", "stop", "dwell"):
        _number(getattr(args, flag), f"--{flag}", "sweep")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    config = CfcConfig.from_dict(read_json_object(args.config) if args.config is not None else {})
    ack = AckModel(seed=seed)
    compensation = dead_time(config, ack) if args.compensate else 0.0
    events, points, _ = run_sweep(
        config, ack, args.start, args.stop, args.steps, args.dwell, args.out, compensation=compensation
    )
    measured = sum(1 for p in points if p.decoded is not None)
    formats.write_summary_json(args.out / "summary.json", {
        "name": "sweep",
        "seed": seed,
        "start_A": args.start,
        "stop_A": args.stop,
        "steps": args.steps,
        "dwell_s": args.dwell,
        "compensation_s": compensation,
        "event_count": len(events),
        "steps_measured": measured,
        "steps_no_measurement": len(points) - measured,
        "config": config.to_dict(),
    })
    _report(f"sweep: {len(events)} events, {measured}/{len(points)} steps measured -> {args.out}")
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
    except (ConfigError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
