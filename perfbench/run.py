"""cfcsim benchmark: host time, memory and decode accuracy of three pipelines.

    python3 perfbench/run.py --workload staircase --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process, no threads, one workload per call.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median CPU
time a fresh interpreter takes to import ``cfcsim.cli``), then one
warm-up run, then closed-loop runs until ``--seconds`` have passed.

Times are CPU seconds at a reference host speed.  CPU time leaves out
the time a shared host lets the process wait for a CPU; on a dedicated
machine the pipelines, single-threaded and with little I/O wait, take
about as long in wall time.  ``speedprobe.py`` samples how fast the
host runs during each measurement and rescales the CPU time to the
reference speed, which cancels most of the host's drift.  The raw CPU
and wall times and the host speed are printed alongside, without a
bound.  ``--trace 1``
measures the per-layer metrics: the ``cfcsim.cli`` import split by
``-X importtime``, then untraced and traced runs in alternation, so that
``trace.overhead`` compares the two under the same conditions.

Every run's outputs are checked (see ``workloads.py``); a run that
raises or fails a check counts in ``failed``.  The SHA-256 of every
output file is compared between runs and against ``digests.json``,
recorded at the commit that added this benchmark; that comparison is
reported, not enforced.  The last line of stdout is the result object;
a fuller record, with the environment and the spans, is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread: keep numpy's BLAS from starting worker threads, which
# would compete for the few CPUs and add their spinning to cpu_s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speedprobe  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7

# Child code for setup_s: a fresh interpreter importing the CLI module,
# timed like a pipeline run.  The probe needs numpy, which cfcsim.cli
# imports too, so numpy is imported inside the timed part but before the
# probe starts; the speed the probe measures scales all of it.
IMPORT_CLI = """
import sys, time
sys.path.insert(0, {here!r})
sys.path.insert(0, {src!r})
t0 = time.process_time()
import numpy
import speedprobe
with speedprobe.Probe() as probe:
    import cfcsim.cli
t1 = time.process_time()
assert cfcsim.cli.__file__.startswith({src!r}), cfcsim.cli.__file__
print(repr(probe.scaled(t1 - t0)), repr(probe.speed()))
"""


def fresh_import(trace: bool) -> tuple[float, float]:
    """CPU seconds, at the reference speed, that a fresh interpreter
    takes to import ``cfcsim.cli``, and,
    with ``trace``, the part of it spent importing scipy."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", IMPORT_CLI.format(here=str(HERE), src=str(SRC))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    total, speed = map(float, done.stdout.strip().splitlines()[-1].split())
    # -X importtime reports wall time; scale it like the total
    return total, scipy_import_seconds(done.stderr) * speed if trace else 0.0


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime``
    output (post-order: a module's line follows those of its imports)."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1] == "scipy" or a[1].startswith("scipy.") for a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us * 1e-6


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import cfcsim

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cfcsim": cfcsim.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def percentile_report(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile that still has
    ten samples beyond it (there is none below 11 samples)."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 11:
        out["percentile"] = 100 * (n - 10) / n
        out["percentile_value"] = sorted(values)[n - 11]
    else:
        out["percentile"] = None
    return out


def digest_dir(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Runner:
    """Runs one workload into a scratch directory and checks the result."""

    def __init__(self, workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[dict] = []
        self.outcome = None  # last outcome of a run that passed its checks

    def once(self, tracer=None) -> tuple[float, float, float] | None:
        """One checked run; its host wall seconds, CPU seconds and CPU
        seconds at the reference speed, or None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted += 1
        try:
            with speedprobe.Probe() as probe:
                if tracer is None:
                    c0, t0 = time.process_time(), time.perf_counter()
                    self.workload.run(self.out, self.seed)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                else:
                    c0 = time.process_time()
                    with tracer.span("benchmark.run", "benchmark") as root:
                        self.workload.run(self.out, self.seed)
                    wall, cpu = root.seconds, time.process_time() - c0
            outcome = self.workload.check(self.out, self.seed)
        except Exception:  # a crashed run is a failed run; keep measuring
            self.fail([traceback.format_exc()])
            return None
        self.digests.append(digest_dir(self.out))
        if self.outcome is not None and (outcome.events, outcome.events_high) != (
            self.outcome.events,
            self.outcome.events_high,
        ):
            outcome.failures.append("event counts differ from the previous run")
        if outcome.failures:
            self.fail(outcome.failures)
            return None
        self.outcome = outcome
        return wall, cpu, probe.scaled(cpu)

    def fail(self, reasons: list[str]) -> None:
        """Count the current run as failed, for the given reasons."""
        self.failed = min(self.failed + 1, self.attempted)
        self.failures.extend(f"run {self.attempted}: {r}" for r in reasons)

    def digest_report(self) -> dict:
        recorded = json.loads((HERE / "digests.json").read_text()).get(self.workload.name, {})
        expected = dict(recorded.get("common", {}))
        seed_files = recorded.get("by_seed", {}).get(str(self.seed))
        expected.update(seed_files or {})
        runs_match = all(d == self.digests[0] for d in self.digests)
        return {
            "runs_match_each_other": runs_match,
            "seed_recorded": seed_files is not None,
            "match_recorded": bool(self.digests)
            and all(self.digests[0].get(k) == v for k, v in expected.items()),
            "files": self.digests[0] if self.digests else {},
        }


def measure_end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setup = [fresh_import(trace=False)[0] for _ in range(SETUP_REPEATS)]
    runner.once()  # warm-up: checked, not timed
    walls, cpus, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        timed = runner.once()
        if timed is not None:
            walls.append(timed[0])
            cpus.append(timed[1])
            refs.append(timed[2])
    if not walls:
        return {}, {"setup_s": setup}
    ref = statistics.median(refs)
    metrics = {
        "setup_s": statistics.median(setup),
        "ref_cpu_s": ref,
        "events_per_ref_cpu_s": runner.outcome.events / ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "decode_max_rel_err": runner.outcome.max_rel_err,
    }
    detail = {
        "setup_s": setup,
        "ref_cpu_s": percentile_report(refs),
        "cpu_s": percentile_report(cpus),
        "wall_s": percentile_report(walls),
        "host_speed": [r / c for r, c in zip(refs, cpus)],
        "ref_cpus": refs,
        "cpus": cpus,
        "walls": walls,
    }
    return metrics, detail


def layer_metrics(spans) -> dict:
    """Per-layer totals of one traced run (``spans`` all belong to it)."""
    own = tracing.self_times(spans)
    layer_self: dict[str, float] = {}
    by_fn: dict[str, float] = {}
    counts: dict[str, int] = {}
    written_bytes = written_rows = 0
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[s.id]
        fn = s.name.rsplit(".", 1)[-1]
        by_fn[fn] = by_fn.get(fn, 0.0) + s.seconds
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
        if s.layer == "formats" and fn.startswith("write_"):
            data = Path(s.path).read_bytes()
            written_bytes += len(data)
            if s.path.endswith(".csv"):
                written_rows += data.count(b"\n") - 1
    write_s = sum(v for k, v in by_fn.items() if k.startswith("write_"))
    simulate_s = by_fn.get("simulate", 0.0)
    metrics = {
        "stimulus.build_s": layer_self.get("stimulus", 0.0),
        "stimulus.pieces": counts.get("pieces", 0),
        "simulator.simulate_s": simulate_s,
        "simulator.events": counts.get("events", 0),
        "simulator.events_high": counts.get("events_high", 0),
        "simulator.us_per_event": simulate_s / counts["events"] * 1e6 if counts.get("events") else 0.0,
        "formats.self_s": layer_self.get("formats", 0.0),
        "formats.write_s": write_s,
        "formats.rows_written": written_rows,
        "formats.bytes_written": written_bytes,
        "formats.write_us_per_row": write_s / written_rows * 1e6 if written_rows else 0.0,
        "formats.rows_read": counts.get("rows_read", 0),
        "decoder.self_s": layer_self.get("decoder", 0.0),
        "decoder.reconstruct_s": by_fn.get("reconstruct", 0.0),
        "decoder.samples": counts.get("samples", 0),
        "pipeline.self_s": layer_self.get("presets", 0.0) + layer_self.get("experiment", 0.0),
        "trace.unattributed_s": layer_self.get("benchmark", 0.0),
    }
    return {"metrics": metrics, "layer_self_s": layer_self, "function_s": by_fn}


def measure_per_layer(runner: Runner, seconds: int) -> tuple[dict, dict]:
    from cfcsim import experiment, formats, presets

    imports = [fresh_import(trace=True) for _ in range(SETUP_REPEATS)]
    tracer = tracing.Tracer()
    for module in (presets, experiment, formats):
        tracer.wrap_module(module)
    try:
        runner.once()  # warm-up: checked, not timed
        untraced, traced, per_run = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not (untraced and traced or runner.failed):
            use_tracer = len(traced) < len(untraced)
            first_span = len(tracer.spans)
            tracer.run = runner.attempted + 1
            timed = runner.once(tracer if use_tracer else None)
            if timed is None:
                continue
            if use_tracer:
                traced.append(timed)
                per_run.append(layer_metrics(tracer.spans[first_span:]))
            else:
                untraced.append(timed)
    finally:
        tracer.restore()
    if not (untraced and traced):
        return {}, {}
    names = per_run[0]["metrics"].keys()
    metrics = {k: statistics.median(r["metrics"][k] for r in per_run) for k in names}
    for k in ("stimulus.pieces", "simulator.events", "simulator.events_high", "formats.rows_written",
              "formats.bytes_written", "formats.rows_read", "decoder.samples"):
        if len({r["metrics"][k] for r in per_run}) != 1:
            runner.fail([f"count {k} differs between traced runs"])
    if metrics["simulator.events"] != runner.outcome.events:
        runner.fail(["traced event count differs from the count on disk"])
    totals = [t for t, _ in imports]
    scipy_part = [s for _, s in imports]
    metrics.update({
        "cli.import_s": statistics.median(totals),
        "cli.import_scipy_s": statistics.median(scipy_part),
        "cli.import_rest_s": statistics.median(t - s for t, s in imports),
        # runs alternate, so each traced run is paired with the untraced
        # run just before it, which cancels slow drifts in machine speed;
        # CPU time at the reference speed, as for ref_cpu_s
        "trace.overhead": statistics.median(t[2] / u[2] for u, t in zip(untraced, traced)),
    })
    detail = {
        "untraced_wall_and_cpu_s": untraced,
        "traced_wall_and_cpu_s": traced,
        "layer_self_s": {k: statistics.median(r["layer_self_s"].get(k, 0.0) for r in per_run)
                         for k in per_run[0]["layer_self_s"]},
        "function_s": {k: statistics.median(r["function_s"].get(k, 0.0) for r in per_run)
                       for k in per_run[0]["function_s"]},
        "cli_import_s": totals,
        "cli_import_scipy_s": scipy_part,
        "spans": [vars(s) for s in tracer.spans],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["staircase", "neuron", "roundtrip"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cfcsim" / "__init__.py").is_file():
        print(f"error: no cfcsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    import cfcsim

    if not Path(cfcsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: cfcsim imported from {cfcsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workdir = WORK / f"work-{os.getpid()}"
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed, workdir / "out")
    try:
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, detail = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if metrics and set(metrics) != set(units):
        runner.fail([f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"])
    failed = runner.failed
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures,
        "digests": runner.digest_report(),
        "metrics": metrics,
        **detail,
    }
    WORK.mkdir(exist_ok=True)
    record_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for f in runner.failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:<14.6g} {units.get(name)}")
    print(f"  {'error_rate':<26} {record['error_rate']:<14.6g} ratio ({failed} of {runner.attempted} runs failed)")
    if not args.trace and "wall_s" in detail:
        for k in ("ref_cpu_s", "cpu_s", "wall_s"):
            print(f"  {k} samples: {json.dumps(detail[k])}")
        print(f"  host speed (reference 1): {statistics.median(detail['host_speed']):.3f}")
    if args.trace and metrics:
        print(f"  layer self time (s): {json.dumps(detail['layer_self_s'])}")
        print(f"  function time (s): {json.dumps(detail['function_s'])}")
    d = record["digests"]
    print(f"  outputs: runs byte-identical {d['runs_match_each_other']}, "
          f"match recorded digests {d['match_recorded']} (seed recorded: {d['seed_recorded']})")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
