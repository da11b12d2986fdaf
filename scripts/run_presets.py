#!/usr/bin/env python3
"""Run every canned experiment into one results directory.

Prints the SHA-256 of every file written, so two runs (say, before and
after a code change) can be compared for byte identity with ``diff``.

Usage:
  python scripts/run_presets.py --out results --seed 0 [--compensate]
"""

import argparse
import hashlib
import time

from cfcsim.presets import PRESETS, run_preset


def main() -> None:
    parser = argparse.ArgumentParser(description="Run all presets")
    parser.add_argument("--out", default="results", help="output root (default: results)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--compensate", action="store_true", help="decode with dead-time compensation")
    args = parser.parse_args()

    for name in sorted(PRESETS):
        t0 = time.perf_counter()
        result = run_preset(name, f"{args.out}/{name}", seed=args.seed, compensate=args.compensate)
        print(f"{name}: {len(result.files)} files in {time.perf_counter() - t0:.1f}s -> {result.out_dir}")
        for path in result.files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"  {digest}  {path.relative_to(args.out)}")


if __name__ == "__main__":
    main()
