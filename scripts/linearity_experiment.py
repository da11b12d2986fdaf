#!/usr/bin/env python3
"""Measure end-to-end decode linearity over six decades of input current.

Simulates log-spaced constant currents, decodes each from its event
stream, and prints programmed vs decoded values with the relative error,
once with every non-ideality disabled and once at factory defaults.

Usage:
  python scripts/linearity_experiment.py [--points 61] [--compensate]
"""

import argparse

import numpy as np

from cfcsim import AckModel, CfcConfig, constant, dead_time, ideal_isi, reconstruct, simulate


def decoded_mean(config, i, compensation=0.0, cycles=14):
    duration = cycles * (ideal_isi(config, i) + dead_time(config, AckModel()))
    events = simulate(config, constant(i, duration), duration).events
    if len(events) < 2:
        return None
    rec = reconstruct(events, config, compensation=compensation)
    return float(np.mean(rec.i_est))


def main() -> None:
    parser = argparse.ArgumentParser(description="Six-decade linearity experiment")
    parser.add_argument("--points", type=int, default=61)
    parser.add_argument("--lo", type=float, default=10e-12)
    parser.add_argument("--hi", type=float, default=1e-6)
    parser.add_argument("--compensate", action="store_true")
    args = parser.parse_args()

    ideal = CfcConfig(t_rst=0.0, i_leak_floor=0.0)
    defaults = CfcConfig()
    comp = dead_time(defaults, AckModel()) if args.compensate else 0.0

    currents = np.logspace(np.log10(args.lo), np.log10(args.hi), args.points)
    print(f"{'programmed_A':>14} {'ideal_A':>14} {'err':>9} {'defaults_A':>14} {'err':>9}")
    worst_ideal = worst_def = 0.0
    for i in currents:
        d_ideal = decoded_mean(ideal, i)
        d_def = decoded_mean(defaults, i, compensation=comp)
        e_ideal = abs(d_ideal - i) / i
        e_def = abs(d_def - i) / i if d_def is not None else float("nan")
        worst_ideal = max(worst_ideal, e_ideal)
        worst_def = max(worst_def, e_def)
        print(f"{i:14.4e} {d_ideal:14.4e} {e_ideal:9.2e} {d_def:14.4e} {e_def:9.2e}")
    print(f"\nworst relative error: ideal {worst_ideal:.2e}, defaults {worst_def:.2e}"
          f" (compensation {'on' if args.compensate else 'off'})")


if __name__ == "__main__":
    main()
