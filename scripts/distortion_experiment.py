#!/usr/bin/env python3
"""Quantify the dead-time distortion at high input currents.

Above roughly 1 uA the extended reset pulse stops being negligible next
to the inter-event interval and the uncompensated decode reads low; this
script sweeps the top of the range and prints the read-low fraction with
and without compensation.

Usage:
  python scripts/distortion_experiment.py
"""

import numpy as np

from cfcsim import AckModel, CfcConfig, constant, dead_time, ideal_isi, reconstruct, simulate


def main() -> None:
    config = CfcConfig()
    dead = dead_time(config, AckModel())
    print(f"reset pulse: {config.t_rst * 1e6:.2f} us,"
          f" validity bound: {config.i_max_valid * 1e6:.1f} uA\n")
    print(f"{'i_A':>10} {'rate_hz':>12} {'raw_read_low':>13} {'compensated':>12}")
    for i in np.asarray([0.2e-6, 0.5e-6, 1e-6, 2e-6, 4e-6, 8e-6]):
        isi = ideal_isi(config, i)
        duration = 300 * (isi + dead)
        events = simulate(config, constant(i, duration), duration).events
        raw = float(np.mean(reconstruct(events, config).i_est))
        comp = float(np.mean(reconstruct(events, config, compensation=dead).i_est))
        print(f"{i:10.1e} {1.0 / isi:12.0f} {1 - raw / i:13.4%} {abs(1 - comp / i):12.2e}")


if __name__ == "__main__":
    main()
