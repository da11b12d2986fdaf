"""Canned experiments reproducing the standard measurement set.

Each preset runs a full pipeline (stimulus -> simulate -> reconstruct ->
analysis) and writes one directory of CSV/JSON data for external
plotting; no images are rendered here.

    fig4  five linear staircase current sweeps spanning picoamps to
          microamps, decoded step by step
    fig5  subthreshold p-FET gate-voltage sweep against the behavioral
          transistor model, with the divergence bands (below the leak
          floor, above the validity bound) flagged
    fig6  spiking neuron driven through a synapse, its membrane-current
          proxy monitored end to end
    fig7  synapse current transients, with the decay time constant
          recovered from the reconstruction

Presets are deterministic: rerunning with the same seed reproduces every
output file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Union

import numpy as np

from . import formats
from .core import CfcConfig, ConfigError, DEFAULT_CONFIG, above_floor, above_valid, dead_time, rectify
from .decoder import fit_exponential, reconstruct
from .experiment import run_sweep
from .simulator import AckModel, simulate
from .stimulus import FIVE_RANGE_SWEEPS, AdexParams, adex_neuron, dpi_synapse, pfet_gate_sweep, regular_train


@dataclass
class PresetResult:
    name: str
    out_dir: Path
    files: list[Path]
    summary: dict


def _preset_fig4(out: Path, config: CfcConfig, ack: AckModel, compensation: float) -> tuple[list[Path], dict]:
    """Five staircase sweeps, each decoded per step."""
    steps, dwell = 20, 0.05
    files: list[Path] = []
    sweeps = []
    for idx, (lo, hi) in enumerate(FIVE_RANGE_SWEEPS):
        events, points, sweep_files = run_sweep(
            config, ack, lo, hi, steps, dwell, out / f"sweep{idx + 1}", compensation=compensation
        )
        files.extend(sweep_files)
        measured = [p for p in points if p.decoded is not None]
        in_band = [
            abs(p.decoded - p.level) / p.level
            for p in measured
            if 10e-12 <= p.level and not above_valid(config, p.level)
        ]
        sweeps.append({
            "range_A": [lo, hi],
            "events": len(events),
            "steps_measured": len(measured),
            "steps_no_measurement": len(points) - len(measured),
            "max_rel_err_in_band": max(in_band) if in_band else None,
        })
    return files, {"steps_per_sweep": steps, "dwell_s": dwell, "sweeps": sweeps}


def _preset_fig5(out: Path, config: CfcConfig, ack: AckModel, compensation: float) -> tuple[list[Path], dict]:
    """Gate-voltage sweep of a subthreshold p-FET into the monitor."""
    duration = 2.0
    signal = pfet_gate_sweep(
        vg_start=1.8,
        vg_stop=1.17,
        duration=duration,
        i0=1e-12,
        slope_per_decade=0.090,
        i_sat=4e-6,
    )
    result = simulate(config, signal, duration, ack=ack)
    recon = reconstruct(result.events, config, compensation=compensation)
    # compare over the full run: outside the reconstruction span (e.g. the
    # sub-floor stretch before the first events) the nearest measurement is
    # held, which is exactly the divergence the flags mark
    grid = np.linspace(0.0, duration, 2001)
    decoded = np.interp(grid, recon.t, recon.i_est)
    model = signal.values(grid)
    rel = np.abs(decoded - model) / model
    # headline error counts only grid points covered by actual samples;
    # the edge-clamped stretch right after the floor crossing (current
    # above the floor but no interval measured yet) stays in the CSV,
    # flagged, without skewing the statistic
    measured = (grid >= recon.t[0]) & (grid <= recon.t[-1])
    i_rect = rectify(model, config.polarity)
    kept, invalid = above_floor(config, i_rect), above_valid(config, i_rect)
    files = [
        formats.write_signal_csv(out / "truth.csv", signal),
        formats.write_events_csv(out / "events.csv", result.events),
        formats.write_recon_csv(out / "recon.csv", recon),
        formats.write_comparison_csv(out / "comparison.csv", grid, model, decoded, config),
    ]
    return files, {
        "duration_s": duration,
        "events": len(result.events),
        "max_rel_err_in_band": float(rel[measured & kept & ~invalid].max()),
        "grid_points_below_floor": int((~kept).sum()),
        "grid_points_above_valid": int(invalid.sum()),
    }


def _preset_fig6(out: Path, config: CfcConfig, ack: AckModel, compensation: float) -> tuple[list[Path], dict]:
    """Monitor the membrane current of a spiking neuron."""
    duration = 1.5
    drive = regular_train(20.0, duration)
    synapse = dpi_synapse(drive, tau=20e-3, weight_jump=0.5e-9, i_base=20e-12, duration=duration)
    neuron = AdexParams(proxy_gain=40.0)
    proxy, out_spikes = adex_neuron(synapse, neuron, duration)
    result = simulate(config, proxy, duration, ack=ack)
    recon = reconstruct(result.events, config, compensation=compensation)
    grid = np.linspace(0.0, duration, 3001)
    decoded = np.interp(grid, recon.t, recon.i_est)
    model = proxy.values(grid)
    files = [
        formats.write_spikes_csv(out / "input_spikes.csv", drive),
        formats.write_spikes_csv(out / "output_spikes.csv", out_spikes),
        formats.write_signal_csv(out / "truth.csv", proxy),
        formats.write_events_csv(out / "events.csv", result.events),
        formats.write_recon_csv(out / "recon.csv", recon),
        formats.write_comparison_csv(out / "comparison.csv", grid, model, decoded, config),
    ]
    return files, {
        "duration_s": duration,
        "events": len(result.events),
        "high_range_events": int(result.events.sf.sum()),
        "neuron_spikes": len(out_spikes),
        "neuron_rheobase_A": neuron.rheobase(),
    }


def _preset_fig7(out: Path, config: CfcConfig, ack: AckModel, compensation: float) -> tuple[list[Path], dict]:
    """Synapse current transients; recover the decay time constant."""
    duration = 1.2
    tau, weight = 20e-3, 1e-9
    drive = regular_train(5.0, 1.0)  # sparse spikes leave full decays visible
    signal = dpi_synapse(drive, tau=tau, weight_jump=weight, i_base=20e-12, duration=duration)
    result = simulate(config, signal, duration, ack=ack)
    recon = reconstruct(result.events, config, compensation=compensation)
    t_last = float(drive.times[-1])
    fit = fit_exponential(recon, (t_last + 2e-3, t_last + 0.18))
    files = [
        formats.write_spikes_csv(out / "input_spikes.csv", drive),
        formats.write_signal_csv(out / "truth.csv", signal),
        formats.write_events_csv(out / "events.csv", result.events),
        formats.write_recon_csv(out / "recon.csv", recon),
        formats.write_fit_record(out / "fit.txt", fit, extra={"stimulus_tau_s": tau}),
    ]
    return files, {
        "duration_s": duration,
        "events": len(result.events),
        "stimulus_tau_s": tau,
        "fitted_tau_s": fit.tau,
        "tau_rel_err": abs(fit.tau - tau) / tau,
    }


#: Name -> (experiment, converter config) of every preset.
PRESETS: dict[str, tuple[Callable[..., tuple[list[Path], dict]], CfcConfig]] = {
    "fig4": (_preset_fig4, DEFAULT_CONFIG),
    "fig5": (_preset_fig5, replace(DEFAULT_CONFIG, i_sw=100e-9)),  # scaling threshold raised to 100 nA
    "fig6": (_preset_fig6, DEFAULT_CONFIG),
    "fig7": (_preset_fig7, DEFAULT_CONFIG),
}


def run_preset(
    name: str,
    out_dir: Union[str, Path],
    seed: int = 0,
    compensate: bool = False,
) -> PresetResult:
    """Run one named preset into ``out_dir`` (created if needed).

    The preset writes its own files and summary keys; the ack model, the
    dead-time compensation and the summary keys every preset shares
    (``preset``, ``seed``, ``compensation_s``, ``config``) are set here,
    and ``summary.json`` is written last.
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preset, config = PRESETS[name]
    ack = AckModel(seed=seed)
    compensation = dead_time(config, ack) if compensate else 0.0
    files, summary = preset(out, config, ack, compensation)
    summary.update(preset=name, seed=seed, compensation_s=compensation, config=config.to_dict())
    files.append(formats.write_summary_json(out / "summary.json", summary))
    return PresetResult(name, out, files, summary)
