"""On-disk formats: CSV schemas and the run summary record.

All floats are written with ``repr``, i.e. the shortest decimal that
round-trips exactly, and files use ``\\n`` line endings unconditionally
so that reruns with the same seed are byte-identical on any platform.

Schemas:
    events  ``t_req_s,channel,sf``            sf: 0 = low, 1 = high
    trace   ``t_s,v_low_V,v_high_V,phase,selected``
    recon   ``t_s,i_A,range``
    signal  ``t_s,i_A``                       ground-truth currents
    spikes  ``t_s``
    sweep   ``level_A,i_decoded_A,n_events``  empty decode = no measurement
    fit     flat ``key=value`` lines
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .decoder import ExponentialFit, ReconstructedSignal, SweepPoint
from .simulator import EventStream, StateTrace
from .stimulus import CurrentSignal, SpikeTrain

EVENTS_HEADER = "t_req_s,channel,sf"
TRACE_HEADER = "t_s,v_low_V,v_high_V,phase,selected"
RECON_HEADER = "t_s,i_A,range"
SIGNAL_HEADER = "t_s,i_A"
SPIKES_HEADER = "t_s"
SWEEP_HEADER = "level_A,i_decoded_A,n_events"


class CsvFormatError(ValueError):
    """A CSV file does not match its documented schema."""


def _f(x: float) -> str:
    return repr(float(x))


def write_events_csv(path: Union[str, Path], events: EventStream) -> Path:
    path = Path(path)
    lines = [EVENTS_HEADER]
    for k in range(len(events)):
        lines.append(f"{_f(events.t_req[k])},{int(events.channel[k])},{int(events.sf[k])}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def read_events_csv(path: Union[str, Path]) -> EventStream:
    """Parse an events file; malformed rows name their line number.

    A zero-byte file reads as an empty stream.  No ordering is imposed
    here; consumers that need sorted input enforce it themselves.
    """
    path = Path(path)
    text = path.read_text()
    if text.strip() == "":
        return EventStream.empty()
    lines = text.splitlines()
    if lines[0].strip() != EVENTS_HEADER:
        raise CsvFormatError(
            f"{path}: line 1: expected header {EVENTS_HEADER!r}, got {lines[0]!r}"
        )
    t, ch, sf = [], [], []
    for ln, row in enumerate(lines[1:], start=2):
        if row.strip() == "":
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise CsvFormatError(f"{path}: line {ln}: expected 3 fields, got {len(parts)}")
        try:
            t.append(float(parts[0]))
            ch.append(int(parts[1]))
            flag = int(parts[2])
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {ln}: {exc}") from None
        if flag not in (0, 1):
            raise CsvFormatError(f"{path}: line {ln}: sf must be 0 or 1, got {flag}")
        sf.append(flag)
    return EventStream(np.asarray(t), np.asarray(ch, dtype=np.int64), np.asarray(sf, dtype=np.uint8))


def write_trace_csv(path: Union[str, Path], trace: StateTrace) -> Path:
    path = Path(path)
    lines = [TRACE_HEADER]
    for t, vl, vh, phase, sel in trace.rows():
        lines.append(f"{_f(t)},{_f(vl)},{_f(vh)},{phase.value},{int(sel)}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_recon_csv(path: Union[str, Path], signal: ReconstructedSignal) -> Path:
    path = Path(path)
    lines = [RECON_HEADER]
    for k in range(len(signal)):
        lines.append(f"{_f(signal.t[k])},{_f(signal.i_est[k])},{int(signal.ranges[k])}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_signal_csv(path: Union[str, Path], signal: CurrentSignal) -> Path:
    """Emit a piecewise-linear signal as its segment endpoints.

    Adjacent rows with the same time mark a step discontinuity, which
    external plotting tools render as a vertical edge.
    """
    path = Path(path)
    ends = np.append(signal.times[1:], signal.end)
    lines = [SIGNAL_HEADER]
    prev = None
    for j in range(signal.times.size):
        start = (float(signal.times[j]), float(signal.i_start[j]))
        if start != prev:
            lines.append(f"{_f(start[0])},{_f(start[1])}")
        stop = (float(ends[j]), float(signal.i_end[j]))
        lines.append(f"{_f(stop[0])},{_f(stop[1])}")
        prev = stop
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_spikes_csv(path: Union[str, Path], train: SpikeTrain) -> Path:
    path = Path(path)
    lines = [SPIKES_HEADER] + [_f(t) for t in train.times]
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_sweep_csv(path: Union[str, Path], points: list[SweepPoint]) -> Path:
    path = Path(path)
    lines = [SWEEP_HEADER]
    for p in points:
        decoded = "" if p.decoded is None else _f(p.decoded)
        lines.append(f"{_f(p.level)},{decoded},{p.n_events}")
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def write_fit_record(path: Union[str, Path], fit: ExponentialFit, extra: dict | None = None) -> Path:
    """Flat key=value record of a fit result."""
    path = Path(path)
    record = {
        "amplitude_A": fit.amplitude,
        "tau_s": fit.tau,
        "baseline_A": fit.baseline,
        "residual_norm_A": fit.residual_norm,
    }
    if extra:
        record.update(extra)
    lines = [f"{key}={_f(value)}" for key, value in record.items()]
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def read_fit_record(path: Union[str, Path]) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in Path(path).read_text().splitlines():
        if not row.strip():
            continue
        key, _, value = row.partition("=")
        out[key] = float(value)
    return out


def write_summary_json(path: Union[str, Path], summary: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="\n")
    return path
