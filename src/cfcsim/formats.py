"""On-disk formats: CSV schemas and the run summary record.

All floats are written with ``repr``, i.e. the shortest decimal that
round-trips exactly, and files use ``\\n`` line endings unconditionally
so that reruns with the same seed are byte-identical on any platform.
The table writers format each distinct value of a column block once,
keyed by its bytes, and repeat that text for every cell holding it.

Schemas:
    events  ``t_req_s,channel,sf``            sf: 0 = low, 1 = high
    trace   ``t_s,v_low_V,v_high_V,phase,selected``
    recon   ``t_s,i_A,range``
    signal  ``t_s,i_A``                       ground-truth currents
    spikes  ``t_s``
    sweep   ``level_A,i_decoded_A,n_events``  empty decode = no measurement
    comparison  ``t_s,i_model_A,i_decoded_A,rel_err,flag``
                flag: ``ok``, ``below_floor`` or ``above_valid``
    fit     flat ``key=value`` lines
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .core import _BLOCK, CfcConfig, above_floor, above_valid, rectify
from .decoder import ExponentialFit, ReconstructedSignal, SweepPoint
from .simulator import EventStream, StateTrace
from .stimulus import CurrentSignal, SpikeTrain

EVENTS_HEADER = "t_req_s,channel,sf"
TRACE_HEADER = "t_s,v_low_V,v_high_V,phase,selected"
RECON_HEADER = "t_s,i_A,range"
SIGNAL_HEADER = "t_s,i_A"
SPIKES_HEADER = "t_s"
SWEEP_HEADER = "level_A,i_decoded_A,n_events"
COMPARISON_HEADER = "t_s,i_model_A,i_decoded_A,rel_err,flag"

class CsvFormatError(ValueError):
    """A CSV file does not match its documented schema."""


def _write_table(path: Union[str, Path], header: str, *columns) -> Path:
    """Write equal-length columns as CSV rows under ``header``.

    A column is a numpy array or a sequence of Python numbers or strings;
    each cell is ``str`` of its value, which for a float is its shortest
    round-tripping ``repr``.  Rows are formatted ``_BLOCK`` at a time, so
    memory is bounded by one block rather than by the table.  Within a
    block, each distinct value of a numpy column is formatted once, keyed
    by its bytes (so ``0.0`` and ``-0.0`` stay apart), and its text is
    repeated for every cell that holds it.
    """
    path = Path(path)
    n = len(columns[0])
    with path.open("w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _BLOCK):
            cells = [_block_cells(column[lo:lo + _BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return path


def _block_cells(block):
    """The cell texts of one block of a column (see :func:`_write_table`).

    Numpy blocks of floats, integers, booleans or strings are grouped;
    Python sequences and other arrays, such as object arrays, are
    formatted cell by cell.  A block whose cells are all distinct is
    formatted in order, with no grouping to undo.  Numeric blocks use
    ``repr``, which for Python floats, ints and bools is ``str``.
    """
    if not isinstance(block, np.ndarray):
        return map(str, block)
    if block.dtype.kind == "f" and block.itemsize <= 8:
        key = block.view(f"u{block.itemsize}")
    elif block.dtype.kind in "biuU":
        key = block
    else:
        return map(str, block.tolist())
    text_of = str if block.dtype.kind == "U" else repr
    distinct, inverse = np.unique(key, return_inverse=True)
    if distinct.size == block.size:
        return map(text_of, block.tolist())
    text = np.array(list(map(text_of, distinct.view(block.dtype).tolist())), dtype=object)
    return text[inverse].tolist()


def write_events_csv(path: Union[str, Path], events: EventStream) -> Path:
    return _write_table(path, EVENTS_HEADER, events.t_req, events.channel, events.sf)


#: One row of an events file as parsed by ``np.loadtxt``.
_EVENTS_DTYPE = np.dtype([("t_req_s", np.float64), ("channel", np.int64), ("sf", np.int64)])


def read_events_csv(path: Union[str, Path]) -> EventStream:
    """Parse an events file; malformed rows name their line number.

    A row is malformed if it does not have three fields, does not parse,
    or has a non-finite time, a channel outside [0, 2**63) or a flag
    other than 0 and 1.  A file holding only whitespace, or a header
    followed only by blank lines, reads as an empty stream.  Lines end
    where ``str.splitlines`` ends them.  No ordering is imposed here;
    consumers that need sorted input enforce it themselves.

    The lines below the header stream from the open file into
    ``np.loadtxt``, which parses them column-wise with no copy of the
    whole text, and the columns are checked whole.  If that parse fails
    or a check does not hold, the file is read again one row at a time
    with Python's ``float`` and ``int``, which either accept it (they
    take a few spellings ``loadtxt`` refuses, such as ``1_0``) or name
    the first bad line.  The file is read as UTF-8; a byte that does not
    decode names the line that holds it.
    """
    path = Path(path)
    try:
        return _read_events(path)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: line {_undecodable_line(path)}: byte {exc.object[exc.start]:#04x} "
                             f"is not UTF-8 ({exc.reason})") from None


def _read_events(path: Path) -> EventStream:
    """:func:`read_events_csv` on a path, letting a decoding error through."""
    with path.open(encoding="utf-8") as fh:
        lines = _lines(fh)
        header = next(lines, "")
        if header.strip() != EVENTS_HEADER:
            if header.strip() == "" and not any(map(str.strip, lines)):
                return EventStream.empty()
            raise CsvFormatError(f"{path}: line 1: expected header {EVENTS_HEADER!r}, got {header!r}")
        # no row at all is an empty stream, which ``loadtxt`` would warn about
        first = next((row for row in lines if row.strip()), None)
        if first is None:
            return EventStream.empty()
        try:
            rows = np.loadtxt(itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=1,
                              dtype=_EVENTS_DTYPE)
        except ValueError:
            return _read_events_rows(path)
    t, ch, sf = (np.ascontiguousarray(rows[name]) for name in _EVENTS_DTYPE.names)
    if not (np.isfinite(t).all() and (ch >= 0).all() and ((sf == 0) | (sf == 1)).all()):
        return _read_events_rows(path)
    return EventStream(t, ch, sf.astype(np.uint8))


def _read_events_rows(path: Path) -> EventStream:
    """:func:`read_events_csv` one row at a time, below the header."""
    t, ch, sf = [], [], []
    with path.open(encoding="utf-8") as fh:
        lines = _lines(fh)
        next(lines)
        for ln, row in enumerate(lines, start=2):
            if row.strip() == "":
                continue
            parts = row.split(",")
            if len(parts) != 3:
                raise CsvFormatError(f"{path}: line {ln}: expected 3 fields, got {len(parts)}")
            try:
                time_s = float(parts[0])
                channel = int(parts[1])
                flag = int(parts[2])
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {ln}: {exc}") from None
            if not math.isfinite(time_s):
                raise CsvFormatError(f"{path}: line {ln}: t_req_s must be finite, got {parts[0]!r}")
            if channel < 0:
                raise CsvFormatError(f"{path}: line {ln}: channel must be non-negative, got {channel}")
            if channel >= 2**63:
                raise CsvFormatError(f"{path}: line {ln}: channel must be below 2**63, got {channel}")
            if flag not in (0, 1):
                raise CsvFormatError(f"{path}: line {ln}: sf must be 0 or 1, got {flag}")
            t.append(time_s)
            ch.append(channel)
            sf.append(flag)
    return EventStream(np.asarray(t), np.asarray(ch, dtype=np.int64), np.asarray(sf, dtype=np.uint8))


def _undecodable_line(path: Path) -> int:
    """The number of the first line of a file that holds a byte UTF-8
    does not decode, counted as :func:`_lines` counts them."""
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for ln, row in enumerate(_lines(fh), start=1):
            try:
                row.encode("utf-8")  # an undecodable byte was escaped to a lone surrogate
            except UnicodeEncodeError:
                return ln


def _lines(fh):
    """The lines of an open text file, split as ``str.splitlines`` splits
    its whole text, read ``_BLOCK`` characters at a time."""
    tail = ""
    while chunk := fh.read(_BLOCK):
        # a sentinel character ends the last line only if the chunk did not
        lines = (tail + chunk + "x").splitlines()
        tail = lines.pop()[:-1]
        yield from lines
    if tail:
        yield tail


def write_trace_csv(path: Union[str, Path], trace: StateTrace) -> Path:
    phase = [p.value for p in trace.phase]
    return _write_table(path, TRACE_HEADER, trace.t, trace.v_low, trace.v_high, phase, trace.selected)


def write_recon_csv(path: Union[str, Path], signal: ReconstructedSignal) -> Path:
    return _write_table(path, RECON_HEADER, signal.t, signal.i_est, signal.ranges)


def write_signal_csv(path: Union[str, Path], signal: CurrentSignal) -> Path:
    """Emit a piecewise-linear signal as its segment endpoints.

    Adjacent rows with the same time mark a step discontinuity, which
    external plotting tools render as a vertical edge.  A segment's start
    row is left out where it repeats the previous segment's end row.
    """
    t = np.column_stack((signal.times, signal.ends)).ravel()
    i = np.column_stack((signal.i_start, signal.i_end)).ravel()
    keep = np.ones(t.size, dtype=bool)
    keep[2::2] = signal.i_start[1:] != signal.i_end[:-1]
    return _write_table(path, SIGNAL_HEADER, t[keep], i[keep])


def write_spikes_csv(path: Union[str, Path], train: SpikeTrain) -> Path:
    return _write_table(path, SPIKES_HEADER, train.times)


def write_sweep_csv(path: Union[str, Path], points: list[SweepPoint]) -> Path:
    levels = [float(p.level) for p in points]
    decoded = ["" if p.decoded is None else float(p.decoded) for p in points]
    return _write_table(path, SWEEP_HEADER, levels, decoded, [int(p.n_events) for p in points])


def write_comparison_csv(path: Union[str, Path], t, model, decoded, config: CfcConfig) -> Path:
    """Decoded against modelled current on a time grid.

    ``rel_err`` is ``nan`` where the model is 0; ``flag`` marks the
    points whose rectified model current is at or below the leak floor
    (which includes the blocked sign) or above the validity bound.
    """
    t, model, decoded = (np.asarray(a, dtype=np.float64) for a in (t, model, decoded))
    with np.errstate(all="ignore"):
        rel = np.where(model != 0, (decoded - model) / model, np.nan)
    i_rect = rectify(model, config.polarity)
    flag = np.select([~above_floor(config, i_rect), above_valid(config, i_rect)], ["below_floor", "above_valid"], "ok")
    return _write_table(path, COMPARISON_HEADER, t, model, decoded, rel, flag)


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
    lines = [f"{key}={float(value)!r}" for key, value in record.items()]
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
