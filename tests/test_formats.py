import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcsim import core, formats
from cfcsim.core import DEFAULT_CONFIG, CfcConfig
from cfcsim.decoder import ExponentialFit, ReconstructedSignal, SweepPoint, reconstruct
from cfcsim.formats import (
    CsvFormatError,
    read_events_csv,
    write_comparison_csv,
    write_events_csv,
    write_fit_record,
    write_recon_csv,
    write_signal_csv,
    write_spikes_csv,
    write_summary_json,
    write_sweep_csv,
    write_trace_csv,
)
from cfcsim.simulator import EventStream, Phase, StateTrace, simulate, state_trace
from cfcsim.stimulus import CurrentSignal, SpikeTrain, constant, regular_train, staircase_sweep
from oracle import block_size

IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


def test_events_roundtrip_is_exact(tmp_path):
    ev = simulate(IDEAL, constant(3e-9, 1e-3), 1e-3).events
    path = write_events_csv(tmp_path / "events.csv", ev)
    back = read_events_csv(path)
    assert np.array_equal(back.t_req, ev.t_req)  # repr round-trips exactly
    assert back.channel == ev.channel
    assert np.array_equal(back.sf, ev.sf)


def test_events_read_errors_name_lines(tmp_path):
    p = tmp_path / "bad_header.csv"
    p.write_text("time,chan,flag\n1.0,0,0\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        read_events_csv(p)

    p2 = tmp_path / "bad_row.csv"
    p2.write_text("t_req_s,channel,sf\n0.001,0,0\nnot-a-number,0,1\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_events_csv(p2)

    p3 = tmp_path / "bad_fields.csv"
    p3.write_text("t_req_s,channel,sf\n0.001,0\n")
    with pytest.raises(CsvFormatError, match="line 2.*3 fields"):
        read_events_csv(p3)

    p4 = tmp_path / "bad_sf.csv"
    p4.write_text("t_req_s,channel,sf\n0.001,0,2\n")
    with pytest.raises(CsvFormatError, match="sf must be 0 or 1"):
        read_events_csv(p4)

    for name, row in [("nan", "nan,0,0"), ("inf", "inf,0,0"), ("neg_inf", "-inf,0,1")]:
        p5 = tmp_path / f"{name}_time.csv"
        p5.write_text(f"t_req_s,channel,sf\n0.001,0,0\n{row}\n")
        with pytest.raises(CsvFormatError, match="line 3: t_req_s must be finite"):
            read_events_csv(p5)

    p6 = tmp_path / "negative_channel.csv"
    p6.write_text("t_req_s,channel,sf\n0.001,0,0\n0.002,-1,0\n")
    with pytest.raises(CsvFormatError, match="line 3: channel must be non-negative"):
        read_events_csv(p6)


def test_events_channel_of_2_63_or_more_names_its_line(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text(f"t_req_s,channel,sf\n0.001,{2**63 - 1},0\n")
    assert read_events_csv(p).channel == 2**63 - 1
    for channel in (2**63, 2**64):
        p.write_text(f"t_req_s,channel,sf\n0.001,0,0\n0.002,{channel},0\n")
        with pytest.raises(CsvFormatError, match=r"line 3: channel must be below 2\*\*63"):
            read_events_csv(p)


def _read_rows(text):
    """An events file read one row at a time with Python's float and int,
    its lines ended by universal newlines and each field stripped: the
    times, the channel of each row and the flags."""
    t, ch, sf = [], [], []
    for row in text.replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]:
        if row.strip():
            time_s, channel, flag = (field.strip() for field in row.split(","))
            t.append(float(time_s))
            ch.append(int(channel))
            sf.append(int(flag))
    return t, ch, sf


def _assert_reads_as_rows(path):
    want_t, want_ch, want_sf = _read_rows(path.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_events_csv(path)
    assert got.t_req.tobytes() == np.asarray(want_t, dtype=np.float64).tobytes()  # -0.0 counts
    assert type(got.channel) is int and want_ch == [got.channel] * len(want_ch)
    assert got.sf.tolist() == want_sf
    assert (got.t_req.dtype, got.sf.dtype) == (np.float64, np.uint8)


_TIMES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]),
)
# the spellings a writer might use for one float
_SPELLINGS = [repr, "{:.17g}".format, "{:.17e}".format, "{:+.20f}".format, lambda x: f" {x!r}\t"]


@settings(max_examples=200, deadline=None)
@given(
    channel=st.integers(min_value=0, max_value=2**63 - 1),
    rows=st.lists(
        st.tuples(_TIMES, st.sampled_from(range(len(_SPELLINGS))), st.sampled_from([0, 1]), st.booleans()),
        min_size=1, max_size=40,
    ),
    line_break=st.sampled_from(["\n", "\r\n", "\r"]),
)
@example(channel=2**63 - 1, rows=[(5e-324, 0, 1, False), (-0.0, 0, 0, True), (1e-310, 1, 0, False)], line_break="\n")
def test_events_reader_matches_the_row_parser(tmp_path_factory, channel, rows, line_break):
    lines = ["t_req_s,channel,sf"]
    for time_s, spelling, flag, blank_after in rows:
        lines.append(f"{_SPELLINGS[spelling](time_s)},{channel},{flag}")
        if blank_after:
            lines.append("")
    path = tmp_path_factory.mktemp("rows") / "events.csv"
    path.write_text(line_break.join(lines) + line_break, newline="")
    _assert_reads_as_rows(path)


@pytest.mark.parametrize("body", [
    "0.1,0,0\n   \n0.2,0,1\n",        # a whitespace-only row
    "1_0,1_0,0\n0.5,1_0,1\n",         # digit-group underscores
    "0.1,0,0\x0c0.2,0,1\n",             # form feed ends no line: five fields
    "0.1,0,0\u20280.2,0,1\n",           # nor does U+2028
    "\u0661.\u0665,\u0663,0\n",         # Arabic-Indic digits
    "\uff11.\uff15,\uff11\uff12,1\n",    # fullwidth digits
    "\n\n0.1,0,0\n",
])
def test_events_reader_edge_rows_read_as_the_row_parser(tmp_path, body):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n" + body)
    try:
        _read_rows(p.read_text())
    except ValueError:  # a row of five fields
        with pytest.raises(CsvFormatError, match=r": line 2: expected 3 fields, got 5$"):
            read_events_csv(p)
        return
    _assert_reads_as_rows(p)


@pytest.mark.parametrize("body, line", [
    pytest.param("0.1,4,0\n\n0.2,4,1\n0.3,5,0\n0.4,4,1\n", 5, id="columns"),
    # 1_0 is a spelling only the row pass takes
    pytest.param("1_0,4,0\n0.2,4_0,1\n", 3, id="rows"),
])
def test_events_second_channel_names_its_line(tmp_path, body, line):
    p = tmp_path / "events.csv"
    p.write_text("t_req_s,channel,sf\n" + body)
    with pytest.raises(CsvFormatError, match=rf": line {line}: channel \d+ differs from the first row's channel 4; "
                                             "an events file holds one channel$"):
        read_events_csv(p)


@pytest.mark.parametrize("row", ["nan,0,0", "inf,0,0", "infinity,0,0", "-Infinity,0,1", "1e400,0,0"])
def test_events_non_finite_time_names_its_line(tmp_path, row):
    p = tmp_path / "events.csv"
    p.write_text(f"t_req_s,channel,sf\n0.001,0,0\n{row}\n0.003,0,0\n")
    with pytest.raises(CsvFormatError, match="line 3: t_req_s must be finite"):
        read_events_csv(p)


def test_events_header_then_blank_lines_reads_empty_without_warning(tmp_path):
    p = tmp_path / "events.csv"
    for body in ("\n", "\n\n\n", "  \n\t\n"):
        p.write_text("t_req_s,channel,sf\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_events_csv(p)) == 0


# the line breaks of ``str.splitlines`` that end no line of an events file
_NOT_NEWLINES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


@pytest.mark.parametrize("text", [
    b"t_req_s,channel,sf\r\n0.1,3,0\r\n0.2,3,1\r\n",
    b"t_req_s,channel,sf\r\n0.1,3,0\r\n0.2,3,2\r\n",
    b"t_req_s,channel,sf\n0.1,3,0\n0.2,3,1",
    b"t_req_s,channel,sf\n0.1,3,0\n0.2,x,1",
    b"t_req_s,channel,sf\n\n0.1,3,0\n\n \t\n0.2,3,1\n\n",
    b"t_req_s,channel,sf\n\n \n\t\n",
    # a bad row far into the file
    b"t_req_s,channel,sf\n" + b"0.1,0,0\n" * 60_001 + b"0.2,0,2\n",
    # a line break of ``str.splitlines`` alone inside a row: whitespace
    # after the channel, which both routes strip
    *(f"t_req_s,channel,sf\n0.1,0{sep},1\n".encode() for sep in _NOT_NEWLINES),
], ids=["crlf", "crlf-bad-row", "no-final-newline", "no-final-newline-bad-row", "blank-lines-between-rows",
        "header-then-blank-lines", "bad-row-at-line-60003", *(f"padded-by-{sep!r}" for sep in _NOT_NEWLINES)])
def test_events_reader_streams_as_the_row_reader_reads(tmp_path, text):
    # the same stream, or the same error on the same line, as the per-row
    # reader; pytest turns a numpy warning into an error
    p = tmp_path / "events.csv"
    p.write_bytes(text)
    try:
        want = formats._read_events_rows(p)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            read_events_csv(p)
        assert str(got.value) == str(exc)
        return
    got = read_events_csv(p)
    assert got.t_req.tobytes() == want.t_req.tobytes()
    assert got.channel == want.channel
    assert got.sf.tolist() == want.sf.tolist()


_SMALL_EVENTS = b"t_req_s,channel,sf\n" + b"".join(b"%r,3,%d\n" % (k / 7, k % 2) for k in range(100))


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_events_file_named_as_compressed_reads_as_its_text(tmp_path, suffix):
    # ``np.loadtxt`` would open such a path with a decompressor
    assert set(np.lib._datasource._file_openers.keys()) - {None} <= formats._COMPRESSED_SUFFIXES
    p = tmp_path / f"events.csv{suffix}"
    p.write_bytes(_SMALL_EVENTS)
    _assert_reads_as_rows(p)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_events_reader_reads_a_pipe(tmp_path):
    # a pipe is read once: a reader that opens it again after the header sees no rows
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, _SMALL_EVENTS)  # less than any pipe's buffer
        os.close(write_end)
        got = read_events_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    p = tmp_path / "events.csv"
    p.write_bytes(_SMALL_EVENTS)
    want = read_events_csv(p)
    assert got.t_req.tobytes() == want.t_req.tobytes() and len(want) == 100
    assert got.channel == want.channel
    assert got.sf.tolist() == want.sf.tolist()


_HAS_FD = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")


def _read_pipe(text):
    """:func:`read_events_csv` of ``text``, shorter than any pipe's buffer,
    written into a pipe and read as ``/dev/fd/N``."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text)
        os.close(write_end)
        return read_events_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def _read_both(path, text):
    """What ``text`` reads as from the regular file ``path`` and from a
    pipe: each stream's columns, or its error without the path."""
    path.write_bytes(text)
    got = []
    for read in (lambda: read_events_csv(path), lambda: _read_pipe(text)):
        try:
            ev = read()
        except CsvFormatError as exc:
            got.append(str(exc).split(": ", 1)[1])
        else:
            got.append((ev.t_req.tobytes(), ev.channel, ev.sf.tobytes()))
    return got


def _padding():
    """Every character that ``str.isspace`` takes or ``str.splitlines``
    ends a line at, but \\n and \\r: each line of all characters in order,
    but the last, ends at such a break."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    breaks = {line[-1] for line in chars.splitlines(keepends=True)[:-1]}
    return sorted({*filter(str.isspace, chars), *breaks} - {"\n", "\r"})


_PADS = st.text(st.sampled_from(_padding()), max_size=2)
_JUNK_ROWS = ["x,3,0", "0.1,3", "0.1,3,1,", "0.1,3,2", "0.1,3.0,1", "nan,3,0", "0.1,-1,0", "0.1,4,0", "1_0,3,1",
              "", " \t"]


@st.composite
def _padded_rows(draw):
    fields = [draw(st.sampled_from(_SPELLINGS))(draw(_TIMES)), "3", str(draw(st.sampled_from([0, 1])))]
    return ",".join(draw(_PADS) + field + draw(_PADS) for field in fields)


@_HAS_FD
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(_padded_rows(), st.sampled_from(_JUNK_ROWS)), min_size=1, max_size=20),
       line_break=st.sampled_from(["\n", "\r\n", "\r"]))
@example(rows=["0.1,3,1\x1f"], line_break="\n")
def test_events_file_and_pipe_read_alike(tmp_path_factory, rows, line_break):
    # ``np.loadtxt`` reads the file and the row reader the pipe: the same
    # stream, or the same error
    text = line_break.join(["t_req_s,channel,sf", *rows]) + line_break
    path_got, pipe_got = _read_both(tmp_path_factory.mktemp("routes") / "events.csv", text.encode())
    assert path_got == pipe_got


@_HAS_FD
def test_events_header_and_separator_on_one_line(tmp_path):
    # \x0c, \x1c and U+2028 end no line: a file broken only by them is one
    # line, which is not the header, from a path and from a pipe
    for sep in ["\x0c", "\x1c", "\u2028"]:
        text = sep.join(["t_req_s,channel,sf", "0.1,0,0", "0.2,0,1", ""])
        error = f"line 1: expected header 't_req_s,channel,sf', got {text!r}"
        assert _read_both(tmp_path / "events.csv", text.encode()) == [error, error]


@_HAS_FD
@pytest.mark.parametrize("text, error", [
    (b"t_req_s,channel,sf\n0.1,0,2\n", "line 2: sf must be 0 or 1, got 2"),
    (b"t_req_s,channel,sf\n0.1,0,0\n\xff,0,0\n", "line 3: byte 0xff is not UTF-8 (invalid start byte)"),
    (b"time,chan,flag\n0.1,0,0\n", "line 1: expected header 't_req_s,channel,sf', got 'time,chan,flag'"),
], ids=["bad-flag", "undecodable-byte", "wrong-header"])
def test_events_reader_names_the_line_of_a_pipe(text, error):
    # a pipe is read once: the line is named from that one pass
    with pytest.raises(CsvFormatError, match=rf"^/dev/fd/\d+: {re.escape(error)}$"):
        _read_pipe(text)


@_HAS_FD
def test_events_routes_are_loadtxt_for_plain_files_and_rows_for_the_rest(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("this input belongs to the other route")

    n = 100
    text = write_events_csv(tmp_path / "events.csv", EventStream(np.arange(n) / 7, 3, np.arange(n) % 2)).read_bytes()
    monkeypatch.setattr(formats, "_read_events_rows", refuse)
    for name, data in [("lf.csv", text), ("crlf.csv", text.replace(b"\n", b"\r\n")),
                       ("blank-end.csv", text + b"\n\n\n"), ("non-ascii.csv", text.replace(b",3,", b",\xc2\xa03,")),
                       ("form-feed.csv", text.replace(b",3,", b",3\x0c,"))]:
        (tmp_path / name).write_bytes(data)
        assert len(read_events_csv(tmp_path / name)) == n
    monkeypatch.undo()
    monkeypatch.setattr(np, "loadtxt", refuse)
    (tmp_path / "events.csv.gz").write_bytes(text)
    assert len(read_events_csv(tmp_path / "events.csv.gz")) == len(_read_pipe(text)) == n


@pytest.mark.parametrize("text, error", [
    (b"t_req_s,channel,sf\n0.1,0,0\n\xff\xfe,0,0\n", "line 3: byte 0xff is not UTF-8 ("),
    (b"t_req_s,ch\xe9nnel,sf\n0.1,0,0\n", "line 1: byte 0xe9 is not UTF-8 ("),
    # the bad byte far into the file; a CR LF ends one line, a form feed none
    (b"t_req_s,channel,sf\r\n" + b"0.1,0,0\n" * 20_000 + b"0.2,0,0\x0c0.3,\x80,1\n",
     "line 20002: byte 0x80 is not UTF-8 ("),
    # a multi-byte sequence cut off at the end of the file
    (b"t_req_s,channel,sf\n0.1,0,0\n0.2,0,\xc3", "line 3: byte 0xc3 is not UTF-8 ("),
    # a malformed row above the bad byte is the first fault, and is named
    (b"t_req_s,channel,sf\nx,0,0\n0.2,0,0\xa0\n", "line 2: could not convert string to float: 'x'"),
], ids=["row", "header", "line-20002", "truncated-at-end", "after-a-bad-row"])
def test_events_undecodable_byte_names_its_line(tmp_path, text, error):
    p = tmp_path / "events.csv"
    p.write_bytes(text)
    with pytest.raises(CsvFormatError, match=rf"^{re.escape(f'{p}: {error}')}"):
        read_events_csv(p)


def test_events_malformed_row_is_named_before_an_undecodable_byte_far_below_it(tmp_path):
    p = tmp_path / "events.csv"
    p.write_bytes(b"t_req_s,channel,sf\nx,0,0\n" + b"0.1,0,0\n" * 20_000 + b"0.2,0,\xff\n")
    with pytest.raises(CsvFormatError, match=rf"^{re.escape(str(p))}: line 2: could not convert string to float: 'x'$"):
        read_events_csv(p)


@_HAS_FD
def test_events_pipe_names_a_malformed_line_before_its_writer_closes():
    # a live stream: the reader names line 2 as soon as it arrives, without
    # waiting for the end of the input.  The read runs in a thread, so that
    # a reader that waits fails here rather than hanging the suite
    read_end, write_end = os.pipe()
    got = []

    def read():
        try:
            read_events_csv(f"/dev/fd/{read_end}")
        except CsvFormatError as exc:
            got.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    try:
        os.write(write_end, b"t_req_s,channel,sf\n0.1,0,2\n")
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "the reader waited for the writer to close"
    finally:
        os.close(write_end)  # ends a waiting read, so the thread finishes
        reader.join(timeout=10)
        os.close(read_end)
    assert got == [f"/dev/fd/{read_end}: line 2: sf must be 0 or 1, got 2"]


def test_empty_events_file_reads_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert len(read_events_csv(p)) == 0
    p.write_text("t_req_s,channel,sf\n")
    assert len(read_events_csv(p)) == 0


@pytest.mark.parametrize("text", ["time,chan,flag\n", "time,chan,flag\n\n \n", "\n0.1,0,0\n", " \n\n0.1,0,0\n"],
                         ids=["wrong-header-only", "wrong-header-then-blank-lines", "blank-line-1-then-a-row",
                              "blank-lines-then-a-row"])
def test_events_file_without_the_header_names_line_1(tmp_path, text):
    p = tmp_path / "events.csv"
    p.write_text(text)
    got = re.escape(repr(text.splitlines()[0]))
    with pytest.raises(CsvFormatError, match=f": line 1: expected header 't_req_s,channel,sf', got {got}$"):
        read_events_csv(p)


def test_trace_and_recon_and_spikes_files(tmp_path):
    stim = constant(1e-9, 1e-3)
    result = simulate(IDEAL, stim, 1e-3)
    tr = write_trace_csv(tmp_path / "trace.csv", state_trace(IDEAL, stim, 1e-3, result.events))
    lines = tr.read_text().splitlines()
    assert lines[0] == "t_s,v_low_V,v_high_V,phase,selected"
    assert "integrating" in lines[1]

    rec = reconstruct(result.events, IDEAL)
    rc = write_recon_csv(tmp_path / "recon.csv", rec)
    assert rc.read_text().splitlines()[0] == "t_s,i_A,range"

    sp = write_spikes_csv(tmp_path / "spikes.csv", regular_train(20.0, 0.5))
    assert sp.read_text().splitlines()[0] == "t_s"
    assert len(sp.read_text().splitlines()) == 11


def test_signal_csv_marks_steps_with_duplicate_times(tmp_path):
    sig = staircase_sweep(1e-9, 3e-9, 3, 0.1)
    p = write_signal_csv(tmp_path / "truth.csv", sig)
    lines = p.read_text().splitlines()
    assert lines[0] == "t_s,i_A"
    times = [float(r.split(",")[0]) for r in lines[1:]]
    assert times == sorted(times)
    assert len(times) > len(set(times))  # jump edges appear twice


def _read_fit(path):
    """A fit record's ``key=value`` lines as a dict of floats."""
    pairs = (line.split("=") for line in path.read_text(encoding="utf-8").splitlines())
    return {key: float(value) for key, value in pairs}


def test_fit_record_roundtrip(tmp_path):
    fit = ExponentialFit(1e-9, 0.02, 1e-11, 3.2e-12)
    p = write_fit_record(tmp_path / "fit.txt", fit, extra={"stimulus_tau_s": 0.02})
    rec = _read_fit(p)
    assert rec["tau_s"] == 0.02
    assert rec["amplitude_A"] == 1e-9
    assert rec["stimulus_tau_s"] == 0.02


def test_summary_json_deterministic_bytes(tmp_path):
    payload = {"b": 1.5, "a": [1, 2], "config": {"z": 0.1, "y": 2}}
    p1 = write_summary_json(tmp_path / "s1.json", payload)
    p2 = write_summary_json(tmp_path / "s2.json", dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_events_empty_stream(tmp_path):
    p = write_events_csv(tmp_path / "none.csv", EventStream.empty())
    assert p.read_text() == "t_req_s,channel,sf\n"


# Byte-level reference: the per-row formatting that the column-wise
# table writer replaced (``repr`` floats, ``int`` flags, ``\n`` line ends),
# written out one row at a time.

def _f(x):
    return repr(float(x))


def _ref_table(header, rows):
    return ("\n".join([header] + rows) + "\n").encode()


def _ref_events(ev):
    rows = [f"{_f(ev.t_req[k])},{ev.channel},{int(ev.sf[k])}" for k in range(len(ev))]
    return _ref_table("t_req_s,channel,sf", rows)


_PHASE_TEXT = {Phase.INTEGRATING: "integrating", Phase.REQUEST_PENDING: "request_pending",
               Phase.RESET_PULSE: "reset_pulse"}


def _ref_trace(tr):
    rows = [f"{_f(tr.t[k])},{_f(tr.v_low[k])},{_f(tr.v_high[k])},{_PHASE_TEXT[tr.phase[k]]},{int(tr.selected[k])}"
            for k in range(len(tr))]
    return _ref_table("t_s,v_low_V,v_high_V,phase,selected", rows)


def _ref_recon(rec):
    rows = [f"{_f(rec.t[k])},{_f(rec.i_est[k])},{int(rec.ranges[k])}" for k in range(len(rec))]
    return _ref_table("t_s,i_A,range", rows)


def _ref_signal(sig):
    ends = np.append(sig.times[1:], sig.end)
    rows, prev = [], None
    for j in range(sig.times.size):
        start = (float(sig.times[j]), float(sig.i_start[j]))
        if start != prev:
            rows.append(f"{_f(start[0])},{_f(start[1])}")
        stop = (float(ends[j]), float(sig.i_end[j]))
        rows.append(f"{_f(stop[0])},{_f(stop[1])}")
        prev = stop
    return _ref_table("t_s,i_A", rows)


def _ref_spikes(train):
    return _ref_table("t_s", [_f(t) for t in train.times])


def _ref_sweep(points):
    rows = [
        f"{_f(p.level)},{'' if p.decoded is None else _f(p.decoded)},{p.n_events}" for p in points
    ]
    return _ref_table("level_A,i_decoded_A,n_events", rows)


def _comparison_columns(t, model, decoded, config):
    """The comparison table's columns, with each point's relative error
    and flag judged row by row."""
    rel, flag = [], []
    for m, d in zip(model.tolist(), decoded.tolist()):
        rel.append((d - m) / m if m != 0 else float("nan"))
        flag.append("below_floor" if m <= config.i_leak_floor else "above_valid" if m > config.i_max_valid else "ok")
    return t, model, decoded, np.array(rel), np.array(flag, dtype=str)


def _ref_comparison(t, model, decoded, rel, flag):
    rows = [f"{float(t[k])!r},{float(model[k])!r},{float(decoded[k])!r},{float(rel[k])!r},{flag[k]}"
            for k in range(t.size)]
    return _ref_table("t_s,i_model_A,i_decoded_A,rel_err,flag", rows)


# awkward floats: signed zero, the smallest subnormal, long mantissas,
# extremes of the exponent range and the converter's own scales
_AWKWARD = np.array([-0.0, 5e-324, 0.1, 1 / 3, 2.5e-12, 1e300, 123456789.0, -7.25e-9, 1.7976931348623157e308])


def _floats(n, shift=0):
    return np.resize(np.roll(_AWKWARD, shift), n)


def _table_cases(n):
    """(writer, argument(s), reference bytes) for every table writer, ``n`` rows of input."""
    k = np.arange(n)
    ev = EventStream(_floats(n), 2**62 + 1, k % 2)
    phases = np.resize(np.array(list(Phase), dtype=np.uint8), n)
    tr = StateTrace(_floats(n), _floats(n, 1), _floats(n, 2), phases, (k % 2).astype(np.uint8))
    rec = ReconstructedSignal(_floats(n), _floats(n, 3), (k % 2).astype(np.uint8))
    times = np.arange(n) * 1e-4
    times[:1] = -0.0
    # every cell of a column holds one value, over several blocks at the largest n
    flat = ReconstructedSignal(times, np.full(n, 1 / 3), np.ones(n, dtype=np.uint8))
    # cells almost all as long as their column's longest: the only case
    # whose full blocks drop their NULs with ``bytes.replace``, not a compress
    sparse = EventStream(np.sort(np.random.default_rng(n).uniform(0.3, 0.4, n)), 7, k % 2)
    spikes = SpikeTrain(np.concatenate(([-0.0, 5e-324], times[2:]))[:n])
    points = [SweepPoint(float(x), None if j % 3 == 0 else float(y), int(j * 1000003))
              for j, (x, y) in enumerate(zip(_floats(n), _floats(n, 4)))]
    model = np.resize([0.0, -0.0, 5e-324, 1e-12, DEFAULT_CONFIG.i_leak_floor, 1e-9,
                       DEFAULT_CONFIG.i_max_valid, 1e-5, 1e300], n)
    comparison = _comparison_columns(times, model, _floats(n, 5), DEFAULT_CONFIG)
    cases = [
        (write_events_csv, (ev,), _ref_events(ev)),
        (write_events_csv, (sparse,), _ref_events(sparse)),
        (write_trace_csv, (tr,), _ref_trace(tr)),
        (write_recon_csv, (rec,), _ref_recon(rec)),
        (write_recon_csv, (flat,), _ref_recon(flat)),
        (write_spikes_csv, (spikes,), _ref_spikes(spikes)),
        (write_sweep_csv, (points,), _ref_sweep(points)),
        (write_comparison_csv, comparison, _ref_comparison(*comparison)),
    ]
    if n:  # a signal has at least one segment
        # continuous joins (every third start repeats the previous end),
        # step edges and ramps
        i_end = _floats(n, 6)
        i_end[::7] = 0.0
        i_start = _floats(n, 7)
        joins = np.arange(3, n, 3)
        i_start[joins] = i_end[joins - 1]
        i_start[8:9] = -0.0  # joins the 0.0 that ends segment 7
        sig = CurrentSignal(times, i_start, i_end, end=n * 1e-4)
        cases.append((write_signal_csv, (sig,), _ref_signal(sig)))
    return cases


# n = 16: one block holds both 0.0 and -0.0 in the comparison model column;
# 3 * _BLOCK: several full blocks, each with its own set of sample times
@pytest.mark.parametrize("n", [0, 1, 16, core._BLOCK + 1, 3 * core._BLOCK])
def test_table_writers_match_the_per_row_reference(tmp_path, n):
    cases = _table_cases(n)
    assert len(cases) == (9 if n else 8)
    for writer, args, expected in cases:
        path = writer(tmp_path / f"{writer.__name__}.csv", *args)
        assert path.read_bytes() == expected, writer.__name__


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_table_writers_do_not_depend_on_the_block_size(tmp_path, k):
    # blocks of a few rows: a signal's blocks of segments keep one or two
    # rows a segment, and the writer cuts each into blocks of rows
    with block_size(k):
        for writer, args, expected in _table_cases(16):
            assert writer(tmp_path / f"{writer.__name__}.csv", *args).read_bytes() == expected, writer.__name__


_CELL_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1 / 3])
_CELL_INT_RANGES = {np.int64: (-2**63, 2**63 - 1), np.uint64: (0, 2**64 - 1), np.uint8: (0, 255), np.bool_: (0, 1)}
# no separator, line feed or NUL (which numpy strips from the end of a
# ``<U`` cell), and no lone surrogate, which does not encode
_CELL_TEXT = st.text(st.characters(blacklist_characters=",\n\x00", blacklist_categories=("Cs",)), max_size=5)


@st.composite
def _table_columns(draw):
    """One to three equal-length columns: numpy float64, int64, uint64,
    uint8, bool or ``<U`` blocks, or one int64 broadcast to every row as
    ``write_events_csv`` passes the channel.
    Each column either repeats a few drawn values or holds them once among
    random, almost surely distinct ones, which a float column may draw
    sorted within one binade; some tables span several blocks,
    and some hold ``_REPR_MAX`` values or one more, on either side of the
    switch from ``str`` to the float kernel."""
    n = draw(st.integers(1, 40) | st.sampled_from([formats._REPR_MAX, formats._REPR_MAX + 1, core._BLOCK,
                                                   core._BLOCK + 1, 2 * core._BLOCK + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float64", "int64", "uint64", "uint8", "bool", "str", "broadcast"]),
                              min_size=1, max_size=3)):
        if kind == "broadcast":
            columns.append(np.broadcast_to(np.int64(draw(st.integers(-2**63, 2**63 - 1))), n))
            continue
        if kind == "float64":
            pool = np.array(draw(st.lists(_CELL_FLOATS, min_size=1, max_size=8)))
            spread = rng.random(n)
            if draw(st.booleans()):  # one binade, as a sorted time column mostly is
                spread = 1.0 + np.sort(spread)
            spread *= draw(st.sampled_from([2.0**-1060, 2.0**-30, 1.0, 2.0**1000]))
        elif kind == "str":
            pool = np.array(draw(st.lists(_CELL_TEXT, min_size=1, max_size=8)))
            spread = np.char.add("s", np.arange(n).astype(str))
        else:
            dtype = {"int64": np.int64, "uint64": np.uint64, "uint8": np.uint8, "bool": np.bool_}[kind]
            lo, hi = _CELL_INT_RANGES[dtype]
            pool = np.array(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=8)), dtype=dtype)
            spread = rng.integers(lo, hi, n, dtype=dtype, endpoint=True)
        if draw(st.booleans()):  # the drawn values, then the spread
            column = np.concatenate((pool, spread))[:n]
        else:
            column = pool[rng.integers(0, pool.size, n)]
        columns.append(column)
    return columns


@settings(max_examples=60, deadline=None)
@given(columns=_table_columns())
@example(columns=[np.array([0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310])])
@example(columns=[np.linspace(1.25, 1.75, formats._REPR_MAX + 1)])  # one binade, through the float kernel
@example(columns=[np.array([-0.0, 0.0, -0.0, 5e-324, 5e-324, math.nan]),
                  np.array(["0.5", "", "3", "", "-0.0", "7"])])
def test_table_cells_are_str_of_each_value(tmp_path_factory, columns):
    path = formats._write_table(tmp_path_factory.mktemp("table") / "t.csv", "h", [columns])
    header, *rows, end = path.read_bytes().decode().split("\n")
    assert (header, end) == ("h", "")
    cells = list(zip(*(row.split(",") for row in rows)))
    assert len(cells) == len(columns)
    for column, text in zip(columns, cells):
        assert list(text) == [str(x) for x in column.tolist()]


# The float kernel: ``formats._float_cells`` must give ``repr``'s bytes
# for every float64, with no fallback to ``repr`` itself.

def _kernel_texts(x):
    bands = formats._float_cells(np.asarray(x, dtype=np.float64))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in bands.T]


def _assert_kernel_is_repr(x):
    want = [repr(v) for v in x.tolist()]
    got = _kernel_texts(x)
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_kernel_is_repr_of_any_bit_pattern(patterns):
    _assert_kernel_is_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def _with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the step above DBL_MAX is inf
        return np.concatenate((x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)))


def test_float_kernel_is_repr_at_the_edges():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # where repr switches between fixed and exponent notation
    switches = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 9.999999999999999e-5, 9.999999999999999e15])
    integers = np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 123456789012345678.0])
    specials = np.array([0.0, math.inf, sys.float_info.max, sys.float_info.min, 5e-324, 1 / 3, 0.1])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    x = _with_neighbours(np.concatenate((powers_of_two, powers_of_ten, switches, integers, specials)))
    subnormals = np.arange(2**16, dtype=np.uint64).view(np.float64)  # 0.0 and the 2**16 - 1 smallest
    _assert_kernel_is_repr(np.concatenate((x, -x, subnormals, -subnormals, nans)))


def _one_binade(e, n, rng):
    """A sorted block of ``n`` random doubles of biased exponent ``e``
    (0: the subnormals), of random signs."""
    bits = np.uint64(e) << np.uint64(52) | rng.integers(1, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return np.sort(bits.view(np.float64))


def test_float_kernel_is_repr_in_every_binade():
    # each block takes one multiplier; with the power of two that opens its
    # binade (0.0 for the subnormals) added, each value takes its own,
    # except beside 2**-1022, whose rounding interval is symmetric
    rng = np.random.default_rng(36)
    for e in range(2047):
        block = _one_binade(e, 24, rng)
        opening = np.uint64(e << 52).view(np.float64)
        _assert_kernel_is_repr(block)
        _assert_kernel_is_repr(np.sort(np.append(block, opening)))


def test_one_binade_takes_one_exponent():
    rng = np.random.default_rng(7)
    one = _one_binade(1000, 50, rng)
    f, k = formats._shortest(one.view(np.uint64))
    assert (f.shape, np.ndim(k)) == ((50,), 0)
    for block in (np.append(one, _one_binade(1001, 1, rng)), np.append(one, 2.0**(1000 - 1023))):
        f, k = formats._shortest(block.view(np.uint64))
        assert f.shape == k.shape == (51,)


def test_float_kernel_needs_no_two_digit_minimum():
    # the two rules of Java's DoubleToDecimal that only serve its "d.d" minimum
    # would write these as 4.9e-324 and 7.9e-323
    assert _kernel_texts([5e-324, 8e-323, 1e23, 9007199254740993.0]) == ["5e-324", "8e-323", "1e+23",
                                                                          "9007199254740992.0"]


# The integer kernel: ``formats._int_cells`` must give ``str``'s bytes for
# every integer of at most 64 bits.

def test_int_kernel_is_str_at_the_edges():
    tens = [v for k in range(20) for v in (10**k, 10**k - 1)]
    signed = [v for v in tens + [-v for v in tens] + [-2**63, 2**63 - 1] if -2**63 <= v < 2**63]
    cases = [np.array(signed, dtype=np.int64),
             np.array(tens + [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64),
             np.arange(256, dtype=np.uint8),
             np.array([-128, -1, 0, 127], dtype=np.int8),
             np.broadcast_to(np.int64(-2**63), core._BLOCK),  # the channel's zero-stride column
             np.broadcast_to(np.int64(0), 3)]
    for x in cases:
        bands = formats._int_cells(x)
        assert bands.dtype == np.uint8
        assert [cell.tobytes().replace(b"\0", b"").decode() for cell in bands.T] == [str(v) for v in x.tolist()]


def test_integer_blocks_are_neither_sorted_nor_given_to_str(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an increasing float column and integer columns need neither")

    def searchsorted(a, *args, **kwargs):  # the float kernel counts digits against the powers of ten
        if a is not formats._POW10:
            refuse()
        return real_searchsorted(a, *args, **kwargs)

    real_searchsorted = np.searchsorted
    for name in ("unique", "sort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np, "searchsorted", searchsorted)
    monkeypatch.setattr(formats, "_str_cells", refuse)
    n = 2 * core._BLOCK  # full blocks: no float block is small enough for ``str``
    sf = np.arange(n, dtype=np.uint8) % 2
    path = write_events_csv(tmp_path / "events.csv", EventStream(np.arange(n) * 1e-6, 2**40, sf))
    assert path.read_bytes().splitlines()[1:3] == [b"0.0,1099511627776,0", b"1e-06,1099511627776,1"]


def _dense_table(n):
    """A float64/int64/int64/uint8 table of ``n`` rows whose cells vary in
    length, so that its blocks are dense in NULs."""
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.random(n) * 1e-5) - 1e-3  # long, all-distinct texts of both signs
    channel = rng.integers(0, 2**40, n)
    wide = rng.integers(2**63 - 2**40, 2**63 - 1, n) * rng.choice([-1, 1], n)  # 19 digits and a sign
    sf = rng.integers(0, 2, n).astype(np.uint8)
    return t, channel, wide, sf


def _sparse_table(n):
    """An events table of ``n`` rows whose cells are almost all as long as
    their column's longest, so that its blocks are sparse in NULs."""
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0.3, 0.4, n))
    return t, np.broadcast_to(np.int64(7), n), rng.integers(0, 2, n).astype(np.uint8)


def _recon_table(n):
    """A recon table of ``n`` rows: increasing times, currents of a few
    repeated values, which take the gather of the deduplicated block, and
    a uint8 range flag."""
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.random(n) * 1e-5)
    i = rng.choice([1e-12, 3.3e-11, 1.7e-9, 2.5e-7, 4e-6], n)
    return t, i, (i > 1e-7).astype(np.uint8)


def _nul_share(columns):
    """The share of NULs in the rows of a table's first block."""
    cells = [formats._block_cells(column[:core._BLOCK]) for column in columns]
    return sum(c.size - np.count_nonzero(c) for c in cells) / sum(c.size + c.shape[1] for c in cells)


def _sampled_signal(n):
    """A decay sampled at ``n + 1`` points: one row a segment, all floats distinct."""
    t = np.linspace(0.0, 1.0, n + 1)
    return CurrentSignal.from_samples(t, 1e-9 * np.exp(-t / 0.3) + 2e-11)


def _stepped_signal(n):
    """A staircase of ``n`` steps: two rows a segment."""
    return staircase_sweep(1e-12, 1e-6, n, 1e-3)


def test_signal_writer_memory_is_one_block(tmp_path, traced_peak):
    # the rows are built one block of segments at a time, and the writer
    # cuts each into blocks of at most _BLOCK rows.  Measured traced peaks at
    # 3 * _BLOCK + 1 segments: 2.57 and 2.44 MB when the whole interleaved
    # columns were built, 1.48 and 1.08 MB with the blocks
    formats._write_table(tmp_path / "t.csv", "h", [_dense_table(formats._REPR_MAX + 1)])  # the multiplier table
    for signal in (_sampled_signal, _stepped_signal):
        one = traced_peak(write_signal_csv, tmp_path / "s.csv", signal(core._BLOCK + 1))
        three = traced_peak(write_signal_csv, tmp_path / "s.csv", signal(3 * core._BLOCK + 1))
        assert three <= 1.1 * one, signal.__name__
        assert three < 1.5e6, signal.__name__


def test_table_writer_memory_is_one_block(tmp_path, traced_peak):
    def peak(table, n):
        return traced_peak(formats._write_table, tmp_path / "t.csv", "h", [table(n)])

    peak(_dense_table, formats._REPR_MAX + 1)  # the multiplier table, built once
    for table, sparse in [(_dense_table, False), (_sparse_table, True), (_recon_table, False)]:
        # each table takes one of the two routes that drop the NULs
        assert (_nul_share(table(core._BLOCK)) < formats._REPLACE_MAX_NUL) == sparse
        one = peak(table, core._BLOCK + 1)
        three = peak(table, 3 * core._BLOCK + 1)
        assert three <= 1.1 * one, table.__name__
        assert three < 1.5e6, table.__name__


def test_one_binade_block_memory_is_bounded(traced_peak):
    # one multiplier and one shift for the whole block: traced peaks of
    # 0.66 MB, and 1.04 MB when each value took its own
    formats._float_cells(np.linspace(0.1, 0.9, formats._REPR_MAX + 1))  # the multiplier table, built once
    block = 2.0**-20 * (1.0 + np.sort(np.random.default_rng(0).random(core._BLOCK)))
    assert np.ndim(formats._shortest(block.view(np.uint64))[1]) == 0
    assert traced_peak(formats._float_cells, block) <= 0.75e6
