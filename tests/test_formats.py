import numpy as np
import pytest

from cfcsim import formats
from cfcsim.core import DEFAULT_CONFIG, CfcConfig
from cfcsim.decoder import ExponentialFit, ReconstructedSignal, SweepPoint, reconstruct
from cfcsim.formats import (
    CsvFormatError,
    read_events_csv,
    read_fit_record,
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
from cfcsim.simulator import EventStream, Phase, StateTrace, simulate
from cfcsim.stimulus import CurrentSignal, SpikeTrain, constant, regular_train, staircase_sweep

IDEAL = CfcConfig(t_rst=0.0, i_leak_floor=0.0)


def test_events_roundtrip_is_exact(tmp_path):
    ev = simulate(IDEAL, constant(3e-9, 1e-3), 1e-3).events
    path = write_events_csv(tmp_path / "events.csv", ev)
    back = read_events_csv(path)
    assert np.array_equal(back.t_req, ev.t_req)  # repr round-trips exactly
    assert np.array_equal(back.channel, ev.channel)
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


def test_empty_events_file_reads_empty(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert len(read_events_csv(p)) == 0
    p.write_text("t_req_s,channel,sf\n")
    assert len(read_events_csv(p)) == 0


def test_trace_and_recon_and_spikes_files(tmp_path):
    result = simulate(IDEAL, constant(1e-9, 1e-3), 1e-3, trace=True)
    tr = write_trace_csv(tmp_path / "trace.csv", result.trace)
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
    sig, _ = staircase_sweep(1e-9, 3e-9, 3, 0.1)
    p = write_signal_csv(tmp_path / "truth.csv", sig)
    lines = p.read_text().splitlines()
    assert lines[0] == "t_s,i_A"
    times = [float(r.split(",")[0]) for r in lines[1:]]
    assert times == sorted(times)
    assert len(times) > len(set(times))  # jump edges appear twice


def test_fit_record_roundtrip(tmp_path):
    fit = ExponentialFit(1e-9, 0.02, 1e-11, 3.2e-12)
    p = write_fit_record(tmp_path / "fit.txt", fit, extra={"stimulus_tau_s": 0.02})
    rec = read_fit_record(p)
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
    rows = [f"{_f(ev.t_req[k])},{int(ev.channel[k])},{int(ev.sf[k])}" for k in range(len(ev))]
    return _ref_table("t_req_s,channel,sf", rows)


def _ref_trace(tr):
    rows = [f"{_f(tr.t[k])},{_f(tr.v_low[k])},{_f(tr.v_high[k])},{tr.phase[k].value},{int(tr.selected[k])}"
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


def _ref_comparison(t, model, decoded, config):
    rows = []
    for k in range(t.size):
        m, d = float(model[k]), float(decoded[k])
        rel = (d - m) / m if m != 0 else float("nan")
        if m <= config.i_leak_floor:
            flag = "below_floor"
        elif m > config.i_max_valid:
            flag = "above_valid"
        else:
            flag = "ok"
        rows.append(f"{float(t[k])!r},{m!r},{d!r},{rel!r},{flag}")
    return _ref_table("t_s,i_model_A,i_decoded_A,rel_err,flag", rows)


# awkward floats: signed zero, the smallest subnormal, long mantissas,
# extremes of the exponent range and the converter's own scales
_AWKWARD = np.array([-0.0, 5e-324, 0.1, 1 / 3, 2.5e-12, 1e300, 123456789.0, -7.25e-9, 1.7976931348623157e308])


def _floats(n, shift=0):
    return np.resize(np.roll(_AWKWARD, shift), n)


def _table_cases(n):
    """(writer, argument(s), reference bytes) for every table writer, ``n`` rows of input."""
    k = np.arange(n)
    ev = EventStream(_floats(n), np.resize([0, 7, 2**31, 2**62 + 1], n), k % 2)
    phases = np.resize(np.array(list(Phase), dtype=object), n)
    tr = StateTrace(_floats(n), _floats(n, 1), _floats(n, 2), phases, (k % 2).astype(np.uint8))
    rec = ReconstructedSignal(_floats(n), _floats(n, 3), (k % 2).astype(np.uint8))
    times = np.arange(n) * 1e-4
    times[:1] = -0.0
    spikes = SpikeTrain(np.concatenate(([-0.0, 5e-324], times[2:]))[:n])
    points = [SweepPoint(float(x), None if j % 3 == 0 else float(y), int(j * 1000003))
              for j, (x, y) in enumerate(zip(_floats(n), _floats(n, 4)))]
    model = np.resize([0.0, -0.0, 5e-324, 1e-12, DEFAULT_CONFIG.i_leak_floor, 1e-9,
                       DEFAULT_CONFIG.i_max_valid, 1e-5, 1e300], n)
    comparison = (times, model, _floats(n, 5), DEFAULT_CONFIG)
    cases = [
        (write_events_csv, (ev,), _ref_events(ev)),
        (write_trace_csv, (tr,), _ref_trace(tr)),
        (write_recon_csv, (rec,), _ref_recon(rec)),
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


@pytest.mark.parametrize("n", [0, 1, formats._BLOCK + 1])
def test_table_writers_match_the_per_row_reference(tmp_path, n):
    cases = _table_cases(n)
    assert len(cases) == (7 if n else 6)
    for writer, args, expected in cases:
        path = writer(tmp_path / f"{writer.__name__}.csv", *args)
        assert path.read_bytes() == expected, writer.__name__
