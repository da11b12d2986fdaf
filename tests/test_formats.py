import numpy as np
import pytest

from cfcsim.core import CfcConfig
from cfcsim.decoder import ExponentialFit, reconstruct
from cfcsim.formats import (
    CsvFormatError,
    read_events_csv,
    read_fit_record,
    write_events_csv,
    write_fit_record,
    write_recon_csv,
    write_signal_csv,
    write_spikes_csv,
    write_summary_json,
    write_trace_csv,
)
from cfcsim.simulator import EventStream, simulate
from cfcsim.stimulus import constant, regular_train, staircase_sweep

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
