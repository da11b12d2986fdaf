"""Smoke tests of the experiment scripts in ``scripts/``: each ``main()``
runs with its command line and prints its table."""

import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, script, *args):
    """The stdout lines of ``script``'s ``main()`` under the command line ``args``."""
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path))["main"]()
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flags, compensation, worst_default", [
    ([], "off", 0.02),
    (["--compensate"], "on", 1e-3),
])
def test_linearity_experiment_prints_its_worst_error(monkeypatch, capsys, flags, compensation, worst_default):
    lines = _run(monkeypatch, capsys, "linearity_experiment.py", "--points", "4", *flags)
    # a header, one row a point, a blank line and the worst errors
    assert len(lines) == 7 and lines[-2] == ""
    worst = re.fullmatch(rf"worst relative error: ideal (\S+), defaults (\S+) \(compensation {compensation}\)",
                         lines[-1])
    assert worst, lines[-1]
    assert float(worst[1]) < 1e-12
    assert float(worst[2]) < worst_default


def test_distortion_experiment_prints_the_read_low_fraction(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "distortion_experiment.py")
    assert lines[0] == "reset pulse: 0.10 us, validity bound: 1.0 uA"
    assert lines[2].split() == ["i_A", "rate_hz", "raw_read_low", "compensated"]
    rows = [line.split() for line in lines[3:]]
    assert len(rows) == 6
    # the uncompensated decode reads lower as the rate rises; the
    # compensated one is exact
    read_low = [float(row[2].rstrip("%")) for row in rows]
    assert read_low == sorted(read_low) and read_low[0] > 0.0
    assert all(float(row[3]) < 1e-9 for row in rows)
