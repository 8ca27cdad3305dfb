"""The example scripts run, and check their laws, under python -O."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import charsum
from charsum import CharSystem

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_optimized(script, *args):
    src = str(Path(charsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", str(SCRIPTS / script),
                           *args], env=env, capture_output=True, text=True)


def test_hd_scan_runs_optimized():
    proc = _run_optimized("hd_scan.py", "--primes", "3", "5",
                          "--max-degree", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "p=3: lifting checked on 2 (character, degree) pairs, "
        "product on 2 pairs (n in [2])",
        "p=5: lifting checked on 4 (character, degree) pairs, "
        "product on 8 pairs (n in [2, 4])",
        "0 failures",
    ]


def test_transform_demo_runs_optimized():
    proc = _run_optimized("transform_demo.py", "-p", "7", "-n", "3", "-1",
                          "--orders", "1", "3", "-a", "1", "--depth", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "case 1: exponents (3, -1), b = 6, twist = 0"
    assert lines[-1] == ("moment sweep to depth 1: 25 tuples, "
                         "3 nonvanishing, 0 failures")


def test_hd_scan_reports_failures(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("hd_scan",
                                                  SCRIPTS / "hd_scan.py")
    hd_scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hd_scan)
    monkeypatch.setattr(CharSystem, "check_hd_lift", lambda *a: False)
    assert hd_scan.main(["--primes", "3", "--max-degree", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["p=3: lifting law FAILS at index 0, degree 2",
                       "p=3: lifting law FAILS at index 1, degree 2"]
    assert out[-1] == "2 failures"


def test_kernel_probe_runs_optimized():
    proc = _run_optimized("kernel_probe.py", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["order", "coeffs", "poly_mul_us",
                                "reduce_us", "galois_us"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["M336", "small"], ["M336", "wide"],
        ["M2184", "small"], ["M2184", "wide"]]
    assert all(float(x) > 0 for row in rows for x in row[2:])
