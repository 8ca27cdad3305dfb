"""The kernel timer script runs under python -O and prints its tables."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import charsum

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_optimized(script, *args):
    src = str(Path(charsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", str(SCRIPTS / script),
                           *args], env=env, capture_output=True, text=True)


def test_kernel_probe_runs_optimized():
    proc = _run_optimized("kernel_probe.py", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    kernel, layers = proc.stdout.split("\n\n")
    lines = kernel.splitlines()
    assert lines[0].split() == ["order", "coeffs", "poly_mul_us",
                                "reduce_us", "roots_us", "gauss_us",
                                "galois_us", "jacobi_us"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["M336", "small"], ["M336", "wide"],
        ["M2184", "small"], ["M2184", "wide"]]
    assert all(float(x) > 0 for row in rows for x in row[2:])
    lines = layers.splitlines()
    assert lines[0].split() == ["layer", "us"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == [
        "transform_F13_cubic", "i_direct_F9x3", "ratio_F7_2fold",
        "sweep_tuple_F49", "sweep_orbit_F49",
        "identity_F169_hd12", "import_charsum"]
    assert all(len(row) == 2 and float(row[1]) > 0 for row in rows)
