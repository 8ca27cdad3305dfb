"""The benchmark tracer in perfbench/tracing.py wraps charsum functions by
name; renaming or deleting one of them breaks the benchmark.  This runs the
tracer's install on a fresh import and the acceptance suite under it."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_SUITE = """
import contextlib
import io
import json
import sys
sys.path[:0] = sys.argv[1:3]
import charsum
import charsum.cli
import tracing
tracer = tracing.Tracer()
tracer.install(charsum)
with contextlib.redirect_stdout(io.StringIO()):
    code = charsum.cli.main(["--suite", "acceptance"])
print(json.dumps({"code": code, "calls": dict(tracer.calls)}))
"""


def test_tracer_installs_and_sees_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_SUITE, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    for name in ("norm_algebra.sweep", "monomial_fourier.sweep",
                 "identity_engine.verify", "characters.gauss_sum",
                 "characters.product_of_gauss", "cyclotomic.reduce",
                 "cyclotomic.q_power_ratio", "cyclotomic.from_root_counts"):
        assert out["calls"].get(name, 0) > 0, name
