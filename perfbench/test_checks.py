"""Each output checker accepts the program's real output and rejects a
corrupted copy of it, so no check can pass vacuously.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import charsum as cs  # noqa: E402
import charsum.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402

MONOM_JOB = {"kind": "monom", "p": 7, "exponents": [3, -1],
             "characters": ["trivial", "e3"], "a": 3, "depth": 1}
NORM_JOB = {"kind": "norm", "p": 3, "factor_degrees": [2], "ranks": [1],
            "characters": ["trivial"], "a": 2, "depth": 2}


def _report(job):
    code, text = workloads._run_cli(cs.cli, json.dumps(job))
    return code, json.loads(text)


def _record(report, kind):
    return next(c for c in report["cases"] if c.get("record") == kind)


def test_sweep_checker_accepts_real_reports():
    for job in (MONOM_JOB, NORM_JOB):
        code, report = _report(job)
        assert checks.check_sweep_job(job, code, report) == []


def test_sweep_checker_rejects_flipped_coefficient_of_c():
    code, report = _report(MONOM_JOB)
    order, coeffs = _record(report, "transform")["c"]
    assert order > 1, "c must be irrational for a sign flip to show"
    for i in (i for i, x in enumerate(coeffs) if x):
        bad = copy.deepcopy(report)
        _record(bad, "transform")["c"][1][i] = -coeffs[i]
        assert checks.check_sweep_job(MONOM_JOB, code, bad)


def test_sweep_checker_rejects_wrong_b():
    for job in (MONOM_JOB, NORM_JOB):
        code, report = _report(job)
        b = _record(report, "transform")["b"]
        for wrong in range(1, job["p"]):
            if wrong == b:
                continue
            bad = copy.deepcopy(report)
            _record(bad, "transform")["b"] = wrong
            assert checks.check_sweep_job(job, code, bad)


def test_sweep_checker_rejects_off_by_one_tuple_count():
    for job in (MONOM_JOB, NORM_JOB):
        code, report = _report(job)
        for delta in (-1, 1):
            bad = copy.deepcopy(report)
            _record(bad, "moments")["checked"] += delta
            assert checks.check_sweep_job(job, code, bad)


def test_sweep_checker_rejects_failing_exit_code():
    code, report = _report(MONOM_JOB)
    assert checks.check_sweep_job(MONOM_JOB, 1, report)


def _falsify_case(p, terms):
    s = cs.CharSystem(cs.build_tower(p, 1, degrees=(1, 2)))
    mono = cs.GammaMonomial([(s.character(d, i), n) for d, i, n in terms])
    return s, mono


def test_witness_checker_accepts_real_witnesses_and_none():
    for p, terms in workloads.BROKEN:
        s, mono = _falsify_case(p, terms)
        d, lam = cs.find_violation(s, mono, 2)
        assert checks.check_witness(p, terms, 2, (d, lam.index), False) == []
    p, terms = workloads.ZERO_DIVISOR[-1]
    s, mono = _falsify_case(p, terms)
    assert cs.find_violation(s, mono, 2) is None
    assert checks.check_witness(p, terms, 2, None, True) == []


def test_witness_checker_rejects_late_and_fabricated_witnesses():
    p, terms = 7, [(1, 0, 3), (1, 2, -1)]
    s, mono = _falsify_case(p, terms)
    d, lam = cs.find_violation(s, mono, 2)
    first = (d, lam.index)
    later = [(dd, i) for dd in (1, 2) for i in range(1, p ** dd - 1)
             if (dd, i) > first
             and checks.nontrivial_counts(p, terms, dd, i)[2]
             != checks.nontrivial_counts(p, terms, dd, 0)[2]]
    assert later, "the monomial must have a later witness too"
    assert checks.check_witness(p, terms, 2, later[0], False)
    for fake in ((d, 0), (2, 5), None, "inconclusive"):
        assert checks.check_witness(p, terms, 2, fake, False)
    zp, zterms = workloads.ZERO_DIVISOR[-1]
    assert checks.check_witness(zp, zterms, 2, (1, 1), True)


def test_identity_exponent_checker_rejects_wrong_m():
    p, terms = workloads.ZERO_DIVISOR[-3]
    s, mono = _falsify_case(p, terms)
    for d in (1, 2):
        for idx in range(p ** d - 1):
            m = cs.verify_monomial_identity(s, mono, s.character(d, idx))
            assert checks.check_identity_exponent(p, terms, d, idx, m) == []
            assert checks.check_identity_exponent(p, terms, d, idx, m + 1)


def test_i_sum_checkers_reject_perturbed_i_sum():
    p, ns, a, idxs = 7, (2, -1), 3, (1, 4)
    s = cs.CharSystem(cs.build_tower(p))
    dat = cs.MonomialDatum(1, ns, (s.trivial(1),) * 2, a)
    lams = tuple(s.character(1, i) for i in idxs)
    v = cs.i_sum_direct(s, dat, lams)
    w = cs.i_sum_closed(s, dat, lams)
    closed = (w.order, w.coeffs)
    approx = checks.i_sum_float(p, 1, ns, a, idxs)
    assert checks.check_float_value("I", v.order, v.coeffs, approx, 36) == []
    assert checks.check_same("I", ((v.order, v.coeffs), closed)) == []
    for i in range(len(v.coeffs)):
        bad = list(v.coeffs)
        bad[i] += 1
        assert checks.check_float_value("I", v.order, bad, approx, 36)
        assert checks.check_same("I", ((v.order, bad), closed))


def test_float_checker_rejects_perturbed_gauss_sum():
    p = 13
    s = cs.CharSystem(cs.build_tower(p), 5)
    for idx in range(p - 1):
        g = s.gauss_sum(s.character(1, idx))
        approx = checks.gauss_sum_float(p, 5, idx)
        assert checks.check_float_value("g", g.order, g.coeffs, approx,
                                        p - 1) == []
        assert checks.check_float_value("g", g.order, g.coeffs,
                                        approx + 1e-3, p - 1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
