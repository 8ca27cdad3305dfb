"""Tests for the batch CLI: job parsing, reports, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import charsum
import charsum.stalk_traces as st
from charsum.characters import CharSystem
from charsum.cli import FULL_JOBS, KINDS, Kind, Options, _parse_char, main, \
    run, suite
from charsum.errors import SchemaError, SizeBoundError
from charsum.field_tower import FieldTower


def write_job(tmp_path, payload):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(tmp_path, capsys, payload, *flags):
    code = main(["--job", write_job(tmp_path, payload), *flags])
    out = capsys.readouterr().out
    return code, out


MONOM_JOB = {"kind": "monom", "p": 7, "exponents": [3, -1],
             "characters": ["trivial", "e3"], "a": 1, "depth": 1}


# ----------------------------------------------------------- report content


def test_monom_example_report(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, MONOM_JOB)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    transform = doc["cases"][0]
    assert transform["b"] == 6
    assert transform["c"] == [1, [7]]
    assert transform["chi"] == {"degree": 1, "index": 2}
    moments = doc["cases"][1]
    assert moments["checked"] == 25 and moments["nonvanishing"] == 3
    assert doc["job"] == MONOM_JOB
    assert doc["summary"] == {"cases": 2, "passed": 2, "failed": 0}


def test_gauss_job_composite_field(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, {"kind": "gauss", "p": 2, "s": 2})
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["cases"] == 3
    assert all(c["pass"] for c in doc["cases"])
    # the trivial character's Gauss sum is -1
    assert doc["cases"][0]["g"] == [1, [-1]]


def test_hd_job_laws(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys,
                         {"kind": "hd", "p": 7, "n": 3})
    assert code == 0
    doc = json.loads(out)
    laws = {c["law"] for c in doc["cases"]}
    assert laws == {"lift", "product"}
    assert doc["summary"]["cases"] == 12
    code, out = run_main(tmp_path, capsys,
                         {"kind": "hd", "p": 13, "n": [12],
                          "laws": ["product"]})
    assert code == 0
    doc = json.loads(out)
    assert {c["law"] for c in doc["cases"]} == {"product"}


def test_identity_job_reports_m(tmp_path, capsys):
    job = {"kind": "identity", "p": 5, "depth": 2,
           "terms": [{"degree": 1, "char": "trivial", "n": 2},
                     {"degree": 1, "char": "trivial", "n": -1},
                     {"degree": 1, "char": "e2", "n": -1}]}
    code, out = run_main(tmp_path, capsys, job)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["cases"] == 28
    by_lam = {(c["lambda_degree"], c["lambda_index"]): c["m"]
              for c in doc["cases"]}
    assert by_lam[(1, 0)] == 0
    assert by_lam[(1, 1)] == 1


def test_identity_search_witness_fails_job(tmp_path, capsys):
    job = {"kind": "identity", "p": 3, "depth": 0, "search_depth": 2,
           "terms": [{"degree": 1, "char": "trivial", "n": 1},
                     {"degree": 1, "char": "e2", "n": -1}]}
    code, out = run_main(tmp_path, capsys, job)
    assert code == 1
    doc = json.loads(out)
    case = doc["cases"][0]
    assert case["pass"] is False
    degree, char = case["witness"]
    assert degree >= 1 and set(char) == {"degree", "index"}


def test_stalk_job_grid(tmp_path, capsys):
    job = {"kind": "stalk", "p": 5, "exponents": [1, -1],
           "characters": ["e2", "e2"], "a": 1, "emit_grid": True}
    code, out = run_main(tmp_path, capsys, job)
    assert code == 0
    doc = json.loads(out)
    case = doc["cases"][0]
    assert case["grid"]["k"] == 2
    assert len(case["grid"]["values"]) == 25
    assert case["grid"]["values"][0] == case["at_zero"]


def test_norm_job_gauss_identity_records(tmp_path, capsys):
    job = {"kind": "norm", "p": 3, "factor_degrees": [1, 1],
           "ranks": [1, -1], "characters": ["e2", "e2"], "a": 1, "depth": 1}
    code, out = run_main(tmp_path, capsys, job)
    assert code == 0
    doc = json.loads(out)
    records = {c.get("record") for c in doc["cases"]}
    assert records == {"gauss_identity", "transform", "moments"}
    ms = {c["lambda_index"]: c["m"] for c in doc["cases"]
          if c.get("record") == "gauss_identity"}
    assert ms == {0: 0, 1: -1}


def test_binom_job_sweep(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, {"kind": "binom", "n_max": 2})
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["cases"] == 13
    origin = [c for c in doc["cases"] if (c["r"], c["s"]) == (0, 0)]
    assert all(set(c["checks"]) == {"a_origin", "b_origin"} for c in origin)


def test_divisor_job(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys,
                         {"kind": "divisor", "N": [2, 6], "trials": 10})
    assert code == 0
    doc = json.loads(out)
    assert [c["N"] for c in doc["cases"]] == [2, 6]
    assert all(c["checked"] > 0 for c in doc["cases"])


# ----------------------------------------------------- exit codes and guards


def test_exit_codes_for_malformed_jobs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["--job", str(bad)]) == 2
    capsys.readouterr()
    assert main(["--job", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    for payload in ({"kind": "bogus"},
                    {"kind": "gauss"},
                    {"kind": "gauss", "p": 5, "pp": 1},
                    {"kind": "gauss", "p": 5, "s": "one"},
                    {"kind": "hd", "p": 7, "n": 1},
                    {"kind": "hd", "p": 7, "n": 2, "laws": ["bogus"]},
                    {"kind": "hd", "p": 7, "n": 2, "lambdas": 3},
                    {"kind": "gauss", "p": 5, "degrees": [1, 0]},
                    {"kind": "monom", "p": 7, "exponents": [3, -1],
                     "characters": ["trivial"], "a": 1},
                    {"kind": "monom", "p": 7, "exponents": [3, -1],
                     "characters": ["trivial", "nope"], "a": 1},
                    {"kind": "binom", "n_max": 2, "n": 1},
                    {"kind": "binom", "n_max": 0},
                    {"kind": "binom", "n_max": -2},
                    {"kind": "hd", "p": 7, "n": 2, "lambdas": []},
                    {"kind": "hd", "p": 7, "n": [5], "laws": ["product"]},
                    {"kind": "divisor", "N": [2], "seed": [1]},
                    {"kind": "divisor", "N": [2], "seed": "x"},
                    {"kind": "divisor", "N": [2], "seed": 1.5},
                    {"kind": "identity", "p": 5, "depth": 1,
                     "terms": [{"degree": 1, "n": 1, "bogus": 3},
                               {"degree": 1, "n": -1}]},
                    {"kind": "stalk", "p": 5, "exponents": [1, -1],
                     "characters": ["e2", "e2"], "a": 1, "emit_grid": "no"},
                    # k = 3 with two absolute exponents has no grid to emit
                    {"kind": "stalk", "p": 5, "exponents": [2, 1, -1],
                     "characters": ["trivial"] * 3, "a": 1,
                     "emit_grid": True},
                    {**MONOM_JOB, "bogus": 1}):
        assert main(["--job", write_job(tmp_path, payload)]) == 2, payload
        capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_size_bound_exit(tmp_path, capsys):
    job = {"kind": "stalk", "p": 7, "exponents": [3, -1],
           "characters": ["trivial", "e3"], "a": 1}
    code = main(["--job", write_job(tmp_path, job), "--max-grid", "10"])
    assert code == 3
    capsys.readouterr()


NORM_JOB = {"kind": "norm", "p": 3, "factor_degrees": [2], "ranks": [1],
            "characters": ["trivial"], "a": 1, "depth": 2}


def run_error(tmp_path, capsys, payload, *flags):
    code = main(["--job", write_job(tmp_path, payload), *flags])
    return code, json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("job,tuples", [
    (MONOM_JOB, 25),
    (dict(MONOM_JOB, depth=2), 25 + 47 ** 2),
    (NORM_JOB, 7 + 7 ** 2),
    (dict(NORM_JOB, factor_degrees=[2, 1], ranks=[1, -2],
          characters=["trivial", "trivial"]), 7 * 1 + 7 ** 2 * 7),
])
def test_sweep_preflight_is_exact(tmp_path, capsys, job, tuples):
    # the count is the sweep's own tuple count, so a bound equal to it runs
    code, out = run_main(tmp_path, capsys, job, "--max-grid", str(tuples))
    assert code == 0
    assert json.loads(out)["cases"][-1]["checked"] == tuples
    code, err = run_error(tmp_path, capsys, job,
                          "--max-grid", str(tuples - 1))
    assert code == 3 and err["kind"] == "SizeBoundError"
    assert f"{tuples} tuples" in err["error"]


def test_sweep_preflight_stops_large_job_at_once(tmp_path, capsys):
    job = {"kind": "monom", "p": 13, "exponents": [2, 1, -1],
           "characters": ["trivial", "trivial", "trivial"], "a": 1,
           "depth": 2}
    t0 = time.perf_counter()
    code, err = run_error(tmp_path, capsys, job)
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert f"{11 ** 3 + 167 ** 3} tuples" in err["error"]


@pytest.mark.parametrize("job,terms", [
    ({"kind": "gauss", "p": 2, "s": 2}, 3 * 4),
    ({"kind": "gauss", "p": 5, "degrees": [1, 2]}, 4 * 5 + 24 * 25),
    ({"kind": "hd", "p": 7, "n": 3}, 6 * (7 + 7 ** 3) + 6 * 3 * 7),
    ({"kind": "hd", "p": 13, "n": [12], "laws": ["product"]}, 12 * 12 * 13),
    # 3 does not divide 5 - 1, so only the lifting law runs
    ({"kind": "hd", "p": 5, "n": 3, "lambdas": ["e2", "trivial"]},
     2 * (5 + 5 ** 3)),
])
def test_gauss_preflight_is_exact(tmp_path, capsys, monkeypatch, job, terms):
    # a bound equal to the term count runs; one below it exits 3 before
    # the job builds any tower level
    code, out = run_main(tmp_path, capsys, job, "--max-grid", str(terms))
    assert code == 0
    built = []
    monkeypatch.setattr(FieldTower, "_build_level",
                        lambda self, d: built.append(d))
    code, err = run_error(tmp_path, capsys, job,
                          "--max-grid", str(terms - 1))
    assert code == 3 and err["kind"] == "SizeBoundError"
    assert f"{terms} Gauss-sum terms" in err["error"]
    assert built == []


PREFLIGHT_JOBS = [next(job for _, job in FULL_JOBS if job["kind"] == kind)
                  for kind in KINDS] + [
    # a search-only identity job, one binomial triple, a stalk shape that
    # has no grid
    {"kind": "identity", "p": 5, "depth": 0, "search_depth": 2,
     "terms": [{"degree": 1, "n": 1}, {"degree": 1, "n": -1}]},
    {"kind": "binom", "n": 3, "r": 1, "s": 2},
    {"kind": "stalk", "p": 5, "exponents": [2, 1, -1], "a": 1,
     "characters": ["trivial"] * 3},
]


@pytest.mark.parametrize("job", PREFLIGHT_JOBS,
                         ids=lambda job: job["kind"])
def test_every_kind_preflights(tmp_path, capsys, monkeypatch, job):
    # a bound equal to the estimate runs; one below it exits 3 before the
    # job builds any tower level
    kind = job["kind"]
    cost, _ = KINDS[kind].prepare(job, Options())
    code, out = run_main(tmp_path, capsys, job, "--max-grid", str(cost))
    assert code == 0
    if kind == "divisor":
        assert cost == sum(c["checked"] for c in json.loads(out)["cases"])
    built = []
    monkeypatch.setattr(FieldTower, "_build_level",
                        lambda self, d: built.append(d))
    code, err = run_error(tmp_path, capsys, job, "--max-grid", str(cost - 1))
    assert code == 3 and err["kind"] == "SizeBoundError"
    assert f"{cost} {KINDS[kind].unit}" in err["error"]
    assert built == []


@pytest.mark.parametrize("job,message", [
    ({"kind": "divisor", "N": [150], "trials": 0}, f"{450 ** 2} checks"),
    # hd with lambdas "all" makes nothing per character before the bound
    ({"kind": "hd", "p": 2147483647, "n": 2}, "2147483647^1 exceeds"),
    ({"kind": "hd", "p": 1000003, "s": 2, "n": 2}, "1000003^2 exceeds"),
    ({"kind": "hd", "p": 4194301, "n": 2, "laws": ["product"]},
     f"{4194300 * 2 * 4194301} Gauss-sum terms"),
], ids=["divisor", "hd-p31", "hd-s2", "hd-product"])
def test_preflight_stops_large_job_at_once(tmp_path, capsys, job, message):
    t0 = time.perf_counter()
    code, err = run_error(tmp_path, capsys, job)
    assert time.perf_counter() - t0 < 1
    assert code == 3 and message in err["error"]


@pytest.mark.parametrize("p,exponents", [
    (7, [3, -1]), (5, [4, -2]), (7, [4, -2]),
    (5, [1, 1, -1, -1]), (7, [1, 1, -1, -1]),
])
def test_stalk_estimate_bounds_recursion_terms(monkeypatch, p, exponents):
    # every psi power sum of the origin recursion, in the job's own stalk
    # and in the sub-stalks of its grid, sums q - 1 terms; the estimate
    # less its grid points bounds them
    job = {"kind": "stalk", "p": p, "exponents": exponents,
           "characters": ["trivial"] * len(exponents), "a": 1}
    cost, cases = KINDS["stalk"].prepare(job, Options())
    terms = []
    psi_power_sum = st._psi_power_sum

    def counted(system, degree, *args):
        terms.append(system.tower.group_order(degree))
        return psi_power_sum(system, degree, *args)

    monkeypatch.setattr(st, "_psi_power_sum", counted)
    assert all(case["pass"] for case in cases())
    assert 0 < sum(terms) <= cost - p ** len(exponents)


def test_binom_estimate_counts_weighted_terms():
    # each of the a and b identities sums (r+1)(n-r+1)(s+1)(n-s+1) - 1 terms
    def terms(n, r, s):
        return 2 * ((r + 1) * (n - r + 1) * (s + 1) * (n - s + 1) - 1)

    def estimate(job):
        return KINDS["binom"].prepare(dict(job, kind="binom"), Options())[0]

    for n_max in range(9):
        assert estimate({"n_max": n_max}) == sum(
            terms(n, r, s) for n in range(1, n_max + 1)
            for r in range(n + 1) for s in range(n + 1))
    assert estimate({"n": 4, "r": 1, "s": 3}) == terms(4, 1, 3)


@pytest.mark.parametrize("job", [
    {"kind": "monom", "p": 13, "exponents": [2, 1, -1], "a": 1,
     "characters": ["trivial", "trivial", "nope"]},
    {"kind": "binom", "n": 1, "r": 100, "s": 100},
    {"kind": "stalk", "p": 13, "exponents": [1, 1, 1, -1],
     "characters": ["trivial"] * 4, "emit_grid": "no"},
    {"kind": "identity", "p": 2, "depth": 30,
     "terms": [{"degree": 1, "n": 1, "bogus": 3}]},
    # the library's own preconditions on the data hold before the bound too
    {"kind": "monom", "p": 7, "exponents": [7, -1], "a": 1, "depth": 3,
     "characters": ["trivial", "trivial"]},
    {"kind": "identity", "p": 5, "depth": 9, "terms": [{"n": 5}, {"n": -1}]},
    {"kind": "stalk", "p": 13, "exponents": [13, 13, 13, -13],
     "characters": ["trivial"] * 4},
    {"kind": "norm", "p": 3, "factor_degrees": [2], "ranks": [3], "a": 1,
     "characters": ["trivial"], "depth": 6},
    {"kind": "norm", "p": 3, "factor_degrees": [2], "ranks": [1], "a": 0,
     "characters": ["trivial"], "depth": 6},
])
def test_malformed_large_job_exits_2(tmp_path, capsys, job):
    # a malformed job exits 2 even where its estimate exceeds the bound
    code, err = run_error(tmp_path, capsys, job)
    assert code == 2 and err["kind"] == "SchemaError"


@pytest.mark.parametrize("p,degree,a", [(7, 1, 5), (3, 2, 1)])
def test_zero_rank_trivial_factor_exits_2(tmp_path, capsys, p, degree, a):
    # the factor's function is 1 on F^*, whose transform q delta_0 - 1 has
    # a point mass: no transform of the same type exists
    job = {"kind": "norm", "p": p, "factor_degrees": [degree], "ranks": [0],
           "characters": ["trivial"], "a": a, "depth": 1}
    code, err = run_error(tmp_path, capsys, job)
    assert code == 2 and err["kind"] == "SchemaError"


def test_readme_lists_every_kind_with_its_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    rows = dict(re.findall(r"^- `(\w+)` \(([^)]*)\)", readme, re.M))
    assert list(rows) == list(KINDS)
    for kind, keys in rows.items():
        assert set(re.findall(r"`(\w+)`", keys)) == KINDS[kind].keys, kind


@pytest.mark.parametrize("job,flags,code", [
    (dict(MONOM_JOB, depth=0), (), 2),
    (dict(MONOM_JOB, depth=-1), (), 2),
    (MONOM_JOB, ("--depth", "0"), 2),
    (dict(NORM_JOB, depth=0), (), 2),
    (NORM_JOB, ("--depth", "-1"), 2),
    ({"kind": "identity", "p": 5, "depth": -1,
      "terms": [{"degree": 1, "char": "trivial", "n": 1},
                {"degree": 1, "char": "trivial", "n": -1}]}, (), 2),
    # depth 0 with a search is a search-only identity job
    ({"kind": "identity", "p": 5, "depth": 0, "search_depth": 2,
      "terms": [{"degree": 1, "char": "trivial", "n": 1},
                {"degree": 1, "char": "trivial", "n": -1}]}, (), 0),
    # without a search it would check nothing, even with a nonzero divisor
    ({"kind": "identity", "p": 5, "depth": 0,
      "terms": [{"degree": 1, "char": "trivial", "n": 1},
                {"degree": 1, "char": "e2", "n": -1}]}, (), 2),
])
def test_depth_bounds(tmp_path, capsys, job, flags, code):
    assert main(["--job", write_job(tmp_path, job), *flags]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert json.loads(captured.err)["kind"] == "SchemaError"


def test_suite_tight_bound_names_job():
    with pytest.raises(SizeBoundError) as info:
        suite("full", Options(max_grid=10))
    assert "job '" in str(info.value)


def test_run_requires_object():
    with pytest.raises(SchemaError):
        run(["not", "a", "job"])
    with pytest.raises(SchemaError):
        suite("nightly")


# ---------------------------------------------------------------- run() API


def test_run_returns_report_objects():
    report = run(MONOM_JOB)
    assert report["pass"] is True
    assert report["cases"][0]["b"] == 6
    # timing appears only when requested, marked advisory
    assert "timing" not in report
    timed = run(MONOM_JOB, Options(timings=True))
    assert timed["timing"]["advisory"] is True


def test_depth_flag_overrides_payload(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, MONOM_JOB, "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    moments = doc["cases"][1]
    assert moments["depth"] == 2 and moments["checked"] == 25 + 47 ** 2


def test_character_spec_forms(tmp_path, capsys):
    specs = ["ε_3", "e3^2", {"order": 3, "power": 1},
             {"degree": 1, "index": 2}, 2, "trivial", "1"]
    for spec in specs:
        job = dict(MONOM_JOB, characters=["trivial", spec])
        code = main(["--job", write_job(tmp_path, job)])
        capsys.readouterr()
        assert code in (0, 2)
    # the two explicit ways to name the cubic character agree
    r1 = run(dict(MONOM_JOB, characters=["trivial", "e3"]))
    r2 = run(dict(MONOM_JOB, characters=["trivial",
                                         {"degree": 1, "index": 2}]))
    assert r1["cases"][0]["b"] == r2["cases"][0]["b"]


def test_integer_character_specs_are_indices(tmp_path, capsys):
    system = CharSystem(FieldTower(7, 1))
    assert _parse_char(system, 1, 1).index == 1
    assert _parse_char(system, 1, 0).index == 0
    assert _parse_char(system, 1, "1").index == 0
    for spec in (True, False):
        code, err = run_error(tmp_path, capsys,
                              dict(MONOM_JOB, characters=[spec, "e3"]))
        assert code == 2 and err["kind"] == "SchemaError"


# ------------------------------------------------------------- determinism


def test_reports_byte_identical(tmp_path, capsys):
    _, first = run_main(tmp_path, capsys, MONOM_JOB)
    _, second = run_main(tmp_path, capsys, MONOM_JOB)
    assert first == second


# sha256 of `charsum --job` stdout for depth-2 moment sweeps, recorded
# before the monomial layer became the split case of the norm layer
SWEEP_REPORT_DIGESTS = [
    ({"kind": "monom", "p": 7, "exponents": [3, -1],
      "characters": ["trivial", "e3"], "depth": 2}, [
        "36c821e5fbbbb7fa2a37973ddab283f51a53bf5ad04364ff304a9e9de855f2f4",
        "31819310c26a909944701d760c545c20924cfea51a4a803ead4bb499f9556ea9",
        "9f7f89e4f407ea7c4aa039f150a5f0005c0a9957e0e59b397d45e8ad8fdb35f0",
        "7162f956e3053b430acb2f8ff91bd5b1ad976a55df2a724dfa5c7be838d99f42",
        "b3a105806cbe9d9820f13aa22c01c141e93f8fa0b7e5ab9e4950383c237ab36c",
        "b5151af935a1848e9d6eb249250064737d1057011f625384b5d2e8a35416d662"]),
    ({"kind": "norm", "p": 7, "factor_degrees": [2], "ranks": [1],
      "characters": ["trivial"], "depth": 2}, [
        "843d99ce21d1dd4c74dd3338f64d2c9592a3d1f587f1c24daa4d403977d56622",
        "1044e0278e58f88f23663947912bc26db59d89569a0ac2728d215d478440a900",
        "ad6e98c6e59e02e456b2c73bdff66aac6b10640dd8303e8129d734f09bff9b45",
        "29e7ebc6c924160dd3c46383545d74af550d4b1987a3ec1cf37016bcdb92b370",
        "d957b07c0d32bbe3f0d14a7761c3a6d55f8d8c9595b612edf734311643a2caf5",
        "f3d552b9ab2bbaea0ed5daa48f03d3b424bd52d0337bb9feb9d0b228f6cab2f7"]),
    ({"kind": "monom", "p": 5, "exponents": [2, 1, -1],
      "characters": ["trivial", "trivial", "trivial"], "depth": 2}, [
        "b46cebc967f93819ad8345a006253022d69f789ccd5856cde90f4159eb7cc63e",
        "12cc09d3f62d5c9542e279eae17c4fb4a77c68bef6c1682417490566e0d9c91a",
        "3af132e32e7fb2c4ed65408cfa063551871cdf4a1886f8bde0b333ea3c9dabb8",
        "ea135f9d1013201b36f7cb88ba4fa344cadc375e687ce6966233777a382b3108"]),
]


def test_equivalence_gate_reports_are_pinned(tmp_path, capsys):
    """The full suite and the sweep reports keep their exact bytes."""
    assert main(["--suite", "full"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 50011
    assert hashlib.sha256(out).hexdigest() == \
        "41b2227c5cacea34b88ed0af21f28fcae96631d7f7aefd591516be3f9372389e"
    for job, digests in SWEEP_REPORT_DIGESTS:
        for a, digest in enumerate(digests, start=1):
            code, out = run_main(tmp_path, capsys, dict(job, a=a))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, \
                (job, a)


def test_seed_changes_nothing_about_pass_pattern():
    a = suite("acceptance", Options(seed=0))
    b = suite("acceptance", Options(seed=1234))
    pat_a = [(j["name"], j["report"]["pass"]) for j in a["jobs"]]
    pat_b = [(j["name"], j["report"]["pass"]) for j in b["jobs"]]
    assert pat_a == pat_b
    assert a["pass"] and a["summary"]["jobs"] == len(a["jobs"])


def test_suite_acceptance_passes():
    report = suite("acceptance")
    assert report["pass"]
    assert report["summary"]["passed"] == report["summary"]["jobs"]


# ------------------------------------------------------------ output modes


@pytest.mark.parametrize("flags", [(), ("--ndjson",)])
def test_unencodable_report_exits_4(tmp_path, capsys, monkeypatch, flags):
    # the whole report is encoded before anything is printed
    binom = KINDS["binom"]
    monkeypatch.setitem(KINDS, "binom", Kind(
        binom.keys, binom.unit, lambda payload, opts: (
            1, lambda: [{"x": Fraction(1, 2), "pass": True}])))
    job = {"kind": "binom", "n": 1, "r": 1, "s": 1}
    code = main(["--job", write_job(tmp_path, job), *flags])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err)["kind"] == "InternalCheckError"


def test_ndjson_stream(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, MONOM_JOB, "--ndjson")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    assert lines[0]["record"] == "transform"
    assert lines[-1]["summary"]["cases"] == 2


def test_emit_floats_marks_advisory(tmp_path, capsys):
    code, out = run_main(tmp_path, capsys, MONOM_JOB, "--emit-floats")
    assert code == 0
    doc = json.loads(out)
    c = doc["cases"][0]["c"]
    assert c["exact"] == [1, [7]]
    re_, im = c["advisory_float"]
    assert abs(re_ - 7.0) < 1e-9 and abs(im) < 1e-9


def test_stdin_job(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(json.dumps({"kind": "binom", "n": 1,
                                                "r": 1, "s": 1})))
    assert main(["--job", "-"]) == 0
    capsys.readouterr()


_WRONG_GAUSS_SUM = """
import sys
import charsum.characters as ch
from charsum.cli import main
assert False, "asserts must be stripped"
gauss_sum = ch.CharSystem.gauss_sum
ch.CharSystem.gauss_sum = lambda system, chi: gauss_sum(system, chi) + 1
sys.exit(main(["--job", sys.argv[1]]))
"""


def test_forced_breach_exits_4_under_optimize(tmp_path):
    # python -O strips assert statements; a wrong Gauss sum must still
    # surface as an InternalCheckError and exit code 4
    job = {"kind": "identity", "p": 5, "depth": 1,
           "terms": [{"degree": 1, "char": "trivial", "n": 2},
                     {"degree": 1, "char": "trivial", "n": -1},
                     {"degree": 1, "char": "e2", "n": -1}]}
    src = str(Path(charsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_GAUSS_SUM,
         write_job(tmp_path, job)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "InternalCheckError" in proc.stderr


_WRONG_JACOBI_SUM = """
import sys
import charsum.characters as ch
from charsum.cli import main
assert False, "asserts must be stripped"
jacobi_sum = ch.CharSystem.jacobi_sum
ch.CharSystem.jacobi_sum = lambda system, d, a, b: jacobi_sum(system, d, a,
                                                              b) + 1
sys.exit(main(["--job", sys.argv[1]]))
"""


def test_forced_jacobi_breach_exits_4_under_optimize(tmp_path):
    # the identity check multiplies Jacobi sums; a wrong one must fail the
    # record's certification against the Gauss-sum product under -O too
    job = {"kind": "identity", "p": 5, "depth": 1,
           "terms": [{"degree": 1, "char": "trivial", "n": 2},
                     {"degree": 1, "char": "trivial", "n": -1},
                     {"degree": 1, "char": "e2", "n": -1}]}
    src = str(Path(charsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_JACOBI_SUM,
         write_job(tmp_path, job)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "InternalCheckError" in proc.stderr


_WRONG_GALOIS = """
import sys
import charsum.cyclotomic as cy
from charsum.cli import main
assert False, "asserts must be stripped"
galois = cy.CycloValue.galois
cy.CycloValue.galois = lambda value, a: galois(value, a) + 1
sys.exit(main(["--job", sys.argv[1]]))
"""


def test_forced_galois_breach_exits_4_under_optimize(tmp_path):
    # a Hasse-Davenport monomial is fixed by every unit, so the identity
    # check transports forms along Galois orbits; a wrong conjugate must
    # fail the exact comparison under -O too.  Unpatched, the job passes
    job = {"kind": "identity", "p": 7, "depth": 2,
           "terms": [{"degree": 1, "char": "trivial", "n": 3},
                     {"degree": 1, "char": "trivial", "n": -1},
                     {"degree": 1, "char": "e3", "n": -1},
                     {"degree": 1, "char": "e3^2", "n": -1}]}
    path = write_job(tmp_path, job)
    assert main(["--job", path]) == 0
    src = str(Path(charsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_GALOIS, path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "InternalCheckError" in proc.stderr


_WRONG_PERIOD = """
import sys
import charsum.identity_engine as ie
from charsum.cli import main
assert False, "asserts must be stripped"
ie._period = lambda factors, n: 1
sys.exit(main(["--job", sys.argv[1]]))
"""


def test_forced_period_breach_exits_4_under_optimize(tmp_path):
    # the n = 6 Hasse-Davenport monomial over F_7 has period 8 at degree 2,
    # so lam and lam eps_6 share their twisted multiset; a period of 1
    # hands every lam the form of the trivial character's multiset, and
    # the identity check must fail under -O too.  Unpatched, the job passes
    job = {"kind": "identity", "p": 7, "depth": 2,
           "terms": [{"degree": 1, "char": "trivial", "n": 6},
                     {"degree": 1, "char": "trivial", "n": -1}]
           + [{"degree": 1, "char": f"e6^{i}", "n": -1} for i in range(1, 6)]}
    path = write_job(tmp_path, job)
    assert main(["--job", path]) == 0
    src = str(Path(charsum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_PERIOD, path],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "InternalCheckError" in proc.stderr


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "charsum.cli", "--job",
         write_job(tmp_path, {"kind": "binom", "n": 2, "r": 1, "s": 2})],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
