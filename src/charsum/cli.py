"""Batch front door: JSON job specs in, deterministic JSON reports out.

A job is one JSON object with a "kind" field and a kind-specific payload;
the report echoes the job, lists per-case records, and closes with summary
counts.  Reports are byte-identical across runs for a fixed (job, seed):
all values are exact (CycloValues serialized as [order, coeffs]), keys are
sorted, and wall-clock data appears only behind --timings, marked advisory.

Exit codes: 0 every case passed, 1 some case failed, 2 malformed job,
3 size bound exceeded, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
import time

from . import cyclotomic as cy
from .characters import CharSystem, MultCharacter
from .cyclotomic import CycloValue
from .divisor_calc import Divisor, injectivity_probe
from .errors import InternalCheckError, SchemaError, SizeBoundError
from .field_tower import FieldTower, build_tower
from .identity_engine import GammaMonomial, find_violation, \
    verify_monomial_identity
from .monomial_fourier import GridFunction, MonomialDatum, \
    solve_monomial_transform, sweep_twisted_moments
from .norm_algebra import EtaleAlgebra, NormCharacter, VirtualModule, \
    module_divisor, solve_norm_transform, sweep_norm_moments, \
    verify_norm_identity
from .stalk_traces import QPolynomial, gm_trace_function, \
    stalk_trace_at_zero, verify_binomial_identities

KINDS = ("gauss", "hd", "divisor", "identity", "monom", "stalk", "binom",
         "norm", "suite")

DEFAULT_DEPTH = 2
DEFAULT_MAX_GRID = 1 << 16


class Options:
    """Resolved command-line options; flag values override payload fields."""

    def __init__(self, depth=None, max_grid=DEFAULT_MAX_GRID, seed=0,
                 emit_floats=False, timings=False, ndjson=False):
        self.depth = depth
        self.max_grid = max_grid
        self.seed = seed
        self.emit_floats = emit_floats
        self.timings = timings
        self.ndjson = ndjson


# ------------------------------------------------------------ serialization


def _jsonable(obj, emit_floats=False):
    """Rewrite domain objects into JSON-encodable structures."""
    if isinstance(obj, CycloValue):
        exact = [obj.order, list(obj.coeffs)]
        if not emit_floats:
            return exact
        z = cmath.exp(2j * cmath.pi / obj.order)
        approx = sum(c * z ** k for k, c in enumerate(obj.coeffs))
        return {"exact": exact,
                "advisory_float": [approx.real, approx.imag]}
    if isinstance(obj, MultCharacter):
        return {"degree": obj.degree, "index": obj.index}
    if isinstance(obj, Divisor):
        return obj.records()
    if isinstance(obj, QPolynomial):
        return list(obj.coeffs)
    if isinstance(obj, GridFunction):
        return {"degree": obj.degree, "k": obj.k,
                "values": [_jsonable(v, emit_floats) for v in obj.values]}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, emit_floats) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, emit_floats) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        # floats reach the report only through advisory fields
        return obj
    if isinstance(obj, str):
        return obj
    raise InternalCheckError(f"unserializable report value {obj!r}")


_CHAR_RE = re.compile(r"^(?:e|eps|ε_?)(\d+)(?:\^(-?\d+))?$")


def _parse_char(system, degree, spec) -> MultCharacter:
    """Character specs: "trivial", "eN", "eN^k", an index, or {degree,index}."""
    if spec in ("trivial", "1", 1) or spec == 0:
        return system.trivial(degree)
    if isinstance(spec, str):
        m = _CHAR_RE.match(spec)
        if not m:
            raise SchemaError(f"unrecognized character spec {spec!r}")
        power = int(m.group(2)) if m.group(2) else 1
        return system.char_of_order(degree, int(m.group(1)), power)
    if isinstance(spec, int):
        return system.character(degree, spec)
    if isinstance(spec, dict):
        if set(spec) == {"degree", "index"}:
            return system.character(_as_int(spec, "degree"),
                                    _as_int(spec, "index"))
        if set(spec) <= {"order", "power"} and "order" in spec:
            return system.char_of_order(degree, _as_int(spec, "order"),
                                        _as_int(spec, "power", 1))
    raise SchemaError(f"unrecognized character spec {spec!r}")


# ------------------------------------------------------- payload validation


def _as_int(payload, key, default=None):
    if key not in payload:
        if default is None:
            raise SchemaError(f"missing field {key!r}")
        return default
    v = payload[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"field {key!r} must be an integer, got {v!r}")
    return v


def _as_int_list(payload, key, default=None):
    if key not in payload:
        if default is None:
            raise SchemaError(f"missing field {key!r}")
        return default
    v = payload[key]
    if isinstance(v, int) and not isinstance(v, bool):
        return [v]
    if isinstance(v, list) and v \
            and all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        return list(v)
    raise SchemaError(f"field {key!r} must be an integer or a list of them")


def _check_keys(payload, allowed):
    extra = set(payload) - set(allowed) - {"kind"}
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)} for this kind")


def _depth(payload, opts, minimum=0):
    depth = opts.depth if opts.depth is not None \
        else _as_int(payload, "depth", DEFAULT_DEPTH)
    if depth < minimum:
        raise SchemaError(f"depth {depth} must be at least {minimum}")
    return depth


def _check_sweep_size(q, factor_degrees, depth, opts):
    """Cost preflight of a moment sweep, which checks one identity per
    tuple; runs before the sweep builds its extension fields.  The
    degree-e base change splits a factor of degree d into gcd(d, e)
    factors of degree lcm(d, e), and a sweep tuple is one nontrivial
    character on each."""
    tuples = sum(math.prod((q ** math.lcm(d, e) - 2) ** math.gcd(d, e)
                           for d in factor_degrees)
                 for e in range(1, depth + 1))
    if tuples > opts.max_grid:
        raise SizeBoundError(f"moment sweep of {tuples} tuples exceeds "
                             f"the bound {opts.max_grid}")


def _base_order(payload):
    """q = p^s of the job's base field, with p and s checked as the tower
    checks them; builds no tower level."""
    return FieldTower(_as_int(payload, "p"), _as_int(payload, "s", 1)).q


def _check_gauss_terms(terms, opts):
    """Cost preflight of gauss and hd jobs: terms counts the field elements
    summed over, one per term of each Gauss sum.  It runs before the job
    builds any tower level."""
    if terms > opts.max_grid:
        raise SizeBoundError(f"{terms} Gauss-sum terms exceed the bound "
                             f"{opts.max_grid}")


def _chars(system, payload, degrees, what):
    """The "characters" field: one spec per entry of degrees."""
    specs = payload.get("characters")
    if not isinstance(specs, list) or len(specs) != len(degrees):
        raise SchemaError(f"need one character spec per {what}")
    return tuple(_parse_char(system, d, s) for d, s in zip(degrees, specs))


def _moments_record(sweep):
    return {"record": "moments", "depth": sweep["depth"],
            "checked": sweep["checked"],
            "nonvanishing": sweep["nonvanishing"],
            "failures": sweep["failures"], "pass": sweep["pass"]}


def _system(payload, degrees=(1,)):
    p = _as_int(payload, "p")
    s = _as_int(payload, "s", 1)
    return CharSystem(build_tower(p, s, degrees=tuple(sorted(set(degrees)))))


# ------------------------------------------------------------ job handlers


def _run_gauss(payload, opts):
    _check_keys(payload, {"p", "s", "degrees"})
    degrees = _as_int_list(payload, "degrees", [1])
    if min(degrees) < 1:
        raise SchemaError("field 'degrees' must list positive degrees")
    q = _base_order(payload)
    # each of the q^d - 1 characters of degree d sums q^d terms
    _check_gauss_terms(sum((q ** d - 1) * q ** d for d in degrees), opts)
    system = _system(payload, degrees)
    t = system.tower
    cases = []
    for d in degrees:
        q = t.order(d)
        for i in range(t.group_order(d)):
            lam = system.character(d, i)
            g = system.gauss_sum(lam)
            if i == 0:
                ok = g == cy.from_int(-1)
            else:
                inv = system.char_inv(lam)
                sign = system.char_value(lam, t.embed(1, d, t.minus_one()))
                ok = (g * system.gauss_sum(inv) == sign * cy.from_int(q)
                      and g.conjugate() == sign * system.gauss_sum(inv)
                      and g.abs_squared() == q)
            cases.append({"degree": d, "index": i,
                          "order": system.char_order(lam),
                          "g": g, "pass": ok})
    return cases


def _run_hd(payload, opts):
    _check_keys(payload, {"p", "s", "n", "lambdas", "laws"})
    orders = _as_int_list(payload, "n")
    if any(n < 2 for n in orders):
        raise SchemaError("lifting/product parameters n must be >= 2")
    laws = payload.get("laws", ["lift", "product"])
    if not isinstance(laws, list) or not laws \
            or not set(laws) <= {"lift", "product"}:
        raise SchemaError("field 'laws' must list 'lift' and/or 'product'")
    lam_specs = payload.get("lambdas", "all")
    if lam_specs != "all" and not isinstance(lam_specs, list):
        raise SchemaError("field 'lambdas' must be \"all\" or a list of "
                          "character specs")
    q = _base_order(payload)
    # per character: the lifting law sums over F_q and F_{q^n}, the product
    # law n Gauss sums over F_q; it runs only where n divides q - 1
    per_char = sum((q + q ** n if "lift" in laws else 0)
                   + (n * q if "product" in laws and (q - 1) % n == 0
                      else 0) for n in orders)
    _check_gauss_terms(
        (q - 1 if lam_specs == "all" else len(lam_specs)) * per_char, opts)
    # the product law stays in the base field; only lifting needs degree n
    degrees = [1] + (orders if "lift" in laws else [])
    system = _system(payload, degrees)
    t = system.tower
    if lam_specs == "all":
        lams = [system.character(1, i) for i in range(t.group_order(1))]
    else:
        lams = [_parse_char(system, 1, s) for s in lam_specs]
    cases = []
    for n in orders:
        if "lift" in laws:
            for lam in lams:
                cases.append({"law": "lift", "n": n, "index": lam.index,
                              "pass": system.check_hd_lift(lam, n)})
        if "product" in laws and (t.order(1) - 1) % n == 0:
            for lam in lams:
                cases.append({"law": "product", "n": n, "index": lam.index,
                              "pass": system.check_hd_product(lam, n)})
    return cases


def _run_divisor(payload, opts):
    _check_keys(payload, {"N", "char_coprime", "trials", "seed"})
    levels = _as_int_list(payload, "N")
    coprime = payload.get("char_coprime")
    if coprime is not None and (not isinstance(coprime, int)
                                or isinstance(coprime, bool)):
        raise SchemaError("char_coprime must be an integer when present")
    trials = _as_int(payload, "trials", 200)
    seed = payload.get("seed", opts.seed)
    cases = []
    for n in levels:
        rep = injectivity_probe(n, coprime, seed=seed, trials=trials)
        cases.append({"N": n, "checked": rep["checked"],
                      "pass": not rep["failures"]})
    return cases


def _run_identity(payload, opts):
    _check_keys(payload, {"p", "s", "terms", "depth", "search_depth"})
    terms = payload.get("terms")
    if not isinstance(terms, list) or not terms:
        raise SchemaError("field 'terms' must be a non-empty list")
    depth = _depth(payload, opts)
    if depth == 0 and "search_depth" not in payload:
        raise SchemaError("an identity job of depth 0 checks nothing "
                          "without search_depth")
    term_degrees = []
    for t_ in terms:
        if not isinstance(t_, dict):
            raise SchemaError("each term must be an object")
        term_degrees.append(_as_int(t_, "degree", 1))
    base = math.lcm(*term_degrees)
    degrees = set(term_degrees) | {base * e for e in range(1, depth + 1)}
    system = _system(payload, [1] + sorted(degrees))
    t = system.tower
    parsed = []
    for t_, d in zip(terms, term_degrees):
        spec = t_.get("char", t_.get("index", "trivial"))
        parsed.append((_parse_char(system, d, spec), _as_int(t_, "n")))
    mono = GammaMonomial(parsed)
    cases = []
    for e in range(1, depth + 1):
        d = base * e
        for i in range(t.group_order(d)):
            lam = system.character(d, i)
            m = verify_monomial_identity(system, mono, lam)
            cases.append({"lambda_degree": d, "lambda_index": i, "m": m,
                          "pass": True})
    if "search_depth" in payload:
        witness = find_violation(system, mono,
                                 _as_int(payload, "search_depth"))
        cases.append({"search": True, "witness": witness,
                      "pass": witness is None})
    return cases


def _run_monom(payload, opts):
    _check_keys(payload, {"p", "s", "exponents", "characters", "a", "depth"})
    depth = _depth(payload, opts, minimum=1)
    system = _system(payload)
    exponents = _as_int_list(payload, "exponents")
    ones = (1,) * len(exponents)
    chars = _chars(system, payload, ones, "exponent")
    datum = MonomialDatum(1, tuple(exponents), chars, _as_int(payload, "a"))
    _check_sweep_size(system.tower.q, ones, depth, opts)
    sol = solve_monomial_transform(system, datum)
    cases = [{"record": "transform", "case": sol.case,
              "exponents": sol.exponents, "characters": sol.characters,
              "chi": sol.chi, "b": sol.b, "c": sol.c, "m": sol.twist,
              "pass": True}]
    cases.append(_moments_record(
        sweep_twisted_moments(system, datum, depth=depth)))
    return cases


def _run_stalk(payload, opts):
    _check_keys(payload, {"p", "s", "exponents", "characters", "a",
                          "emit_grid"})
    system = _system(payload)
    t = system.tower
    exponents = _as_int_list(payload, "exponents")
    chars = _chars(system, payload, (1,) * len(exponents), "exponent")
    a_field = payload.get("a", "all")
    if a_field == "all":
        a_values = list(range(1, t.order(1)))
    else:
        a_values = [_as_int(payload, "a")]
    emit_grid = payload.get("emit_grid", False)
    k = len(exponents)
    supported = k <= 2 or len({abs(n) for n in exponents}) == 1
    cases = []
    for a in a_values:
        datum = MonomialDatum(1, tuple(exponents), chars, a)
        val = stalk_trace_at_zero(system, datum)
        case = {"a": a, "at_zero": val, "pass": True}
        if supported:
            points = t.order(1) ** k
            if points > opts.max_grid:
                raise SizeBoundError(
                    f"stalk grid of {points} points exceeds the bound "
                    f"{opts.max_grid}")
            grid = gm_trace_function(system, datum)
            case["pass"] = grid.value((0,) * k) == val
            if emit_grid:
                case["grid"] = grid
        cases.append(case)
    return cases


def _run_binom(payload, opts):
    _check_keys(payload, {"n", "r", "s", "n_max"})
    cases = []
    if "n_max" in payload:
        if {"n", "r", "s"} & set(payload):
            raise SchemaError("give either n_max or a single (n, r, s)")
        for n in range(1, _as_int(payload, "n_max") + 1):
            for r in range(n + 1):
                for s in range(n + 1):
                    cases.append(verify_binomial_identities(n, r, s))
    else:
        cases.append(verify_binomial_identities(
            _as_int(payload, "n"), _as_int(payload, "r"),
            _as_int(payload, "s")))
    return cases


def _run_norm(payload, opts):
    _check_keys(payload, {"p", "s", "factor_degrees", "ranks", "characters",
                          "a", "depth"})
    depth = _depth(payload, opts, minimum=1)
    factor_degrees = _as_int_list(payload, "factor_degrees")
    system = _system(payload, [1, *factor_degrees])
    algebra = EtaleAlgebra(system.tower, tuple(factor_degrees))
    module = VirtualModule(_as_int_list(payload, "ranks"))
    chi = NormCharacter(_chars(system, payload, factor_degrees,
                               "algebra factor"))
    a = _as_int(payload, "a")
    _check_sweep_size(system.tower.q, factor_degrees, depth, opts)
    cases = []
    if module_divisor(system, algebra, chi, module).is_zero():
        grp = system.tower.group_order(1)
        for i in range(grp):
            lam = system.character(1, i)
            m = verify_norm_identity(system, algebra, module, chi, lam)
            cases.append({"record": "gauss_identity", "lambda_index": i,
                          "m": m, "pass": True})
    sol = solve_norm_transform(system, algebra, module, chi, a)
    cases.append({"record": "transform", "case": sol.case,
                  "ranks": sol.ranks, "characters": sol.characters.chars,
                  "nu": sol.nu, "b": sol.b, "c": sol.c, "m": sol.twist,
                  "pass": True})
    cases.append(_moments_record(
        sweep_norm_moments(system, algebra, module, chi, a, depth=depth)))
    return cases


_HANDLERS = {
    "gauss": _run_gauss,
    "hd": _run_hd,
    "divisor": _run_divisor,
    "identity": _run_identity,
    "monom": _run_monom,
    "stalk": _run_stalk,
    "binom": _run_binom,
    "norm": _run_norm,
}


# ----------------------------------------------------------------- suites


ACCEPTANCE_JOBS = (
    ("gauss-f5", {"kind": "gauss", "p": 5}),
    ("gauss-f9", {"kind": "gauss", "p": 3, "s": 2}),
    ("hd-f7", {"kind": "hd", "p": 7, "n": [2, 3]}),
    ("divisor-small", {"kind": "divisor", "N": [1, 2, 3, 4, 6, 8],
                       "trials": 40}),
    ("identity-quadratic-f5", {"kind": "identity", "p": 5, "depth": 2,
                               "terms": [
                                   {"degree": 1, "char": "trivial", "n": 2},
                                   {"degree": 1, "char": "trivial", "n": -1},
                                   {"degree": 1, "char": "e2", "n": -1}],
                               "search_depth": 2}),
    ("monom-cubic-f7", {"kind": "monom", "p": 7, "exponents": [3, -1],
                        "characters": ["trivial", "e3"], "a": 1, "depth": 1}),
    ("stalk-cubic-f7", {"kind": "stalk", "p": 7, "exponents": [3, -1],
                        "characters": ["trivial", "e3"]}),
    ("binom-n3", {"kind": "binom", "n_max": 3}),
    ("norm-gaussian-f9", {"kind": "norm", "p": 3, "factor_degrees": [2],
                          "ranks": [1], "characters": ["trivial"], "a": 1,
                          "depth": 1}),
)

FULL_JOBS = ACCEPTANCE_JOBS + (
    ("gauss-f13", {"kind": "gauss", "p": 13}),
    ("gauss-f8", {"kind": "gauss", "p": 2, "s": 3}),
    ("hd-f13-product", {"kind": "hd", "p": 13, "n": [2, 3, 4, 6, 12],
                        "laws": ["product"]}),
    ("hd-f5", {"kind": "hd", "p": 5, "n": [2, 4]}),
    ("divisor-deep", {"kind": "divisor", "N": [9, 10, 11, 12],
                      "trials": 200}),
    ("monom-quartic-f5", {"kind": "monom", "p": 5, "exponents": [4, -2],
                          "characters": ["trivial", "e2"], "a": 2,
                          "depth": 2}),
    ("stalk-quartic-f5", {"kind": "stalk", "p": 5, "exponents": [4, -2],
                          "characters": ["trivial", "e2"]}),
    ("binom-n5", {"kind": "binom", "n_max": 5}),
    ("norm-rank0-f3", {"kind": "norm", "p": 3, "factor_degrees": [2, 1],
                       "ranks": [1, -2], "characters": ["trivial", "trivial"],
                       "a": 1, "depth": 2}),
)


def _summarize(job, cases):
    passed = sum(1 for c in cases if c["pass"])
    return {"job": job, "cases": cases,
            "summary": {"cases": len(cases), "passed": passed,
                        "failed": len(cases) - passed},
            "pass": passed == len(cases)}


def run(job: dict, opts: Options | None = None) -> dict:
    """Execute one job object and return its report."""
    opts = opts or Options()
    if not isinstance(job, dict):
        raise SchemaError("a job must be a JSON object")
    kind = job.get("kind")
    if kind == "suite":
        return suite(job.get("name", "acceptance"), opts)
    if kind not in _HANDLERS:
        raise SchemaError(f"unknown job kind {kind!r}; expected one of "
                          f"{', '.join(KINDS)}")
    start = time.perf_counter()
    cases = _HANDLERS[kind](job, opts)
    report = _summarize(job, cases)
    if opts.timings:
        report["timing"] = {"advisory": True,
                            "elapsed_s": time.perf_counter() - start}
    return report


def suite(name: str, opts: Options | None = None) -> dict:
    """Run a named battery of jobs; size-bound errors name the culprit."""
    opts = opts or Options()
    if name == "acceptance":
        jobs = ACCEPTANCE_JOBS
    elif name == "full":
        jobs = FULL_JOBS
    else:
        raise SchemaError(f"unknown suite {name!r}")
    start = time.perf_counter()
    out = []
    for job_name, job in jobs:
        try:
            rep = run(job, opts)
        except SizeBoundError as exc:
            raise SizeBoundError(f"job {job_name!r}: {exc}") from exc
        out.append({"name": job_name, "report": rep})
    report = {"suite": name, "jobs": out,
              "summary": {"jobs": len(out),
                          "passed": sum(r["report"]["pass"] for r in out)},
              "pass": all(r["report"]["pass"] for r in out)}
    if opts.timings:
        report["timing"] = {"advisory": True,
                            "elapsed_s": time.perf_counter() - start}
    return report


# ------------------------------------------------------------------- main


def _emit(report, opts, out=None):
    out = out or sys.stdout
    doc = _jsonable(report, opts.emit_floats)
    if not opts.ndjson:
        print(json.dumps(doc, sort_keys=True, indent=1), file=out)
        return
    compact = {"separators": (",", ":"), "sort_keys": True}
    if "jobs" in doc:
        print(json.dumps({"suite": doc["suite"]}, **compact), file=out)
        rows = [dict(j["report"], name=j["name"]) for j in doc["jobs"]]
    else:
        rows = [doc]
    for row in rows:
        head = {k: v for k, v in row.items() if k not in ("cases",)}
        for case in row.get("cases", []):
            print(json.dumps(case, **compact), file=out)
        print(json.dumps(head, **compact), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Exact verification jobs for character-sum identities.")
    parser.add_argument("--job", metavar="FILE",
                        help="path to a JSON job spec, or - for stdin")
    parser.add_argument("--suite", choices=("acceptance", "full"))
    parser.add_argument("--depth", type=int,
                        help="override the extension-sweep depth")
    parser.add_argument("--max-grid", type=int, default=DEFAULT_MAX_GRID,
                        help="largest dense grid a job may materialize, "
                        "most tuples a moment sweep may check, and most "
                        "Gauss-sum terms a gauss or hd job may sum")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probes")
    parser.add_argument("--emit-floats", action="store_true",
                        help="add advisory float embeddings to exact values")
    parser.add_argument("--timings", action="store_true",
                        help="add advisory wall-clock data to the report")
    parser.add_argument("--ndjson", action="store_true",
                        help="stream case records as JSON lines")
    ns = parser.parse_args(argv)
    opts = Options(depth=ns.depth, max_grid=ns.max_grid, seed=ns.seed,
                   emit_floats=ns.emit_floats, timings=ns.timings,
                   ndjson=ns.ndjson)
    try:
        if (ns.job is None) == (ns.suite is None):
            raise SchemaError("exactly one of --job and --suite is required")
        if ns.suite is not None:
            report = suite(ns.suite, opts)
        else:
            try:
                text = sys.stdin.read() if ns.job == "-" \
                    else open(ns.job, encoding="utf-8").read()
            except OSError as exc:
                raise SchemaError(f"cannot read job file: {exc}") from exc
            try:
                job = json.loads(text)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"job file is not valid JSON: {exc}") \
                    from exc
            report = run(job, opts)
    except (SchemaError, SizeBoundError, InternalCheckError) as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__,
                          "exit_code": exc.exit_code}, sort_keys=True),
              file=sys.stderr)
        return exc.exit_code
    _emit(report, opts)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
