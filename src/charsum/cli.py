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
import functools
import json
import math
import re
import sys
import time

from . import cyclotomic as cy
from ._value import Value
from .characters import CharSystem, MultCharacter
from .cyclotomic import CycloValue
from .divisor_calc import injectivity_probe, probe_size
from .errors import InternalCheckError, SchemaError, SizeBoundError
from .field_tower import FieldTower
from .identity_engine import GammaMonomial, check_terms, find_violation, \
    verify_monomial_identity, verify_norm_identity
from .monomial_fourier import GridFunction, MonomialDatum, \
    check_monomial_datum, solve_monomial_transform, sweep_twisted_moments
from .norm_algebra import EtaleAlgebra, NormCharacter, VirtualModule, \
    check_norm_data, module_divisor, \
    solve_norm_transform, sweep_norm_moments, sweep_tuples
from .stalk_traces import check_triple, gm_trace_function, \
    has_trace_function, stalk_trace_at_zero, verify_binomial_identities

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


def _report_value(obj, emit_floats=False):
    """The json.dumps default= hook: domain objects as JSON values."""
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
    if isinstance(obj, GridFunction):
        return {"degree": obj.degree, "k": obj.k, "values": obj.values}
    raise InternalCheckError(f"unserializable report value {obj!r}")


_CHAR_RE = re.compile(r"^(?:e|eps|ε_?)(\d+)(?:\^(-?\d+))?$")


def _parse_char(system, degree, spec) -> MultCharacter:
    """Character specs: "trivial" or "1", "eN", "eN^k", an integer index
    (not a bool), or {degree,index} with the slot's degree; resolving a
    spec builds no tower level."""
    if spec in ("trivial", "1"):
        return system.trivial(degree)
    if isinstance(spec, str):
        m = _CHAR_RE.match(spec)
        if not m:
            raise SchemaError(f"unrecognized character spec {spec!r}")
        power = int(m.group(2)) if m.group(2) else 1
        return system.char_of_order(degree, int(m.group(1)), power)
    if isinstance(spec, int) and not isinstance(spec, bool):
        return system.character(degree, spec)
    if isinstance(spec, dict):
        if set(spec) == {"degree", "index"} \
                and _as_int(spec, "degree") == degree:
            return system.character(degree, _as_int(spec, "index"))
        if set(spec) <= {"order", "power"} and "order" in spec:
            return system.char_of_order(degree, _as_int(spec, "order"),
                                        _as_int(spec, "power", 1))
    raise SchemaError(f"unrecognized character spec {spec!r}")


# ------------------------------------------------------- payload validation


def _as_int(payload, key, default=None, many=False, minimum=None):
    """The integer field key, required unless a default is given, at least
    minimum if given; with many, an integer or a non-empty list of them,
    returned as a list."""
    if key not in payload:
        if default is None:
            raise SchemaError(f"missing field {key!r}")
        return default
    v = payload[key]
    items = v if many and isinstance(v, list) and v else [v]
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in items):
        what = "an integer or a list of them" if many else "an integer"
        raise SchemaError(f"field {key!r} must be {what}, got {v!r}")
    if minimum is not None and min(items) < minimum:
        raise SchemaError(f"field {key!r} must be at least {minimum}")
    return list(items) if many else v


def _depth(payload, opts, minimum=0):
    depth = opts.depth if opts.depth is not None \
        else _as_int(payload, "depth", DEFAULT_DEPTH)
    if depth < minimum:
        raise SchemaError(f"depth {depth} must be at least {minimum}")
    return depth


def _system(payload):
    """The job's characters over F_q, q = p^s, with no tower level built."""
    return CharSystem(FieldTower(_as_int(payload, "p"),
                                 _as_int(payload, "s", 1)))


def _chars(system, payload, degrees, what):
    """The "characters" field: one spec per entry of degrees."""
    specs = payload.get("characters")
    if not isinstance(specs, list) or len(specs) != len(degrees):
        raise SchemaError(f"need one character spec per {what}")
    return tuple(_parse_char(system, d, s) for d, s in zip(degrees, specs))


def _datum(system, payload, a):
    """The checked degree-1 monomial datum of the exponents and characters."""
    exponents = _as_int(payload, "exponents", many=True)
    chars = _chars(system, payload, (1,) * len(exponents), "exponent")
    datum = MonomialDatum(1, tuple(exponents), chars, a)
    check_monomial_datum(system, datum)
    return datum


def _gauss_terms(tower, degrees):
    """Each of the q^d - 1 characters of degree d sums q^d terms."""
    return sum((q - 1) * q for q in map(tower.order, degrees))


# --------------------------------------------------------------- job kinds
# A kind's prepare(payload, opts) validates every field it reads and builds
# no tower level.  It returns the job's cost estimate, which run() holds
# against --max-grid, and the runner that does the work and returns cases.


def _gauss(payload, opts):
    system = _system(payload)
    degrees = _as_int(payload, "degrees", [1], many=True)
    return (_gauss_terms(system.tower, degrees),
            lambda: _gauss_cases(system, degrees))


def _gauss_cases(system, degrees):
    t = system.tower
    cases = []
    for d in degrees:
        q = t.order(d)
        for i in range(q - 1):
            lam = system.character(d, i)
            g = system.gauss_sum(lam)
            if i == 0:
                ok = g == cy.from_int(-1)
            else:
                inv = system.char_inv(lam)
                sign = system.sign_at_neg_one(i)
                ok = (g * system.gauss_sum(inv) == sign * q
                      and g.conjugate() == sign * system.gauss_sum(inv)
                      and g.abs_squared() == q)
            cases.append({"degree": d, "index": i,
                          "order": system.char_order(lam),
                          "g": g, "pass": ok})
    return cases


def _hd(payload, opts):
    system = _system(payload)
    orders = _as_int(payload, "n", many=True, minimum=2)
    laws = payload.get("laws", ["lift", "product"])
    if not isinstance(laws, list) or not laws \
            or not set(laws) <= {"lift", "product"}:
        raise SchemaError("field 'laws' must list 'lift' and/or 'product'")
    specs = payload.get("lambdas", "all")
    if specs != "all" and not isinstance(specs, list):
        raise SchemaError("field 'lambdas' must be \"all\" or a list of "
                          "character specs")
    tower = system.tower
    q = tower.order(1)
    indices = range(q - 1) if specs == "all" \
        else [_parse_char(system, 1, spec).index for spec in specs]
    # per character, the lifting law sums over F_q and F_{q^n}, and the
    # product law, which holds only where n divides q - 1, n times over F_q
    runs = [(n, law) for n in orders for law in ("lift", "product")
            if law in laws and (law == "lift" or (q - 1) % n == 0)]
    cost = len(indices) * sum(q + tower.order(n) if law == "lift" else n * q
                              for n, law in runs)
    return cost, lambda: _hd_cases(system, runs, indices)


def _hd_cases(system, runs, indices):
    check = {"lift": system.check_hd_lift, "product": system.check_hd_product}
    return [{"law": law, "n": n, "index": i,
             "pass": check[law](system.character(1, i), n)}
            for n, law in runs for i in indices]


def _divisor(payload, opts):
    levels = _as_int(payload, "N", many=True, minimum=1)
    coprime = _as_int(payload, "char_coprime") \
        if "char_coprime" in payload else None
    trials = _as_int(payload, "trials", 200, minimum=0)
    seed = _as_int(payload, "seed", opts.seed)
    return (sum(probe_size(n, coprime, trials) for n in levels),
            lambda: _divisor_cases(levels, coprime, seed, trials))


def _divisor_cases(levels, coprime, seed, trials):
    cases = []
    for n in levels:
        rep = injectivity_probe(n, coprime, seed=seed, trials=trials)
        cases.append({"N": n, "checked": rep["checked"],
                      "pass": not rep["failures"]})
    return cases


def _identity(payload, opts):
    system = _system(payload)
    terms = payload.get("terms")
    if not isinstance(terms, list) or not terms:
        raise SchemaError("field 'terms' must be a non-empty list")
    parsed = []
    for term in terms:
        if not isinstance(term, dict) \
                or set(term) - {"degree", "char", "index", "n"}:
            raise SchemaError("each term must be an object with keys among "
                              "degree, char, index and n")
        spec = term.get("char", term.get("index", "trivial"))
        parsed.append((_parse_char(system, _as_int(term, "degree", 1), spec),
                       _as_int(term, "n")))
    mono = GammaMonomial(parsed)
    check_terms(system, mono)
    base = math.lcm(*(chi.degree for chi, _ in mono.terms))
    depth = _depth(payload, opts)
    search = _as_int(payload, "search_depth", minimum=0) \
        if "search_depth" in payload else None
    # the lambdas of degree base * e, e <= depth, may sum the Gauss sums of
    # every character there; the search goes on over the multiples of base
    # up to search_depth and certifies one witness with 2k Gauss sums
    tower, k = system.tower, len(mono.terms)
    cost = _gauss_terms(tower, (base * e for e in range(1, depth + 1))) \
        + sum(2 * k * tower.order(base * e)
              for e in range(depth + 1, (search or 0) // base + 1))
    return cost, lambda: _identity_cases(system, mono, base, depth, search)


def _identity_cases(system, mono, base, depth, search):
    cases = []
    for d in range(base, base * depth + 1, base):
        for i in range(system.tower.group_order(d)):
            m = verify_monomial_identity(system, mono, system.character(d, i))
            cases.append({"lambda_degree": d, "lambda_index": i, "m": m,
                          "pass": True})
    if search is not None:
        witness = find_violation(system, mono, search)
        cases.append({"search": True, "witness": witness,
                      "pass": witness is None})
    return cases


def _monom(payload, opts):
    system = _system(payload)
    datum = _datum(system, payload, _as_int(payload, "a"))
    depth = _depth(payload, opts, minimum=1)
    return (sweep_tuples(EtaleAlgebra(system.tower, (1,) * datum.k), depth),
            lambda: _monom_cases(system, datum, depth))


def _monom_cases(system, datum, depth):
    sol = solve_monomial_transform(system, datum)
    return [{"record": "transform", "case": sol.case,
             "exponents": sol.exponents, "characters": sol.characters,
             "chi": sol.chi, "b": sol.b, "c": sol.c, "m": sol.twist,
             "pass": True},
            dict(sweep_twisted_moments(system, datum, depth=depth),
                 record="moments")]


def _stalk(payload, opts):
    system = _system(payload)
    a_values = range(1, system.tower.q) if payload.get("a", "all") == "all" \
        else [_as_int(payload, "a")]
    shape = _datum(system, payload, a_values[0])
    q, k = system.tower.q, shape.k
    emit_grid = payload.get("emit_grid", False)
    if not isinstance(emit_grid, bool):
        raise SchemaError("field 'emit_grid' must be true or false")
    grid = has_trace_function(shape.exponents)
    if emit_grid and not grid:
        raise SchemaError(f"exponents {list(shape.exponents)} have no trace "
                          "function, so no grid to emit")
    # per a: 3^k sums of q - 1 terms in the origin recursion; a grid adds
    # q^k points and, for each proper zero set Z and each of at most q - 1
    # coefficients, a sub-stalk of 3^|Z| (q - 1) terms
    cost = len(a_values) * (3 ** k * (q - 1) + (
        q ** k + (q - 1) ** 2 * (4 ** k - 3 ** k) if grid else 0))
    return cost, lambda: _stalk_cases(system, shape, a_values, grid,
                                      emit_grid)


def _stalk_cases(system, shape, a_values, grid, emit_grid):
    cases = []
    for a in a_values:
        datum = MonomialDatum(1, shape.exponents, shape.characters, a)
        val = stalk_trace_at_zero(system, datum)
        case = {"a": a, "at_zero": val, "pass": True}
        if grid:
            fn = gm_trace_function(system, datum)
            case["pass"] = fn.value((0,) * datum.k) == val
            if emit_grid:
                case["grid"] = fn
        cases.append(case)
    return cases


def _binom(payload, opts):
    # the a and b identities at (n, r, s) each sum
    # (r+1)(n-r+1)(s+1)(n-s+1) - 1 weighted terms
    if "n_max" not in payload:
        n, r, s = (_as_int(payload, key) for key in "nrs")
        check_triple(n, r, s)
        return (2 * ((r + 1) * (n - r + 1) * (s + 1) * (n - s + 1) - 1),
                lambda: [verify_binomial_identities(n, r, s)])
    if {"n", "r", "s"} & set(payload):
        raise SchemaError("give either n_max or a single (n, r, s)")
    n_max = _as_int(payload, "n_max")
    # summed over r, s <= n the products are C(n+3, 3)^2; writing
    # C(m, 3)^2 = sum_j a_j C(m, j), hockey-stick sums close the sum over n
    top = max(n_max, 0)
    squares = sum(a * (math.comb(top + 4, j + 1) - math.comb(4, j + 1))
                  for j, a in ((3, 1), (4, 12), (5, 30), (6, 20)))
    ones = (top + 1) * (top + 2) * (2 * top + 3) // 6 - 1
    return 2 * (squares - ones), lambda: [
        verify_binomial_identities(n, r, s) for n in range(1, n_max + 1)
        for r in range(n + 1) for s in range(n + 1)]


def _norm(payload, opts):
    system = _system(payload)
    degrees = _as_int(payload, "factor_degrees", many=True)
    algebra = EtaleAlgebra(system.tower, degrees)
    chi = NormCharacter(_chars(system, payload, degrees, "algebra factor"))
    module = VirtualModule(_as_int(payload, "ranks", many=True))
    a = _as_int(payload, "a")
    check_norm_data(system, algebra, module, chi, a)
    depth = _depth(payload, opts, minimum=1)
    return (sweep_tuples(algebra, depth),
            lambda: _norm_cases(system, algebra, module, chi, a, depth))


def _norm_cases(system, algebra, module, chi, a, depth):
    cases = []
    if module_divisor(system, algebra, chi, module).is_zero():
        for i in range(system.tower.group_order(1)):
            m = verify_norm_identity(system, algebra, module, chi,
                                     system.character(1, i))
            cases.append({"record": "gauss_identity", "lambda_index": i,
                          "m": m, "pass": True})
    sol = solve_norm_transform(system, algebra, module, chi, a)
    cases.append({"record": "transform", "case": sol.case,
                  "ranks": sol.ranks, "characters": sol.characters.chars,
                  "nu": sol.nu, "b": sol.b, "c": sol.c, "m": sol.twist,
                  "pass": True})
    cases.append(dict(sweep_norm_moments(system, algebra, module, chi, a,
                                         depth=depth), record="moments"))
    return cases


class Kind(Value):
    """One row of the job table: the payload keys a kind allows, the unit
    its cost estimate counts, and its prepare function, whose result is
    (estimate, runner).  A Value; the fields are not to be reassigned."""

    __slots__ = ("keys", "unit", "prepare")


KINDS = {
    "gauss": Kind({"p", "s", "degrees"}, "Gauss-sum terms", _gauss),
    "hd": Kind({"p", "s", "n", "lambdas", "laws"}, "Gauss-sum terms", _hd),
    "divisor": Kind({"N", "char_coprime", "trials", "seed"}, "checks",
                    _divisor),
    "identity": Kind({"p", "s", "terms", "depth", "search_depth"},
                     "Gauss-sum terms", _identity),
    "monom": Kind({"p", "s", "exponents", "characters", "a", "depth"},
                  "tuples", _monom),
    "stalk": Kind({"p", "s", "exponents", "characters", "a", "emit_grid"},
                  "grid points and sum terms", _stalk),
    "binom": Kind({"n", "r", "s", "n_max"}, "weighted terms", _binom),
    "norm": Kind({"p", "s", "factor_degrees", "ranks", "characters", "a",
                  "depth"}, "tuples", _norm),
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

SUITES = {"acceptance": ACCEPTANCE_JOBS, "full": FULL_JOBS}


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
    row = KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise SchemaError(f"unknown job kind {kind!r}; expected one of "
                          f"{', '.join(KINDS)}")
    extra = set(job) - row.keys - {"kind"}
    if extra:
        raise SchemaError(f"unknown field(s) {sorted(extra)} for {kind}")
    cost, cases = row.prepare(job, opts)
    if cost == 0:
        raise SchemaError(f"this {kind} job checks nothing")
    if cost > opts.max_grid:
        raise SizeBoundError(f"{kind} job of {cost} {row.unit} exceeds the "
                             f"bound {opts.max_grid}")
    start = time.perf_counter()
    report = _summarize(job, cases())
    if opts.timings:
        report["timing"] = {"advisory": True,
                            "elapsed_s": time.perf_counter() - start}
    return report


def suite(name: str, opts: Options | None = None) -> dict:
    """Run a named battery of jobs; size-bound errors name the culprit."""
    opts = opts or Options()
    if not isinstance(name, str) or name not in SUITES:
        raise SchemaError(f"unknown suite {name!r}")
    start = time.perf_counter()
    out = []
    for job_name, job in SUITES[name]:
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


def _encode(report, opts) -> str:
    """The whole report as the text main prints: one indented document,
    or with --ndjson one line per case and one per job summary."""
    encode = {"sort_keys": True, "default": functools.partial(
        _report_value, emit_floats=opts.emit_floats)}
    if not opts.ndjson:
        return json.dumps(report, indent=1, **encode) + "\n"
    compact = dict(encode, separators=(",", ":"))
    lines = []
    if "jobs" in report:
        lines.append(json.dumps({"suite": report["suite"]}, **compact))
        rows = [dict(j["report"], name=j["name"]) for j in report["jobs"]]
    else:
        rows = [report]
    for row in rows:
        head = {k: v for k, v in row.items() if k != "cases"}
        lines.extend(json.dumps(case, **compact)
                     for case in row.get("cases", []))
        lines.append(json.dumps(head, **compact))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Exact verification jobs for character-sum identities.")
    parser.add_argument("--job", metavar="FILE",
                        help="path to a JSON job spec, or - for stdin")
    parser.add_argument("--suite", choices=tuple(SUITES))
    parser.add_argument("--depth", type=int,
                        help="override the extension-sweep depth")
    parser.add_argument("--max-grid", type=int, default=DEFAULT_MAX_GRID,
                        help="largest cost estimate a job may have, "
                        "counted before it builds anything: " + "; ".join(
                            f"{kind} {row.unit}"
                            for kind, row in KINDS.items()))
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
        # encoded before anything is printed, so a report that cannot be
        # encoded exits 4 with stdout empty
        text = _encode(report, opts)
    except (SchemaError, SizeBoundError, InternalCheckError) as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__,
                          "exit_code": exc.exit_code}, sort_keys=True),
              file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
