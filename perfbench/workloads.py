"""The three workloads, each built as one round of program calls.

A round is a list of operations (label, call, check).  `setup` builds it
from a freshly imported charsum and a seeded random source, so the same
seed gives the same inputs and every round of a run does the same work.
The runner times the calls from the first to the last and runs the checks
afterwards.  Seeds draw coefficients `a`, additive twists and sampled
characters; fields, shapes and counts are fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import checks


def _run_cli(cli, text):
    """Run one job through charsum.cli.main in-process, as `--job -` does."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["--job", "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _cyclo(v):
    return v.order, v.coeffs


# ------------------------------------------------------------------ sweep


def sweep(cs, rng):
    """CLI monom and norm jobs at depth 2; each job builds its own tower."""
    jobs = [
        {"kind": "monom", "p": 7, "exponents": [3, -1],
         "characters": ["trivial", "e3"], "a": rng.randrange(1, 7),
         "depth": 2},
        {"kind": "norm", "p": 7, "factor_degrees": [2], "ranks": [1],
         "characters": ["trivial"], "a": rng.randrange(1, 7), "depth": 2},
    ]
    ops = []
    for job in jobs:
        text = json.dumps(job)

        def check(out, job=job):
            code, report = out
            return checks.check_sweep_job(job, code, json.loads(report))
        ops.append((f"cli {text}", lambda text=text: _run_cli(cs.cli, text),
                    check))
    return ops


# ---------------------------------------------------------------- falsify

# Monomials as (p, [(character degree, index, exponent)]); characters are
# indexed against each tower's generator, so index (q-1)/n is order n.


def _hd_terms(p, n):
    step = (p - 1) // n
    return [(1, 0, n), (1, 0, -1)] + [(1, step * i, -1) for i in range(1, n)]


# Hasse-Davenport monomials over F_13: n = 12 gives the longest products,
# n = 4 shorter ones (n = 2, 3 and 6 would more than double the round).
# Then the smaller criterion-05 library: Hasse-Davenport over F_7, the
# divisor relations of the (2), (3,-1) and (4,-2) transforms, and an
# inverse pair.
ZERO_DIVISOR = (
    [(13, _hd_terms(13, n)) for n in (4, 12)]
    + [(7, _hd_terms(7, n)) for n in (2, 3, 6)]
    + [(5, [(1, 0, 2), (1, 0, -1), (1, 2, -1)]),
       (7, [(1, 0, 3), (1, 4, -1), (1, 0, -1), (1, 2, -1)]),
       (5, [(1, 0, 4), (1, 2, -2), (1, 0, -1), (1, 2, -1)]),
       (5, [(1, 1, 1), (1, 3, -1)])]
)
# The broken monomials of criterion 15: no identity holds.
BROKEN = [
    (3, [(1, 0, 1), (1, 1, -1)]),
    (7, [(1, 0, 3), (1, 2, -1)]),
    (3, [(1, 1, 2)]),
]
SEARCH_DEPTH = 2


def falsify(cs, rng):
    """verify_monomial_identity over every lambda at degrees 1 and 2, then
    find_violation, with one CharSystem per field shared by its monomials."""
    systems = {}
    for p in (13, 7, 5, 3):
        tower = cs.build_tower(p, 1, degrees=(1, 2))
        systems[p] = cs.CharSystem(tower, rng.randrange(1, p))

    def monomial(p, terms):
        s = systems[p]
        return cs.GammaMonomial([(s.character(deg, idx), n)
                                 for deg, idx, n in terms])

    ops = []
    for p, terms in ZERO_DIVISOR:
        s, mono = systems[p], monomial(p, terms)
        for d in (1, 2):
            for idx in range(p ** d - 1):
                lam = s.character(d, idx)
                ops.append((
                    f"verify F_{p} {terms} at ({d}, {idx})",
                    lambda s=s, mono=mono, lam=lam:
                        cs.verify_monomial_identity(s, mono, lam),
                    lambda m, p=p, terms=terms, d=d, idx=idx:
                        checks.check_identity_exponent(p, terms, d, idx, m)))
        ops.append(_violation_op(cs, s, mono, p, terms, True))
    for p, terms in BROKEN:
        ops.append(_violation_op(cs, systems[p], monomial(p, terms), p,
                                 terms, False))
    return ops


def _violation_op(cs, system, mono, p, terms, zero_divisor):
    def call():
        got = cs.find_violation(system, mono, SEARCH_DEPTH)
        return (got[0], got[1].index) if isinstance(got, tuple) else got
    return (f"find_violation F_{p} {terms}", call,
            lambda got: checks.check_witness(p, terms, SEARCH_DEPTH, got,
                                             zero_divisor))


# ----------------------------------------------------------------- oracle

NORM_SAMPLE = 30
ALGEBRA_GAUSS_SAMPLE = 10
DEGREE2_ISUMS = 8
DEGREE1_ISUMS = 8
GAUSS_FLOATS = 6
RATIO_CASES = 24


def _exponent_pool(p):
    return [n for n in range(-4, 5) if n and math.gcd(n, p) == 1]


def _expect(value):
    return lambda out: [] if out is value else [f"got {out!r}, "
                                                f"expected {value!r}"]


def _agree(label):
    return lambda pair: checks.check_same(label, pair)


def oracle(cs, rng):
    """Brute-force paths next to the closed and factored forms they check."""
    S = {p: cs.CharSystem(cs.build_tower(p, 1, degrees=degrees))
         for p, degrees in ((13, (1,)), (7, (1, 2)), (5, (1, 2)), (3, (1, 2)))}
    na = cs.norm_algebra
    ops = []

    # pointwise transforms: the solver route holds, the quartic claim
    # q eps2(a) f(x, 32y) fails
    for p in (13, 7):
        s = S[p]
        dat = cs.MonomialDatum(1, (3, -1), (s.trivial(1),
                                            s.char_of_order(1, 3)),
                               rng.randrange(1, p))
        ops.append((f"cubic solver F_{p} a={dat.a}",
                    lambda s=s, dat=dat: cs.verify_transform_pointwise(s, dat),
                    _expect(True)))
    for p in (5, 7):
        s = S[p]
        e2 = s.char_of_order(1, 2)
        dat = cs.MonomialDatum(1, (4, -2), (s.trivial(1), e2),
                               rng.randrange(1, p))
        claimed = cs.from_int(p) * s.char_value(e2, dat.a)
        ops.append((f"quartic solver F_{p} a={dat.a}",
                    lambda s=s, dat=dat: cs.verify_transform_pointwise(s, dat),
                    _expect(True)))
        ops.append((f"quartic claim F_{p} a={dat.a}",
                    lambda s=s, dat=dat, c=claimed, u=32 % p:
                        cs.verify_transform_pointwise(
                            s, dat, target=dat, scalar=c, arg_scale=(1, u)),
                    _expect(False)))

    # norm moments by direct sums on the degree-2 base change of F_9 x F_3
    s3 = S[3]
    alg = cs.EtaleAlgebra(s3.tower, (2, 1))
    module = cs.VirtualModule((1, -2))
    chi = cs.NormCharacter((s3.trivial(2), s3.trivial(1)))
    alg2 = na.base_change(s3, alg, 2)
    mod2 = na.extend_module(s3, alg, module, 2)
    chi2 = na.extend_character(s3, alg, chi, 2)
    a2 = na.extend_scalar(s3, alg, 1, 2)
    sol = cs.solve_norm_transform(s3, alg2, mod2, chi2, a2)
    lams = list(na.iter_nondegenerate(s3, alg2))
    for lam in rng.sample(lams, NORM_SAMPLE):
        ops.append((f"norm moments direct {lam}",
                    lambda lam=lam: cs.verify_norm_moments(
                        s3, alg2, mod2, chi2, a2, sol, lam, method="direct"),
                    _expect(True)))
    for lam in rng.sample(lams, ALGEBRA_GAUSS_SAMPLE):
        ops.append((f"algebra Gauss sum {lam}",
                    lambda lam=lam: tuple(_cyclo(cs.gauss_sum_algebra(
                        s3, alg2, lam, method=m)) for m in ("direct",
                                                            "factor")),
                    _agree(f"algebra Gauss sum {lam}")))

    # I-sums, direct against closed, at degree 2
    for p in (7, 5):
        s = S[p]
        grp = p ** 2 - 1
        for _ in range(DEGREE2_ISUMS):
            k = rng.randint(1, 2)
            ns = tuple(rng.choice(_exponent_pool(p)) for _ in range(k))
            dat = cs.MonomialDatum(2, ns, (s.trivial(2),) * k,
                                   rng.randrange(1, grp + 1))
            lams = tuple(s.character(2, rng.randrange(grp)) for _ in range(k))
            ops.append((f"I-sum F_{p}^2 {ns} a={dat.a}",
                        lambda s=s, dat=dat, lams=lams: (
                            _cyclo(cs.i_sum_direct(s, dat, lams)),
                            _cyclo(cs.i_sum_closed(s, dat, lams))),
                        _agree(f"I-sum F_{p}^2 {ns}")))

    # n-fold ratio transforms
    for n, p in ((2, 5), (2, 7)):
        s = S[p]
        for _ in range(RATIO_CASES // 2):
            lam = s.character(1, rng.randrange(p - 1))
            xh = tuple(rng.randrange(1, p) for _ in range(n))
            yh = tuple(rng.randrange(1, p) for _ in range(n))
            ops.append((f"ratio {n}-fold F_{p} {lam.index} {xh} {yh}",
                        lambda s=s, n=n, lam=lam, xh=xh, yh=yh:
                            cs.verify_ratio_transform_nfold(s, n, lam, xh,
                                                            yh),
                        _expect(True)))

    # degree-1 Gauss sums and I-sums against complex float sums
    for p in (13, 7):
        s = S[p]
        for idx in rng.sample(range(p - 1), min(GAUSS_FLOATS, p - 1)):
            ops.append((f"Gauss sum F_{p} {idx}",
                        lambda s=s, idx=idx: _cyclo(
                            s.gauss_sum(s.character(1, idx))),
                        lambda v, p=p, idx=idx: checks.check_float_value(
                            f"g({idx}) over F_{p}", *v,
                            checks.gauss_sum_float(p, 1, idx), p - 1)))
        for _ in range(DEGREE1_ISUMS):
            k = rng.randint(1, 2)
            ns = tuple(rng.choice(_exponent_pool(p)) for _ in range(k))
            a = rng.randrange(1, p)
            idxs = tuple(rng.randrange(p - 1) for _ in range(k))
            dat = cs.MonomialDatum(1, ns, (s.trivial(1),) * k, a)
            lams = tuple(s.character(1, i) for i in idxs)
            ops.append((f"I-sum F_{p} {ns} a={a} {idxs}",
                        lambda s=s, dat=dat, lams=lams: (
                            _cyclo(cs.i_sum_direct(s, dat, lams)),
                            _cyclo(cs.i_sum_closed(s, dat, lams))),
                        _float_pair(p, ns, a, idxs)))
    return ops


def _float_pair(p, ns, a, idxs):
    def check(pair):
        approx = checks.i_sum_float(p, 1, ns, a, idxs)
        terms = (p - 1) ** len(ns)
        label = f"I-sum F_{p} {ns} a={a} {idxs}"
        return checks.check_same(label, pair) + checks.check_float_value(
            label, *pair[0], approx, terms)
    return check


WORKLOADS = {"sweep": sweep, "falsify": falsify, "oracle": oracle}
