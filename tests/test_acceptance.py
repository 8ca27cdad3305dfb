"""Release acceptance battery: one timed test per criterion.

Every test records a single `[criterion NN] PASS/FAIL in X.XXs (bound Ns)`
line in SCORECARD (emitted after the run by the conftest terminal-summary
hook) and then asserts both the mathematical content and the wall-time
bound.  Checks are exact cyclotomic equalities throughout; no floats are
compared anywhere.
"""

from __future__ import annotations

import math
import random
import sys
import time
from itertools import product

import charsum.cyclotomic as cy
from charsum.characters import CharSystem
from charsum.divisor_calc import SymbolSum, injectivity_probe
from charsum.field_tower import build_tower
from charsum.identity_engine import (
    GammaMonomial,
    find_violation,
    predicted_divisor,
    verify_monomial_identity,
    verify_norm_identity,
)
from charsum.monomial_fourier import (
    MonomialDatum,
    TransformSolution,
    i_sum_closed,
    i_sum_direct,
    solve_monomial_transform,
    sweep_twisted_moments,
    verify_ratio_transform,
    verify_ratio_transform_nfold,
    verify_transform_pointwise,
    verify_twisted_moments,
)
from charsum.norm_algebra import (
    EtaleAlgebra,
    NormCharacter,
    VirtualModule,
    as_monomial_datum,
    module_divisor,
    solve_norm_transform,
    sweep_norm_moments,
    verify_norm_moments,
)
from charsum.stalk_traces import (
    a_poly,
    b_poly,
    stalk_trace_at_zero,
    verify_binomial_identities,
)


def system(p, s=1, degrees=(1,)):
    return CharSystem(build_tower(p, s, degrees=degrees))


# Shared ambient systems; building towers is setup, the criterion clocks
# only cover the checks themselves.
S3 = system(3, degrees=(1, 2))
S5 = system(5, degrees=(1, 2))
S7 = system(7, degrees=(1, 2))
S13 = system(13, degrees=(1, 2))
BASE_FIELDS = [system(3), system(2, 2), system(5), system(7),
               system(2, 3), system(3, 2), system(11), system(13)]
LIFT_SYSTEMS = [system(p, degrees=(1, 2, 3)) for p in (3, 5, 7)]

T3 = S3.tower
K9 = EtaleAlgebra(T3, (2,))
K33 = EtaleAlgebra(T3, (1, 1))
K39 = EtaleAlgebra(T3, (1, 2))


SCORECARD: list[str] = []


def _report(num: int, bound: float, t0: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    line = f"[criterion {num:02d}] {verdict} in {elapsed:.2f}s (bound {bound}s)"
    SCORECARD.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, detail or line
    assert elapsed < bound, line


def test_criterion_01_gauss_sum_laws():
    t0 = time.perf_counter()
    ok = True
    for sysm in BASE_FIELDS:
        t = sysm.tower
        q = t.order(1)
        minus = t.minus_one()
        for idx in range(t.group_order(1)):
            lam = sysm.character(1, idx)
            g = sysm.gauss_sum(lam)
            if idx == 0:
                ok = ok and g == cy.from_int(-1)
                continue
            inv = sysm.char_inv(lam)
            sign = sysm.char_value(lam, minus)
            ok = ok and g * sysm.gauss_sum(inv) == sign * cy.from_int(q)
            ok = ok and g.conjugate() == sign * sysm.gauss_sum(inv)
            ok = ok and g.abs_squared() == q
    _report(1, 1, t0, ok)


def test_criterion_02_lifting_law():
    t0 = time.perf_counter()
    ok = True
    for sysm in LIFT_SYSTEMS:
        for d in (2, 3):
            for idx in range(sysm.tower.group_order(1)):
                ok = ok and sysm.check_hd_lift(sysm.character(1, idx), d)
    _report(2, 5, t0, ok)


def test_criterion_03_product_law():
    t0 = time.perf_counter()
    ok = True
    for sysm, ns in ((S7, (2, 3, 6)), (S13, (2, 3, 4, 6, 12))):
        for n in ns:
            for idx in range(sysm.tower.group_order(1)):
                ok = ok and sysm.check_hd_product(sysm.character(1, idx), n)
    _report(3, 10, t0, ok)


def test_criterion_04_divisor_engine():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(4)
    for big_n in range(1, 13):
        rep = injectivity_probe(big_n, trials=200)
        ok = ok and rep["failures"] == [] and rep["checked"] > 200
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                key = (rng.randrange(4 * big_n), rng.randint(1, 6))
                terms[key] = terms.get(key, 0) + rng.randint(-3, 3)
            x = SymbolSum(big_n, terms)
            r = x.reduce_to_basis()
            ok = ok and r.reduce_to_basis() == r
            ok = ok and r.to_divisor() == x.to_divisor()
    _report(4, 5, t0, ok)


def hd_monomial(sysm, n, degree=1):
    one = sysm.trivial(degree)
    terms = [(one, n), (one, -1)]
    for i in range(1, n):
        terms.append((sysm.char_of_order(degree, n, power=i), -1))
    return GammaMonomial(terms)


def relation_of_datum(sysm, exps, chs, a=1):
    """Zero-divisor monomial encoding the divisor equation a transform
    datum solves: term divisors minus the origin minus the mediator."""
    sol = solve_monomial_transform(sysm, MonomialDatum(1, exps, chs, a))
    terms = [(sysm.char_inv(ch), n) for ch, n in zip(chs, exps)]
    terms.append((sysm.trivial(1), -1))
    if sol.case == 1:
        terms.append((sol.chi, -1))
    else:
        terms.append((sysm.char_inv(sol.chi), 1))
    return GammaMonomial(terms)


def monomial_library():
    e4 = S5.char_of_order(1, 4)
    lib = [(S7, hd_monomial(S7, n)) for n in (2, 3, 6)]
    lib += [(S13, hd_monomial(S13, n)) for n in (2, 3, 4, 6, 12)]
    lib += [
        (S5, relation_of_datum(S5, (2,), (S5.trivial(1),))),
        (S7, relation_of_datum(S7, (3, -1),
                               (S7.trivial(1), S7.char_of_order(1, 3)))),
        (S5, relation_of_datum(S5, (4, -2),
                               (S5.trivial(1), S5.char_of_order(1, 2)))),
        (S5, GammaMonomial([(e4, 1), (S5.char_inv(e4), -1)])),
    ]
    return lib


def test_criterion_05_monomial_identities():
    t0 = time.perf_counter()
    lib = monomial_library()
    ok = len(lib) >= 10
    for sysm, mono in lib:
        ok = ok and predicted_divisor(sysm, mono).is_zero()
        for d in (1, 2):
            for idx in range(sysm.tower.group_order(d)):
                lam = sysm.character(d, idx)
                m = verify_monomial_identity(sysm, mono, lam)
                ok = ok and isinstance(m, int)
                lifted = [(sysm.lift_character(chi, d), n)
                          for chi, n in mono.terms]
                shifted_nontrivial = all(
                    not sysm.is_trivial(
                        sysm.char_mul(sysm.char_pow(lam, n), chi))
                    for chi, n in lifted)
                if shifted_nontrivial:
                    ok = ok and 2 * m == sum(
                        sysm.is_trivial(chi) for chi, _ in lifted)
    _report(5, 60, t0, ok)


def test_criterion_06_cubic_transform_pointwise():
    t0 = time.perf_counter()
    ok = True
    for sysm in (S7, S13):
        q = sysm.tower.order(1)
        e3 = sysm.char_of_order(1, 3)
        dat = MonomialDatum(1, (3, -1), (sysm.trivial(1), e3), 1)
        ok = ok and verify_transform_pointwise(
            sysm, dat, target=dat, scalar=cy.from_int(q),
            arg_scale=(1, 27 % q))
    _report(6, 5, t0, ok)


def _torus_value(sysm, dat, xs):
    """psi(a prod x_i^{n_i}) prod chi_i(x_i) at a torus point over F_q."""
    t = sysm.tower
    mono, val = dat.a, cy.from_int(1)
    for x, n, chi in zip(xs, dat.exponents, dat.characters):
        mono = t.mul(1, mono, t.pow_elem(1, x, n))
        val = val * sysm.char_value(chi, x)
    return val * sysm.psi_value(1, mono)


def _torus_transform(sysm, dat):
    """T(u, v) = sum over x, y != 0 of f(x, y) psi(u x + v y), for u, v != 0.

    fhat - T is the sum over the boundary x = 0 or y = 0, which has the
    form F1(u) + F2(v) + const whatever the stalk values there are."""
    t = sysm.tower
    units = range(1, t.order(1))
    f = {(x, y): _torus_value(sysm, dat, (x, y)) for x in units for y in units}

    def at(u, v):
        acc = cy.from_int(0)
        for (x, y), fv in f.items():
            dot = t.add(1, t.mul(1, u, x), t.mul(1, v, y))
            acc = acc + fv * sysm.psi_value(1, dot)
        return acc

    return {(u, v): at(u, v) for u in units for v in units}


def _has_mixed_difference(r):
    """Whether r(u,v) - r(u,1) - r(1,v) + r(1,1) is nonzero somewhere, i.e.
    whether r is not of the form F1(u) + F2(v) + const."""
    return any(not (r[u, v] - r[u, 1] - r[1, v] + r[1, 1]).is_zero()
               for u, v in r)


def test_criterion_07_quartic_transform_pointwise():
    # The paper's rescaling fhat(x, y) = q eps2(a) f(x, 32y) is false; this
    # criterion checks the counterexample exactly.  At each of the 10 data
    # the claimed form must fail pointwise and the solver identity (rescale
    # by b = -(4^4/(-2)^2 a)^(-1) = -a^(-1)/64, twist eps2(b)) must hold.
    # Over F_7, where b and a lie in different square classes, the claim
    # must also fail on the torus alone: there claim - T has a nonzero
    # mixed second difference, which no choice of boundary stalks can
    # cancel, while the solver form minus T has none.
    t0 = time.perf_counter()
    detail = ""
    for sysm in (S5, S7):
        t = sysm.tower
        q = t.order(1)
        e2 = sysm.char_of_order(1, 2)
        for a in range(1, q):
            dat = MonomialDatum(1, (4, -2), (sysm.trivial(1), e2), a)
            claimed = cy.from_int(q) * sysm.char_value(e2, a)
            sol = solve_monomial_transform(sysm, dat)
            checks = {
                "claimed form q*eps2(a)*f(x,32y) fails pointwise":
                    not verify_transform_pointwise(
                        sysm, dat, target=dat, scalar=claimed,
                        arg_scale=(1, 32 % q)),
                f"solver identity (case {sol.case}, b={sol.b}, twist "
                f"eps2(b)) holds pointwise":
                    verify_transform_pointwise(sysm, dat, sol),
            }
            if q == 7:
                torus = _torus_transform(sysm, dat)
                target = MonomialDatum(1, sol.exponents, sol.characters,
                                       sol.b)
                checks["claimed form fails on the torus alone"] = \
                    _has_mixed_difference({
                        (u, v): claimed * _torus_value(
                            sysm, dat, (u, t.mul(1, 32 % q, v))) - tv
                        for (u, v), tv in torus.items()})
                checks["solver form matches the torus transform up to "
                       "F1(u) + F2(v) + const"] = \
                    not _has_mixed_difference({
                        (u, v): sol.c * _torus_value(sysm, target, (u, v))
                        - tv for (u, v), tv in torus.items()})
            failed = [name for name, held in checks.items() if not held]
            if failed and not detail:
                detail = f"first failing point q={q}, a={a}: " + \
                    "; ".join(f"expected: {name}" for name in failed)
    _report(7, 10, t0, not detail, detail)


def test_criterion_08_ratio_transform():
    t0 = time.perf_counter()
    ok = True
    for a in range(1, 5):
        for xh in range(1, 5):
            for yh in range(1, 5):
                for idx in range(4):
                    ok = ok and verify_ratio_transform(
                        S5, a, xh, yh, S5.character(1, idx))
    rng = random.Random(8)
    for idx in range(6):
        chi = S7.character(1, idx)
        for _ in range(5):
            a, xh, yh = (rng.randrange(1, 7) for _ in range(3))
            ok = ok and verify_ratio_transform(S7, a, xh, yh, chi)
    _report(8, 5, t0, ok)


def test_criterion_09_ratio_transform_twofold():
    t0 = time.perf_counter()
    ok = True
    units = (1, 2, 3, 4)
    for idx in range(4):
        chi = S5.character(1, idx)
        for xh in product(units, repeat=2):
            for yh in product(units, repeat=2):
                ok = ok and verify_ratio_transform_nfold(S5, 2, chi, xh, yh)
    _report(9, 10, t0, ok)


def test_criterion_10_binomial_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for r in range(n + 1):
            for s in range(n + 1):
                rep = verify_binomial_identities(n, r, s)
                ok = ok and rep["pass"] and all(rep["checks"].values())
    _report(10, 5, t0, ok)


def _exponent_pool(p):
    return [n for n in range(-4, 5) if n and math.gcd(n, p) == 1]


def test_criterion_11_i_sum_direct_vs_closed():
    t0 = time.perf_counter()
    ok = True
    for sysm in (system(3), system(5)):
        p = sysm.tower.p
        grp = p - 1
        for k in range(1, 4):
            trivs = (sysm.trivial(1),) * k
            for ns in product(_exponent_pool(p), repeat=k):
                dat = MonomialDatum(1, ns, trivs, 1)
                for idxs in product(range(grp), repeat=k):
                    lams = tuple(sysm.character(1, i) for i in idxs)
                    ok = ok and i_sum_direct(sysm, dat, lams) == \
                        i_sum_closed(sysm, dat, lams)
    for p, s in ((7, 1), (3, 2)):
        sysm = system(p, s)
        grp = sysm.tower.group_order(1)
        rng = random.Random(100 * p + s)
        pool = _exponent_pool(p)
        for _ in range(40):
            k = rng.randint(1, 3)
            ns = tuple(rng.choice(pool) for _ in range(k))
            lams = tuple(sysm.character(1, rng.randrange(grp))
                         for _ in range(k))
            a = rng.randrange(1, sysm.tower.order(1))
            dat = MonomialDatum(1, ns, (sysm.trivial(1),) * k, a)
            ok = ok and i_sum_direct(sysm, dat, lams) == \
                i_sum_closed(sysm, dat, lams)
    _report(11, 120, t0, ok)


def admissible_data():
    e2_5 = S5.char_of_order(1, 2)
    e3_7 = S7.char_of_order(1, 3)
    e2_7 = S7.char_of_order(1, 2)
    data = []
    for a in range(1, 5):
        data.append((S5, MonomialDatum(1, (2,), (S5.trivial(1),), a)))
        data.append((S5, MonomialDatum(1, (4, -2), (S5.trivial(1), e2_5), a)))
        data.append((S5, MonomialDatum(1, (2, 1, -1), (S5.trivial(1),) * 3, a)))
    for a in range(1, 3):
        data.append((S7, MonomialDatum(1, (2,), (S7.trivial(1),), a)))
        data.append((S7, MonomialDatum(1, (4, -2), (S7.trivial(1), e2_7), a)))
    for a in range(1, 7):
        data.append((S7, MonomialDatum(1, (3, -1), (S7.trivial(1), e3_7), a)))
    data.append((S7, MonomialDatum(1, (2, 1, -1), (S7.trivial(1),) * 3, 1)))
    return data


def test_criterion_12_twisted_moment_sweeps():
    t0 = time.perf_counter()
    data = admissible_data()
    ok = len(data) >= 20
    for sysm, dat in data:
        sol = solve_monomial_transform(sysm, dat)
        ok = ok and isinstance(sol, TransformSolution)
        first = (sysm.character(1, 1),) * dat.k
        ok = ok and verify_twisted_moments(sysm, dat, sol, first)
        rep = sweep_twisted_moments(sysm, dat, depth=2)
        ok = ok and rep["pass"] and rep["failures"] == []
        ok = ok and rep["nonvanishing"] >= 1
    _report(12, 300, t0, ok)


def _stalk_closed_form(sysm, npos, nneg, d, eta, a):
    q = sysm.tower.order(1)
    t = sysm.tower
    psum = cy.from_int(0)
    for code in range(1, q):
        x = t.pow_elem(1, code, d)
        psum = psum + sysm.psi_value(1, t.mul(1, a, x)) * \
            sysm.char_value(eta, code)
    if sysm.is_trivial(eta):
        return a_poly(npos, nneg).evaluate(q) + \
            b_poly(npos, nneg).evaluate(q) * (cy.from_int(1) + psum)
    return b_poly(npos, nneg).evaluate(q) * psum


def test_criterion_13_stalk_closed_forms():
    # d acts on units through t -> t^d, so d <= 6 covers every residue
    # class mod q - 1 for q in {3, 5, 7}; larger d repeats these maps
    t0 = time.perf_counter()
    ok = True
    for sysm in (system(3), system(5), system(7)):
        p = sysm.tower.p
        for npos in range(0, 6):
            for nneg in range(0, 6 - npos):
                if npos + nneg == 0:
                    continue
                for d in range(1, 7):
                    if d % p == 0:
                        continue
                    for e in range(p - 1):
                        eta = sysm.character(1, e)
                        exps = (d,) * npos + (-d,) * nneg
                        cs = (eta,) * npos + \
                            (sysm.char_inv(eta),) * nneg
                        for a in range(1, p):
                            dat = MonomialDatum(1, exps, cs, a)
                            got = stalk_trace_at_zero(sysm, dat)
                            ok = ok and got == _stalk_closed_form(
                                sysm, npos, nneg, d, eta, a)
    _report(13, 30, t0, ok)


def test_criterion_14_norm_layer():
    t0 = time.perf_counter()
    triv3, triv9 = S3.trivial(1), S3.trivial(2)
    e2 = S3.char_of_order(1, 2)
    pairs = [
        (K33, (1, -1), (triv3, triv3)),
        (K33, (1, -1), (e2, e2)),
        (K33, (-1, 1), (e2, e2)),
        (K33, (2, -2), (e2, e2)),
        (K9, (0,), (S3.character(2, 1),)),
        (K39, (0, 0), (e2, S3.character(2, 3))),
    ]
    ok = len(pairs) >= 5
    for alg, ranks, chs in pairs:
        module = VirtualModule(ranks)
        chi = NormCharacter(chs)
        ok = ok and module_divisor(S3, alg, chi, module).is_zero()
        for idx in range(2):
            m = verify_norm_identity(S3, alg, module, chi,
                                     S3.character(1, idx))
            ok = ok and isinstance(m, int)
    ok = ok and verify_norm_identity(S3, K33, VirtualModule((1, -1)),
                                     NormCharacter((e2, e2)), e2) == -1

    # rank-2 and rank-0 transforms, swept over every nondegenerate twist
    # at degrees 1 and 2
    for alg, ranks, chs in ((K9, (1,), (triv9,)),
                            (EtaleAlgebra(T3, (2, 1)), (1, -2),
                             (triv9, triv3))):
        module = VirtualModule(ranks)
        chi = NormCharacter(chs)
        sol = solve_norm_transform(S3, alg, module, chi, 1)
        rep = sweep_norm_moments(S3, alg, module, chi, 1, depth=2)
        ok = ok and rep["pass"] and rep["failures"] == []
        ok = ok and rep["nonvanishing"] >= 1

    # split algebra agrees with the monomial layer
    module = VirtualModule((1, 1))
    chi = NormCharacter((triv3, e2))
    sol = solve_norm_transform(S3, K33, module, chi, 1)
    dat = as_monomial_datum(K33, module, chi, 1)
    mono = solve_monomial_transform(S3, dat)
    ok = ok and sol.b == mono.b and sol.c == mono.c
    ok = ok and sol.twist == mono.twist
    ok = ok and tuple(sol.characters.chars) == tuple(mono.characters)
    ok = ok and S3.char_point(sol.nu) == S3.char_point(mono.chi)
    lam = NormCharacter((e2, e2))
    ok = ok and verify_norm_moments(S3, K33, module, chi, 1, sol, lam)
    ok = ok and verify_twisted_moments(S3, dat, mono, lam.chars)
    _report(14, 120, t0, ok)


def test_criterion_15_falsifier_soundness():
    t0 = time.perf_counter()
    ok = True
    for sysm, mono in monomial_library():
        ok = ok and find_violation(sysm, mono, 2) is None
    broken = [
        (S3, GammaMonomial([(S3.trivial(1), 1),
                            (S3.char_of_order(1, 2), -1)])),
        (S7, GammaMonomial([(S7.trivial(1), 3),
                            (S7.char_of_order(1, 3), -1)])),
        (S3, GammaMonomial([(S3.char_of_order(1, 2), 2)])),
    ]
    for sysm, mono in broken:
        got = find_violation(sysm, mono, 2)
        ok = ok and got is not None and got != "inconclusive"
        ok = ok and got[0] <= 2
    _report(15, 30, t0, ok)
