"""Output checkers for the benchmark workloads.

Every checker takes plain data (ints, lists, decoded JSON reports) and
returns a list of problems; an empty list means the output passed.  None of
them imports charsum: each expected value is worked out here from the
workload's inputs, with integer arithmetic on character indices or with
complex floating-point sums, never read back from stored output.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

# Largest |exact - float| accepted, per unit-modulus term of the float sum.
FLOAT_TOL = 1e-6


def cyclo_complex(order, coeffs, power=1):
    """sum c_j zeta^(power j) for zeta = exp(2 pi i/order)."""
    return sum(c * cmath.exp(2j * math.pi * (j * power % order) / order)
               for j, c in enumerate(coeffs) if c)


def conjugates(order, coeffs, common=None):
    """The value under every embedding of Q(zeta_common), zeta_common ->
    exp(2 pi i k/common) for k prime to common; common is a multiple of
    order (default order itself)."""
    common = common or order
    return [cyclo_complex(order, coeffs, k) for k in range(1, common + 1)
            if math.gcd(k, common) == 1]


def same_value(u, v):
    """Exact equality of two (order, coeffs) cyclotomic integers.

    If u != v, the norm of u - v is a nonzero rational integer, so some
    conjugate of u - v has modulus at least 1; float error is far below
    1/2 at these sizes.
    """
    common = math.lcm(u[0], v[0])
    return all(abs(x - y) < 0.5 for x, y in zip(conjugates(*u, common),
                                                conjugates(*v, common)))


def _close(exact, approx, terms):
    return abs(exact - approx) <= FLOAT_TOL * max(1, terms)


def _mod_prod_powers(pairs, p):
    """prod base^exp mod p; negative exponents invert."""
    out = 1
    for base, exp in pairs:
        out = out * pow(base % p, exp, p) % p
    return out


# ------------------------------------------------------------------ sweep


def expected_monom_tuples(q, k, depth):
    """Nontrivial k-tuples over F_{q^e}, summed over e = 1..depth."""
    return sum((q ** e - 2) ** k for e in range(1, depth + 1))


def expected_norm_tuples(q, factor_degrees, depth):
    """Non-degenerate characters of the degree-e base change, e = 1..depth.

    Over a base of degree 1, a factor F_{q^D} base-changed by degree e
    splits into gcd(D, e) copies of F_{q^lcm(D, e)}.
    """
    total = 0
    for e in range(1, depth + 1):
        count = 1
        for D in factor_degrees:
            count *= (q ** math.lcm(D, e) - 2) ** math.gcd(D, e)
        total += count
    return total


def check_sweep_job(job, exit_code, report):
    """Check one CLI monom/norm job report against its job spec.

    The transform record must carry b with a*b*P = -1 (case 1) or
    b = a*P (case 2) mod p, P = prod n^n (monom) or prod n_i^(n_i D_i)
    (norm), and a constant c with |c|^2 = q^k (q^dim for norm), evaluated
    in complex floats under every embedding.  The moment record must have
    checked every tuple.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not isinstance(report, dict) or report.get("pass") is not True:
        return problems + ["report does not pass"]
    p = job["p"]
    q = p ** job.get("s", 1)
    depth = job["depth"]
    if job["kind"] == "monom":
        exps = job["exponents"]
        weight = sum(exps)
        scale = _mod_prod_powers([(n, n) for n in exps], p)
        norm_c = q ** len(exps)
        tuples = expected_monom_tuples(q, len(exps), depth)
    else:
        degs, ranks = job["factor_degrees"], job["ranks"]
        weight = sum(n * D for n, D in zip(ranks, degs))
        scale = _mod_prod_powers([(n, n * D) for n, D in zip(ranks, degs)
                                  if n], p)
        norm_c = q ** sum(degs)
        tuples = expected_norm_tuples(q, degs, depth)
    case = {2: 1, 0: 2}[weight]
    records = {c.get("record"): c for c in report["cases"]}
    tr, mom = records.get("transform"), records.get("moments")
    if tr is None or mom is None:
        return problems + ["missing transform or moments record"]
    a, b = job["a"], tr["b"]
    if tr["case"] != case:
        problems.append(f"case {tr['case']}, expected {case}")
    if not isinstance(b, int) or not 0 < b < p:
        problems.append(f"b = {b!r} is not a unit of F_{p}")
    elif case == 1 and a * b * scale % p != p - 1:
        problems.append(f"a*b*P = {a * b * scale % p} mod {p}, expected -1")
    elif case == 2 and b != a * scale % p:
        problems.append(f"b = {b}, expected a*P = {a * scale % p}")
    # c conj(c) = norm_c exactly iff it holds under every embedding
    if any(abs(abs(z) ** 2 - norm_c) >= 0.5 for z in conjugates(*tr["c"])):
        problems.append(f"|c|^2 differs from {norm_c}")
    if mom["checked"] != tuples:
        problems.append(f"checked {mom['checked']} tuples, expected {tuples}")
    if mom["failures"] or not 0 < mom["nonvanishing"] <= mom["checked"]:
        problems.append("moment sweep failed or found nothing nonvanishing")
    return problems


# ---------------------------------------------------------------- falsify


def lifted_index(q, chi_degree, index, d):
    """Index at degree d of the norm-lift of a degree-chi_degree character."""
    return index * ((q ** d - 1) // (q ** chi_degree - 1)) % (q ** d - 1)


def nontrivial_counts(q, terms, d, lam_index):
    """(#nontrivial lam^n chi', #nontrivial chi', balance) at degree d.

    terms are (chi_degree, chi_index, n); balance is the number of
    nontrivial twisted characters in the positive part minus that in the
    negative part, which is what |.|^2 of the two parts sees, since
    |g(chi)|^2 is Q for nontrivial chi and 1 for the trivial one.
    """
    group = q ** d - 1
    twisted = base = balance = 0
    for deg, idx, n in terms:
        chi = lifted_index(q, deg, idx, d)
        hit = (n * lam_index + chi) % group != 0
        twisted += hit
        base += chi != 0
        balance += hit if n > 0 else -hit
    return twisted, base, balance


def check_identity_exponent(q, terms, d, lam_index, m):
    """2m = #nontrivial twisted - #nontrivial base, from |.|^2 of both sides."""
    twisted, base, _ = nontrivial_counts(q, terms, d, lam_index)
    if not isinstance(m, int) or 2 * m != twisted - base:
        return [f"m = {m!r} at degree {d}, lambda {lam_index}: expected "
                f"2m = {twisted} - {base}"]
    return []


def expected_witness(q, terms, max_degree):
    """First (degree, lambda index), in scan order, whose balance differs
    from that of the trivial lambda at the same degree; None if none."""
    for d in range(1, max_degree + 1):
        if any(d % deg for deg, _, _ in terms):
            continue
        base = nontrivial_counts(q, terms, d, 0)[2]
        for idx in range(1, q ** d - 1):
            if nontrivial_counts(q, terms, d, idx)[2] != base:
                return (d, idx)
    return None


def check_witness(q, terms, max_degree, got, zero_divisor):
    """find_violation's answer: None for a zero-divisor monomial, else the
    first witness in scan order."""
    want = expected_witness(q, terms, max_degree)
    if zero_divisor:
        if got is not None or want is not None:
            return [f"zero-divisor monomial gave {got!r} (balance scan "
                    f"{want!r})"]
        return []
    if want is None or got != want:
        return [f"witness {got!r}, expected {want!r}"]
    return []


# ----------------------------------------------------------------- oracle


def primitive_root(p):
    """Smallest generator of F_p^*."""
    n = p - 1
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % s for s in range(2, r))]
    for g in range(1, p):
        if all(pow(g, n // r, p) != 1 for r in primes):
            return g
    raise ValueError(f"no primitive root mod {p}")


def _dlog_table(p):
    g = primitive_root(p)
    log = {}
    x = 1
    for i in range(p - 1):
        log[x] = i
        x = x * g % p
    return log


def gauss_sum_float(p, twist, index):
    """sum over x in F_p^* of chi(x) zeta_p^(twist x), chi(g^i) =
    exp(2 pi i index i/(p-1)) for the smallest generator g."""
    log = _dlog_table(p)
    n = p - 1
    return sum(cmath.exp(2j * math.pi * (index * log[x] / n
                                         + twist * x / p))
               for x in range(1, p))


def i_sum_float(p, twist, exponents, a, lam_indices):
    """sum over x in (F_p^*)^k of psi(a prod x_i^n_i) prod lam_i(x_i)."""
    log = _dlog_table(p)
    n = p - 1
    total = 0j
    for xs in product(range(1, p), repeat=len(exponents)):
        mono = a
        phase = 0
        for x, e, lam in zip(xs, exponents, lam_indices):
            mono = mono * pow(x, e, p) % p
            phase += lam * log[x]
        total += cmath.exp(2j * math.pi * ((phase % n) / n
                                           + twist * mono / p))
    return total


def check_float_value(label, order, coeffs, approx, terms):
    """An exact program value against a float sum of `terms` unit terms."""
    if not _close(cyclo_complex(order, coeffs), approx, terms):
        return [f"{label}: exact value differs from the float sum"]
    return []


def check_same(label, pair):
    """Two program values that must be equal, e.g. direct and closed."""
    return [] if same_value(*pair) else [f"{label}: values differ"]
