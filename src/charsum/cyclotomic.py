"""Exact arithmetic in cyclotomic integer rings Z[zeta_M].

A value is a coefficient vector over the power basis 1, x, ..., x^{phi(M)-1}
of Q(zeta_M), reduced mod the M-th cyclotomic polynomial.  Every operation is
exact; no floating point appears anywhere in this module.

Polynomial products use signed Kronecker substitution above a small cutoff:
each operand's coefficients are written as two's-complement slots of one
fixed width, read as one unsigned integer T and corrected to the signed
packing T - 2 (T & H), where H has the top bit of every slot set.  The two
are multiplied once, and the product P is read back as the two's-complement
slots of (P + H) ^ H.  Slots of up to 8 bytes are written and read by one
`struct` call each, so no Python code runs per coefficient.  Reduction mod
Phi_M uses a cached Barrett inverse, so Gauss-sum accumulation stays fast
even at orders in the thousands.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Sequence

from charsum._intutil import euler_phi, factorize, moebius
from charsum.errors import InternalCheckError

# ------------------------------------------------------------------ integer
# polynomials: tuples of coefficients, index = degree

_SCHOOLBOOK_MAX = 7


def _trim(p: Sequence[int]) -> tuple[int, ...]:
    if not p:
        return (0,)
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # signed Kronecker substitution in two's-complement slots of
    # w = 8 * nbytes bits.  H has the top bit of every slot set.  An
    # operand's slots read as one unsigned integer T; T - 2 (T & H) is
    # sum c_k 2^{wk}, since each negative slot was read 2^w too high.  One
    # product gives P = sum c_k 2^{wk}; (P + H) ^ H has the c_k as its
    # two's-complement slots, because P + H has the digits c_k + 2^{w-1},
    # in [0, 2^w) without carries, and the xor takes 2^{w-1} back off.
    # The slots must hold |c_k| < 2^{w-1} and each operand's own
    # coefficients.  For nonzero operands, as _poly_mul passes,
    # min(m, n) * ma * mb covers both; the ma, mb terms keep direct calls
    # with an all-zero operand safe.  Slots of 1, 2, 4 or 8 bytes go
    # through struct in one call each way; wider ones, reached only by
    # coefficients near 10^31, take one to_bytes or from_bytes per slot.
    m, n = len(a), len(b)
    out_len = m + n - 1
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    nbytes = (max(min(m, n) * ma * mb, ma, mb).bit_length() + 8) // 8
    wide = nbytes > 8
    if not wide:
        nbytes = 1 << (nbytes - 1).bit_length()
        fmt = "<%d" + "bhiq"[nbytes.bit_length() - 1]
    H = int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little")
                       * out_len, "little")

    def pack(p: tuple[int, ...]) -> int:
        if wide:
            t = int.from_bytes(b"".join(
                c.to_bytes(nbytes, "little", signed=True) for c in p),
                "little")
        else:
            t = int.from_bytes(struct.pack(fmt % len(p), *p), "little")
        return t - 2 * (t & H)

    raw = ((pack(a) * pack(b) + H) ^ H).to_bytes(nbytes * out_len, "little")
    if wide:
        return tuple(int.from_bytes(raw[k * nbytes:(k + 1) * nbytes],
                                    "little", signed=True)
                     for k in range(out_len))
    return struct.unpack(fmt % out_len, raw)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    a = _trim(a)
    b = _trim(b)
    if a == (0,) or b == (0,):
        return (0,)
    if min(len(a), len(b)) <= _SCHOOLBOOK_MAX:
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple(out)
    return _kronecker_mul(a, b)


def _poly_divmod(num: Sequence[int], den: Sequence[int]):
    # schoolbook long division; denominator must be monic
    num = list(_trim(num))
    den = _trim(den)
    if den[-1] != 1:
        raise InternalCheckError("long division needs a monic denominator")
    dd = len(den) - 1
    q = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    return tuple(q), _trim(num)


def _substitute_power(f: Sequence[int], k: int) -> tuple[int, ...]:
    out = [0] * ((len(f) - 1) * k + 1)
    for i, c in enumerate(f):
        out[i * k] = c
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, ascending degree."""
    if M < 1:
        raise InternalCheckError(f"cyclotomic order {M} is not positive")
    if M == 1:
        return (-1, 1)
    fac = factorize(M)
    rad = 1
    for p, _ in fac:
        rad *= p
    if rad != M:
        return _substitute_power(cyclotomic_poly(rad), M // rad)
    p = fac[-1][0]
    if M == p:
        return (1,) * p
    m = M // p
    base = cyclotomic_poly(m)
    q, r = _poly_divmod(_substitute_power(base, p), base)
    if r != (0,):
        raise InternalCheckError(f"Phi_{m} does not divide Phi_{m}(x^{p})")
    return q


def _series_inverse(f: Sequence[int], prec: int) -> tuple[int, ...]:
    # Newton iteration for 1/f mod x^prec; needs f[0] == 1
    if f[0] != 1:
        raise InternalCheckError("series inverse needs constant term 1")
    g: tuple[int, ...] = (1,)
    cur = 1
    while cur < prec:
        cur = min(2 * cur, prec)
        fg = _poly_mul(tuple(f[:cur]), g)[:cur]
        e = [-c for c in fg]
        e[0] += 2
        g = _poly_mul(g, tuple(e))[:cur]
    return tuple(g[:prec])


@lru_cache(maxsize=None)
def _barrett_inv(M: int) -> tuple[int, ...]:
    n = euler_phi(M)
    return _series_inverse(tuple(reversed(cyclotomic_poly(M))), n + 1)


def _barrett_reduce(f: Sequence[int], M: int) -> tuple[int, ...]:
    # remainder of f mod Phi_M for deg f <= 2*phi(M) - 1
    n = euler_phi(M)
    f = _trim(f)
    d = len(f) - 1
    if d < n:
        return f + (0,) * (n - len(f))
    if d > 2 * n - 1:
        raise InternalCheckError(f"degree {d} too large for one Barrett step")
    qlen = d - n + 1
    frev = tuple(reversed(f))
    qrev = _poly_mul(frev[:qlen], _barrett_inv(M)[:qlen])[:qlen]
    qrev = tuple(qrev) + (0,) * (qlen - len(qrev))
    prod = _poly_mul(tuple(reversed(qrev)), cyclotomic_poly(M))
    prod += (0,) * (d + 1 - len(prod))
    if f[n:] != prod[n:]:
        raise InternalCheckError(f"Barrett quotient mod Phi_{M} is wrong")
    return tuple(map(operator.sub, f[:n], prod))


@lru_cache(maxsize=None)
def _chunk_shift_tables(M: int, count: int) -> tuple[tuple[int, ...], ...]:
    # T_j = x^{j*phi(M)} mod Phi_M
    n = euler_phi(M)
    tabs = [(1,) + (0,) * (n - 1)]
    while len(tabs) < count:
        tabs.append(_barrett_reduce((0,) * n + _trim(tabs[-1]), M))
    return tuple(tabs)


def reduce_mod_cyclotomic(coeffs: Sequence[int], M: int) -> tuple[int, ...]:
    """Reduce an integer polynomial of any degree mod Phi_M.

    Returns exactly phi(M) coefficients.  Long inputs are folded with cached
    tables of x^{j*phi(M)} mod Phi_M so only short products ever occur.
    """
    n = euler_phi(M)
    c = _trim(coeffs)
    if len(c) <= 2 * n:
        return _barrett_reduce(c, M)
    nchunks = (len(c) + n - 1) // n
    tabs = _chunk_shift_tables(M, nchunks)
    acc = list(c[:n]) + [0] * (n - 1)
    for j in range(1, nchunks):
        chunk = _trim(c[j * n:(j + 1) * n])
        if chunk == (0,):
            continue
        for i, v in enumerate(_poly_mul(chunk, tabs[j])):
            acc[i] += v
    return _barrett_reduce(acc, M)


# ------------------------------------------------------------------- values


@dataclass(frozen=True)
class CycloValue:
    """An element of Z[zeta_order] in reduced power-basis coordinates.

    Construct through root / from_int / from_root_counts rather than directly.
    Rational integers are always stored at order 1, so ``v.order == 1`` is the
    reliable rationality test.  Equal values may still be stored at different
    orders (e.g. zeta_3 built at order 6); __eq__ and __hash__ account for it.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1 or len(self.coeffs) != euler_phi(self.order):
            raise InternalCheckError(
                f"{len(self.coeffs)} coefficients at order {self.order}")

    # --- predicates

    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def as_int(self) -> int:
        if self.order != 1:
            raise ValueError("value is not a rational integer")
        return self.coeffs[0]

    # --- automorphisms

    def galois(self, a: int) -> "CycloValue":
        """Apply the automorphism zeta -> zeta^a; a must be coprime to order."""
        M = self.order
        if M == 1:
            return self
        if math.gcd(a, M) != 1:
            raise InternalCheckError(f"{a} is not a unit mod {M}")
        vec = [0] * M
        for i, c in enumerate(self.coeffs):
            if c:
                vec[(i * a) % M] += c
        return _make(M, reduce_mod_cyclotomic(vec, M))

    def conjugate(self) -> "CycloValue":
        return self.galois(self.order - 1) if self.order > 1 else self

    def abs_squared(self) -> int | None:
        """v * conj(v) when that is a rational integer, else None."""
        z = self * self.conjugate()
        return z.coeffs[0] if z.order == 1 else None

    # --- ring operations

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return _make(self.order, tuple(
                x + y for x, y in zip(self.coeffs, other.coeffs)))
        L = math.lcm(self.order, other.order)
        a = _lift_coeffs(self, L)
        b = _lift_coeffs(other, L)
        return _make(L, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycloValue(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            c = self.coeffs[0]
            return _make(other.order, tuple(c * y for y in other.coeffs))
        if other.order == 1:
            c = other.coeffs[0]
            return _make(self.order, tuple(c * y for y in self.coeffs))
        L = math.lcm(self.order, other.order)
        a = _lift_coeffs(self, L)
        b = _lift_coeffs(other, L)
        return _make(L, reduce_mod_cyclotomic(_poly_mul(a, b), L))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # --- comparison; equal values can sit at different stored orders

    def __eq__(self, other):
        if isinstance(other, int):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, CycloValue):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        L = math.lcm(self.order, other.order)
        return _lift_coeffs(self, L) == _lift_coeffs(other, L)

    def __hash__(self):
        # normalized trace to Q is invariant under re-expression, and for
        # rational integers it agrees with hash(int)
        tab = _trace_table(self.order)
        tr = sum(c * t for c, t in zip(self.coeffs, tab))
        return hash(Fraction(tr, len(self.coeffs)))

    def __repr__(self):
        return f"CycloValue(order={self.order}, coeffs={self.coeffs})"


def _coerce(x) -> "CycloValue":
    if isinstance(x, CycloValue):
        return x
    if isinstance(x, int):
        return CycloValue(1, (x,))
    return NotImplemented


def _make(order: int, reduced: Sequence[int]) -> CycloValue:
    if order > 1 and not any(reduced[1:]):
        return CycloValue(1, (reduced[0],))
    return CycloValue(order, tuple(reduced))


def _lift_coeffs(v: CycloValue, M2: int) -> tuple[int, ...]:
    # power-basis coefficients of v inside Q(zeta_M2)
    if v.order == M2:
        return v.coeffs
    k = M2 // v.order
    vec = [0] * ((len(v.coeffs) - 1) * k + 1)
    for i, c in enumerate(v.coeffs):
        if c:
            vec[i * k] = c
    return reduce_mod_cyclotomic(vec, M2)


@lru_cache(maxsize=None)
def _trace_table(M: int) -> tuple[int, ...]:
    # Tr_{Q(zeta_M)/Q}(zeta_M^i) for i < phi(M)
    n = euler_phi(M)
    out = []
    for i in range(n):
        d = M // math.gcd(i, M)
        out.append(moebius(d) * (n // euler_phi(d)))
    return tuple(out)


# ------------------------------------------------------------- constructors


def from_int(n: int) -> CycloValue:
    return CycloValue(1, (n,))


def root(M: int, k: int = 1) -> CycloValue:
    """zeta_M^k, reduced from a one-hot vector at its exact order
    M / gcd(M, k), where the exponent is a unit."""
    if M < 1:
        raise InternalCheckError(f"root order {M} is not positive")
    g = math.gcd(M, k)
    return _make(M // g, reduce_mod_cyclotomic(
        [0] * (k // g % (M // g)) + [1], M // g))


def from_root_counts(M: int, counts: Sequence[int]) -> CycloValue:
    """Sum of counts[e] * zeta_M^e over a sequence of length M.

    The order is shrunk by the gcd of the live exponents with M before
    reduction, so sums supported on a subring come back at small order.
    """
    if M < 1:
        raise InternalCheckError(f"root order {M} is not positive")
    if len(counts) != M:
        raise InternalCheckError(f"{len(counts)} root counts at order {M}")
    # the live entries set the gcd, and every g-th entry up to the last
    # live one is the vector at the shrunk order
    live = list(compress(range(M), counts))
    if not live:
        return CycloValue(1, (0,))
    g = math.gcd(M, *live)
    return _make(M // g,
                 reduce_mod_cyclotomic(counts[:live[-1] + 1:g], M // g))


# ------------------------------------------------------------------ ratios


def _exact_log(r: int, q: int) -> int | None:
    if r < 1:
        return None
    m = 0
    while r > 1:
        if r % q:
            return None
        r //= q
        m += 1
    return m


def q_power_ratio(v: CycloValue, w: CycloValue, q: int) -> int | None:
    """The integer m with v == q^m * w, or None if no such m exists.

    Works in power-basis coordinates at a common order: v = q^m * w holds
    exactly when the coefficient vectors are proportional by q^m.
    """
    if q < 2:
        raise InternalCheckError(f"ratio base {q} is below 2")
    if v.is_zero() and w.is_zero():
        return 0
    if v.is_zero() or w.is_zero():
        return None
    L = math.lcm(v.order, w.order)
    a = _lift_coeffs(v, L)
    b = _lift_coeffs(w, L)
    idx = next(i for i in range(len(a)) if a[i] or b[i])
    if a[idx] == 0 or b[idx] == 0:
        return None
    ratio = Fraction(a[idx], b[idx])
    if ratio <= 0:
        return None
    num, den = ratio.numerator, ratio.denominator
    if den == 1:
        m = _exact_log(num, q)
    elif num == 1:
        k = _exact_log(den, q)
        m = -k if k is not None else None
    else:
        return None
    if m is None:
        return None
    if all(ai * den == bi * num for ai, bi in zip(a, b)):
        return m
    return None
