"""Concrete models of towers of finite fields F_{q^d}, q = p^s.

Each level d is F_p[x]/(f) where f is the first irreducible monic polynomial
of degree s*d in ascending code order (digit i of the code is the x^i
coefficient).  Elements are integer codes with the same digit convention.

Levels carry multiplicative generators chosen compatibly: the generator g_d
satisfies pi_e(g_d^{(q^d-1)/(q^e-1)}) = 0 for the minimal polynomial pi_e of
every lower generator g_e, which makes g_e^j |-> g_d^{j*(q^d-1)/(q^e-1)} an
actual field embedding.  Norms, traces and embeddings then reduce to index
arithmetic on discrete logs.

Every level carries its exp and log tables, so multiplication, inversion,
powers and discrete logs are single table lookups; its Zech table
log(1 - g^j), which Jacobi sums read, is built from them on first use.
The brute-force sums read the norm and trace maps between two levels as
tables in the exponent j of g_d^j, built on first use through norm_to,
trace_to and log, so every entry still comes from the field maps.
Fields of more than 2^22 elements (_SIZE_BOUND) are refused.
"""

from __future__ import annotations

import math
from array import array

from charsum._intutil import divisors, factorize, prime_divisors
from charsum.errors import InternalCheckError, SchemaError, SizeBoundError

_NO_LOG = 0xFFFFFFFF
_SIZE_BOUND = 2 ** 22


# --------------------------------------------------- polynomials over F_p
# dense little-endian coefficient lists


def _pm_trim(f):
    f = list(f)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _pm_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pm_trim(out)


def _pm_rem(a, f, p):
    # f monic
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _pm_trim(a[:df]) if df > 0 else [0]


def _pm_sub(a, b, p):
    n = max(len(a), len(b))
    return _pm_trim([((a[i] if i < len(a) else 0)
                      - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _pm_powmod(a, e, f, p):
    r = [1]
    b = _pm_rem(a, f, p)
    while e:
        if e & 1:
            r = _pm_rem(_pm_mul(r, b, p), f, p)
        e >>= 1
        if e:
            b = _pm_rem(_pm_mul(b, b, p), f, p)
    return r


def _pm_gcd(a, b, p):
    a = _pm_trim(list(a))
    b = _pm_trim(list(b))
    while b != [0]:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        a, b = bm, _pm_rem(a, bm, p)
    return a


def _is_irreducible(f, p):
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    if _pm_sub(_pm_powmod(x, p ** m, f, p), x, p) != [0]:
        return False
    for r in prime_divisors(m):
        h = _pm_sub(_pm_powmod(x, p ** (m // r), f, p), x, p)
        if len(_pm_gcd(f, h, p)) != 1:
            return False
    return True


def _decode(code, p, m):
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _encode(digits, p):
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def _first_irreducible(p, m):
    for low in range(p ** m):
        f = _decode(low, p, m) + [1]
        if _is_irreducible(f, p):
            return f
    raise InternalCheckError("no irreducible polynomial found")


def _check_subfield(d, e):
    if d % e:
        raise InternalCheckError(f"degree {e} does not divide {d}")


# ------------------------------------------------------------------ levels


class _Level:
    __slots__ = ("d", "m", "n", "modulus", "gen", "minpoly", "fact_n",
                 "exp_table", "log_table", "abs_tr", "zech")

    def __init__(self):
        self.abs_tr = None
        self.zech = None


class FieldTower:
    def __init__(self, p: int, s: int):
        if p < 2 or factorize(p) != ((p, 1),):
            raise SchemaError(f"p = {p} is not prime")
        if s < 1:
            raise SchemaError(f"s = {s} must be positive")
        self.p = p
        self.s = s
        self.q = p ** s
        self._levels: dict[int, _Level] = {}
        self._orders: dict[int, int] = {}
        # (d, e) -> the norm-log and trace tables of F_{q^d} over F_{q^e}
        self._norm_logs: dict[tuple[int, int], list[int]] = {}
        self._traces: dict[tuple[int, int], list[int]] = {}

    # ---- level management

    def level(self, d: int) -> _Level:
        lv = self._levels.get(d)
        if lv is None:
            if d < 1:
                raise SchemaError(f"degree {d} must be positive")
            for e in divisors(d):
                if e not in self._levels:
                    self._levels[e] = self._build_level(e)
            lv = self._levels[d]
        return lv

    def order(self, d: int) -> int:
        """q^d, the size of level d, without building the level, memoised
        per degree.  A degree below 1, or a field over the size bound, is
        refused as building it would be."""
        size = self._orders.get(d)
        if size is None:
            if d < 1:
                raise SchemaError(f"degree {d} must be positive")
            m = self.s * d
            # p^m > 2^22 for every p once m > 22: no huge power is formed
            if m >= _SIZE_BOUND.bit_length() or self.p ** m > _SIZE_BOUND:
                raise SizeBoundError(
                    f"field of order {self.p}^{m} exceeds size bound "
                    f"{_SIZE_BOUND}")
            size = self._orders[d] = self.p ** m
        return size

    def group_order(self, d: int) -> int:
        return self.order(d) - 1

    def modulus(self, d: int):
        return tuple(self.level(d).modulus)

    def generator(self, d: int) -> int:
        return self.level(d).gen

    def _build_level(self, d: int) -> _Level:
        lv = _Level()
        lv.d = d
        lv.m = self.s * d
        lv.n = self.group_order(d)
        lv.modulus = _first_irreducible(self.p, lv.m)
        lv.fact_n = factorize(lv.n) if lv.n > 1 else ()
        h = self._first_generator(lv)
        lv.gen = self._compatible_generator(lv, h)
        self._attach_tables(lv)
        lv.minpoly = self._minimal_polynomial(lv)
        return lv

    # ---- raw polynomial-model arithmetic (used at build time)

    def _raw_mul(self, lv, a, b):
        if a == 0 or b == 0:
            return 0
        prod = _pm_mul(_decode(a, self.p, lv.m), _decode(b, self.p, lv.m),
                       self.p)
        return _encode(_pm_rem(prod, lv.modulus, self.p), self.p)

    def _raw_pow(self, lv, a, e):
        if a == 0:
            if e <= 0:
                raise InternalCheckError(f"0 raised to the power {e}")
            return 0
        return _encode(
            _pm_powmod(_decode(a, self.p, lv.m), e, lv.modulus, self.p),
            self.p)

    def _first_generator(self, lv):
        for c in range(1, lv.n + 1):
            if all(self._raw_pow(lv, c, lv.n // r) != 1
                   for r, _ in lv.fact_n):
                return c
        raise InternalCheckError("no multiplicative generator found")

    def _compatible_generator(self, lv, h):
        proper = [e for e in divisors(lv.d) if e != lv.d]
        if not proper:
            return h
        targets = [(lv.n // self._levels[e].n, self._levels[e].minpoly)
                   for e in proper]
        for k in range(1, lv.n + 1):
            if math.gcd(k, lv.n) != 1:
                continue
            cand = self._raw_pow(lv, h, k)
            if all(self._eval_int_poly_is_zero(lv, pi,
                                               self._raw_pow(lv, cand, quot))
                   for quot, pi in targets):
                return cand
        raise InternalCheckError("no compatible generator found")

    def _eval_int_poly_is_zero(self, lv, pi, y):
        acc = 0
        for c in reversed(pi):
            acc = self.add(lv.d, self._raw_mul(lv, acc, y), c)
        return acc == 0

    def _minimal_polynomial(self, lv):
        # prod over Frobenius conjugates of the generator; coefficients must
        # land in F_p since the generator is a primitive element
        conjs = []
        cur = lv.gen
        for _ in range(lv.m):
            conjs.append(cur)
            cur = self._raw_pow(lv, cur, self.p)
        if cur != lv.gen:
            raise InternalCheckError("Frobenius orbit of the generator did not close")
        poly = [1]
        for r in conjs:
            neg_r = self.neg(lv.d, r)
            new = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] = self.add(lv.d, new[i + 1], c)
                new[i] = self.add(lv.d, new[i], self._raw_mul(lv, c, neg_r))
            poly = new
        if any(c >= self.p for c in poly):
            raise InternalCheckError("minimal polynomial not over the prime field")
        return tuple(poly)

    # ---- discrete log tables

    def _attach_tables(self, lv):
        exp = [0] * lv.n
        cur = 1
        for i in range(lv.n):
            exp[i] = cur
            cur = self._raw_mul(lv, cur, lv.gen)
        if cur != 1 or len(set(exp)) != lv.n:
            raise InternalCheckError(
                f"generator of degree {lv.d} does not have order {lv.n}")
        log = array("I", bytes(4 * (lv.n + 1)))
        log[0] = _NO_LOG
        for i, code in enumerate(exp):
            log[code] = i
        lv.exp_table = exp
        lv.log_table = log

    # ---- element arithmetic (codes)

    def from_int(self, c: int) -> int:
        return c % self.p

    def minus_one(self) -> int:
        return self.p - 1 if self.p > 2 else 1

    def add(self, d, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, d, a):
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        while a:
            r = a % p
            if r:
                out += (p - r) * mult
            a //= p
            mult *= p
        return out

    def sub(self, d, a, b):
        return self.add(d, a, self.neg(d, b))

    def mul(self, d, a, b):
        if a == 0 or b == 0:
            return 0
        lv = self.level(d)
        return lv.exp_table[(lv.log_table[a] + lv.log_table[b]) % lv.n]

    def inv(self, d, a):
        if a == 0:
            raise InternalCheckError("inverse of 0")
        lv = self.level(d)
        return lv.exp_table[-lv.log_table[a] % lv.n]

    def pow_elem(self, d, a, k):
        if a == 0:
            if k <= 0:
                raise InternalCheckError(f"0 raised to the power {k}")
            return 0
        lv = self.level(d)
        return lv.exp_table[lv.log_table[a] * k % lv.n]

    def exp(self, d, k):
        lv = self.level(d)
        return lv.exp_table[k % lv.n]

    def log(self, d, a):
        if a == 0:
            raise InternalCheckError("discrete log of 0")
        return self.level(d).log_table[a]

    def exp_table(self, d):
        """Codes g^0, g^1, ... in exponent order."""
        return self.level(d).exp_table

    def log_table(self, d):
        """log[x] for every nonzero code x < q^d; log[0] holds a marker
        that is no exponent."""
        return self.level(d).log_table

    def zech_table(self, d):
        """z[j] = log(1 - g^j) for 0 < j < q^d - 1; z[0] = 0 stands in for
        log 0.  Built once per level from the exp and log tables:
        1 - g^j = 1 + g^{j + log(-1)}, and adding 1 to a code changes its
        lowest digit only.  z is an involution, as 1 - (1 - x) = x; the
        table is checked to be one, so a wrong entry raises."""
        lv = self.level(d)
        if lv.zech is None:
            n, p = lv.n, self.p
            exp, log = lv.exp_table, lv.log_table
            h = log[self.minus_one()]
            z = [0] * n
            for j in range(1, n):
                c = exp[(j + h) % n]
                z[j] = log[c + 1 if c % p != p - 1 else c + 1 - p]
            if max(z) >= n or list(map(z.__getitem__, z)) != list(range(n)):
                raise InternalCheckError(
                    f"Zech table of degree {d} is not an involution")
            lv.zech = z
        return lv.zech

    # ---- maps between levels

    def embed(self, e, d, a):
        _check_subfield(d, e)
        if a == 0:
            return 0
        lvd = self.level(d)
        lve = self.level(e)
        return self.exp(d, self.log(e, a) * (lvd.n // lve.n))

    def norm_to(self, d, e, a):
        _check_subfield(d, e)
        if a == 0:
            return 0
        lve = self.level(e)
        self.level(d)
        return self.exp(e, self.log(d, a) % lve.n)

    def _orbit_sum(self, d, a, power, steps):
        """a + a^power + a^(power^2) + ..., steps terms, in F_{q^d}; the
        orbit of x -> x^power must close after steps applications."""
        acc = 0
        cur = a
        for _ in range(steps):
            acc = self.add(d, acc, cur)
            cur = self.pow_elem(d, cur, power)
        if cur != a:
            raise InternalCheckError("Frobenius orbit did not close")
        return acc

    def trace_to(self, d, e, a):
        _check_subfield(d, e)
        if a == 0:
            return 0
        lvd = self.level(d)
        lve = self.level(e)
        acc = self._orbit_sum(d, a, self.order(e), d // e)
        if acc == 0:
            return 0
        stride = lvd.n // lve.n
        la = self.log(d, acc)
        if la % stride:
            raise InternalCheckError("trace left the subfield")
        return self.exp(e, la // stride)

    def norm_log_table(self, d, e):
        """t[j] = log Nm_{d->e}(g_d^j) for j < q^d - 1, memoised per
        (d, e).  Built through norm_to and log, so it is what the field
        maps give, not j mod q^e - 1 as compatible generators predict."""
        tab = self._norm_logs.get((d, e))
        if tab is None:
            tab = self._norm_logs[d, e] = [
                self.log(e, self.norm_to(d, e, x)) for x in self.exp_table(d)]
        return tab

    def trace_table(self, d, e):
        """t[j] = Tr_{d->e}(g_d^j) for j < q^d - 1, memoised per (d, e) and
        built through trace_to."""
        tab = self._traces.get((d, e))
        if tab is None:
            tab = self._traces[d, e] = [
                self.trace_to(d, e, x) for x in self.exp_table(d)]
        return tab

    def absolute_trace(self, d, a):
        """Trace down to F_p; the result is an integer in [0, p)."""
        if a == 0:
            return 0
        acc = self._orbit_sum(d, a, self.p, self.s * d)
        if acc >= self.p:
            raise InternalCheckError("absolute trace not in the prime field")
        return acc

    def absolute_trace_table(self, d):
        lv = self.level(d)
        if lv.abs_tr is None:
            p = self.p
            basis = [self.absolute_trace(d, p ** j) for j in range(lv.m)]
            tab = [0]
            for j in range(lv.m):
                bj = basis[j]
                cur = tab
                tab = []
                for c in range(p):
                    off = (c * bj) % p
                    tab.extend([(t + off) % p for t in cur])
            lv.abs_tr = tab
        return lv.abs_tr


def build_tower(p, s=1, degrees=(1,)) -> FieldTower:
    tower = FieldTower(p, s)
    for d in degrees:
        tower.level(d)
    return tower
