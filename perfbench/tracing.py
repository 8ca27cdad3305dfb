"""Spans around the public entry points of each charsum layer.

The tracer wraps functions and methods of a freshly imported charsum from
the benchmark's side; the program itself is not changed.  Each call
becomes a span.  Every span is folded into per-name totals (calls and self
seconds, where self time is the span's duration minus the time its child
spans cover).  Spans of the coarse entry points, all but the per-element
kernel calls in FINE, are also kept as records (name, start, end, index of
the nearest recorded ancestor) and written out when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# CycloValue products above this phi(order) count as wide (order 2184 has
# phi = 576; the sweeps' order 336 has phi = 96).
WIDE_PHI = 128
FINE = {"cyclotomic.mul", "cyclotomic.mul_wide", "cyclotomic.add",
        "cyclotomic.reduce", "cyclotomic.galois", "cyclotomic.abs_squared",
        "cyclotomic.from_root_counts", "cyclotomic.q_power_ratio",
        "field_tower.arith", "characters.values", "characters.gauss_sum",
        "characters.product_of_gauss", "divisor_calc"}


@functools.lru_cache(maxsize=None)
def euler_phi(n):
    out = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            out -= out // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out -= out // m
    return out


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.records = []
        self.systems = []
        self._stack = []  # [name, child seconds] per open span
        self._open = []  # record indices of the open recorded spans

    # ---- spans

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack
        frame = [name, 0.0]
        rec = None
        if name not in FINE:
            rec = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self._open.append(len(self.records))
            self.records.append(rec)
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.calls[name] += 1
            self.self_s[name] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if rec is not None:
                self._open.pop()
                rec[1], rec[2] = t0, t0 + dt

    def inside(self, name):
        return any(f[0] == name for f in self._stack)

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # ---- installing wrappers on a fresh import

    def install(self, cs):
        """Wrap the layer entry points of the charsum package `cs`."""
        mods = [m for n, m in sys.modules.items()
                if n == "charsum" or n.startswith("charsum.")]
        cyc, ft, ch = cs.cyclotomic, cs.field_tower, cs.characters
        mf, st, na = cs.monomial_fourier, cs.stalk_traces, cs.norm_algebra
        dc, ie, cli = cs.divisor_calc, cs.identity_engine, cs.cli

        def patch_fn(module, attr, new):
            old = getattr(module, attr)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is old:
                        setattr(m, key, new)

        def patch_method(cls, attr, new):
            old = cls.__dict__[attr]
            for key, val in list(vars(cls).items()):
                if val is old:
                    setattr(cls, key, new)

        def simple_fn(module, attr, name):
            patch_fn(module, attr, self.wrapper(name, getattr(module, attr)))

        def simple_method(cls, attr, name):
            patch_method(cls, attr, self.wrapper(name, cls.__dict__[attr]))

        # cyclotomic: products split by the width of the common order
        CV = cyc.CycloValue
        mul = CV.__dict__["__mul__"]

        def traced_mul(a, b):
            order = math.lcm(a.order, b.order) if isinstance(b, CV) \
                else a.order
            name = "cyclotomic.mul_wide" if euler_phi(order) > WIDE_PHI \
                else "cyclotomic.mul"
            return self.span(name, mul, a, b)
        patch_method(CV, "__mul__", functools.wraps(mul)(traced_mul))
        simple_method(CV, "__add__", "cyclotomic.add")
        simple_method(CV, "galois", "cyclotomic.galois")
        abs_squared = CV.__dict__["abs_squared"]

        def traced_abs_squared(v):
            if self.inside("identity_engine.find_violation"):
                self.counts["identity_engine.find_violation.abs_squared"] += 1
            return self.span("cyclotomic.abs_squared", abs_squared, v)
        patch_method(CV, "abs_squared",
                     functools.wraps(abs_squared)(traced_abs_squared))
        simple_fn(cyc, "reduce_mod_cyclotomic", "cyclotomic.reduce")
        simple_fn(cyc, "from_root_counts", "cyclotomic.from_root_counts")
        simple_fn(cyc, "q_power_ratio", "cyclotomic.q_power_ratio")

        # field_tower: level builds, and element arithmetic outside builds
        simple_method(ft.FieldTower, "_build_level", "field_tower.build")
        for attr in ("add", "neg", "sub", "mul", "inv", "pow_elem", "exp",
                     "log", "embed", "norm_to", "trace_to"):
            fn = ft.FieldTower.__dict__[attr]

            def traced_arith(*args, _fn=fn, **kwargs):
                if self._stack and self._stack[-1][0] == "field_tower.build":
                    return _fn(*args, **kwargs)
                return self.span("field_tower.arith", _fn, *args, **kwargs)
            patch_method(ft.FieldTower, attr,
                         functools.wraps(fn)(traced_arith))

        # characters: cache misses are the calls that grew the cache
        CS = ch.CharSystem
        init = CS.__dict__["__init__"]

        def traced_init(system, *args, **kwargs):
            init(system, *args, **kwargs)
            self.systems.append(system)
        patch_method(CS, "__init__", functools.wraps(init)(traced_init))
        for attr, cache in (("gauss_sum", "_gauss_cache"),
                            ("product_of_gauss", "_product_cache")):
            fn = CS.__dict__[attr]
            name = f"characters.{attr}"

            def traced_cached(system, *args, _fn=fn, _name=name,
                              _cache=cache):
                before = len(getattr(system, _cache))
                out = self.span(_name, _fn, system, *args)
                if len(getattr(system, _cache)) > before:
                    self.counts[_name + ".misses"] += 1
                return out
            patch_method(CS, attr, functools.wraps(fn)(traced_cached))
        simple_method(CS, "char_value", "characters.values")
        simple_method(CS, "psi_value", "characters.values")

        # divisor_calc: one guard span over its public entry points
        simple_fn(dc, "divisor_of_char_power", "divisor_calc")
        for attr in ("__add__", "__sub__", "scale", "records"):
            simple_method(dc.Divisor, attr, "divisor_calc")

        # identity_engine
        simple_fn(ie, "verify_monomial_identity", "identity_engine.verify")
        simple_fn(ie, "find_violation", "identity_engine.find_violation")

        # monomial_fourier: the sweeps reach the I-sums through _i_sum_raw
        i_sum_raw = mf._i_sum_raw

        def traced_i_sum_raw(system, degree, exponents, a, lams, method):
            name = f"monomial_fourier.i_sum_{method}"
            return self.span(name, i_sum_raw, system, degree, exponents, a,
                             lams, method)
        patch_fn(mf, "_i_sum_raw", functools.wraps(i_sum_raw)(
            traced_i_sum_raw))
        simple_fn(mf, "fourier_transform", "monomial_fourier.fourier_transform")
        simple_fn(mf, "_ratio_sum", "monomial_fourier.ratio")
        simple_fn(mf, "solve_monomial_transform", "monomial_fourier.solve")
        self._counting_sweep(mf, "sweep_twisted_moments",
                             "monomial_fourier.sweep", patch_fn)

        # stalk_traces
        simple_fn(st, "stalk_trace_at_zero", "stalk_traces.stalk")
        simple_fn(st, "gm_trace_function", "stalk_traces.trace_function")

        # norm_algebra
        simple_fn(na, "i_norm_closed", "norm_algebra.i_norm_closed")
        simple_fn(na, "i_norm_direct", "norm_algebra.i_norm_direct")
        simple_fn(na, "gauss_sum_algebra", "norm_algebra.gauss_sum_algebra")
        simple_fn(na, "solve_norm_transform", "norm_algebra.solve")
        self._counting_sweep(na, "sweep_norm_moments", "norm_algebra.sweep",
                             patch_fn)

        # cli: one span per job; report bytes are counted by the workload
        simple_fn(cli, "main", "cli")

    def _counting_sweep(self, module, attr, name, patch_fn):
        fn = getattr(module, attr)

        def traced_sweep(*args, **kwargs):
            report = self.span(name, fn, *args, **kwargs)
            self.counts[name + ".tuples"] += report["checked"]
            return report
        patch_fn(module, attr, functools.wraps(fn)(traced_sweep))

    # ---- results

    def cache_entries(self):
        return sum(len(s._gauss_cache) + len(s._product_cache)
                   for s in self.systems)

    def layer_metrics(self):
        """Per-layer figures of one traced round, by metric name."""
        c, s, n = self.calls, self.self_s, self.counts
        return {
            "cyclotomic.mul.calls": c["cyclotomic.mul"],
            "cyclotomic.mul.self_s": s["cyclotomic.mul"],
            "cyclotomic.mul_wide.calls": c["cyclotomic.mul_wide"],
            "cyclotomic.mul_wide.self_s": s["cyclotomic.mul_wide"],
            "cyclotomic.add.calls": c["cyclotomic.add"],
            "cyclotomic.reduce.calls": c["cyclotomic.reduce"],
            "cyclotomic.reduce.self_s": s["cyclotomic.reduce"],
            "cyclotomic.galois.calls": c["cyclotomic.galois"],
            "cyclotomic.galois.self_s": s["cyclotomic.galois"],
            "cyclotomic.from_root_counts.self_s":
                s["cyclotomic.from_root_counts"],
            "cyclotomic.abs_squared.calls": c["cyclotomic.abs_squared"],
            "cyclotomic.q_power_ratio.self_s": s["cyclotomic.q_power_ratio"],
            "field_tower.levels_built": c["field_tower.build"],
            "field_tower.build_s": s["field_tower.build"],
            "field_tower.arith.calls": c["field_tower.arith"],
            "field_tower.arith.self_s": s["field_tower.arith"],
            "characters.gauss_sum.calls": c["characters.gauss_sum"],
            "characters.gauss_sum.misses": n["characters.gauss_sum.misses"],
            "characters.gauss_sum.self_s": s["characters.gauss_sum"],
            "characters.product_of_gauss.calls":
                c["characters.product_of_gauss"],
            "characters.product_of_gauss.misses":
                n["characters.product_of_gauss.misses"],
            "characters.values.calls": c["characters.values"],
            "characters.cache_entries": self.cache_entries(),
            "divisor_calc.self_s": s["divisor_calc"],
            "identity_engine.verify.calls": c["identity_engine.verify"],
            "identity_engine.verify.self_s": s["identity_engine.verify"],
            "identity_engine.find_violation.self_s":
                s["identity_engine.find_violation"],
            "identity_engine.find_violation.abs_squared_calls":
                n["identity_engine.find_violation.abs_squared"],
            "monomial_fourier.i_sum_closed.calls":
                c["monomial_fourier.i_sum_closed"],
            "monomial_fourier.i_sum_closed.self_s":
                s["monomial_fourier.i_sum_closed"],
            "monomial_fourier.i_sum_direct.self_s":
                s["monomial_fourier.i_sum_direct"],
            "monomial_fourier.fourier_transform.self_s":
                s["monomial_fourier.fourier_transform"],
            "monomial_fourier.ratio.self_s": s["monomial_fourier.ratio"],
            "monomial_fourier.solve.self_s": s["monomial_fourier.solve"],
            "monomial_fourier.sweep.tuples":
                n["monomial_fourier.sweep.tuples"],
            "monomial_fourier.sweep.self_s": s["monomial_fourier.sweep"],
            "stalk_traces.stalk.calls": c["stalk_traces.stalk"],
            "stalk_traces.stalk.self_s": s["stalk_traces.stalk"],
            "stalk_traces.trace_function.self_s":
                s["stalk_traces.trace_function"],
            "norm_algebra.i_norm_closed.self_s":
                s["norm_algebra.i_norm_closed"],
            "norm_algebra.i_norm_direct.self_s":
                s["norm_algebra.i_norm_direct"],
            "norm_algebra.gauss_sum_algebra.self_s":
                s["norm_algebra.gauss_sum_algebra"],
            "norm_algebra.solve.self_s": s["norm_algebra.solve"],
            "norm_algebra.sweep.tuples": n["norm_algebra.sweep.tuples"],
            "norm_algebra.sweep.self_s": s["norm_algebra.sweep"],
            "cli.jobs": c["cli"],
            "cli.self_s": s["cli"],
            "cli.report_bytes": n["cli.report_bytes"],
        }

    def span_summary(self):
        return {name: {"calls": self.calls[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)}
