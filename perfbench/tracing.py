"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces svtab's public functions with wrappers that
open a span around each call.  A name bound with ``from ... import`` is
replaced in every svtab namespace that holds it (``genfun.solve_M``, the
genfun names in ``verify``, the package root), and the MultiPoly and
ZSeries products are replaced on their classes.  Generators are timed by
summing the time spent inside each ``next()`` call.

Spans are aggregated as they close instead of being kept: each span key
accumulates its call count, its inclusive time and its self time, the
span's duration minus the time covered by its child spans.  Time in the
timed region outside every wrapped call is the root's (``bench``) self
time, so the self times add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

from svtab import bijection, cli, formulas, genfun, paths, series, shapes, verify

_DONE = object()

# per_layer metrics: name -> unit, in the order they are printed
METRICS = {
    "shapes.enum_s": "s", "shapes.tableaux": "count",
    "paths.enum_s": "s", "paths.paths": "count",
    "bijection.s": "s", "bijection.calls": "count",
    "series.solve_M_s": "s", "series.solve_M_incl_s": "s",
    "series.solve_M_calls": "count", "series.solve_M_misses": "count",
    "series.polymul_s": "s", "series.polymul_calls": "count",
    "series.polymul_term_pairs": "count",
    "series.zmul_s": "s", "series.zmul_calls": "count",
    "series.exact_divide_s": "s", "series.exact_divide_calls": "count",
    "series.reversion_s": "s", "series.reversion_incl_s": "s",
    "genfun.blocks_s": "s", "genfun.blocks_incl_s": "s",
    "genfun.blocks_built": "count", "genfun.blocks_distinct": "count",
    "genfun.blocks_distinct_ratio": "ratio",
    "genfun.terms_s": "s", "genfun.terms_incl_s": "s",
    "genfun.terms_calls": "count", "genfun.terms_distinct": "count",
    "genfun.terms_distinct_ratio": "ratio",
    "genfun.gf_s": "s", "genfun.gf_calls": "count",
    "formulas.s": "s", "formulas.calls": "count", "formulas.thm7_s": "s",
    "verify.self_s": "s", "verify.checks": "count",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "bench.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        # child-time accumulator of every open span; [0] belongs to the root
        self._stack = [0.0]

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, key):
        stack, clock = self._stack, time.perf_counter
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                incl_s[key] += elapsed
                calls[key] += 1
                stack[-1] += elapsed
        return wrapper

    def wrap_generator(self, fn, key, item_key):
        def wrapper(*args, **kwargs):
            return self._drive(fn(*args, **kwargs), key, item_key)
        return wrapper

    def _drive(self, gen, key, item_key):
        stack, clock = self._stack, time.perf_counter
        while True:
            stack.append(0.0)
            start = clock()
            try:
                item = next(gen, _DONE)
            finally:
                elapsed = clock() - start
                self.self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed
            if item is _DONE:
                return
            self.counts[item_key] += 1
            yield item

    def wrap_distinct(self, fn, key, signature):
        """Also record the distinct normalised argument sets."""
        seen = self.distinct[key]
        inner = self.wrap(fn, key)
        name = getattr(fn, "__name__", key)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add((name,) + tuple(bound.arguments.items()))
            return inner(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod, names, key in [
                (shapes, ("count_tableaux",), "shapes.enum"),
                (paths, ("count_paths", "weight_counts", "weight"),
                 "paths.enum"),
                (bijection, ("tableau_to_path", "path_to_tableau"),
                 "bijection"),
                (series, ("check_reversion",), "series.reversion"),
                (genfun, ("gf_straight", "gf_skew", "refined_coefficient",
                          "expected_downsteps_series"), "genfun.gf"),
                (formulas, ("count_thm1", "count_cor2", "count_cor3",
                            "count_cor4", "expected_thm5", "count_thm6",
                            "remark_1_10"), "formulas"),
                (formulas, ("count_thm7",), "formulas.thm7"),
                (verify, ("check_theorem", "check_lemma",
                          "check_identity_10_1"), "verify"),
                (cli, ("main",), "cli")]:
            for name in names:
                orig = getattr(mod, name)
                _replace(orig, self.wrap(orig, key))
        _replace(shapes.enumerate_tableaux, self.wrap_generator(
            shapes.enumerate_tableaux, "shapes.enum", "shapes.tableaux"))
        _replace(paths.enumerate_paths, self.wrap_generator(
            paths.enumerate_paths, "paths.enum", "paths.paths"))
        for name in ("straight_terms", "skew_drop_terms", "skew_rise_terms"):
            orig = getattr(genfun, name)
            _replace(orig, self.wrap_distinct(orig, "genfun.terms",
                                              inspect.signature(orig)))
        blocks = genfun.SeriesBlocks
        _replace(blocks, self.wrap_distinct(blocks, "genfun.blocks",
                                            inspect.signature(blocks)))
        _replace(series.solve_M, self.wrap(self._count_misses(series.solve_M),
                                           "series.solve_M"))
        _replace(verify.run_all, self.wrap(self._count_checks(verify.run_all),
                                           "verify"))
        self._wrap_method(series.MultiPoly, ("__mul__", "__rmul__"),
                          "series.polymul", self._term_pairs)
        self._wrap_method(series.ZSeries, ("__mul__",), "series.zmul", None)
        self._wrap_method(series.ZSeries, ("exact_divide",),
                          "series.exact_divide", None)

    def _count_misses(self, solve):
        info = getattr(solve, "cache_info", None)
        counts = self.counts

        def counted(*args, **kwargs):
            before = info().misses if info else 0
            result = solve(*args, **kwargs)
            counts["series.solve_M_misses"] += (
                info().misses - before if info else 1)
            return result
        return counted

    def _count_checks(self, run_all):
        counts = self.counts

        def counted(*args, **kwargs):
            result = run_all(*args, **kwargs)
            counts["verify.checks"] += len(result["reports"])
            return result
        return counted

    @staticmethod
    def _term_pairs(a, b) -> int:
        size = len(getattr(a, "_terms", ()))
        if isinstance(b, int):
            return size
        return size * len(getattr(b, "_terms", ()))

    def _wrap_method(self, cls, names, key, pair_count):
        counts = self.counts
        for name in names:
            inner = self.wrap(getattr(cls, name), key)
            if pair_count is not None:
                def method(a, b, _inner=inner):
                    counts["series.polymul_term_pairs"] += pair_count(a, b)
                    return _inner(a, b)
            else:
                method = inner
            setattr(cls, name, method)

    # -- the timed region and the result -------------------------------------

    def root(self, fn, *args):
        """Run fn as the root span; return (result, wall seconds)."""
        stack = self._stack
        stack[0] = 0.0
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self.self_s["bench"] += wall - stack[0]
        return result, wall

    def metrics(self, report_bytes: int) -> dict:
        s, incl, calls, counts = (self.self_s, self.incl_s, self.calls,
                                  self.counts)
        blocks = calls["genfun.blocks"]
        terms = calls["genfun.terms"]
        n_blocks = len(self.distinct["genfun.blocks"])
        n_terms = len(self.distinct["genfun.terms"])
        return {
            "shapes.enum_s": s["shapes.enum"],
            "shapes.tableaux": counts["shapes.tableaux"],
            "paths.enum_s": s["paths.enum"],
            "paths.paths": counts["paths.paths"],
            "bijection.s": s["bijection"],
            "bijection.calls": calls["bijection"],
            "series.solve_M_s": s["series.solve_M"],
            "series.solve_M_incl_s": incl["series.solve_M"],
            "series.solve_M_calls": calls["series.solve_M"],
            "series.solve_M_misses": counts["series.solve_M_misses"],
            "series.polymul_s": s["series.polymul"],
            "series.polymul_calls": calls["series.polymul"],
            "series.polymul_term_pairs": counts["series.polymul_term_pairs"],
            "series.zmul_s": s["series.zmul"],
            "series.zmul_calls": calls["series.zmul"],
            "series.exact_divide_s": s["series.exact_divide"],
            "series.exact_divide_calls": calls["series.exact_divide"],
            "series.reversion_s": s["series.reversion"],
            "series.reversion_incl_s": incl["series.reversion"],
            "genfun.blocks_s": s["genfun.blocks"],
            "genfun.blocks_incl_s": incl["genfun.blocks"],
            "genfun.blocks_built": blocks,
            "genfun.blocks_distinct": n_blocks,
            "genfun.blocks_distinct_ratio": n_blocks / blocks if blocks else 0,
            "genfun.terms_s": s["genfun.terms"],
            "genfun.terms_incl_s": incl["genfun.terms"],
            "genfun.terms_calls": terms,
            "genfun.terms_distinct": n_terms,
            "genfun.terms_distinct_ratio": n_terms / terms if terms else 0,
            "genfun.gf_s": s["genfun.gf"],
            "genfun.gf_calls": calls["genfun.gf"],
            "formulas.s": s["formulas"] + s["formulas.thm7"],
            "formulas.calls": calls["formulas"] + calls["formulas.thm7"],
            "formulas.thm7_s": s["formulas.thm7"],
            "verify.self_s": s["verify"],
            "verify.checks": counts["verify.checks"],
            "cli.self_s": s["cli"],
            "cli.report_bytes": report_bytes,
            "bench.self_s": s["bench"],
        }


def _replace(orig, replacement) -> None:
    """Rebind every svtab module attribute that is ``orig``."""
    for name, mod in list(sys.modules.items()):
        if name != "svtab" and not name.startswith("svtab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
