"""Spans and work counters recorded from outside the library.

Each traced function is replaced, at every place the package looks it up,
by a wrapper that records a span (name, start, end, parent, job id) and
derives its work counters from the call's arguments and result. Nothing in
the library changes; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from typing import Callable, Optional

MODULES = ("series", "permstat", "poset", "diamonds", "oracle", "cli")

DIAMOND_ENTRIES = (
    "sigma_closed",
    "sigma_multifold_closed",
    "schmidt_closed",
    "apr_product",
    "djsw_product",
    "schmidt_product",
)


def _degree_histogram(terms) -> Counter:
    return Counter(m[0] + m[1] for m in terms)


def _pair_counts(left_terms, right_terms, bound: int) -> dict:
    """pairs = product of the term counts; in_bound = pairs whose total
    degree stays within the bound."""
    right = _degree_histogram(right_terms)
    in_bound = 0
    for d1, n1 in _degree_histogram(left_terms).items():
        in_bound += n1 * sum(n2 for d2, n2 in right.items() if d1 + d2 <= bound)
    return {"pairs": len(left_terms) * len(right_terms), "in_bound": in_bound}


def _truncation_arg(args, kwargs, index: int) -> int:
    return kwargs["truncation"] if "truncation" in kwargs else args[index]


def _count_mul_bounded(tracer, result, self, other, bound):
    return _pair_counts(self.terms, other.terms, bound)


def _count_series_mul(tracer, result, self, other):
    return _pair_counts(self.terms, other.terms, self.truncation)


def _count_expand(tracer, result, self, *args, **kwargs):
    truncation = _truncation_arg(args, kwargs, 0)
    factors = self.denominator_factors
    return {
        "factors": len(factors),
        "factors_skipped": sum(1 for m in factors if m[0] + m[1] > truncation),
    }


def _count_divide(tracer, result, self, divisor):
    return {"terms_in": len(self.terms), "terms_out": len(result.terms)}


def _count_perms(tracer, result, d, *args, **kwargs):
    return {"perms": math.factorial(d)}


def _count_extensions(tracer, result, *args, **kwargs):
    tracer.last_extensions = result
    return {"extensions": len(result)}


def _count_groups(tracer, result, p, assignment, *args, **kwargs):
    # Words whose suffix fold counts agree share a denominator; the
    # extensions are the ones the nested jordan_holder call returned.
    words, tracer.last_extensions = tracer.last_extensions, None
    keys = set()
    for word in words or ():
        folds = 0
        key = []
        for element in reversed(word):
            folds += assignment[element - 1] == "a"
            key.append(folds)
        keys.add(tuple(key))
    return {"groups": len(keys)}


def _count_objects(tracer, result, *args, **kwargs):
    values = result.terms.values() if hasattr(result, "terms") else result
    return {"objects": sum(values)}


# (module, attribute path, span name, counter)
TARGETS = (
    ("series", "RationalExpr.expand", "series.RationalExpr.expand", _count_expand),
    ("series", "TruncSeries2.__mul__", "series.TruncSeries2.mul", _count_series_mul),
    ("series", "TruncSeries2.__add__", "series.TruncSeries2.add", None),
    ("series", "Poly2.__mul__", "series.Poly2.mul", None),
    # __rmul__ is an alias of __mul__ and is looked up on its own.
    ("series", "Poly2.__rmul__", "series.Poly2.mul", None),
    ("series", "Poly2.mul_bounded", "series.Poly2.mul_bounded", _count_mul_bounded),
    ("series", "Poly2.substitute", "series.Poly2.substitute", None),
    ("series", "Poly2.divide_exact", "series.Poly2.divide_exact", _count_divide),
    ("series", "geometric_series", "series.geometric_series", None),
    ("permstat", "euler_mahonian", "permstat.euler_mahonian", _count_perms),
    ("permstat", "eulerian", "permstat.eulerian", None),
    ("permstat", "djsw_recursion", "permstat.djsw_recursion", None),
    ("poset", "jordan_holder", "poset.jordan_holder", _count_extensions),
    ("poset", "stanley_sigma", "poset.stanley_sigma", _count_groups),
    ("poset", "parse_poset_file", "poset.parse_poset_file", None),
    ("oracle", "enumerate_ppartitions", "oracle.enumerate_ppartitions", _count_objects),
    ("oracle", "enumerate_infinite_univariate", "oracle.enumerate_infinite_univariate",
     _count_objects),
    ("oracle", "schmidt_oracle", "oracle.schmidt_oracle", _count_objects),
    *(("diamonds", e, f"diamonds.{e}", None) for e in DIAMOND_ENTRIES),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))

# Counters beyond calls and self_s, per span; ratio metrics are derived.
EXTRA_COUNTERS = {
    "series.RationalExpr.expand": ("factors", "factors_skipped"),
    "series.TruncSeries2.mul": ("pairs", "pair_yield"),
    "series.Poly2.mul_bounded": ("pairs", "pair_yield"),
    "series.Poly2.divide_exact": ("terms_in", "terms_out"),
    "permstat.euler_mahonian": ("perms",),
    "poset.jordan_holder": ("extensions",),
    "poset.stanley_sigma": ("groups",),
    "oracle.enumerate_ppartitions": ("objects",),
    "oracle.enumerate_infinite_univariate": ("objects",),
    "oracle.schmidt_oracle": ("objects",),
}

# Spans each workload must fire; a traced run that misses one is wrong.
EXPECTED = {
    "products": (
        "diamonds.apr_product", "diamonds.djsw_product", "diamonds.schmidt_product",
        "permstat.djsw_recursion", "permstat.eulerian", "permstat.euler_mahonian",
        "series.RationalExpr.expand", "series.TruncSeries2.mul", "series.Poly2.mul",
        "series.Poly2.mul_bounded", "series.Poly2.substitute", "series.geometric_series",
        "series.Poly2.divide_exact",
    ),
    "closed_forms": (
        "diamonds.sigma_closed", "diamonds.sigma_multifold_closed", "diamonds.schmidt_closed",
        "permstat.euler_mahonian", "permstat.eulerian", "series.RationalExpr.expand",
        "series.TruncSeries2.mul", "series.Poly2.mul_bounded", "series.Poly2.substitute",
        "series.geometric_series",
    ),
    "verify": (
        "cli.main", "poset.jordan_holder", "poset.stanley_sigma", "poset.parse_poset_file",
        "oracle.enumerate_ppartitions", "oracle.enumerate_infinite_univariate",
        "oracle.schmidt_oracle", "series.TruncSeries2.add", "series.RationalExpr.expand",
        "series.TruncSeries2.mul", "series.Poly2.mul", "series.Poly2.mul_bounded",
        "series.Poly2.divide_exact", "series.geometric_series", "series.Poly2.substitute",
        "permstat.euler_mahonian", "permstat.eulerian", "permstat.djsw_recursion",
        *(f"diamonds.{e}" for e in DIAMOND_ENTRIES),
    ),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = []
    for name in SPAN_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        for extra in EXTRA_COUNTERS.get(name, ()):
            if extra == "pair_yield":
                specs.append((f"{name}.pair_yield", "ratio", "higher"))
            else:
                better = "higher" if extra == "factors_skipped" else "lower"
                specs.append((f"{name}.{extra}", "count", better))
    specs += [(f"layer.{m}.self_share", "ratio", "lower") for m in MODULES]
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def _resolve(owner, path: str):
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patcher:
    """Replaces a library function at every place the package looks it up:
    its own module or class, and every package module that bound the same
    object by name (``from .permstat import euler_mahonian``)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, package, module_name: str, path: str, make: Callable) -> None:
        owner, attr = _resolve(sys.modules[f"{package.__name__}.{module_name}"], path)
        original = owner.__dict__[attr]
        replacement = make(original)
        sites = [owner]
        if "." not in path:
            prefix = package.__name__ + "."
            sites += [
                m for n, m in list(sys.modules.items())
                if m is not None and m is not owner
                and (n == package.__name__ or n.startswith(prefix))
                and m.__dict__.get(attr) is original
            ]
        for site in sites:
            self._undo.append((site, attr, original))
            setattr(site, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)


class Tracer:
    """Records spans in memory while installed; aggregates at the end."""

    def __init__(self) -> None:
        # (name, start, end, parent index, job id, bookkeeping seconds)
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.job_id: Optional[int] = None
        self.last_extensions = None
        self._stack: list[int] = []
        self.patcher = Patcher()

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (name, start, clock(), parent, self.job_id, 0.0)
                raise
            end = clock()
            stack.pop()
            if counter is not None:
                for key, value in counter(self, result, *args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            spans[index] = (name, start, end, parent, self.job_id, clock() - end)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package) -> None:
        for module_name, path, span, counter in TARGETS:
            self.patcher.patch(
                package, module_name, path, lambda fn: self._wrap(span, fn, counter)
            )

    def uninstall(self) -> None:
        self.patcher.restore()

    def work_counts(self) -> dict:
        """Calls and work counters; these must repeat exactly per seed."""
        counts = Counter(span[0] for span in self.spans)
        counts.update(self.counts)
        return dict(sorted(counts.items()))

    def metrics(self) -> dict:
        """Per-layer metrics: calls, self time, counters and module shares.

        Self time is a span's duration minus the part of it spent in child
        spans and in the tracer's bookkeeping after those children ended.
        """
        self_s = Counter()
        calls = Counter()
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, _job, bookkeeping in self.spans:
            if parent >= 0:
                nested[parent] += end - start + bookkeeping
        for index, (name, start, end, _parent, _job, _bk) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - nested[index]
        total = sum(self_s.values())

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            for extra in EXTRA_COUNTERS.get(name, ()):
                if extra == "pair_yield":
                    pairs = self.counts[f"{name}.pairs"]
                    out[f"{name}.pair_yield"] = (
                        self.counts[f"{name}.in_bound"] / pairs if pairs else 0.0
                    )
                else:
                    out[f"{name}.{extra}"] = self.counts[f"{name}.{extra}"]
        for module in MODULES:
            share = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
            out[f"layer.{module}.self_share"] = share / total if total else 0.0
        return out

    def missing(self, workload: str) -> list[str]:
        fired = {span[0] for span in self.spans}
        return [name for name in EXPECTED[workload] if name not in fired]
