"""Spans around the calls into each layer of the library, kept in memory.

The tracer wraps public functions of the `crqmult` modules and rebinds each
wrapper under every module namespace that holds the original, so a call made
from inside the package is recorded too (`in_G` is bound in both `elements`
and `tables`; `ensure_valid` reaches `groups.validate_spec`).  Wrappers are
installed only around traced requests and removed afterwards, so untraced
requests run the unmodified library.

A span is (name, start, end, parent span, request id, aux).  `aux` carries a
count measured outside the callee: the candidates an `in_G` scan tried, and
the bilinear evaluations made through a callable `build_product` returned.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter
from typing import Callable, Optional

# (module, function) pairs recorded as spans.
SPANNED = (
    ("numth", "condition_m_check"),
    ("groups", "validate_spec"),
    ("groups", "spec_from_dict"),
    ("elements", "in_G"),
    ("tables", "table_from_dict"),
    ("tables", "decide_membership"),
    ("tables", "build_product"),
    ("tables", "closure_oracle"),
    ("multgroup", "compute_mult_group"),
    ("multgroup", "iterate_mult"),
    ("multgroup", "coset_relation"),
    ("multgroup", "cross_basis_example"),
    ("cli", "main"),
)
# Hot leaves that are only counted: a span each would cost more than the call.
COUNTED = (
    ("numth", "is_prime"),
    ("numth", "fraction_residue"),
    ("numth", "crt_solve"),
)
LEAF_COUNTERS = tuple(f"{mod}.{fn}" for mod, fn in COUNTED) + ("elements.in_G.hits",)


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile, as statistics.quantiles computes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(count: int) -> int:
    """Highest of the usual percentiles that leaves at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if count * (100 - pct) / 100 >= 10:
            return pct
    return 50


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, modules: dict[str, object]):
        self.modules = modules
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.aux = array("l")
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._wrappers: dict[str, tuple[Callable, Callable]] = {}
        for mod, fn in SPANNED:
            original = getattr(modules[mod], fn)
            self._wrappers[fn] = (original, self._spanned(f"{mod}.{fn}", original))
        for mod, fn in COUNTED:
            original = getattr(modules[mod], fn)
            self._wrappers[fn] = (original, self._counted(f"{mod}.{fn}", original))

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        self.aux.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        begin, finish, aux, counts = self.begin, self.finish, self.aux, self.counts

        if name == "elements.in_G":

            def wrapper(spec, g):
                idx = begin(nid)
                try:
                    found = fn(spec, g)
                finally:
                    finish(idx)
                # k + 1 candidates tried on a hit, all n on a miss
                if found is not None:
                    aux[idx] = found.k + 1
                    counts["elements.in_G.hits"] += 1
                else:
                    aux[idx] = spec.n
                return found

        elif name == "tables.build_product":

            def wrapper(spec, table):
                idx = begin(nid)
                try:
                    product = fn(spec, table)
                finally:
                    finish(idx)

                def counted_product(g, h):
                    aux[idx] += 1
                    return product(g, h)

                return counted_product

        else:

            def wrapper(*args, **kwargs):
                idx = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(idx)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for fn, (original, wrapper) in self._wrappers.items():
            for module in self.modules.values():
                if module.__dict__.get(fn) is original:
                    setattr(module, fn, wrapper)
                    self._patches.append((module, fn, original))

    def uninstall(self) -> None:
        for module, fn, original in self._patches:
            setattr(module, fn, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def snapshot(self) -> tuple[int, Counter]:
        """Span count and leaf counts so far, marking the end of the count window."""
        return len(self.start), Counter(self.counts)

    def analyse(self, window: tuple[int, Counter], marker: Optional[str] = None) -> dict:
        """Per-name durations, self times and window counts.

        Returns name -> {"dur", "self", "window_calls", "window_aux",
        "window_in_marker"}; leaf counters carry only "window_calls".  Spans
        inside a span named `marker` are also counted separately, so the
        benchmark can tell calls made during a table check from calls made
        per spec.
        """
        total = len(self.start)
        window_end, window_counts = window
        dur = [self.end[i] - self.start[i] for i in range(total)]
        child = [0.0] * total
        inside = [False] * total
        marker_id = self._name_ids.get(marker, -2) if marker else -2
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                inside[i] = inside[p] or self.name[p] == marker_id
        out: dict[str, dict] = {
            name: {
                "dur": [],
                "self": 0.0,
                "window_calls": 0,
                "window_aux": 0,
                "window_in_marker": 0,
            }
            for name in self.names
        }
        for i in range(total):
            entry = out[self.names[self.name[i]]]
            entry["dur"].append(dur[i])
            entry["self"] += dur[i] - child[i]
            if i < window_end:
                entry["window_calls"] += 1
                entry["window_aux"] += self.aux[i]
                entry["window_in_marker"] += inside[i]
        for name in LEAF_COUNTERS:
            out[name] = {"window_calls": window_counts[name]}
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart\tend\tparent\trequest\taux\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.req[i]}\t{self.aux[i]}\n"
                )
