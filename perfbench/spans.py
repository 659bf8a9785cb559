"""In-memory spans around keypoly's public functions, and the per-layer
metrics computed from them.

``install`` wraps every public function of every keypoly layer at every
module attribute bound to it, because callers look functions up in
different namespaces: ``verify`` binds ``lattice_points``, ``closure`` and
``key_polynomial`` by ``from ... import``, while ``lattice_points`` and
``polytope_subset`` reach ``contains``, and ``_key_recursive`` reaches
``demazure`` and ``divided_difference``, through their own module globals.

A span records its name, its parent (the span open when it started), its
start and end, one count (items yielded, terms returned, states found,
...) and, for ``weight`` and ``monomial_of_diagram``, the number of
distinct results returned beneath it.  Spans live in flat arrays, so the
~450,000 spans of the largest traced workload take a few megabytes.  A
generator is timed over its whole iteration: work its consumer does
between two items happens inside the generator's span.

keypoly is passed in, never imported, so the spans wrap exactly the tree
the caller loaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("polynomial", "diagram", "filling", "moves", "polytope", "bruhat", "verify", "cli")
SUITES = ("kk", "ccc", "aa", "theorem11", "rado", "bruhat")

# Functions spanned besides each layer's __all__: the verify suites are
# what run_verification dispatches to, so they carry the per-suite times.
_EXTRA = {"verify": tuple(f"suite_{s}" for s in SUITES)}

# apply_move runs once per BFS edge (2.3 million calls on query-n7); a
# span would cost more than the call, so its time stays in its caller.
_NOT_SPANNED = {"moves.apply_move"}


def _terms(poly) -> int:
    return len(poly.terms)


# What a span counts, by function; unlisted functions count nothing, and
# generators always count the items they yield.
_COUNTS = {
    "polynomial.key_polynomial": _terms,
    "polynomial.demazure": _terms,
    "polynomial.divided_difference": _terms,
    "moves.closure": len,
    "moves.legal_moves": len,
    "filling.descend_to_alpha": lambda chain: len(chain.moves),
    "polytope.lattice_points": len,
    "polytope.contains": int,
    **{f"verify.suite_{s}": (lambda result: result.checked) for s in SUITES},
}

# Functions whose distinct results are counted per parent span: the
# waste of enumerating diagrams and fillings is items / distinct results.
_DISTINCT = {"filling.weight", "diagram.monomial_of_diagram"}


class Tracer:
    """Spans in flat arrays; span i is ``name[i]``, ``parent[i]`` (-1 for
    a root), ``start[i]``..``end[i]`` in perf_counter nanoseconds,
    ``count[i]`` and ``distinct[i]`` (-1 when not recorded)."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.distinct = array("q")
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        stack = self._stack
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(-1)
        self.count.append(0)
        self.distinct.append(-1)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        stack = self._stack
        if stack[-1] == idx:
            stack.pop()
        else:  # a generator abandoned and closed out of order
            stack.remove(idx)
        if self._seen:
            seen = self._seen.pop(idx, None)
            if seen is not None:
                self.distinct[idx] = len(seen)

    def note_result(self, value) -> None:
        """Remember value as a result produced under the open span."""
        if self._stack:
            top = self._stack[-1]
            seen = self._seen.get(top)
            if seen is None:
                self._seen[top] = seen = set()
            seen.add(value)

    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            **{
                col: getattr(self, col).tolist()
                for col in ("name", "parent", "start", "end", "count", "distinct")
            },
        }


def _wrap(tracer: Tracer, qualname: str, fn):
    name_id = tracer.name_id(qualname)
    open_, close, count_col = tracer.open, tracer.close, tracer.count
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            idx = open_(name_id)
            items = 0
            try:
                for item in fn(*args, **kwargs):
                    items += 1
                    yield item
            finally:
                close(idx)
                count_col[idx] = items

        return traced_generator

    count = _COUNTS.get(qualname)
    note = tracer.note_result if qualname in _DISTINCT else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if count is not None:
            count_col[idx] = count(result)
        if note is not None:
            note(result)
        return result

    return traced


def install(keypoly) -> Tracer:
    """Wrap keypoly's public functions in spans, in every loaded keypoly
    module that binds them.  Returns the tracer that records the spans."""
    tracer = Tracer()
    modules = [m for key, m in sys.modules.items() if key == "keypoly" or key.startswith("keypoly.")]
    for layer in LAYERS:
        mod = getattr(keypoly, layer)
        for attr in tuple(getattr(mod, "__all__", ())) + _EXTRA.get(layer, ()):
            fn = getattr(mod, attr)
            qualname = f"{layer}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or qualname in _NOT_SPANNED:
                continue
            wrapper = _wrap(tracer, qualname, fn)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, wrapper)
    return tracer


def self_times(parent, start, end) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in start order, as a Tracer records them; each
    child's interval is clipped to its parent's, and children that
    overlap one another are covered once.
    """
    covered = [0] * len(start)
    until = list(start)  # per span: end of the children's coverage so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], until[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            until[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


# Percentiles are given in basis points (hundredths of a percent) so the
# rank arithmetic is exact: p50, p90, p99, p99.9, p99.99.
PERCENTILE_LADDER_BP = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def _rank(n: int, bp: int) -> int:
    """Nearest-rank position (1-based) of the bp percentile of n samples."""
    return max(1, -(-bp * n // 10000))


def percentile(sorted_values, bp: int):
    """The bp percentile of ascending values, by nearest rank."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), bp) - 1]


def reportable(n: int, bp: int) -> bool:
    """Whether at least MIN_BEYOND of n samples lie beyond the bp percentile."""
    return n - _rank(n, bp) >= MIN_BEYOND


def tail_percentile(n: int) -> int | None:
    """The highest percentile on the ladder with at least MIN_BEYOND of n
    samples beyond it, or None when there are too few samples."""
    fit = [bp for bp in PERCENTILE_LADDER_BP if reportable(n, bp)]
    return fit[-1] if fit else None


def format_bp(bp: int) -> str:
    return f"p{bp / 100:g}"


def per_layer_metrics(tracer: Tracer, wall_s: float, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run whose timed part, from
    ``import keypoly`` done to outputs checked, took wall_s seconds, and
    whose ``keypoly verify`` report (if any) has report_bytes bytes."""
    if any(e < 0 for e in tracer.end):
        raise ValueError("a span was never closed")
    names = [tracer.names[i] for i in tracer.name]
    parent, start, end = tracer.parent, tracer.start, tracer.end
    selfs = self_times(parent, start, end)

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counted: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + selfs[i]
        counted[name] = counted.get(name, 0) + tracer.count[i]
        if tracer.distinct[i] >= 0:
            distinct[name] = distinct.get(name, 0) + tracer.distinct[i]

    # A key_polynomial call misses the cache iff a divided_difference
    # runs somewhere beneath it.
    missed = set()
    for i, name in enumerate(names):
        if name == "polynomial.divided_difference":
            p = parent[i]
            while p >= 0 and names[p] != "polynomial.key_polynomial":
                p = parent[p]
            if p >= 0:
                missed.add(p)

    contains_us = sorted(
        (end[i] - start[i]) / 1e3 for i, name in enumerate(names) if name == "polytope.contains"
    )

    def n_calls(fn):
        return calls.get(fn, 0)

    def secs(fn):
        return self_ns.get(fn, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(bp):
        return percentile(contains_us, bp) if reportable(len(contains_us), bp) else 0.0

    key_calls = n_calls("polynomial.key_polynomial")
    lower_items = counted.get("diagram.enumerate_lower_diagrams", 0)
    fill_gens = ("filling.enumerate_fillings", "filling.enumerate_sorted_fillings")
    fill_items = sum(counted.get(g, 0) for g in fill_gens)
    root_ns = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)
    candidates = sum(
        1
        for i, name in enumerate(names)
        if name == "polytope.contains" and parent[i] >= 0 and names[parent[i]] == "polytope.lattice_points"
    )

    m = {
        "polynomial.key_polynomial.calls": key_calls,
        "polynomial.key_polynomial.self_s": secs("polynomial.key_polynomial"),
        "polynomial.key_polynomial.hit_ratio": ratio(key_calls - len(missed), key_calls),
        "polynomial.divided_difference.calls": n_calls("polynomial.divided_difference"),
        "polynomial.divided_difference.self_s": secs("polynomial.divided_difference"),
        "polynomial.divided_difference.terms_out": counted.get("polynomial.divided_difference", 0),
        "diagram.enumerate_lower_diagrams.items": lower_items,
        "diagram.enumerate_lower_diagrams.self_s": secs("diagram.enumerate_lower_diagrams"),
        "diagram.monomial_of_diagram.self_s": secs("diagram.monomial_of_diagram"),
        "diagram.distinct_ratio": ratio(distinct.get("diagram.enumerate_lower_diagrams", 0), lower_items),
        "filling.enumerate_fillings.items": counted.get("filling.enumerate_fillings", 0),
        "filling.enumerate_fillings.self_s": secs("filling.enumerate_fillings"),
        "filling.enumerate_sorted_fillings.items": counted.get("filling.enumerate_sorted_fillings", 0),
        "filling.enumerate_sorted_fillings.self_s": secs("filling.enumerate_sorted_fillings"),
        "filling.weight.self_s": secs("filling.weight"),
        "filling.distinct_ratio": ratio(sum(distinct.get(g, 0) for g in fill_gens), fill_items),
        "filling.witness_filling.self_s": secs("filling.witness_filling"),
        "filling.descend_to_alpha.self_s": secs("filling.descend_to_alpha"),
        "filling.descend_to_alpha.steps": counted.get("filling.descend_to_alpha", 0),
        "moves.closure.calls": n_calls("moves.closure"),
        "moves.closure.states": counted.get("moves.closure", 0),
        "moves.closure.self_s": secs("moves.closure"),
        "moves.leq_kappa.self_s": secs("moves.leq_kappa"),
        "moves.legal_moves.edges": counted.get("moves.legal_moves", 0),
        "moves.dominated_rearrangements.self_s": secs("moves.dominated_rearrangements"),
        "polytope.lattice_points.calls": n_calls("polytope.lattice_points"),
        "polytope.lattice_points.self_s": secs("polytope.lattice_points"),
        "polytope.lattice_points.candidates": candidates,
        "polytope.lattice_points.hit_ratio": ratio(counted.get("polytope.lattice_points", 0), candidates),
        "polytope.contains.calls": n_calls("polytope.contains"),
        "polytope.contains.self_s": secs("polytope.contains"),
        "polytope.contains.true_ratio": ratio(counted.get("polytope.contains", 0), n_calls("polytope.contains")),
        "polytope.contains.p50_us": pct(5000),
        "polytope.contains.p99_us": pct(9900),
        "polytope.polytope_subset.calls": n_calls("polytope.polytope_subset"),
        "polytope.polytope_subset.self_s": secs("polytope.polytope_subset"),
        "bruhat.verify_qww0.self_s": secs("bruhat.verify_qww0"),
        "bruhat.bruhat_interval.self_s": secs("bruhat.bruhat_interval"),
    }
    for suite in SUITES:
        fn = f"verify.suite_{suite}"
        wall_ns = sum(end[i] - start[i] for i, name in enumerate(names) if name == fn)
        m[f"verify.{suite}.wall_s"] = wall_ns / 1e9
        m[f"verify.{suite}.self_s"] = secs(fn)
        m[f"verify.{suite}.checks"] = counted.get(fn, 0)
    m["cli.main.self_s"] = secs("cli.main")
    m["cli.report_bytes"] = report_bytes
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9
    m["trace.spans"] = len(names)
    m["trace.wall_s"] = wall_s
    m["trace.unaccounted_s"] = wall_s - root_ns / 1e9
    return m


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(tracer.to_json_dict(), handle, separators=(",", ":"))
