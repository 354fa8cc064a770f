"""Span recorder for the traced pass, and the per-layer metrics built on it.

The recorder wraps the program's public functions from outside: each
wrapper is installed on every name where a caller looks the function up
(``satsemi.cli.iter_sat``, ``satsemi.oracle.enumerate_sat``, methods on
``NumericalSemigroup`` ...), so no file of the program changes.  A wrapped
call records a span: name, start, end, parent span and operation id.  A
generator records one span per resumption, so its time excludes whatever
the consumer does between items.  Spans stay in memory while the run
measures; at its end the per-layer metrics, self times included, are
computed from them and the spans are written out.

A target the program no longer has is listed in ``Recorder.absent``, and
every metric derived from it is left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("tree", "cli", "semigroup", "satsets", "rank_enum", "oracle", "extremal")

# Methods of NumericalSemigroup that get spans, beyond the module-level
# public functions; ``__init__`` is the validating constructor.
METHODS = {
    "semigroup.validate": "__init__",
    "semigroup.minimal_generators": "minimal_generators",
    "semigroup.is_saturated": "is_saturated",
    "semigroup.gaps": "gaps",
    "semigroup.nonzero_small_elements": "nonzero_small_elements",
}


def _frobenius_arg(args, kwargs) -> int:
    return kwargs["frobenius"] if "frobenius" in kwargs else args[0]


def _observe_layer(rec, args, kwargs, layer) -> None:
    rec.add("tree.nodes", len(layer))
    rec.add("tree.layers")
    rec.peak("tree.peak_width", len(layer))


# Counters read off a wrapped call's arguments or result.
OBSERVERS = {
    "tree.iter_layers": _observe_layer,
    "tree.extension_is_saturated": lambda rec, a, k, out: rec.add(
        "tree.extension_is_saturated.accepted", bool(out)
    ),
    "tree.ProcessPoolExecutor": lambda rec, a, k, out: rec.add("tree.pools_started"),
    "rank_enum.coefficient_tuples": lambda rec, a, k, out: rec.add(
        "rank_enum.witnesses", len(out)
    ),
    "rank_enum.enumerate_rank": lambda rec, a, k, out: rec.add(
        "rank_enum.members", len(out)
    ),
    "oracle.brute_force_sat": lambda rec, a, k, out: rec.add(
        "oracle.subsets", 1 << max(0, _frobenius_arg(a, k) - 1)
    ),
}

# Extra callables that are not public functions but carry a counter.
EXTRA = {"tree.ProcessPoolExecutor": ("tree", "ProcessPoolExecutor")}


class Spans:
    """Spans as columns: name id, start, end, parent index (-1 for a root),
    operation id, and whether no span of the same name encloses it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def append(self, name_id: int, start: float, end: float, parent: int, op: int, outer: bool) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        self.outer.append(outer)
        return len(self.name) - 1

    def write(self, path) -> None:
        """Gzipped text: the name table as a JSON line, then one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps(self.names) + "\n")
            rows = zip(self.name, self.start, self.end, self.parent, self.op)
            f.writelines(f"{n}\t{a:.9f}\t{b:.9f}\t{p}\t{o}\n" for n, a, b, p, o in rows)


class Recorder:
    """In-memory spans and counters; records only while ``on`` is true."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.installed: set[str] = set()
        self.on = False
        self.op = -1
        self._stack = [-1]
        self._depth: list[int] = []
        self._undo: list = []

    # -- spans and counters -------------------------------------------------

    def open(self, name_id: int) -> int:
        depth = self._depth
        depth[name_id] += 1
        i = self.spans.append(
            name_id, time.perf_counter(), 0.0, self._stack[-1], self.op, depth[name_id] == 1
        )
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        spans = self.spans
        spans.end[i] = time.perf_counter()
        self._depth[spans.name[i]] -= 1
        self._stack.pop()

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, v: float) -> None:
        if v > self.counts[key]:
            self.counts[key] = v

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        rec = self
        nid = self.spans.name_id(name)
        while len(self._depth) <= nid:
            self._depth.append(0)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn, updated=())
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        if not rec.on:
                            item = next(it)
                        else:
                            i = rec.open(nid)
                            try:
                                item = next(it)
                            finally:
                                rec.close(i)
                            if observe:
                                observe(rec, args, kwargs, item)
                        yield item
                except StopIteration:
                    return
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if observe:
                observe(rec, args, kwargs, out)
            return out

        return wrapper

    def _rebind(self, name: str, original, package: str) -> None:
        wrapper = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        self.installed.add(name)

    def install(self, package: str = "satsemi", expected=()) -> None:
        """Wrap the public functions of the program's modules.

        ``expected`` lists span names the metrics need; those not found
        are recorded in ``absent``.
        """
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{package}.{short}")
            except ImportError:
                continue
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._rebind(f"{short}.{attr}", fn, package)
        for name, (short, attr) in EXTRA.items():
            mod = sys.modules.get(f"{package}.{short}")
            if mod is not None and callable(getattr(mod, attr, None)):
                self._rebind(name, getattr(mod, attr), package)
        cls = getattr(sys.modules.get(f"{package}.semigroup"), "NumericalSemigroup", None)
        for name, attr in METHODS.items():
            fn = cls.__dict__.get(attr) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, attr, self.wrap(name, fn))
                self._undo.append((cls, attr, fn))
                self.installed.add(name)
        self.absent = {n for n in expected if n not in self.installed}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# -- aggregation --------------------------------------------------------------


def self_times(spans: Spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    own = [b - a for a, b in zip(spans.start, spans.end)]
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(spans.parent):
        if p >= 0:
            children[p].append(i)
    start, end = spans.start, spans.end
    for p, kids in children.items():
        kids.sort(key=start.__getitem__)
        reach, stop = start[p], end[p]
        for c in kids:
            lo, hi = max(start[c], reach), min(end[c], stop)
            if hi > lo:
                own[p] -= hi - lo
                reach = hi
    return own


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds (outermost calls only, so recursion
    is not counted twice), self seconds and call count."""
    k = len(spans.names)
    calls, incl, excl = [0] * k, [0.0] * k, [0.0] * k
    rows = zip(spans.name, spans.start, spans.end, spans.outer, self_times(spans))
    for n, a, b, outer, own in rows:
        calls[n] += 1
        excl[n] += own
        if outer:
            incl[n] += b - a
    return {
        name: {"s": incl[n], "self_s": excl[n], "calls": calls[n]}
        for n, name in enumerate(spans.names)
        if calls[n]
    }


def module_seconds(spans: Spans, prefix: str) -> float:
    """Wall time covered by spans of one module, nested ones counted once."""
    ids = {i for i, name in enumerate(spans.names) if name.startswith(prefix)}
    total = 0.0
    for i, n in enumerate(spans.name):
        if n in ids:
            p = spans.parent[i]
            while p >= 0 and spans.name[p] not in ids:
                p = spans.parent[p]
            if p < 0:
                total += spans.end[i] - spans.start[i]
    return total


def _ratio(num: float, den: float) -> float:
    # a ratio with a zero base reads 0: the layer did no work on this workload
    return num / den if den else 0.0


def _span(metric: str):
    name, field = metric.rsplit(".", 1)
    return metric, (name,), lambda t, c: t.get(name, {}).get(field, 0)


def _count(metric: str, needs: str):
    return metric, (needs,), lambda t, c: c.get(metric, 0)


# metric name, span names it needs, value from (summary, counts)
LAYER_METRICS = [
    _span("tree.special_gaps_from_msg.s"),
    _span("tree.special_gaps_from_msg.calls"),
    _span("tree.extension_is_saturated.s"),
    _span("tree.extension_is_saturated.calls"),
    (
        "tree.extension_is_saturated.accept_ratio",
        ("tree.extension_is_saturated",),
        lambda t, c: _ratio(
            c.get("tree.extension_is_saturated.accepted", 0),
            t.get("tree.extension_is_saturated", {}).get("calls", 0),
        ),
    ),
    _span("tree.child_msg.s"),
    _span("tree.child_msg.calls"),
    _span("tree.iter_layers.s"),
    _span("tree.iter_layers.self_s"),
    _count("tree.nodes", "tree.iter_layers"),
    _count("tree.layers", "tree.iter_layers"),
    _count("tree.peak_width", "tree.iter_layers"),
    _count("tree.pools_started", "tree.ProcessPoolExecutor"),
    _span("cli.main.s"),
    _span("cli.main.self_s"),
    _count("cli.records", "cli.main"),
    _count("cli.stdout_bytes", "cli.main"),
    _span("semigroup.minimal_generators.s"),
    _span("semigroup.minimal_generators.calls"),
    (
        "semigroup.minimal_generators.per_record",
        ("semigroup.minimal_generators", "cli.main"),
        lambda t, c: _ratio(
            t.get("semigroup.minimal_generators", {}).get("calls", 0),
            c.get("cli.records", 0),
        ),
    ),
    _span("semigroup.is_saturated.s"),
    _span("semigroup.is_saturated.calls"),
    _span("semigroup.gaps.s"),
    _span("semigroup.nonzero_small_elements.s"),
    _span("satsets.minimal_system.s"),
    _span("satsets.minimal_system.calls"),
    _span("rank_enum.enumerate_rank.self_s"),
    _span("rank_enum.list_sequences.s"),
    _span("rank_enum.coefficient_tuples.s"),
    _span("rank_enum.coefficient_tuples.calls"),
    _count("rank_enum.witnesses", "rank_enum.coefficient_tuples"),
    _count("rank_enum.members", "rank_enum.enumerate_rank"),
    (
        "rank_enum.witness_yield",
        ("rank_enum.enumerate_rank", "rank_enum.coefficient_tuples"),
        lambda t, c: _ratio(c.get("rank_enum.members", 0), c.get("rank_enum.witnesses", 0)),
    ),
    _span("satsets.closure.s"),
    _span("satsets.closure.self_s"),
    _span("satsets.closure.calls"),
    _span("semigroup.validate.s"),
    _span("semigroup.validate.calls"),
    _span("oracle.brute_force_sat.s"),
    _count("oracle.subsets", "oracle.brute_force_sat"),
    _span("oracle.check_all.self_s"),
]


def layer_unit(metric: str) -> str:
    if metric.endswith((".s", "self_s")):
        return "s"
    if metric.endswith(("ratio", "yield", "per_record")):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    return "count"


def needed_spans() -> set[str]:
    return {name for _, needs, _ in LAYER_METRICS for name in needs}


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans and counters of ``passes``
    identical traced passes; metrics whose targets are absent are omitted."""
    table = summarize(rec.spans)
    out = {}
    for metric, needs, value in LAYER_METRICS:
        if any(n not in rec.installed for n in needs):
            continue
        v = value(table, rec.counts)
        out[metric] = v if metric.endswith(("ratio", "yield", "per_record", "peak_width")) else v / passes
    if any(n.startswith("extremal.") for n in rec.installed):
        out["extremal.s"] = module_seconds(rec.spans, "extremal.") / passes
    return out
