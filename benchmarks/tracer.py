"""Timing wrappers around the library's public functions, for the traced run.

``Tracer.install`` replaces each function listed in ``TARGETS`` with a wrapper
in every ``friezeinv`` module namespace that binds it (so ``act`` is wrapped
inside ``series`` and ``basis`` as well as ``actions``), and each listed
``TruncatedSeries`` / ``GroupElement`` method on its class.  ``uninstall``
puts the originals back, so untraced runs execute no wrapper at all.

A wrapper records a span -- name, start, end, parent span and operation id --
into flat arrays that stay in memory until ``summarize``.  A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

MODULES = ("friezeinv", "compositions", "monomials", "groups", "actions", "series",
           "basis", "structure", "cli")


def _count_orbit(counters, args, result):
    counters["actions.orbit.monomials_out"] += len(result)


def _count_construct(counters, args, result):
    coeffs = args[4] if len(args) > 4 else ()
    if hasattr(coeffs, "__len__"):
        counters["series.construct.terms_in"] += len(coeffs)


def _count_multiply(counters, args, result):
    counters["series.multiply.pairs"] += args[0].num_terms * args[1].num_terms
    counters["series.multiply.terms_out"] += result.num_terms


def _count_act_series(counters, args, result):
    counters["series.act_series.terms_in"] += args[1].num_terms
    counters["series.act_series.terms_out"] += result.num_terms


def _count_enumerate(counters, args, result):
    counters["basis.enumerate.labels_out"] += len(result)


# (span name, module, attribute, counter); "Class.method" names a method
TARGETS = (
    ("actions.act", "actions", "act", None),
    ("actions.orbit", "actions", "orbit_in_window", _count_orbit),
    ("actions.stabilizer", "actions", "stabilizer", None),
    ("monomials.normal_form", "monomials", "normal_form_x", None),
    ("monomials.normal_form", "monomials", "normal_form_xy", None),
    ("monomials.parse", "monomials", "parse_monomial", None),
    ("monomials.format", "monomials", "format_monomial", None),
    ("groups.identity", "groups", "identity", None),
    ("groups.shift", "groups", "shift", None),
    ("groups.generator", "groups", "generator", None),
    ("groups.generators", "groups", "generators", None),
    ("groups.parse_word", "groups", "parse_word", None),
    ("groups.format_word", "groups", "format_word", None),
    ("groups.mul", "groups", "GroupElement.__mul__", None),
    ("groups.inverse", "groups", "GroupElement.inverse", None),
    ("groups.pow", "groups", "GroupElement.__pow__", None),
    ("compositions", "compositions", "compositions_of", None),
    ("series.construct", "series", "TruncatedSeries.__init__", _count_construct),
    ("series.linear", "series", "TruncatedSeries.add", None),
    ("series.linear", "series", "TruncatedSeries.scale", None),
    ("series.linear", "series", "TruncatedSeries.project", None),
    ("series.multiply", "series", "TruncatedSeries.multiply", _count_multiply),
    ("series.json", "series", "TruncatedSeries.to_json_dict", None),
    ("series.json", "series", "TruncatedSeries.from_json_dict", None),
    ("series.act_series", "series", "act_series", _count_act_series),
    ("series.is_invariant", "series", "is_invariant", None),
    ("series.symfunc", "series", "elementary_sym", None),
    ("series.symfunc", "series", "complete_sym", None),
    ("basis.canonicalize", "basis", "index_of_monomial", None),
    ("basis.enumerate", "basis", "enumerate_indices", _count_enumerate),
    ("basis.expand_fn", "basis", "expand_basis_function", None),
    ("basis.expand_in_basis", "basis", "expand_in_basis", None),
    ("basis.labels", "basis", "format_basis_label", None),
    ("basis.labels", "basis", "parse_basis_label", None),
    ("structure.census", "structure", "decomposition_census", None),
    ("structure.component_type", "structure", "component_type", None),
    ("cli.main", "cli", "main", None),
)

# spans whose descendants are counted per ancestor: bit per ancestor name
_ANCESTORS = ("series.is_invariant", "basis.expand_in_basis", "basis.enumerate")


def _module(name: str):
    return importlib.import_module("friezeinv" if name == "friezeinv" else f"friezeinv.{name}")


class Tracer:
    """Span recorder; one instance per worker, reset after each traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.recording = False
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: defaultdict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        self.recording = True
        return self.open(self._intern(f"op.{kind}"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.recording = False

    # -- installation

    def _wrap(self, name: str, fn, count):
        nid = self._intern(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [_module(m) for m in MODULES]
        for name, module, attr, count in TARGETS:
            owner = _module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    wrapped = self._wrap(name, raw, count)
                self._installed.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            inner = _eager(original, self) if attr == "compositions_of" else original
            wrapped = self._wrap(name, inner, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)

    # -- summary

    def summarize(self) -> dict:
        """Per-name calls, inclusive and self time, and descendant counts."""
        n = len(self.name)
        names = self.names
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        mask = array("B", bytes(n))
        bits = {self._intern(a): 1 << i for i, a in enumerate(_ANCESTORS)}
        act, canon = self._intern("actions.act"), self._intern("basis.canonicalize")
        calls: defaultdict[str, int] = defaultdict(int)
        total: defaultdict[str, int] = defaultdict(int)
        under: defaultdict[tuple[int, int], int] = defaultdict(int)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | bits.get(self.name[p], 0)
            nid = self.name[i]
            if nid == act or nid == canon:
                for b in range(len(_ANCESTORS)):
                    if mask[i] >> b & 1:
                        under[(nid, b)] += 1
        self_ns: defaultdict[str, int] = defaultdict(int)
        by_op: defaultdict[int, defaultdict[str, int]] = defaultdict(lambda: defaultdict(int))
        for i in range(n):
            name = names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            own = dur[i] - child[i]
            self_ns[name] += own
            by_op[self.op[i]][layer_of(name)] += own
        return {
            "calls": dict(calls),
            "total_ns": dict(total),
            "self_ns": dict(self_ns),
            "by_op": by_op,
            "counters": dict(self.counters),
            "act_under": {a: under[(act, b)] for b, a in enumerate(_ANCESTORS)},
            "canon_under": {a: under[(canon, b)] for b, a in enumerate(_ANCESTORS)},
            "spans": n,
        }

    def dump(self, path: str, ops: list[dict]) -> None:
        """Write the spans: one JSON header line, then the raw arrays in native byte order."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "arrays": [["name", "H"], ["parent", "i"], ["op", "i"], ["start_ns", "q"],
                       ["end_ns", "q"]],
            "ops": ops,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(handle)


def layer_of(name: str) -> str:
    """Span name to the layer it is reported under (the group functions are one layer)."""
    return "groups" if name.startswith("groups.") else name


def _sum(mapping: dict, layer: str) -> int:
    return sum(v for k, v in mapping.items() if layer_of(k) == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], plain_ns: list[int], traced_ns: list[int]) -> dict:
    """Per-layer metrics of one traced run.  Counts come from the first traced
    pass (every pass does the same work); times are medians over the passes."""
    first = summaries[0]
    calls, counters = first["calls"], first["counters"]

    def self_ms(layer):
        return median(_sum(s["self_ns"], layer) / 1e6 for s in summaries)

    act_calls = calls.get("actions.act", 0)
    raw_labels = first["canon_under"]["basis.enumerate"]
    labels_out = counters.get("basis.enumerate.labels_out", 0)
    pairs = counters.get("series.multiply.pairs", 0)
    return {
        "actions.act.calls": act_calls,
        "actions.act.self_ms": self_ms("actions.act"),
        "actions.act.us_per_call": median(
            _ratio(s["total_ns"].get("actions.act", 0) / 1e3, act_calls) for s in summaries),
        "monomials.normal_form.calls": calls.get("monomials.normal_form", 0),
        "monomials.normal_form.self_ms": self_ms("monomials.normal_form"),
        "actions.orbit.calls": calls.get("actions.orbit", 0),
        "actions.orbit.monomials_out": counters.get("actions.orbit.monomials_out", 0),
        "actions.orbit.self_ms": self_ms("actions.orbit"),
        "groups.calls": _sum(calls, "groups"),
        "groups.self_ms": self_ms("groups"),
        "series.construct.calls": calls.get("series.construct", 0),
        "series.construct.terms_in": counters.get("series.construct.terms_in", 0),
        "series.construct.self_ms": self_ms("series.construct"),
        "series.linear.self_ms": self_ms("series.linear"),
        "series.symfunc.self_ms": self_ms("series.symfunc"),
        "series.multiply.pairs": pairs,
        "series.multiply.terms_out": counters.get("series.multiply.terms_out", 0),
        "series.multiply.merge_ratio": _ratio(counters.get("series.multiply.terms_out", 0), pairs),
        "series.multiply.self_ms": self_ms("series.multiply"),
        "series.act_series.kept_ratio": _ratio(counters.get("series.act_series.terms_out", 0),
                                               counters.get("series.act_series.terms_in", 0)),
        "series.act_series.self_ms": self_ms("series.act_series"),
        "series.is_invariant.act_calls": first["act_under"]["series.is_invariant"],
        "series.is_invariant.self_ms": self_ms("series.is_invariant"),
        "basis.expand_in_basis.act_calls": first["act_under"]["basis.expand_in_basis"],
        "basis.expand_in_basis.canonicalize_calls": first["canon_under"]["basis.expand_in_basis"],
        "basis.expand_in_basis.self_ms": self_ms("basis.expand_in_basis"),
        "basis.expand_fn.self_ms": self_ms("basis.expand_fn"),
        "basis.canonicalize.calls": calls.get("basis.canonicalize", 0),
        "basis.canonicalize.self_ms": self_ms("basis.canonicalize"),
        "basis.enumerate.raw_labels": raw_labels,
        "basis.enumerate.labels_out": labels_out,
        "basis.enumerate.unique_ratio": _ratio(labels_out, raw_labels),
        "basis.enumerate.self_ms": self_ms("basis.enumerate"),
        "compositions.calls": calls.get("compositions", 0),
        "compositions.yielded": counters.get("compositions.yielded", 0),
        "compositions.self_ms": self_ms("compositions"),
        "structure.census.self_ms": self_ms("structure.census"),
        "structure.component_type.calls": calls.get("structure.component_type", 0),
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.stdout_bytes": counters.get("cli.stdout_bytes", 0),
        "cli.exit2": counters.get("cli.exit2", 0),
        "monomials.parse.calls": calls.get("monomials.parse", 0),
        "monomials.parse.self_ms": self_ms("monomials.parse"),
        "monomials.format.self_ms": self_ms("monomials.format"),
        "series.json.self_ms": self_ms("series.json"),
        "basis.labels.self_ms": self_ms("basis.labels"),
        "actions.stabilizer.self_ms": self_ms("actions.stabilizer"),
        "trace.overhead_pct": 100 * (median(traced_ns) / median(plain_ns) - 1),
    }


def scaling_table(summary: dict, sizes: list[dict]) -> dict:
    """Self ms per op of each layer, by window N in {10, 40, 160} and by
    degree k in {4, 5, 6}; information only."""
    buckets: dict[str, list[int]] = {}
    for op_id, size in enumerate(sizes):
        if size.get("N") in (10, 40, 160):
            buckets.setdefault(f"N={size['N']}", []).append(op_id)
        if "N" not in size and size.get("k") in (4, 5, 6):
            buckets.setdefault(f"k={size['k']}", []).append(op_id)
    table: dict[str, dict[str, float]] = {}
    for bucket, op_ids in sorted(buckets.items(), key=lambda kv: (kv[0][0], int(kv[0][2:]))):
        for op_id in op_ids:
            for layer, ns in summary["by_op"].get(op_id, {}).items():
                if not layer.startswith("op."):
                    row = table.setdefault(layer, {})
                    row[bucket] = row.get(bucket, 0.0) + ns / 1e6 / len(op_ids)
    return table


def _eager(generator_fn, tracer):
    """``compositions_of`` is a generator; time it by draining it inside the span."""

    def drained(*args, **kwargs):
        items = list(generator_fn(*args, **kwargs))
        if tracer.recording:
            tracer.counters["compositions.yielded"] += len(items)
        return iter(items)

    return drained
