"""Span tracing around hgfactor's public functions, and the per-layer
metrics computed from the spans.

The tracer wraps each traced function at every module binding inside the
``hgfactor`` package (modules import by name, so ``hgfactor.props`` and
``hgfactor.decomp`` hold their own references to ``embed_induced``), plus
the ``member`` method of each property class.  No package source changes.

A span is one tuple ``(id, parent, name, start_ns, end_ns, first, repeat,
info)``:

- ``first`` is 1 for a call and 0 for a later resumption of a generator;
  a generator gets one span per resumption, so work done while it runs is
  parented to it and not to whoever called ``next``;
- ``repeat`` is 1 when the call's arguments were seen earlier in the same
  process, 0 when new, -1 when not tracked;
- ``info`` is a per-function result: 1/0 for found or holds, the vertex
  count for ``aligning_super``, 1/0 for "this resumption yielded".

Spans stay in memory and are written as TSV when the traced process ends.
``layer_metrics`` reads them back and derives self times, counts and
ratios; nothing is aggregated while tracing.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute, kind, info, track repeats)
# kind: "fn" plain function, "gen" generator function.
_FUNCTIONS = (
    ("core.embed_induced", "hgfactor.core", "embed_induced", "fn", "found", True),
    ("core.induced", "hgfactor.core", "induced", "fn", None, False),
    ("core.canonical_key", "hgfactor.core", "canonical_key", "fn", None, True),
    ("core.join_members", "hgfactor.core", "join_members", "gen", None, False),
    ("generate.enumerate_hypergraphs", "hgfactor.generate",
     "enumerate_hypergraphs", "gen", None, False),
    ("generate.enumerate_partitions", "hgfactor.generate",
     "enumerate_partitions", "gen", None, False),
    ("props.partition_solve", "hgfactor.props", "partition_solve", "fn", None, False),
    ("decomp.join_subset_of", "hgfactor.decomp", "join_subset_of", "fn", "holds", True),
    ("decomp.is_decomposition", "hgfactor.decomp", "is_decomposition", "fn", None, False),
    ("decomp.dec_number", "hgfactor.decomp", "dec_number", "fn", None, False),
    ("decomp.strictness_witness", "hgfactor.decomp", "strictness_witness", "fn",
     None, False),
    ("construct.aligning_super", "hgfactor.construct", "aligning_super", "fn",
     "vertices", False),
    ("factor.dec_bounds", "hgfactor.factor", "dec_bounds", "fn", None, False),
    ("factor.verify_factorisation", "hgfactor.factor", "verify_factorisation", "fn",
     "holds", False),
    ("factor.factor_search", "hgfactor.factor", "factor_search", "fn", None, False),
    ("cli.run", "hgfactor.cli", "run", "fn", None, False),
)

_METHODS = (
    ("props.member", "hgfactor.props", ("FiniteForbidden", "ProductProperty",
                                        "GeneratedBounded"), "member", "holds"),
)

_INFO = {
    None: lambda result: 0,
    "found": lambda result: 0 if result is None else 1,
    "holds": lambda result: 1 if result else 0,
    "vertices": lambda result: result.graph.n,
}


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


class Tracer:
    """Records spans for the traced functions of one process."""

    def __init__(self):
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)  # next() is atomic under signals
        self._seen = defaultdict(set)

    # -- recording -----------------------------------------------------

    def open(self) -> tuple:
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, t0, first, repeat, info):
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, time.perf_counter_ns(),
                           first, repeat, info))

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        sid, parent = self.open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.close(sid, parent, name, t0, 1, -1, 0)

    def _repeat_flag(self, name, sig, args, kwargs) -> int:
        if not kwargs and len(args) == len(sig.parameters):
            key = tuple(_freeze(a) for a in args)
        else:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(_freeze(a) for a in bound.arguments.values())
        try:
            seen = self._seen[name]
            if key in seen:
                return 1
            seen.add(key)
            return 0
        except TypeError:
            return -1

    # -- wrappers --------------------------------------------------------

    def wrap_function(self, name, fn, info, repeats):
        tracer = self
        info_of = _INFO[info]
        sig = inspect.signature(fn) if repeats else None
        by_mode = name == "decomp.join_subset_of"

        def traced(*args, **kwargs):
            span_name = name
            if by_mode:
                mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact")
                span_name = f"{name}.{mode}"
            repeat = tracer._repeat_flag(span_name, sig, args, kwargs) if repeats else -1
            sid, parent = tracer.open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, parent, span_name, t0, 1, repeat, 0)
                raise
            tracer.close(sid, parent, span_name, t0, 1, repeat, info_of(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = 1
            while True:
                sid, parent = tracer.open()
                t0 = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(sid, parent, name, t0, first, -1, 0)
                    return
                except BaseException:
                    tracer.close(sid, parent, name, t0, first, -1, 0)
                    raise
                tracer.close(sid, parent, name, t0, first, -1, 1)
                first = 0
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every binding of the traced functions inside hgfactor."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hgfactor" or n.startswith("hgfactor."))]
        for name, mod_name, attr, kind, info, repeats in _FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            if kind == "gen":
                wrapped = self.wrap_generator(name, orig)
            else:
                wrapped = self.wrap_function(name, orig, info, repeats)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for name, mod_name, classes, attr, info in _METHODS:
            for cls_name in classes:
                cls = getattr(sys.modules[mod_name], cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self.wrap_function(name, orig, info, False))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write("\t".join(map(str, s)))
                fh.write("\n")




# --- analysis -------------------------------------------------------------

GROUPS = ("core", "generate", "props", "decomp", "construct", "factor", "cli", "bench")

# Per-layer metrics from one traced pass: (name, unit, better).
SPAN_METRICS = (
    ("core.embed_induced.calls", "count", "lower"),
    ("core.embed_induced.self_s", "s", "lower"),
    ("core.embed_induced.found_ratio", "ratio", "higher"),
    ("core.embed_induced.repeat_ratio", "ratio", "lower"),
    ("core.induced.calls", "count", "lower"),
    ("core.induced.self_s", "s", "lower"),
    ("core.canonical_key.calls", "count", "lower"),
    ("core.canonical_key.self_s", "s", "lower"),
    ("core.canonical_key.repeat_ratio", "ratio", "lower"),
    ("core.join_members.members", "count", "lower"),
    ("core.join_members.self_s", "s", "lower"),
    ("generate.enumerate_hypergraphs.classes", "count", "higher"),
    ("generate.enumerate_hypergraphs.candidates", "count", "lower"),
    ("generate.enumerate_hypergraphs.kept_ratio", "ratio", "higher"),
    ("generate.enumerate_hypergraphs.self_s", "s", "lower"),
    ("generate.enumerate_partitions.partitions", "count", "lower"),
    ("props.member.calls", "count", "lower"),
    ("props.member.self_s", "s", "lower"),
    ("props.member.holds_ratio", "ratio", "higher"),
    ("props.partition_solve.calls", "count", "lower"),
    ("props.partition_solve.self_s", "s", "lower"),
    ("decomp.join_subset_of.exact.calls", "count", "lower"),
    ("decomp.join_subset_of.exact.self_s", "s", "lower"),
    ("decomp.join_subset_of.exact.holds_ratio", "ratio", "higher"),
    ("decomp.join_subset_of.exact.repeat_ratio", "ratio", "lower"),
    ("decomp.join_subset_of.bounded.calls", "count", "lower"),
    ("decomp.join_subset_of.bounded.self_s", "s", "lower"),
    ("decomp.join_subset_of.bounded.repeat_ratio", "ratio", "lower"),
    ("decomp.dec_number.calls", "count", "lower"),
    ("decomp.dec_number.self_s", "s", "lower"),
    ("decomp.dec_number.checks", "count", "lower"),
    ("decomp.strictness_witness.calls", "count", "lower"),
    ("decomp.strictness_witness.self_s", "s", "lower"),
    ("construct.aligning_super.self_s", "s", "lower"),
    ("construct.aligning_super.vertices", "count", "lower"),
    ("factor.dec_bounds.self_s", "s", "lower"),
    ("factor.verify_factorisation.calls", "count", "lower"),
    ("factor.verify_factorisation.self_s", "s", "lower"),
    ("factor.verify_factorisation.holds_ratio", "ratio", "higher"),
    ("factor.factor_search.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
) + tuple((f"share.{g}", "ratio", "lower") for g in GROUPS)

# Counts that do not depend on the machine; two traced passes over the same
# seed must reproduce them exactly.
COUNT_SUFFIXES = (".calls", ".members", ".classes", ".candidates", ".checks",
                  ".partitions")

def read_spans(path) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            f = line.rstrip("\n").split("\t")
            out.append((int(f[0]), int(f[1]), f[2], int(f[3]), int(f[4]),
                        int(f[5]), int(f[6]), int(f[7])))
    return out


def _covered(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _Totals:
    __slots__ = ("calls", "self_ns", "info", "repeats", "tracked", "incl_ns")

    def __init__(self):
        self.calls = self.self_ns = self.info = 0
        self.repeats = self.tracked = self.incl_ns = 0


def _add_job(spans, scale, acc, extra):
    """Fold one process's spans into the per-name totals; times are
    multiplied by scale (reference seconds per wall second)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    intervals = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[3], s[4]))
        intervals[s[2]].append((s[3], s[4]))
    for s in spans:
        sid, parent, name, t0, t1, first, repeat, info = s
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())]
        t = acc[name]
        t.self_ns += scale * ((t1 - t0) - _covered([k for k in kids if k[1] > k[0]]))
        if first:
            t.calls += 1
        t.info += info  # later segments exist only for generators: yields
        if repeat >= 0:
            t.tracked += 1
            t.repeats += repeat
        if parent == 0:
            extra["root_ns"] += scale * (t1 - t0)
        if name == "core.canonical_key":
            up = by_id.get(parent)
            if up is not None and up[2] == "generate.enumerate_hypergraphs":
                extra["candidates"] += 1
    for name, iv in intervals.items():
        acc[name].incl_ns += scale * _covered(iv)
    # lattice nodes: is_decomposition calls anywhere below a dec_number span
    below = {0: False}
    for s in spans:
        if s[2] != "decomp.is_decomposition":
            continue
        chain, sid = [], s[1]
        while sid not in below:
            chain.append(sid)
            up = by_id.get(sid)
            if up is None or up[2] == "decomp.dec_number":
                below[sid] = up is not None
                break
            sid = up[1]
        for c in chain:
            below[c] = below[sid]
        extra["checks"] += below[s[1]]


def layer_metrics(jobs) -> dict:
    """Per-layer metrics of one traced pass; jobs holds one (span list,
    time scale) pair per process.  Returns name -> value for every SPAN_METRICS entry, plus
    incl_share.<span name> (share of the pass spent inside that span)."""
    acc = defaultdict(_Totals)
    extra = defaultdict(int)
    for spans, scale in jobs:
        _add_job(spans, scale, acc, extra)
    total = extra["root_ns"] or 1

    def ratio(a, b):
        return a / b if b else 0.0

    def rep(name):
        return ratio(acc[name].repeats, acc[name].tracked)

    def self_s(name):
        return acc[name].self_ns / 1e9

    embed, key = acc["core.embed_induced"], acc["core.canonical_key"]
    exact, bounded = acc["decomp.join_subset_of.exact"], acc["decomp.join_subset_of.bounded"]
    gen = acc["generate.enumerate_hypergraphs"]
    out = {
        "core.embed_induced.calls": embed.calls,
        "core.embed_induced.self_s": self_s("core.embed_induced"),
        "core.embed_induced.found_ratio": ratio(embed.info, embed.calls),
        "core.embed_induced.repeat_ratio": rep("core.embed_induced"),
        "core.induced.calls": acc["core.induced"].calls,
        "core.induced.self_s": self_s("core.induced"),
        "core.canonical_key.calls": key.calls,
        "core.canonical_key.self_s": self_s("core.canonical_key"),
        "core.canonical_key.repeat_ratio": rep("core.canonical_key"),
        "core.join_members.members": acc["core.join_members"].info,
        "core.join_members.self_s": self_s("core.join_members"),
        "generate.enumerate_hypergraphs.classes": gen.info,
        "generate.enumerate_hypergraphs.candidates": extra["candidates"],
        "generate.enumerate_hypergraphs.kept_ratio": ratio(gen.info, extra["candidates"]),
        "generate.enumerate_hypergraphs.self_s": self_s("generate.enumerate_hypergraphs"),
        "generate.enumerate_partitions.partitions": acc["generate.enumerate_partitions"].info,
        "props.member.calls": acc["props.member"].calls,
        "props.member.self_s": self_s("props.member"),
        "props.member.holds_ratio": ratio(acc["props.member"].info, acc["props.member"].calls),
        "props.partition_solve.calls": acc["props.partition_solve"].calls,
        "props.partition_solve.self_s": self_s("props.partition_solve"),
        "decomp.join_subset_of.exact.calls": exact.calls,
        "decomp.join_subset_of.exact.self_s": self_s("decomp.join_subset_of.exact"),
        "decomp.join_subset_of.exact.holds_ratio": ratio(exact.info, exact.calls),
        "decomp.join_subset_of.exact.repeat_ratio": rep("decomp.join_subset_of.exact"),
        "decomp.join_subset_of.bounded.calls": bounded.calls,
        "decomp.join_subset_of.bounded.self_s": self_s("decomp.join_subset_of.bounded"),
        "decomp.join_subset_of.bounded.repeat_ratio": rep("decomp.join_subset_of.bounded"),
        "decomp.dec_number.calls": acc["decomp.dec_number"].calls,
        "decomp.dec_number.self_s": self_s("decomp.dec_number"),
        "decomp.dec_number.checks": extra["checks"],
        "decomp.strictness_witness.calls": acc["decomp.strictness_witness"].calls,
        "decomp.strictness_witness.self_s": self_s("decomp.strictness_witness"),
        "construct.aligning_super.self_s": self_s("construct.aligning_super"),
        "construct.aligning_super.vertices": acc["construct.aligning_super"].info,
        "factor.dec_bounds.self_s": self_s("factor.dec_bounds"),
        "factor.verify_factorisation.calls": acc["factor.verify_factorisation"].calls,
        "factor.verify_factorisation.self_s": self_s("factor.verify_factorisation"),
        "factor.verify_factorisation.holds_ratio": ratio(
            acc["factor.verify_factorisation"].info, acc["factor.verify_factorisation"].calls),
        "factor.factor_search.self_s": self_s("factor.factor_search"),
        "cli.run.calls": acc["cli.run"].calls,
        "cli.run.self_s": self_s("cli.run"),
    }
    shares = defaultdict(int)
    for name, t in acc.items():
        shares[name.split(".", 1)[0]] += t.self_ns
    for g in GROUPS:
        out[f"share.{g}"] = shares[g] / total
    for name, t in acc.items():
        out[f"self_share.{name}"] = t.self_ns / total
        out[f"incl_share.{name}"] = t.incl_ns / total
    return out
