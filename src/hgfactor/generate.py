"""Exhaustive enumeration of small hypergraphs and vertex partitions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    CapExceededError,
    Hypergraph,
    Universe,
    _canon,
    _codes,
    _key_graph,
    crossing_edge_candidates,
    is_connected,
)

__all__ = ["EnumSpec", "enumerate_hypergraphs", "enumerate_partitions"]

# Enumeration is strictly a desk-scale tool; counts explode soon after this.
HARD_VERTEX_CAP = 7


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: all graphs over universe with up to max_vertices
    vertices, optionally connected ones only."""

    universe: Universe
    max_vertices: int
    connected_only: bool = False

    def __post_init__(self):
        if self.max_vertices < 0:
            raise ValueError("negative vertex bound")
        if self.max_vertices > HARD_VERTEX_CAP:
            raise CapExceededError(
                f"enumeration bound {self.max_vertices} exceeds hard cap {HARD_VERTEX_CAP}")


def enumerate_hypergraphs(spec: EnumSpec):
    """Yield one representative per isomorphism class, smallest first.

    Vertex counts ascend; within a count, representatives come in
    canonical-key order.  Classes on n vertices are grown from classes on
    n-1 vertices by adding a vertex together with every subset of edges
    through it; every class is reached because deleting the last vertex
    of any graph gives a graph on one vertex fewer.

    Layers are memoised per (universe, n) and kept for the life of the
    process, so repeated bounded scans enumerate each layer once.  A layer
    is built only when the stream reaches it: a consumer that stops early
    never pays for the larger layers.
    """
    u = spec.universe
    if not spec.connected_only or spec.max_vertices == 0:
        yield _layer(u, 0)[0]
    for n in range(1, spec.max_vertices + 1):
        for h in _layer(u, n):
            if not spec.connected_only or is_connected(h):
                yield h


@lru_cache(maxsize=64)
def _layer(u: Universe, n: int) -> tuple:
    """Canonical forms of every class on exactly n vertices, in
    canonical-key order.  The edges through the new vertex are the
    crossing edges of n-1 isolated vertices and one more.  Parents and
    those edges are coded once (core._codes); each candidate, parent
    codes plus a subset of the new ones, is keyed by core._canon
    directly, so no graph is built and no canonical_key memo entry is
    made per candidate, only a graph per class kept."""
    if n == 0:
        return (Hypergraph(u, 0, frozenset()),)
    through = crossing_edge_candidates(
        [Hypergraph(u, n - 1, frozenset()), Hypergraph(u, 1, frozenset())])
    new = _codes(Hypergraph(u, n, frozenset(through)))
    seen = set()
    for g in _layer(u, n - 1):
        base = _codes(g)
        for r in range(len(new) + 1):
            for picks in itertools.combinations(new, r):
                seen.add(_canon(n, base + picks))
    return tuple(_key_graph(u, k) for k in sorted(seen))


def enumerate_partitions(vertices, max_parts: int, min_parts: int = 1):
    """All partitions of the vertex collection into min_parts to
    max_parts nonempty part tuples.

    Parts are canonically ordered by smallest member, which makes the
    stream duplicate-free over unordered partitions.
    """
    verts = sorted(set(vertices))
    if min_parts < 1 or max_parts < min_parts:
        raise ValueError("bad part-count range")
    if not verts:
        return
    # restricted growth strings: verts[0] always lands in part 0
    def rgs(prefix, used):
        if len(prefix) == len(verts):
            yield prefix
            return
        for c in range(min(used + 1, max_parts)):
            yield from rgs(prefix + [c], max(used, c + 1))

    for assignment in rgs([0], 1):
        k = max(assignment) + 1
        parts = tuple(tuple(v for v, c in zip(verts, assignment) if c == i)
                      for i in range(k))
        if k >= min_parts:
            yield parts
