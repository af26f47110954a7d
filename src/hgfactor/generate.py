"""Exhaustive enumeration of small hypergraphs and vertex partitions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .core import (
    CapExceededError,
    Hypergraph,
    Universe,
    _bits,
    _canon,
    _canon_search,
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
    n-1 vertices by adding a vertex together with a subset of the edges
    through it.  Only subsets that leave the new vertex of least degree
    are keyed, one per orbit of the parent's automorphisms; every class
    is still reached, because deleting a least-degree vertex of any
    graph gives a graph on one vertex fewer (see _grow).

    Layers are memoised (_layer) and kept while the memo holds them, so
    repeated bounded scans enumerate each layer once.  A layer is built
    only when the stream reaches it: a consumer that stops early never
    pays for the larger layers.
    """
    u = spec.universe
    if not spec.connected_only or spec.max_vertices == 0:
        yield _layer(u, None, 0).classes[0]
    for n in range(1, spec.max_vertices + 1):
        for h in _layer(u, None, n).classes:
            if not spec.connected_only or is_connected(h):
                yield h


class _Layer(NamedTuple):
    classes: tuple
    verdicts: list


@lru_cache(maxsize=256)
def _layer(u: Universe, p, n: int) -> _Layer:
    """The classes on exactly n vertices over u, with p's verdicts on them.

    classes are canonical forms in canonical-key order: the null graph,
    then each layer grown (_grow) from the whole layer below it when p is
    None, or from the property p's members on n-1 vertices.  verdicts
    holds p's answers on a prefix of classes, filled by _decided; the
    null graph is in every p.
    """
    if n == 0:
        return _Layer((Hypergraph(u, 0, frozenset()),), [True])
    if p is None:
        return _Layer(_grow(u, n, _layer(u, None, n - 1).classes), [])
    return _Layer(_grow(u, n, tuple(g for g, holds in _decided(p, n - 1) if holds)), [])


def _decided(p, n: int):
    """Yield (class, is it in p?) for each class of p's layer on n
    vertices, in canonical-key order.  p is asked about a class the first
    time a consumer reaches it, and the verdict is kept with the layer;
    a p.member that raises keeps nothing for that class."""
    classes, verdicts = _layer(p.universe, p, n)
    for i, g in enumerate(classes):
        if i == len(verdicts):
            verdicts.append(bool(p.member(g)))
        yield g, verdicts[i]


def _grow(u: Universe, n: int, parents) -> tuple:
    """Canonical forms of the classes on exactly n vertices that have a
    least-degree vertex whose deletion leaves one of the parents, in
    canonical-key order.  The parents are canonical forms of distinct
    classes on n-1 vertices; given every such class, the result is every
    class on n vertices.

    A candidate is a parent P plus a subset S of the m edges through the
    new vertex n-1, the crossing edges of n-1 isolated vertices and one
    more.  Parents and those edges are coded once (core._codes) and a
    candidate is keyed by core._canon directly, so no graph is built and
    no canonical_key memo entry is made per candidate, only a graph per
    class kept.  A candidate is keyed only if it passes two rules,
    checked in this order:

    (a) least degree: the new vertex has the least degree in the child,
        counting edges of any kind and colour.  Its degree is |S|; an old
        vertex w has its degree in the parent plus |S & touch[w]|, where
        touch[w] marks the new edges through w.  No class is lost: a
        least-degree vertex v of a graph G leaves a graph G - v; if it is
        isomorphic to a parent P, the candidate that rebuilds G from P
        has v as its new vertex.
    (b) orbit: Aut(P), extended to fix the new vertex, permutes the new
        edges, and only the first subset of each orbit met is keyed;
        keying it marks its whole orbit done, closing it under the edge
        images of the generators core._canon_search finds for P.  No
        class is lost: an automorphism a of P that fixes the new vertex
        maps the child of (P, S) isomorphically onto the child of
        (P, a(S)), and keeps the new vertex's degree, so an orbit passes
        rule (a) as a whole.

    Every class with a candidate keeps at least one keyed candidate, so
    the set of keys is that of keying every candidate.
    """
    through = crossing_edge_candidates(
        [Hypergraph(u, n - 1, frozenset()), Hypergraph(u, 1, frozenset())])
    new = _codes(u, through)  # in a fixed order, so every process keys alike
    index = {(ordered, ci, verts): i for i, (ordered, ci, verts, _, _) in enumerate(new)}
    touch = [0] * (n - 1)
    for i, (_, _, verts, _, _) in enumerate(new):
        for w in verts:
            if w < n - 1:
                touch[w] |= 1 << i
    seen = set()
    for g in parents:
        base = _codes(u, g.edges)
        deg = [0] * (n - 1)
        for _, _, verts, _, _ in base:
            for w in verts:
                deg[w] += 1
        low = min(deg, default=0)
        # per generator of Aut(P), each new edge's image bit
        images = [_edge_images(new, index, sigma + (n - 1,))
                  for sigma in _canon_search(n - 1, base)[1]]
        done = bytearray(1 << len(new))
        for s in range(1 << len(new)):
            k = s.bit_count()
            if k > low and any(k > d + (s & t).bit_count() for d, t in zip(deg, touch)):
                continue
            if done[s]:
                continue
            picks = _bits(s)
            seen.add(_canon(n, base + tuple(new[i] for i in picks)))
            done[s] = 1
            orbit = [picks]  # mark s's orbit done: close it under the generators
            while orbit:
                picks = orbit.pop()
                for image in images:
                    t = sum(map(image.__getitem__, picks))  # distinct bits
                    if not done[t]:
                        done[t] = 1
                        orbit.append(_bits(t))
    return tuple(_key_graph(u, k) for k in sorted(seen))


def _edge_images(new: tuple, index: dict, sigma: tuple) -> list:
    """Bit of each new edge's image under the vertex map sigma."""
    look = sigma.__getitem__
    return [1 << index[ordered, ci, tuple(map(look, verts)) if ordered
                       else tuple(sorted(map(look, verts)))]
            for ordered, ci, verts, _, _ in new]


def _members_up_to(p, max_vertices: int):
    """Yield the members of the property p with at most max_vertices
    vertices: the classes enumerate_hypergraphs yields that p contains,
    as the same graphs in the same order.

    p must be closed under induced subgraphs and contain the null graph,
    as every representation in props is.  Then deleting a least-degree
    vertex of a member G on n vertices leaves a member on n-1, so G is
    isomorphic to a class that _grow reaches from p's members on n-1
    (rules (a) and (b) of _grow hold unchanged).  _grow sorts by
    canonical key, so each layer is the full layer filtered to members,
    in the same order.

    p is asked only about classes with a member parent, when the stream
    reaches them: a subset of the classes the full stream has, in the
    same order.  A class with no member parent is outside p, since its
    least-degree deletions are all non-members.  Each verdict is kept
    with its layer (_decided), so a scan that stops early leaves its
    verdicts to the next scan, which asks p only about the classes the
    earlier ones did not reach.
    """
    EnumSpec(p.universe, max_vertices)  # an over-cap or negative bound raises
    for n in range(max_vertices + 1):
        for g, holds in _decided(p, n):
            if holds:
                yield g


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
