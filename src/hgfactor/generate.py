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
    are tried, one per orbit of the parent's automorphisms, and only
    those whose new vertex lies in the first cell of least degree of
    the refinement are keyed; every class is still reached, because
    deleting any vertex of that cell gives a graph on one vertex fewer
    (see _grow).

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
    growth: bytes  # per class, its growth vertex (see _grow)
    generators: tuple  # per class, its automorphism generators (see _grow)
    verdicts: list


@lru_cache(maxsize=256)
def _layer(u: Universe, p, n: int) -> _Layer:
    """The classes on exactly n vertices over u, with their growth
    vertices, automorphism generators and p's verdicts on them.

    classes are canonical forms in canonical-key order: the null graph,
    then each layer grown (_grow) from the whole layer below it when p is
    None, or from the property p's members on n-1 vertices.  growth holds
    each class's growth vertex, one byte per class (empty for the null
    graph), generators each class's automorphism generators as _grow
    keeps them (b"" for the null graph), and verdicts p's answers on a
    prefix of classes, filled by _decided; the null graph is in every p.
    Each parent goes to _grow with its generators from this memo, so no
    parent's automorphisms are searched for again.

    A member layer holds every member of p on n vertices and those
    non-members that _grow reaches from a member parent by deleting a
    vertex of their first least-degree cell: fewer non-members than
    growing by any least-degree vertex reaches, the same members.
    """
    if n == 0:
        return _Layer((Hypergraph(u, 0, frozenset()),), b"", (b"",), [True])
    below = _layer(u, p, n - 1)
    if p is None:
        return _Layer(*_grow(u, n, zip(below.classes, below.generators)), [])
    members = [(g, gens) for (g, holds), gens in zip(_decided(p, n - 1), below.generators)
               if holds]
    return _Layer(*_grow(u, n, members), [])


def _decided(p, n: int):
    """Yield (class, is it in p?) for each class of p's layer on n
    vertices, in canonical-key order.  p is asked about a class the first
    time a consumer reaches it, through props._member_through with the
    class's growth vertex, and the verdict is kept with the layer; a
    verdict that raises keeps nothing for that class."""
    from .props import _member_through  # props imports this module
    layer = _layer(p.universe, p, n)
    verdicts = layer.verdicts
    for i, g in enumerate(layer.classes):
        if i == len(verdicts):
            verdicts.append(_member_through(p, g, layer.growth[i]))
        yield g, verdicts[i]


def _grow(u: Universe, n: int, parents) -> tuple:
    """(classes, growth, generators): canonical forms of the classes on
    exactly n vertices that have a vertex of their first least-degree
    cell whose deletion leaves one of the parents, in canonical-key
    order, each one's growth vertex as one byte, and each one's
    automorphism generators.  The parents are (canonical form, its
    generators) pairs of distinct classes on n-1 vertices; given every
    such class, the classes are every class on n vertices.

    A class's growth vertex is the vertex of its canonical form that the
    new vertex of the first candidate keyed to it becomes (the probe
    label of _key_candidate).  Deleting it leaves a graph isomorphic to
    that candidate's parent, so for a member layer a member: the one
    fact props._member_through rests on.  The growth vertices of the
    keys seen are kept in the dict of keys the layer is sorted from, so
    a layer costs one bytes object more and no object per class.

    A class's generators are those of the first candidate keyed to it,
    which _key_candidate hands back relabelled onto the class's canonical
    form; relabelling maps the candidate's automorphism group onto the
    class's (proof in core._canon_search), and the search that keys a
    candidate finds generators of its whole group, so they generate the
    class's group.  They are kept as one bytes object per class, the
    images of every generator one after another, and only for a class
    whose group is nontrivial: every other class has b"", a shared
    object.  A parent's generators serve rule (b) one layer up.

    A candidate is a parent P plus a subset S of the m edges through the
    new vertex n-1, the crossing edges of n-1 isolated vertices and one
    more.  Parents and those edges are coded once (core._codes) and a
    candidate is keyed by _key_candidate directly, so no graph is built
    and no canonical_key memo entry is made per candidate, only a graph
    per class kept.  A candidate is keyed only if it passes three rules,
    checked in this order:

    (a) least degree: the new vertex has the least degree in the child,
        counting edges of any kind and colour.  Its degree is |S|; an old
        vertex w has its degree d[w] in the parent plus |S & touch[w]|,
        where touch[w] marks the new edges through w, so (a) asks
        |S & ~touch[w]| <= d[w] for every w.
    (b) orbit: Aut(P), extended to fix the new vertex, permutes the new
        edges, and only the first subset of each orbit met is tried;
        trying it marks its whole orbit done, closing it under the edge
        images of P's generators, those kept when P's class was keyed
        one layer down.  Any generators of Aut(P) close a subset to the
        same orbit, so the first subset of each orbit, and so the
        subsets keyed, do not depend on which generators they are.  An
        automorphism a of P that fixes the new vertex maps the child of
        (P, S) isomorphically onto the child of (P, a(S)), and keeps the
        new vertex's degree, so an orbit passes rule (a) as a whole.
    (c) first cell: the new vertex lies in the first cell of least
        degree of the child's refinement (core._cells, cells in colour
        order).  Refinement is isomorphism-invariant, cells and their
        order included, so an isomorphism maps the first least-degree
        cell onto the first least-degree cell.  The isomorphism of (b)
        fixes the new vertex, so an orbit passes (c) as a whole too, and
        a tried subset that fails (c) marks its orbit done all the same.
        _cells gives up on the new vertex after the first round that
        leaves it outside that cell: the cell only shrinks from round to
        round (see _cells), so the vertex can never return to it, and
        the survivors are searched on the cells already built.

    No class is lost.  Let v be a vertex of the first least-degree cell
    of a class G, and G - v isomorphic to a parent P (for a hereditary p
    and a member G, G - v is a member, so a member parent).  The
    isomorphism extends to one from G onto a child of P that sends v to
    the new vertex, which then has least degree and lies in the child's
    first least-degree cell: that child passes (a) and (c), and so does
    its whole orbit under (b), whose first subset is keyed.  Every class
    with such a candidate keeps a keyed one, so the set of keys is that
    of keying every candidate with such a deletion.

    Rule (a) is one bitmask per parent.  Bit s of an int over the 2^m
    subsets stands for the subset s, and rows[w][t] holds every s with
    |s & ~touch[w]| <= t, built once per layer (_rule_a_rows); ANDing
    rows[w][d[w]] over the old vertices leaves the subsets that pass (a),
    and only those are visited, in ascending order as before.

    Keys share their entries: each distinct (arity, vertices, kind,
    colour) entry is held once, in a pool dropped with the call, so the
    keys a layer holds until it is sorted do not each carry fresh tuples.
    """
    through = crossing_edge_candidates(
        [Hypergraph(u, n - 1, frozenset()), Hypergraph(u, 1, frozenset())])
    new = _codes(u, through)  # in a fixed order, so every process keys alike
    index = {(ordered, ci, verts): i for i, (ordered, ci, verts, _, _) in enumerate(new)}
    m = len(new)
    touch = [0] * (n - 1)
    for i, (_, _, verts, _, _) in enumerate(new):
        for w in verts:
            if w < n - 1:
                touch[w] |= 1 << i
    rows = [_rule_a_rows(m, t) for t in touch]
    every = (1 << (1 << m)) - 1
    pool = _Pool()
    seen = {}  # key -> growth vertex of its first candidate
    auts = {}  # key -> generators of its first candidate, if it has any
    for g, gens in parents:
        base = _codes(u, g.edges)
        deg = [0] * (n - 1)
        for _, _, verts, _, _ in base:
            for w in verts:
                deg[w] += 1
        admitted = every
        for d, row in zip(deg, rows):
            if d < len(row):
                admitted &= row[d]
        # per generator of Aut(P), each new edge's image bit; gens holds
        # the generators' images of 0..n-2 one after another
        images = [_edge_images(new, index, gens[i:i + n - 1] + bytes((n - 1,)))
                  for i in range(0, len(gens), n - 1)] if gens else []
        done = bytearray(1 << m)
        for s in _set_bits(admitted):
            if done[s]:
                continue
            picks = _bits(s)
            found = _key_candidate(n, base + tuple(new[i] for i in picks))
            if found is not None:
                key, label, found_gens = found
                entry = n, tuple(map(pool.__getitem__, key[1]))
                if entry not in seen:
                    seen[entry] = label
                    if found_gens:
                        auts[entry] = bytes(v for sigma in found_gens for v in sigma)
            done[s] = 1
            orbit = [picks]  # mark s's orbit done: close it under the generators
            while orbit:
                picks = orbit.pop()
                for image in images:
                    t = sum(map(image.__getitem__, picks))  # distinct bits
                    if not done[t]:
                        done[t] = 1
                        orbit.append(_bits(t))
    keys = sorted(seen)
    return (tuple(_key_graph(u, k) for k in keys), bytes(map(seen.__getitem__, keys)),
            tuple(auts.get(k, b"") for k in keys))


def _key_candidate(n: int, codes: tuple):
    """(canonical key, probe label, generators) of the candidate on n
    vertices with these _codes, whose new vertex is n-1, or None when
    rule (c) of _grow rejects it; the label is the vertex of the key's
    graph that the new vertex becomes, and the generators, automorphisms
    of the key's graph, generate its whole group (core._canon_search).
    The one place _grow keys a candidate."""
    found = _canon_search(n, codes, n - 1)
    return None if found is None else (found[0], found[2], found[1])


def _rule_a_rows(m: int, touch: int) -> list:
    """rows[t]: every subset s of m new edges with |s & ~touch| <= t, as
    one int with bit s set for each, for t up to the number of new edges
    outside touch, where every subset is in.

    Built edge by edge: a subset with edge i has one more edge outside
    touch than the same subset without it, or as many if i is in touch,
    and the subsets with edge i sit 2^i bits above those without it."""
    rows = [1]  # the one subset of no edges
    for i in range(m):
        shift = 1 << i
        if touch >> i & 1:
            rows = [r | r << shift for r in rows]
        else:
            rows = [rows[0]] + [r | low << shift for low, r in zip(rows, rows[1:])] \
                + [rows[-1] | rows[-1] << shift]
    return rows


def _set_bits(mask: int):
    """The set bit positions of a bitmask of any length, ascending, found
    by scanning its binary digits."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class _Pool(dict):
    """One shared object per distinct value looked up: a value missing
    from the pool becomes its own entry."""

    def __missing__(self, value):
        self[value] = value
        return value


def _edge_images(new: tuple, index: dict, sigma: bytes) -> list:
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
    as every representation in props is.  Then deleting a vertex of the
    first least-degree cell of a member G on n vertices leaves a member
    on n-1, so G is isomorphic to a class that _grow reaches from p's
    members on n-1 (rules (a) to (c) of _grow hold unchanged).  _grow
    sorts by canonical key, so each layer is the full layer filtered to
    members, in the same order.

    p is asked only about the classes _grow reaches from a member
    parent, when the stream reaches them: a subset of the classes the
    full stream has, in the same order.  A class it does not reach is
    outside p, since deleting a vertex of its first least-degree cell
    leaves a non-member.  Rule (c) leaves out some non-members that a
    member parent reaches through another least-degree vertex, so p may
    be asked about fewer classes, while the member stream and the order
    of the verdicts asked are unchanged.  Each verdict is kept
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
