"""Supergraph constructions that force decompositions into alignment.

All constructions take a strict member G of a finite-forbidden property
P together with a reference partition d0 of V(G), and produce copy-
tracked supergraphs assembled from disjoint copies of G plus carefully
chosen crossing edges:

* forcing_pair: two copies with an edge bundle from one to the other;
  any maximal decomposition that respects d0 on the target copy is
  forced to respect it on the source copy as well.
* decomposition_blocker: given a second maximal decomposition dt of G
  that does not respect d0, a member of P made of disjoint copies of G
  in which no decomposition restricts to dt on every copy.
* aligning_super: iterates the blocker over every non-respecting
  maximal decomposition and finishes with two extra copies wired by
  forcing bundles; every maximal decomposition of the result respects
  d0 uniformly across the copies.
* unique_super / unique_respect_super: the uniqueness corollaries.

Everything here needs P to be a finite forbidden set, and any other
property raises HgError: the forcing bundles and the blocker's crossing
edges are read off forbidden graphs (strictness witnesses and the split
witnesses of failing joins), and every step decides decompositions
exactly.  A product has no forbidden graphs of its own, and its
decomposition checks are bounded verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CapExceededError,
    EdgeObject,
    FormatError,
    HgError,
    Hypergraph,
    disjoint_union,
    format_hypergraph,
    parse_hypergraph_block,
    replicate,
    _numbered_lines,
)
from .props import FiniteForbidden, Property
from .decomp import (
    Decomposition,
    DecWitness,
    _as_decomposition,
    _split_fail_witness,
    all_decompositions,
    dec_number,
    is_decomposition,
    respects,
    strictness_witness,
)

__all__ = [
    "CopyTracked",
    "ArrowPattern",
    "forcing_pair",
    "decomposition_blocker",
    "aligning_super",
    "unique_super",
    "unique_respect_super",
    "format_copy_tracked",
    "parse_copy_tracked",
    "DEFAULT_SIZE_CAP",
]

DEFAULT_SIZE_CAP = 10**4


@dataclass(frozen=True)
class CopyTracked:
    """A hypergraph assembled from tracked copies of a base graph.

    copy_maps[c][v] is the vertex of `graph` carrying vertex v of the
    base in copy c.  The images partition V(graph) and each copy induces
    exactly the base graph; base_classes is the reference partition of
    the base's vertices whose class tags travel with every copy.
    """

    base: Hypergraph
    base_classes: Decomposition
    graph: Hypergraph
    copy_maps: tuple

    def __post_init__(self):
        maps = tuple(tuple(int(v) for v in m) for m in self.copy_maps)
        object.__setattr__(self, "copy_maps", maps)
        if self.base_classes.ground != frozenset(self.base.vertices):
            raise ValueError("class partition does not cover the base graph")
        seen = set()
        for m in maps:
            if len(m) != self.base.n:
                raise ValueError("copy map arity differs from the base order")
            image = set(m)
            if len(image) != len(m) or image & seen:
                raise ValueError("copy images must be disjoint and injective")
            seen |= image
            for e in self.base.edges:
                if EdgeObject(e.kind, tuple(m[v] for v in e.vertices), e.colour) \
                        not in self.graph.edges:
                    raise ValueError("copy does not carry a base edge")
            inv = {w: v for v, w in enumerate(m)}
            for e in self.graph.edges:
                if e.support <= image:
                    back = EdgeObject(e.kind, tuple(inv[w] for w in e.vertices), e.colour)
                    if back not in self.base.edges:
                        raise ValueError("copy carries a non-base edge")
        if seen != set(self.graph.vertices):
            raise ValueError("copies do not partition the vertex set")

    def copies(self) -> tuple:
        return tuple(frozenset(m) for m in self.copy_maps)

    def class_extension(self) -> Decomposition:
        """base_classes repeated over every copy, as a partition of the
        full vertex set."""
        parts = []
        for cls in self.base_classes.parts:
            parts.append(frozenset(m[v] for m in self.copy_maps for v in cls))
        return Decomposition(tuple(parts))


@dataclass(frozen=True)
class ArrowPattern:
    """One edge of a strictness witness at its removed vertex: slots are
    base-graph vertices, None marking the removed vertex's position."""

    kind: object
    colour: str
    slots: tuple


def _witness_patterns(g: Hypergraph, p: FiniteForbidden):
    """Arrow patterns from the first strictness witness of G."""
    sw = strictness_witness(g, p)
    if sw is None:
        raise HgError("graph is not strict: no one-vertex extension leaves the property")
    rest = sw.rest_to_graph()
    pats = []
    for e in sw.forbidden.edges:
        if sw.removed_vertex not in e.vertices:
            continue
        slots = tuple(None if w == sw.removed_vertex else rest[w] for w in e.vertices)
        pats.append(ArrowPattern(e.kind, e.colour, slots))
    pats.sort(key=lambda a: (a.kind.value, a.colour,
                             tuple(-1 if s is None else s for s in a.slots)))
    return pats, sw


def _arrow_edges(patterns: Sequence, class_parts: Sequence, src_map, dst_map) -> set:
    """Edge bundle of an arrow src => dst between two copies.

    For every class and every destination vertex of that class, place
    each witness pattern that reaches outside the class, with the
    removed-vertex slot on the destination vertex and the remaining
    slots at their witness positions in the source copy.
    """
    out = set()
    for cls in class_parts:
        pats = [a for a in patterns
                if any(s is not None and s not in cls for s in a.slots)]
        if not pats:
            continue
        for w in sorted(cls):
            for a in pats:
                verts = tuple(dst_map[w] if s is None else src_map[s] for s in a.slots)
                out.add(EdgeObject(a.kind, verts, a.colour))
    return out


def _validated(g: Hypergraph, d0, p: Property) -> Decomposition:
    if not isinstance(p, FiniteForbidden):
        raise HgError("constructions need a finite forbidden set")
    d0 = _as_decomposition(d0)
    if d0.ground != frozenset(g.vertices):
        raise HgError("reference partition does not cover the graph")
    if not p.member(g):
        raise HgError("graph is not in the property")
    if not is_decomposition(g, d0, p):
        raise HgError("reference partition is not a valid decomposition")
    return d0


def _assert_member(p: Property, h: Hypergraph):
    if not p.member(h):
        raise HgError("internal error: construction output left the property")


def forcing_pair(g: Hypergraph, d0, p: Property) -> CopyTracked:
    """Two copies of G with the forcing bundle copy0 => copy1."""
    d0 = _validated(g, d0, p)
    patterns, _ = _witness_patterns(g, p)
    doubled = replicate(2, g)
    maps = (tuple(range(g.n)), tuple(range(g.n, 2 * g.n)))
    arrows = _arrow_edges(patterns, d0.parts, src_map=maps[0], dst_map=maps[1])
    result = Hypergraph(g.universe, doubled.n, doubled.edges | arrows)
    _assert_member(p, result)
    return CopyTracked(g, d0, result, maps)


def _blocker_analysis(g: Hypergraph, d0: Decomposition, dt: Decomposition,
                      p: FiniteForbidden):
    """Copy count and cross-edge layout blocking dt.

    Refines V(G) by both partitions (classes of d0 crossed with parts of
    dt, row-major, empty cells kept).  dt has the maximum part count and
    the refinement has strictly more nonempty cells, so the cell family
    admits a failing join; its witness places the slice components of a
    forbidden graph into the cells.  Routing each component to its own
    copy of G needs only max-components-per-cell copies, and the
    witness's crossing edges give, in copy-of-G coordinates, the edges
    that must reappear between differently-classed copies.

    Returns (copies_needed, cross_specs) where each spec is
    (kind, colour, ((position, base_vertex), ...)) and position indexes
    the class-major run of copies: class a holds positions
    [a * copies_needed, (a+1) * copies_needed).
    """
    class_of = {}
    for a, cls in enumerate(d0.parts):
        for v in cls:
            class_of[v] = a
    cells = []
    for cls in d0.parts:
        for part in dt.parts:
            cells.append(sorted(cls & part))
    witness = _split_fail_witness(p, g, [sum(1 << v for v in c) for c in cells])
    if witness is None:
        raise HgError("internal error: refined cells admit every join, "
                      "contradicting the maximal decomposition")
    per_cell_seen = {}
    place = {}  # forbidden-graph vertex -> (copy index, base vertex)
    for ce in witness.components:
        q = per_cell_seen.get(ce.part_index, 0)
        per_cell_seen[ce.part_index] = q + 1
        cell = cells[ce.part_index]
        for fv, local in zip(ce.component, ce.embedding.mapping):
            place[fv] = (q, cell[local])
    copies_needed = max(per_cell_seen.values())
    specs = []
    for e in sorted(witness.forbidden.edges, key=EdgeObject.sort_key):
        coords = tuple(place[v] for v in e.vertices)
        classes = {class_of[base_v] for _, base_v in coords}
        if len(classes) < 2:
            continue
        endpoints = tuple(
            (class_of[base_v] * copies_needed + q, base_v) for q, base_v in coords)
        specs.append((e.kind, e.colour, endpoints))
    return copies_needed, specs, witness


def _stage(prev: CopyTracked, count: int, specs, p: Property) -> CopyTracked:
    """count position-consecutive copies of prev with the blocker's cross
    edges, each spec placed over every choice of one base copy of prev
    per position it touches."""
    n = prev.graph.n
    body = replicate(count, prev.graph)
    edges = set(body.edges)
    for kind, colour, endpoints in specs:
        positions = sorted({pos for pos, _ in endpoints})
        for choice in itertools.product(prev.copy_maps, repeat=len(positions)):
            chosen = dict(zip(positions, choice))
            verts = tuple(pos * n + chosen[pos][v] for pos, v in endpoints)
            edges.add(EdgeObject(kind, verts, colour))
    graph = Hypergraph(prev.graph.universe, body.n, frozenset(edges))
    _assert_member(p, graph)
    maps = tuple(tuple(pos * n + w for w in mp)
                 for pos in range(count) for mp in prev.copy_maps)
    return CopyTracked(prev.base, prev.base_classes, graph, maps)


def decomposition_blocker(g: Hypergraph, d0, dt, p: Property,
                          witness_out: Optional[list] = None) -> CopyTracked:
    """Copies of G that remain in P but admit no decomposition whose
    restriction to every copy equals dt.

    dt must be a maximal decomposition of G that does not respect d0.
    """
    d0 = _validated(g, d0, p)
    dt = _as_decomposition(dt)
    if dt.ground != frozenset(g.vertices):
        raise HgError("second partition does not cover the graph")
    if respects(dt, d0):
        raise HgError("second decomposition respects the reference partition")
    if not is_decomposition(g, dt, p):
        raise HgError("second partition is not a valid decomposition")
    if dec_number(g, p).value != len(dt):
        raise HgError("second decomposition must have the maximum part count")
    copies_per_class, specs, witness = _blocker_analysis(g, d0, dt, p)
    if witness_out is not None:
        witness_out.append(witness)
    single = CopyTracked(g, d0, g, (tuple(range(g.n)),))
    return _stage(single, len(d0) * copies_per_class, specs, p)


def _projected_size(g: Hypergraph, stage_copy_counts) -> int:
    total = g.n
    for c in stage_copy_counts:
        total *= c
    return total + 2 * g.n


def aligning_super(g: Hypergraph, d0, p: Property,
                   size_cap: int = DEFAULT_SIZE_CAP) -> CopyTracked:
    """Supergraph whose maximal decompositions all respect d0 uniformly.

    Stage by stage: for each maximal decomposition of G that fails to
    respect d0, wrap the previous stage in the blocker layout for it,
    replicating the blocker's cross edges over every choice of one base
    copy per position.  Finally append two more copies of G and wire
    forcing bundles between them and every base copy.  When every
    maximal decomposition already respects d0 the graph is returned
    unchanged (single tracked copy).

    The projected vertex count is computed from the blocker analyses
    before any graph is built; exceeding size_cap aborts early.
    """
    d0 = _validated(g, d0, p)
    patterns, _ = _witness_patterns(g, p)
    n_max = dec_number(g, p).value
    offenders = [d for d in all_decompositions(g, p, n_max) if not respects(d, d0)]
    current = CopyTracked(g, d0, g, (tuple(range(g.n)),))
    if not offenders:
        return current
    analyses = [_blocker_analysis(g, d0, dt, p) for dt in offenders]
    m = len(d0)
    stage_counts = [m * copies_needed for copies_needed, _, _ in analyses]
    projected = _projected_size(g, stage_counts)
    if projected > size_cap:
        raise CapExceededError(
            f"projected construction size {projected} exceeds the cap {size_cap}")

    for count, (_, specs, _) in zip(stage_counts, analyses):
        current = _stage(current, count, specs, p)

    body = disjoint_union(current.graph, replicate(2, g))
    minus = tuple(range(current.graph.n, current.graph.n + g.n))
    plus = tuple(range(current.graph.n + g.n, body.n))
    edges = set(body.edges)
    edges |= _arrow_edges(patterns, d0.parts, src_map=minus, dst_map=plus)
    for mp in current.copy_maps:
        edges |= _arrow_edges(patterns, d0.parts, src_map=mp, dst_map=minus)
        edges |= _arrow_edges(patterns, d0.parts, src_map=plus, dst_map=mp)
    graph = Hypergraph(g.universe, body.n, frozenset(edges))
    _assert_member(p, graph)
    return CopyTracked(g, d0, graph, current.copy_maps + (minus, plus))


def unique_super(g: Hypergraph, d0, p: Property,
                 size_cap: int = DEFAULT_SIZE_CAP) -> CopyTracked:
    """aligning_super specialized to a maximal reference partition: the
    output has exactly one maximal decomposition, the class extension."""
    d0 = _as_decomposition(d0)
    if len(d0) != dec_number(g, p).value:
        raise HgError("reference partition must have the maximum part count")
    return aligning_super(g, d0, p, size_cap)


def unique_respect_super(g: Hypergraph, d0, p: Property,
                         size_cap: int = DEFAULT_SIZE_CAP) -> CopyTracked:
    """Uniquely decomposable strict supergraph whose ind-parts respect
    d0 uniformly: aligning_super followed by unique_super on the
    aligned graph's own maximal decomposition."""
    d0 = _as_decomposition(d0)
    first = aligning_super(g, d0, p, size_cap)
    n_max = dec_number(g, p).value
    res = dec_number(first.graph, p)
    if res.value != n_max:
        raise HgError("internal error: aligned supergraph changed the "
                      "maximum part count")
    second = unique_super(first.graph, res.decomposition, p, size_cap)
    composed = tuple(tuple(outer[w] for w in inner)
                     for outer in second.copy_maps for inner in first.copy_maps)
    return CopyTracked(g, d0, second.graph, composed)


# --- text format ----------------------------------------------------------

def format_copy_tracked(ct: CopyTracked) -> str:
    out = [format_hypergraph(ct.graph).rstrip("\n")]
    for m in ct.copy_maps:
        out.append("copy: " + " ".join(str(v) for v in m))
    for cls in ct.base_classes.parts:
        out.append("class: " + " ".join(str(v) for v in sorted(cls)))
    return "\n".join(out) + "\n"


def parse_copy_tracked(text: str) -> CopyTracked:
    lines = _numbered_lines(text)
    graph, i = parse_hypergraph_block(lines, 0)
    maps = []
    while i < len(lines) and lines[i][1].startswith("copy:"):
        lineno, body = lines[i]
        try:
            maps.append(tuple(int(t) for t in body[len("copy:"):].split()))
        except ValueError:
            raise FormatError("copy line must list vertex numbers", lineno) from None
        i += 1
    classes = []
    while i < len(lines) and lines[i][1].startswith("class:"):
        lineno, body = lines[i]
        try:
            classes.append(frozenset(int(t) for t in body[len("class:"):].split()))
        except ValueError:
            raise FormatError("class line must list vertex numbers", lineno) from None
        i += 1
    if i != len(lines):
        raise FormatError(f"unexpected content {lines[i][1]!r}", lines[i][0])
    if not maps:
        raise FormatError("missing copy lines")
    if not classes:
        raise FormatError("missing class lines")
    first = maps[0]
    image = set(first)
    inv = {w: v for v, w in enumerate(first)}
    base_edges = frozenset(
        EdgeObject(e.kind, tuple(inv[w] for w in e.vertices), e.colour)
        for e in graph.edges if e.support <= image)
    base = Hypergraph(graph.universe, len(first), base_edges)
    try:
        return CopyTracked(base, Decomposition(tuple(classes)), graph, tuple(maps))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
