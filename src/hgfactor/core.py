"""Edge-coloured directed hypergraphs and their basic algebra.

Vertices are dense 0-based integers.  Every value in this module is
immutable and hashable, so graphs can be used as dict keys and cached.
Edge objects carry a kind (ordered tuple or unordered set), a colour and
at least two distinct vertices; parallel edges that differ only in tuple
order or colour are distinct objects, exact duplicates cannot exist
because edges live in a frozenset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "HgError",
    "UniverseMismatchError",
    "CapExceededError",
    "FormatError",
    "EdgeKind",
    "Universe",
    "EdgeObject",
    "Hypergraph",
    "Embedding",
    "simple_universe",
    "simple_graph",
    "induced",
    "relabel",
    "disjoint_union",
    "replicate",
    "connected_components",
    "is_connected",
    "embed_induced",
    "is_isomorphic",
    "canonical_key",
    "canonical_form",
    "join_members",
    "crossing_edge_candidates",
    "parse_hypergraph",
    "format_hypergraph",
    "DEFAULT_JOIN_EDGE_CAP",
    "CANONICAL_ORDER_CAP",
]

DEFAULT_JOIN_EDGE_CAP = 10**6

# Cap on the orderings the refined cells admit, the product of their
# sizes' factorials, checked by _cells before any search; not the
# orderings the canonical search keys, which prunes most of them.
# Reachable only for highly symmetric graphs on ~10+ vertices.
CANONICAL_ORDER_CAP = 2_000_000

# The canonical search checks its lower bound only once it has keyed this
# many leaves (see _canon_search).
_BOUND_AFTER_LEAVES = 8


class HgError(Exception):
    """Base class for workbench errors."""


class UniverseMismatchError(HgError):
    """Operands live over different universes."""


class CapExceededError(HgError):
    """A configured size or search cap would be exceeded."""


class FormatError(HgError):
    """Malformed text input."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class EdgeKind(str, Enum):
    ORDERED = "ORDERED"
    UNORDERED = "UNORDERED"

    def __repr__(self) -> str:  # keeps dataclass reprs short
        return self.value


def _hash_once(cls):
    """Class decorator, above @dataclass(frozen=True): the instance keeps
    the hash of its field tuple, which the dataclass's own __hash__
    computes, in its dict under "_hash" on first use.  Memo keys hash the
    same property and graph values many times, and a value's hash walks
    every field, factors and forbidden graphs included, each time.  The
    kept hash equals the computed one, so no set or dict order moves.

    str hashes differ between processes (PYTHONHASHSEED), so pickled and
    copied state leaves the kept hash out, and the copy computes its own."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = field_hash(self)
            return h

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Universe:
    """Shape of the objects under study.

    kinds    : which edge-object kinds may appear
    arities  : allowed edge sizes, every arity is at least 2 (no loops)
    colours  : finite ordered alphabet; order matters for file output
    """

    kinds: frozenset
    arities: frozenset
    colours: tuple

    def __post_init__(self):
        kinds = frozenset(EdgeKind(k) for k in self.kinds)
        arities = frozenset(int(a) for a in self.arities)
        colours = tuple(self.colours)
        if not arities:
            raise ValueError("universe needs at least one arity")
        if any(a < 2 for a in arities):
            raise ValueError("arities must be at least 2")
        if not colours:
            raise ValueError("universe needs at least one colour")
        if len(set(colours)) != len(colours):
            raise ValueError("duplicate colour in universe")
        for c in colours:
            if not c or any(ch in c for ch in " \t,;\n"):
                raise ValueError(f"bad colour name: {c!r}")
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "colours", colours)

    def colour_index(self, colour: str) -> int:
        return self.colours.index(colour)


@dataclass(frozen=True)
class EdgeObject:
    """One edge: ordered tuple or unordered set of distinct vertices."""

    kind: EdgeKind
    vertices: tuple
    colour: str

    def __post_init__(self):
        kind = EdgeKind(self.kind)
        verts = tuple(int(v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("edge arity below 2")
        if len(set(verts)) != len(verts):
            raise ValueError(f"loop edge: {verts}")
        if kind is EdgeKind.UNORDERED:
            verts = tuple(sorted(verts))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vertices", verts)

    @property
    def support(self) -> frozenset:
        return frozenset(self.vertices)

    def sort_key(self) -> tuple:
        return (len(self.vertices), self.vertices, self.kind.value, self.colour)

    def __repr__(self) -> str:
        mark = "O" if self.kind is EdgeKind.ORDERED else "U"
        return f"{mark}({','.join(map(str, self.vertices))};{self.colour})"


@_hash_once
@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph over a universe.

    Invariants checked on construction: every edge fits the universe,
    vertices are in range, arity at least 2.  Isolated vertices are
    allowed and significant; the null graph has n == 0.
    """

    universe: Universe
    n: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset(self.edges)
        if self.n < 0:
            raise ValueError("negative vertex count")
        for e in edges:
            if not isinstance(e, EdgeObject):
                raise TypeError(f"not an edge object: {e!r}")
            if e.kind not in self.universe.kinds:
                raise ValueError(f"kind {e.kind.value} not in universe")
            if len(e.vertices) not in self.universe.arities:
                raise ValueError(f"arity {len(e.vertices)} not in universe")
            if e.colour not in self.universe.colours:
                raise ValueError(f"colour {e.colour!r} not in universe")
            if any(v < 0 or v >= self.n for v in e.vertices):
                raise ValueError(f"vertex out of range in {e!r}")
        object.__setattr__(self, "edges", edges)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=EdgeObject.sort_key)

    def __repr__(self) -> str:
        es = " ".join(repr(e) for e in self.sorted_edges())
        return f"H(n={self.n}{'; ' + es if es else ''})"


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map witnessing F as an induced subhypergraph of G.

    mapping[v] is the image of vertex v of F.
    """

    mapping: tuple

    def image(self) -> frozenset:
        return frozenset(self.mapping)


def simple_universe() -> Universe:
    """Plain undirected graphs: one unordered arity-2 kind, one colour."""
    return Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("e",))


def simple_graph(n: int, pairs: Iterable = ()) -> Hypergraph:
    u = simple_universe()
    edges = frozenset(EdgeObject(EdgeKind.UNORDERED, (a, b), "e") for a, b in pairs)
    return Hypergraph(u, n, edges)


def _check_same_universe(*graphs: Hypergraph) -> Universe:
    u = graphs[0].universe
    for g in graphs[1:]:
        if g.universe != u:
            raise UniverseMismatchError("operands over different universes")
    return u


def _remap_edge(e: EdgeObject, mapping) -> EdgeObject:
    return EdgeObject(e.kind, tuple(mapping[v] for v in e.vertices), e.colour)


def relabel(g: Hypergraph, mapping: Sequence) -> Hypergraph:
    """Apply a total bijection mapping[old] = new to the vertices of g."""
    if sorted(mapping) != list(range(g.n)):
        raise ValueError("relabelling is not a bijection on the vertex range")
    return Hypergraph(g.universe, g.n, frozenset(_remap_edge(e, mapping) for e in g.edges))


def induced(g: Hypergraph, subset: Iterable) -> Hypergraph:
    """Induced subhypergraph on subset, relabelled to 0..k-1 in ascending order."""
    verts = sorted(set(int(v) for v in subset))
    if verts and (verts[0] < 0 or verts[-1] >= g.n):
        raise ValueError("subset not within the vertex range")
    pos = {v: i for i, v in enumerate(verts)}
    keep = frozenset(_remap_edge(e, pos) for e in g.edges if e.support <= set(verts))
    return Hypergraph(g.universe, len(verts), keep)


def disjoint_union(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    _check_same_universe(g, h)
    shifted = frozenset(_remap_edge(e, range(g.n, g.n + h.n)) for e in h.edges)
    return Hypergraph(g.universe, g.n + h.n, g.edges | shifted)


def replicate(k: int, g: Hypergraph) -> Hypergraph:
    """k vertex-disjoint copies of g, copy c occupying [c*n, (c+1)*n)."""
    if k < 1:
        raise ValueError("need at least one copy")
    edges = set()
    for c in range(k):
        off = c * g.n
        for e in g.edges:
            edges.add(EdgeObject(e.kind, tuple(v + off for v in e.vertices), e.colour))
    return Hypergraph(g.universe, k * g.n, frozenset(edges))


@lru_cache(maxsize=65536)
def _incidence(g: Hypergraph) -> tuple:
    """g's host index for _find: the edges at each vertex, in sorted edge
    order, as plain (support bitmask, kind, colour, vertices) tuples, and
    each vertex's neighbour bitmask."""
    at = [[] for _ in range(g.n)]
    nbr = [0] * g.n
    for e in g.sorted_edges():
        support = sum(1 << v for v in e.vertices)
        entry = (support, e.kind, e.colour, e.vertices)
        for v in e.vertices:
            at[v].append(entry)
            nbr[v] |= support & ~(1 << v)
    return tuple(tuple(es) for es in at), tuple(nbr)


def _bits(mask: int) -> list:
    """The set bit positions of a vertex bitmask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def connected_components(g: Hypergraph) -> list:
    """Vertex sets of the components, ordered by smallest vertex.

    A vertex with no edges forms its own component; the null graph has
    no components at all.
    """
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in g.edges:
        vs = list(e.support)
        for w in vs[1:]:
            ra, rb = find(vs[0]), find(w)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted((frozenset(vs) for vs in groups.values()), key=min)


def is_connected(g: Hypergraph) -> bool:
    return len(connected_components(g)) == 1


@lru_cache(maxsize=4096)
def _pattern(f: Hypergraph, anchored: bool = False) -> tuple:
    """Search plan for f, the pattern side of _find, memoised per (f,
    anchored) and shared read-only; spell calls _pattern(f) or
    _pattern(f, True), as the memo keys on the spelling.

    Returns f's edges as a set of (kind, vertices, colour) keys, with
    unordered edges in every vertex order so host edges need no sorting;
    f's vertex degrees; and the placement orders to try.  Unanchored,
    that is the ascending order alone.  Anchored, it is one order per
    automorphism orbit of f, by the generators _canon_search finds (f is
    a FiniteForbidden graph, keyed already, so it stays under the cap):
    the orbit's least vertex first, the others ascending, and the orbits
    ascending by that vertex.  Each order carries, per position, the
    number of "closing" f edges completed there and the earliest placed f
    vertex sharing an edge with the one placed there (None if none).
    """
    keys = set()
    deg = [0] * f.n
    for e in f.edges:
        orders = [e.vertices] if e.kind is EdgeKind.ORDERED \
            else itertools.permutations(e.vertices)
        keys.update((e.kind, vs, e.colour) for vs in orders)
        for v in e.vertices:
            deg[v] += 1
    starts = [None]
    if anchored:
        # an embedding with w on the anchor, composed with an automorphism
        # a, puts a(w) there, so one start per orbit
        gens = _canon_search(f.n, _codes(f.universe, f.edges))[1]
        starts = [w for w in range(f.n) if w == min(_orbit([w], gens))]
    plans = []
    for w in starts:
        order = list(range(f.n))
        if w is not None:
            order.remove(w)
            order.insert(0, w)
        rank = [0] * f.n
        for i, v in enumerate(order):
            rank[v] = i
        closing = [0] * f.n
        link = [None] * f.n
        for e in f.edges:
            ranks = sorted(rank[v] for v in e.vertices)
            closing[ranks[-1]] += 1
            for r in ranks[1:]:
                if link[r] is None or rank[link[r]] > ranks[0]:
                    link[r] = order[ranks[0]]
        plans.append((order, closing, link))
    return keys, deg, plans


def _find(pattern: tuple, host: tuple, allowed: int,
          anchor: Optional[int] = None) -> Optional[tuple]:
    """Induced embedding of a _pattern into the part of a host on `allowed`.

    host is _incidence(g) and `allowed` a vertex bitmask; edges reaching
    outside `allowed` are never looked at, so the search runs on the
    induced subhypergraph without building it.  With anchor None the
    pattern's single ascending order is used and the lexicographically
    first embedding is returned.  With an anchor (the pattern built with
    anchored=True) only embeddings whose image contains it count: each
    start vertex in turn is pinned to it.

    No EdgeObject is read.  Placing v on u maps every host edge at u
    whose support lies inside the placed vertices plus u back into f's
    labels, a bitmask test on its support; the other edges are skipped
    unread.  The move stands when each edge mapped back lands on an f
    edge and their number equals v's closing count.  Mapping back is
    injective, so equal counts also prove that every closing edge has
    its image.  Candidates for v are the bitmask
    nbr[image[link]] & free (free allowed vertices next to the image of
    v's linked f neighbour; bitset domains as in the Glasgow Subgraph
    Solver, ICGT 2020), taken lowest bit first, so in ascending order,
    and skipped below v's degree.
    """
    keys, deg, plans = pattern
    g_at, nbr = host
    n = len(deg)
    pre = [-1] * len(g_at)  # host vertex -> f vertex
    look = pre.__getitem__
    image = [-1] * n

    def extend(i: int, free: int) -> bool:
        if i == n:
            return True
        placed = allowed ^ free
        v = order[i]
        if i == 0 and anchor is not None:
            cands = free & (1 << anchor)
        elif link[i] is not None:
            cands = nbr[image[link[i]]] & free
        else:
            cands = free
        while cands:
            bit = cands & -cands
            cands ^= bit
            u = bit.bit_length() - 1
            if len(g_at[u]) < deg[v]:
                continue
            pre[u] = v
            inside = placed | bit
            hits = 0
            for sup, kind, colour, verts in g_at[u]:
                if sup & inside != sup:
                    continue
                if (kind, tuple(map(look, verts)), colour) not in keys:
                    break
                hits += 1
            else:
                if hits == closing[i]:
                    image[v] = u
                    if extend(i + 1, free ^ bit):
                        return True
            pre[u] = -1
        return False

    for order, closing, link in plans:
        if extend(0, allowed):
            return tuple(image)
    return None


def embed_induced(f: Hypergraph, g: Hypergraph) -> Optional[Embedding]:
    """First induced embedding of f into g in lexicographic order, or None.

    An embedding is induced when the image carries exactly the images of
    f's edges: edges of g inside the image must pull back to edges of f.
    The search (_find) places f's vertices in ascending order and tries
    g's vertices in ascending order.  It skips candidates of smaller
    degree than the f vertex, or not adjacent to the image of an earlier
    f neighbour, and accepts a placement when the g edges it closes all
    pull back to f edges and match f's count of edges closed there.
    Pruning never reorders candidates, so the answer is the first
    embedding in lexicographic order.
    """
    _check_same_universe(f, g)
    if f.n > g.n or len(f.edges) > len(g.edges):
        return None
    image = _find(_pattern(f), _incidence(g), (1 << g.n) - 1)
    return None if image is None else Embedding(image)


def _codes(u: Universe, edges: Iterable) -> tuple:
    """Edges over u, in order, as (ordered?, colour index, vertices, kind value, colour)."""
    index = {c: i for i, c in enumerate(u.colours)}
    return tuple((e.kind is EdgeKind.ORDERED, index[e.colour], e.vertices, e.kind.value,
                  e.colour) for e in edges)


def _tables(n: int, codes: Iterable, span: int, arity: int, tables=None) -> tuple:
    """(heads, at): the profile entries of the edges with these _codes on
    n vertices, coded for _cells, added to tables (two lists of n lists)
    or to new empty ones.  heads[v] gets each incident edge's entry head,
    at[v] the entry later rounds extend with colours: (head * n^pad, the
    vertices whose colours follow it, sort them?).

    span must exceed every colour index of the edges and arity every
    arity, and the tables of one _cells call must share them; any such
    values keep the order of the coded entries (see _cells), so
    canonical_key reads them off its codes and generate._grow off its
    universe, building a parent's tables once for all its candidates."""
    if tables is None:
        tables = [[] for _ in range(n)], [[] for _ in range(n)]
    heads, at = tables
    radix = n + 1  # above every arity and every position + 1
    for ordered, ci, verts, _, _ in codes:
        r = len(verts)
        if ordered:
            pad = n ** (arity - r)
            h = (ci * radix + r) * radix
            for v in verts:
                h += 1
                heads[v].append(h)
                at[v].append((h * pad, verts, False))
        else:
            pad = n ** (arity - r + 1)
            h = ((span + ci) * radix + r) * radix
            for i, v in enumerate(verts):
                heads[v].append(h)
                at[v].append((h * pad, verts[:i] + verts[i + 1:], r > 2))
    return tables


def _cells(n: int, codes: Sequence, probe: int = -1, tables=None) -> Optional[list]:
    """Refined vertex classes of the graph on n vertices with these _codes,
    as ascending vertex lists in colour order.

    A vertex's profile lists, per incident edge, the kind bit, colour
    index, arity, own position (ordered edges only) and the current
    colours of the other members (of all members, in order, for an
    ordered edge), and colours are ranks of (colour, sorted profile) until
    the class count stops growing; every isomorphism, and so every
    automorphism, respects the final classes.  Raises CapExceededError
    when the orderings within the classes exceed CANONICAL_ORDER_CAP.

    The profiles are read from tables, the edges' entries as _tables codes
    them, built from the codes unless given (generate._grow gives each
    candidate its parent's tables plus the new edges' entries).  Each
    profile entry is one int whose order is the order of the entry's
    tuple: its head (kind bit, colour index, arity, position + 1, 0 for
    an unordered edge) as digits of radix n + 1, the kind bit above the
    colour index through kind * span + colour index, then the colours as
    base-n digits, padded to arity digits.  Arity and position + 1 are at
    most n, an edge's vertices being distinct, and colours are below n,
    so each field is below its radix: a smaller head gives a smaller int
    whatever colours follow, and equal heads have equal kind and arity,
    so as many colours, which compare as base-n numbers of one length do.
    That holds for any span above every colour index in use and any
    arity at least every arity in use: a larger span or pad moves every
    entry and compares none differently.  Sorting and comparing the coded
    profiles therefore sorts and compares as the tuples would: ranks,
    colours and cells are unchanged.

    The first round ranks profiles of entry heads alone.  Every colour is
    0 in that round, so an entry's colours are a run of zeros whose
    length its kind bit and arity fix, and the signature's leading colour
    is 0 for every vertex: dropping both changes no comparison between
    signatures, so the ranks, the colours and the cells are those of the
    full round.

    Later rounds refine cell by cell, a colour being its cell's index.
    Ranking every signature (colour, sorted profile) orders signatures
    of different cells by their old colour alone, so the ranked set is,
    cell by cell in colour order, the sorted distinct profiles of that
    cell.  A one-vertex cell has one signature whatever its profile, so
    it is carried over with no profile built, and a larger cell is split
    in place into its distinct profiles in profile order.  The colours,
    the cells and their order are those of ranking every signature, and
    "no cell split" is the test that the class count stopped growing.

    Given a probe vertex, _cells returns None as soon as a round leaves
    the probe outside the first cell of least degree (edges at a vertex,
    of any kind and colour).  A vertex's degree is the length of its
    first-round profile, so degree is constant on first-round cells, and
    later rounds only split cells in place: that cell's first piece is
    the next round's first cell of least degree, so the cell only shrinks
    and a probe that has left it never returns.
    """
    if tables is None:
        tables = _tables(n, codes, max(map(itemgetter(1), codes), default=0) + 1,
                         max(map(len, map(itemgetter(2), codes)), default=2))
    heads, at = tables
    sigs = [tuple(sorted(prof)) for prof in heads]
    rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
    colours = list(map(rank.__getitem__, sigs))
    cell_list = [[] for _ in rank]
    for v, c in enumerate(colours):
        cell_list[c].append(v)
    first = -1  # the first cell of least degree, tracked for a probe only
    if probe >= 0:
        least = min(map(len, sigs))
        first = next(c for c, cell in enumerate(cell_list) if len(sigs[cell[0]]) == least)
        if colours[probe] != first:
            return None
    look = colours.__getitem__

    def profile(v: int) -> tuple:
        prof = []
        for x, ws, srt in at[v]:
            for c in sorted(map(look, ws)) if srt else map(look, ws):
                x = x * n + c
            prof.append(x)
        prof.sort()
        return tuple(prof)

    # a first round that splits nothing ends refinement, and a discrete
    # colouring cannot split further
    while 1 < len(cell_list) < n:
        refined = []
        split_first = first
        for c, cell in enumerate(cell_list):
            if c == first:
                split_first = len(refined)
            if len(cell) == 1:
                refined.append(cell)
                continue
            pieces = {}
            for v in cell:
                pieces.setdefault(profile(v), []).append(v)
            refined += [pieces[p] for p in sorted(pieces)]
        if len(refined) == len(cell_list):
            break
        cell_list, first = refined, split_first
        for c, cell in enumerate(cell_list):
            for v in cell:
                colours[v] = c
        if first >= 0 and colours[probe] != first:
            return None
    total = 1
    for cell in cell_list:
        for i in range(2, len(cell) + 1):
            total *= i
        if total > CANONICAL_ORDER_CAP:
            raise CapExceededError(
                f"canonical labelling would try more than {CANONICAL_ORDER_CAP} orderings")
    return cell_list


def _canon(n: int, codes: Sequence) -> tuple:
    """canonical_key of the graph on n vertices with these _codes."""
    return _canon_search(n, codes)[0]


def _canon_search(n: int, codes: Sequence, probe: int = -1,
                  tables=None) -> Optional[tuple]:
    """(canonical_key, automorphism generators) of the graph on n vertices
    with these _codes; a generator is a tuple whose v-th entry is v's
    image.  tables, if given, are the codes' _tables, handed to _cells.
    Given a probe vertex, None when _cells gives up on it (the probe is
    outside the first cell of least degree), and otherwise the search
    runs on the cells _cells built for the probe, which are the cells it
    builds without one, so it finds the same generators.  Then
    everything returned is said of the key's graph K (_key_graph): the
    generators are relabelled onto K, and a third entry follows, the
    label the probe gets in the least leaf, that is the vertex of K that
    the probe becomes.

    The least leaf's ordering is a bijection L from the vertices onto
    0..n-1 that sends the edge set E onto K's edges, and a generator s
    is relabelled to L s L^-1, which sends label L(v) to L(s(v)).  If s
    keeps E, then L s L^-1 sends K's edges L(E) to L(s(E)) = L(E): it is
    an automorphism of K.  Conjugation by L is a group isomorphism from
    the graph's automorphisms onto K's (its inverse is conjugation by
    L^-1), so relabelled generators of the one group generate the other.

    An ordering hands out labels 0..n-1 to the _cells classes in class
    order, each class's vertices in some order; it maps the edges to
    (arity, vertices, kind value, colour) entries, and the least sorted
    entry list over every such ordering is the key.  An edgeless graph,
    whose group S_n a transposition and an n-cycle generate, and a
    discrete refinement, whose group is trivial, are keyed directly.
    Otherwise a depth-first search places one vertex per label, children
    in ascending vertex order, so it meets leaves in the order of the
    ordering product; a label whose class has one vertex left is placed
    without branching.  The least leaf B is the first leaf of that order
    with the least key.

    A leaf whose entry list equals that of the first or the best leaf,
    the lead, gives an automorphism s = lead^-1 . this (v goes to the
    vertex that carries v's label in the lead): both orderings send the
    edge set onto the same entries; these are the generators.  For any
    automorphism s, the ordering that places s(v) wherever another places
    v has the same key, since s permutes the edges; s keeps every class
    (refinement is isomorphism-invariant), so it maps orderings to
    orderings.  If s fixes the vertices placed at a node, it maps the
    subtree under child v onto the subtree under child s(v) key for key,
    and so does every product of such automorphisms.  Three prunings
    follow:

    - a child in the orbit of an explored sibling, under the
      automorphisms found so far that fix every placed vertex, is
      skipped: its keys are that sibling's, already seen;
    - once a leaf yields s, the search resumes at the node where this
      leaf and the lead part: s fixes that node's placed vertices and
      maps the current child there onto the lead's, an explored sibling,
      so the rest of the current child's subtree holds only keys seen;
    - a node whose lower bound exceeds the best key is skipped.  The
      bound is its key with each unplaced vertex read as the next label
      i: every leaf below gives those vertices labels i or more, which
      makes each entry's vertex tuple (sorted, if unordered) no smaller
      place by place, so each entry and then the sorted list no smaller;
      the bound is at most every key below, which then all exceed the
      best.  It is checked at a branching node once the search has keyed
      _BOUND_AFTER_LEAVES leaves: small searches end sooner than their
      bounds would pay for.

    B is never skipped: a skip by orbit or resumption puts B's key on an
    earlier leaf, the image of B under an automorphism fixing the placed
    vertices and moving the path's child to an earlier sibling, and B's
    lower bounds are at most its key, the least.  The search keeps the
    first leaf of the least key it meets, so it returns B: the key, and
    the probe's label in B, are those of trying every ordering (the cap
    on their number is checked by _cells all the same).

    The generators span the whole group, by an argument along B's path,
    as in McKay and Piperno's search trees (the bound can skip every
    leaf equal to the first leaf L, so the argument along L's path no
    longer holds).  Let b_d be B's vertex at label d, Aut_d the
    automorphisms fixing b_0..b_{d-1}, and G the group the generators
    generate.  Aut_n is trivial, and Aut_d lies in G if Aut_{d+1} does
    and each c = a(b_d), a in Aut_d, is g(b_d) for some g in G fixing
    b_0..b_{d-1}: then g^-1 a lies in Aut_{d+1}.  Child c of B's node at
    depth d holds a(B), a leaf of the least key, so c > b_d unless
    c = b_d, B being the first leaf of that key.  A leaf equal to L but
    not to B, below that node, would give a generator fixing the
    vertices where L and B agree, taking B onto a leaf of B's key before
    B, unless L also runs through b_0..b_d; so every leaf below that
    node that yields a generator parts from its lead at depth d or
    deeper, and the search reaches each c.  Take the c in ascending
    order.  A c skipped by orbit is the image of an earlier tried
    sibling, b_d or an earlier c, under generators fixing b_0..b_{d-1}.
    Below an explored c, no bound skips a node above a(B), and a child
    skipped by orbit is the image of a tried sibling: the first child
    holding a leaf of B's key is never skipped, so the search meets a
    leaf equal to B, or before it one equal to L.  Its lead carries b_d
    at label d, so its generator fixes b_0..b_{d-1} and takes c to b_d.

    Callers rely on each generator being an automorphism, and
    generate._grow on their spanning the group for its orbits; a
    subgroup would cost work there, not answers.
    """
    if not codes:
        gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n > 1 else []
        # every ordering is a least leaf, the identity too
        return ((n, ()), gens) if probe < 0 else ((n, ()), gens, probe)
    cell_list = _cells(n, codes, probe, tables)
    if cell_list is None:
        return None
    mapping = [-1] * n  # vertex -> label, -1 while unplaced
    look = mapping.__getitem__

    def entries(label) -> list:
        """The sorted entry list with each vertex v given label(v)."""
        return sorted((len(verts), tuple(map(label, verts)) if ordered
                       else tuple(sorted(map(label, verts))), kind, colour)
                      for ordered, _, verts, kind, colour in codes)

    def key() -> list:
        return entries(look)

    if len(cell_list) == n:
        for i, (v,) in enumerate(cell_list):
            mapping[v] = i
        canon = (n, tuple(key()))
        return (canon, []) if probe < 0 else (canon, [], mapping[probe])
    cell_at, end_at = [], []  # per label: its class, and the label after the class
    for cell in cell_list:
        cell_at += [cell] * len(cell)
        end_at += [len(end_at) + len(cell)] * len(cell)
    seq = [0] * n  # label -> vertex
    first = best = None  # (entry list, seq) of the first and the least leaf
    gens = []  # automorphisms found, as image tuples
    leaves = 0

    def search(i: int) -> int:
        """Explore the node with seq[:i] placed; return the depth to resume
        at, n when the search goes on as usual."""
        nonlocal first, best, leaves
        if i == n:
            leaves += 1
            k = key()
            if best is None:
                first = best = k, seq[:]
                return n
            if k == first[0]:
                lead = first[1]
            elif k == best[0]:
                lead = best[1]
            else:
                if k < best[0]:
                    best = k, seq[:]
                return n
            gens.append(tuple(lead[mapping[v]] for v in range(n)))
            d = 0
            while seq[d] == lead[d]:
                d += 1
            return d
        single = end_at[i] - i == 1
        # the lower bound: the key with every unplaced vertex labelled i
        if not single and leaves >= _BOUND_AFTER_LEAVES \
                and entries([i if w < 0 else w for w in mapping].__getitem__) > best[0]:
            return n
        tried = []
        stab = []  # the automorphisms among gens that fix seq[:i]
        known = 0
        for v in cell_at[i]:
            if mapping[v] >= 0:
                continue
            if tried:
                if known < len(gens):
                    fixed = seq[:i]
                    stab += [s for s in gens[known:] if all(s[w] == w for w in fixed)]
                    known = len(gens)
                if stab and v in _orbit(tried, stab):
                    continue
            seq[i] = v
            mapping[v] = i
            back = search(i + 1)
            mapping[v] = -1
            if back < i or single:
                return back
            tried.append(v)
        return n

    search(0)
    canon = (n, tuple(best[0]))
    if probe < 0:
        return canon, gens
    order = best[1]
    for label, v in enumerate(order):
        mapping[v] = label
    return canon, [tuple(mapping[s[v]] for v in order) for s in gens], mapping[probe]


def _orbit(points: list, gens: list) -> set:
    """The orbit of the points under the group the vertex maps gens
    generate."""
    seen = set(points)
    todo = list(points)
    while todo:
        v = todo.pop()
        for s in gens:
            w = s[v]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@lru_cache(maxsize=65536)
def _key_edge(entry: tuple) -> EdgeObject:
    """The edge of one canonical key entry (arity, vertices, kind value,
    colour), built through the validating constructor once per distinct
    entry; the memo is keyed on the plain tuple, so a lookup hashes no enum."""
    _, verts, kind, colour = entry
    return EdgeObject(EdgeKind(kind), verts, colour)


def _key_graph(u: Universe, key: tuple) -> Hypergraph:
    """The graph a canonical key spells out, over universe u.

    Each distinct key entry costs one validated EdgeObject per process
    (_key_edge), shared by every class that has that edge; edges are
    frozen, so sharing is safe.  The graph skips Hypergraph's per-edge
    universe checks: every caller passes a key whose entries are edges of
    a graph already checked over u (canonical_key(g) with g.universe, or
    an enumeration candidate over u), relabelled onto 0..n-1.
    """
    n, edge_key = key
    return _unchecked_graph(u, n, frozenset(map(_key_edge, edge_key)))


def _unchecked_graph(u: Universe, n: int, edges: frozenset) -> Hypergraph:
    """The Hypergraph with these fields, built without __post_init__'s
    per-edge checks; for callers whose edges are known to fit u and
    range(n)."""
    g = object.__new__(Hypergraph)
    object.__setattr__(g, "universe", u)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    return g


def _unchecked_edge(kind: EdgeKind, vertices: tuple, colour: str) -> EdgeObject:
    """The EdgeObject with these fields, built without __post_init__; for
    callers whose fields it would leave as they are: kind an EdgeKind,
    vertices a tuple of distinct ints, at least two, and ascending when
    the edge is unordered.

    _densest_member's copied edges qualify: each is an edge of a checked
    graph with every vertex v moved to offset + rank(v) + c * size, rank
    being v's rank in its block.  That map is strictly increasing on the
    block, so it keeps the vertices distinct and an unordered edge's
    vertices ascending, and its kind, arity and colour are the original's."""
    e = object.__new__(EdgeObject)
    object.__setattr__(e, "kind", kind)
    object.__setattr__(e, "vertices", vertices)
    object.__setattr__(e, "colour", colour)
    return e


@lru_cache(maxsize=200_000)
def canonical_key(g: Hypergraph) -> tuple:
    """Hashable isomorphism invariant: equal keys iff isomorphic graphs.

    (n, sorted (arity, vertices, kind value, colour) edge entries) under
    the least ordering within the refined vertex classes, computed by
    _canon from g's edges coded once as plain tuples, with no EdgeObject
    or enum access per ordering; the refinement's tables are built from
    those codes (_tables, the builder generate._grow uses per parent).
    _canon finds that ordering by a depth-first search that skips the
    subtrees automorphisms found on the way map onto explored ones, and
    those whose lower bound exceeds the least key found, so a symmetric
    graph sorts its edges under a small fraction of the orderings (C9:
    34 of 362,880).  Key values are output (enumerate lists each size in
    key order), so profiles, colour numbering, cell order and the key's
    definition are fixed, and the tuples change no value compared.
    Raises CapExceededError when the classes admit more than
    CANONICAL_ORDER_CAP orderings (symmetric graphs on roughly 10+
    vertices), before any is tried, however few the search would key.
    """
    return _canon(g.n, _codes(g.universe, g.edges))


def canonical_form(g: Hypergraph) -> Hypergraph:
    """Canonical representative of g's isomorphism class."""
    return _key_graph(g.universe, canonical_key(g))


def is_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    _check_same_universe(g, h)
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    return canonical_key(g) == canonical_key(h)


def crossing_edge_candidates(parts: Sequence, edge_cap: int = DEFAULT_JOIN_EDGE_CAP) -> list:
    """All universe-admissible edges on the concatenated vertex set whose
    support meets at least two parts, in a fixed deterministic order."""
    if not parts:
        raise ValueError("need at least one part")
    u = _check_same_universe(*parts)
    owner = []
    for i, p in enumerate(parts):
        owner.extend([i] * p.n)
    total = len(owner)
    cands = []
    for r in sorted(u.arities):
        if r > total:
            continue
        for support in itertools.combinations(range(total), r):
            if len({owner[v] for v in support}) < 2:
                continue
            for kind in sorted(u.kinds, key=lambda k: k.value):
                tuples = itertools.permutations(support) if kind is EdgeKind.ORDERED else [support]
                for verts in tuples:
                    for colour in u.colours:
                        cands.append(EdgeObject(kind, verts, colour))
                        if len(cands) > edge_cap:
                            raise CapExceededError(
                                f"more than {edge_cap} crossing edge candidates")
    return cands


def join_members(parts: Sequence, edge_cap: int = DEFAULT_JOIN_EDGE_CAP) -> Iterator[Hypergraph]:
    """Stream every hypergraph that restricts to the given parts.

    Members carry the parts on consecutive vertex blocks plus an
    arbitrary subset of crossing edges (edges meeting at least two
    blocks).  With a single part the stream is exactly that part.  The
    order is binary counting over the candidate list from
    crossing_edge_candidates, bit 0 first, so runs are reproducible.
    """
    cands = crossing_edge_candidates(parts, edge_cap)
    yield from _join_stream(parts, cands, range(1 << len(cands)))


def _join_stream(parts: Sequence, cands: list, masks: Iterable) -> Iterator[Hypergraph]:
    """The join members over the parts that carry the subsets of a
    crossing_edge_candidates list given by masks, in their order; bit i
    of a mask chooses cands[i].

    Members skip Hypergraph's per-edge universe checks: the base is a
    disjoint union of the parts, checked on construction, and every
    candidate has a kind, arity and colour of the parts' universe and
    vertices below the base's vertex count, by construction."""
    base = reduce(disjoint_union, parts)
    for mask in masks:
        chosen = {cands[i] for i in range(len(cands)) if mask >> i & 1}
        yield _unchecked_graph(base.universe, base.n, base.edges | chosen)


# --- text format ----------------------------------------------------------

@lru_cache(maxsize=256)
def _format_universe(u: Universe) -> str:
    """u's spec as on a universe line, built once per universe."""
    kinds = ",".join(sorted(k.value for k in u.kinds))
    arities = ",".join(str(a) for a in sorted(u.arities))
    colours = ",".join(u.colours)
    return f"kinds={kinds} arities={arities} colours={colours}"


def _parse_universe_spec(spec: str, line: Optional[int]) -> Universe:
    fields = {}
    for token in spec.split():
        if "=" not in token:
            raise FormatError(f"bad universe token {token!r}", line)
        key, _, value = token.partition("=")
        if key in fields:
            raise FormatError(f"duplicate universe key {key!r}", line)
        fields[key] = value
    if set(fields) != {"kinds", "arities", "colours"}:
        raise FormatError("universe needs exactly kinds=, arities= and colours=", line)
    try:
        kinds = frozenset(EdgeKind(k) for k in fields["kinds"].split(",") if k)
        arities = frozenset(int(a) for a in fields["arities"].split(",") if a)
        colours = tuple(c for c in fields["colours"].split(",") if c)
        return Universe(kinds, arities, colours)
    except (ValueError, KeyError) as exc:
        raise FormatError(f"bad universe: {exc}", line) from None


def parse_hypergraph_block(lines, start: int):
    """Parse one hypergraph block from (lineno, text) pairs.

    Returns (graph, next_index).  The block is the header line, a
    universe line, a vertices line and any number of edge lines; it ends
    at the end of input or at the first line that opens no edge.
    """
    i = start
    if i >= len(lines) or lines[i][1] != "hypergraph v1":
        lineno = lines[i][0] if i < len(lines) else None
        raise FormatError("expected 'hypergraph v1' header", lineno)
    i += 1
    if i >= len(lines) or not lines[i][1].startswith("universe:"):
        raise FormatError("expected universe line", lines[i - 1][0] + 1)
    u = _parse_universe_spec(lines[i][1][len("universe:"):].strip(), lines[i][0])
    i += 1
    if i >= len(lines) or not lines[i][1].startswith("vertices:"):
        raise FormatError("expected vertices line", lines[i - 1][0] + 1)
    try:
        n = int(lines[i][1][len("vertices:"):].strip())
    except ValueError:
        raise FormatError("vertex count is not an integer", lines[i][0]) from None
    if n < 0:
        raise FormatError("negative vertex count", lines[i][0])
    i += 1
    edges = set()
    while i < len(lines) and lines[i][1].startswith("edge:"):
        lineno, text = lines[i]
        tokens = text[len("edge:"):].split()
        if len(tokens) < 4 or tokens[-2] != ";":
            raise FormatError("edge line needs 'edge: KIND v v ... ; colour'", lineno)
        try:
            kind = EdgeKind(tokens[0])
        except ValueError:
            raise FormatError(f"unknown edge kind {tokens[0]!r}", lineno) from None
        try:
            verts = tuple(int(t) for t in tokens[1:-2])
        except ValueError:
            raise FormatError("edge vertices must be integers", lineno) from None
        colour = tokens[-1]
        try:
            e = EdgeObject(kind, verts, colour)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if any(v < 0 or v >= n for v in verts):
            raise FormatError(f"vertex out of range in {e!r}", lineno)
        if e in edges:
            raise FormatError(f"duplicate edge {e!r}", lineno)
        edges.add(e)
        i += 1
    try:
        g = Hypergraph(u, n, frozenset(edges))
    except ValueError as exc:
        raise FormatError(str(exc), lines[start][0]) from None
    return g, i


def _numbered_lines(text: str) -> list:
    out = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped:
            out.append((idx, stripped))
    return out


def parse_hypergraph(text: str) -> Hypergraph:
    """Strict parser for the hypergraph v1 text format."""
    lines = _numbered_lines(text)
    if not lines:
        raise FormatError("empty input")
    g, i = parse_hypergraph_block(lines, 0)
    if i != len(lines):
        raise FormatError(f"unexpected content {lines[i][1]!r}", lines[i][0])
    return g


def _edge_line(entry: tuple) -> str:
    """The edge line of one key entry (arity, vertices, kind value, colour)."""
    _, verts, kind, colour = entry
    return f"edge: {kind} {' '.join(map(str, verts))} ; {colour}"


class _EdgeLines(dict):
    """Edge lines by key entry, each formatted (_edge_line) the first time
    it is looked up and kept with the table: hgfactor enumerate keeps one
    table for one command, so a distinct entry is formatted once however
    many classes have it."""

    def __missing__(self, entry: tuple) -> str:
        line = self[entry] = _edge_line(entry)
        return line


def _format_key(u: Universe, key: tuple, line=_edge_line) -> str:
    """The text block of the graph over u that key spells out: key[0]
    vertices and an edge line per (arity, vertices, kind value, colour)
    entry of key[1], in the order given, each line line(entry), so
    _edge_line's or an _EdgeLines table's.

    Entries are EdgeObject.sort_key values, so a canonical key, whose
    entries are sorted, gives its graph's block with no graph built."""
    n, entries = key
    out = ["hypergraph v1",
           f"universe: {_format_universe(u)}",
           f"vertices: {n}"]
    out += map(line, entries)
    return "\n".join(out) + "\n"


def format_hypergraph(g: Hypergraph) -> str:
    """Byte-stable serialization; parse(format(g)) == g.

    Edge lines come in EdgeObject.sort_key order: g's sort_keys, sorted,
    formatted as a key is (_format_key).  sort_key is unique per edge,
    so the sort never compares two entries equal.
    """
    return _format_key(g.universe, (g.n, sorted(e.sort_key() for e in g.edges)))
