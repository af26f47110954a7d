"""Hereditary property representations and membership decisions.

Three representations, each closed under induced subhypergraphs and
isomorphism:

* FiniteForbidden: everything avoiding a finite antichain of forbidden
  induced subhypergraphs.  Membership is exactly decidable.
* ProductProperty: graphs whose vertex set splits into ordered blocks,
  block i inducing a member of factor i; crossing edges are free.
* GeneratedBounded: graphs embedding induced into one of finitely many
  generators; queries allowed only up to a declared vertex bound.

The null graph belongs to every property.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    EdgeKind,
    Embedding,
    FormatError,
    HgError,
    Hypergraph,
    Universe,
    UniverseMismatchError,
    canonical_form,
    canonical_key,
    crossing_edge_candidates,
    embed_induced,
    induced,
    is_connected,
    parse_hypergraph_block,
    _numbered_lines,
    _format_universe,
    _parse_universe_spec,
    _bits,
    _find,
    _hash_once,
    _incidence,
    _pattern,
    _unchecked_graph,
    format_hypergraph,
)
from .generate import EnumSpec, _decided

__all__ = [
    "BoundExceededError",
    "Property",
    "FiniteForbidden",
    "ProductProperty",
    "GeneratedBounded",
    "ForbiddenWitness",
    "PartitionAssignment",
    "MembershipResult",
    "forbidden_property",
    "member",
    "is_additive",
    "minimize_forbidden",
    "min_forbidden_order",
    "partition_solve",
    "forbidden_up_to",
    "parse_property",
    "format_property",
    "load_property",
    "save_property",
]


class BoundExceededError(HgError):
    """Membership query beyond a GeneratedBounded vertex bound."""


@dataclass(frozen=True)
class ForbiddenWitness:
    """A forbidden graph embedded induced in the queried graph."""

    forbidden: Hypergraph
    embedding: Embedding


@dataclass(frozen=True)
class PartitionAssignment:
    """Ordered vertex blocks, one per factor; blocks may be empty."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(frozenset(p) for p in self.parts)
        seen = set()
        for p in parts:
            if p & seen:
                raise ValueError("overlapping parts")
            seen |= p
        object.__setattr__(self, "parts", parts)

    def assignment_vector(self) -> tuple:
        spot = {}
        for i, p in enumerate(self.parts):
            for v in p:
                spot[v] = i
        return tuple(spot[v] for v in sorted(spot))


@dataclass(frozen=True)
class MembershipResult:
    """Boolean verdict plus the evidence that produced it.

    detail is a ForbiddenWitness on finite-forbidden failure, a
    PartitionAssignment on product success, a generator on bounded
    generated success, and None otherwise.
    """

    holds: bool
    detail: object = None

    def __bool__(self) -> bool:
        return self.holds


class Property:
    """Base class; concrete representations implement member()."""

    universe: Universe

    def member(self, g: Hypergraph) -> MembershipResult:
        raise NotImplementedError

    def _check_universe(self, g: Hypergraph):
        if g.universe != self.universe:
            raise UniverseMismatchError("graph and property universes differ")


def minimize_forbidden(graphs: Iterable) -> tuple:
    """Canonical duplicate-free antichain: drop any graph that contains
    another of the collection induced."""
    by_key = {}
    for g in graphs:
        by_key.setdefault(canonical_key(g), canonical_form(g))
    forms = [by_key[k] for k in sorted(by_key)]
    keep = []
    for g in forms:
        if not any(h is not g and embed_induced(h, g) for h in forms):
            keep.append(g)
    return tuple(sorted(keep, key=lambda g: (g.n, canonical_key(g))))


@_hash_once
@dataclass(frozen=True)
class FiniteForbidden(Property):
    """Graphs avoiding every listed forbidden induced subhypergraph.

    The forbidden list must be an antichain of canonical forms, every
    member on at least 2 vertices (so single vertices are never
    excluded) and over the property's universe.

    Besides the fields, `additive` says whether every forbidden graph is
    connected, and `no_isolated` whether every vertex of each forbidden
    graph on 3 or more vertices lies on an edge (additive sets have it).
    partition_solve decides the forbidden graphs on 2 vertices by
    `pair_edge_sets`, and runs _find and its neighbour guard, which reads
    `no_isolated`, for the others only.
    """

    universe: Universe
    forbidden: tuple

    def __post_init__(self):
        forb = tuple(self.forbidden)
        if not forb:
            raise ValueError("need at least one forbidden graph")
        keys = set()
        for f in forb:
            if f.universe != self.universe:
                raise ValueError("forbidden graph over a different universe")
            if f.n < 2:
                raise ValueError("forbidden graphs need at least 2 vertices")
            k = canonical_key(f)
            if k in keys:
                raise ValueError("duplicate forbidden graph")
            keys.add(k)
        for a, b in itertools.permutations(forb, 2):
            if embed_induced(a, b):
                raise ValueError("forbidden set is not an antichain")
        ordered = tuple(sorted((canonical_form(f) for f in forb),
                               key=lambda g: (g.n, canonical_key(g))))
        object.__setattr__(self, "forbidden", ordered)
        # not fields, see the class docstring
        object.__setattr__(self, "additive", all(is_connected(f) for f in ordered))
        object.__setattr__(self, "no_isolated", all(
            len({v for e in f.edges for v in e.vertices}) == f.n for f in ordered if f.n > 2))

    def member(self, g: Hypergraph) -> MembershipResult:
        self._check_universe(g)
        for f in self.forbidden:
            emb = embed_induced(f, g)
            if emb is not None:
                return MembershipResult(False, ForbiddenWitness(f, emb))
        return MembershipResult(True)

    @cached_property
    def pair_edge_sets(self) -> frozenset:
        """The edge sets of the forbidden graphs on 2 vertices, each seen
        from both vertex orders: frozensets of _pair_code tuples (ordered?,
        runs from the first vertex?, colour).  2K1's is the empty set.
        Empty when every forbidden graph has 3 or more vertices.  Worked
        out once, on first use, for partition_solve."""
        return frozenset(frozenset(_pair_code(e, first) for e in f.edges)
                         for f in self.forbidden if f.n == 2 for first in (0, 1))

    @cached_property
    def edge_closed(self) -> bool:
        """Is the property closed under deleting an edge?  Worked out once,
        on first use: factor_search builds many candidate sets.

        It is iff no forbidden graph F plus one admissible edge on V(F)
        (any kind, arity, colour and orientation of the universe, not in
        F) is a member.  If F + e is a member, deleting e leaves F.
        Conversely, suppose G is a member and G - e holds a forbidden F
        induced on the vertex set W.  Then e lies inside W, or else G[W]
        would be F too; so G[W] = F + e, which is no member, and neither is
        G.  The admissible edges on V(F) are the crossing edges of f.n
        one-vertex blocks, as every edge has at least two vertices."""
        one = Hypergraph(self.universe, 1, frozenset())
        return not any(
            self.member(_unchecked_graph(self.universe, f.n, f.edges | {e}))
            for f in self.forbidden
            for e in crossing_edge_candidates([one] * f.n) if e not in f.edges)


def _pair_code(e, first: int) -> tuple:
    """An edge on two vertices seen from the vertex order that starts at
    `first`: (ordered?, runs from first?, colour); an unordered edge runs
    both ways."""
    ordered = e.kind is EdgeKind.ORDERED
    return ordered, not ordered or e.vertices[0] == first, e.colour


def _pair_index(g: Hypergraph) -> dict:
    """g's vertex pairs by edge: each _pair_code met, read from the lower
    vertex of its edge, -> per vertex v the bitmask of the w such that
    {v,w} carries an edge with that code.  One pass over g's arity-2
    edges, each coded inline.  A pair's type, the edge set of g[{v,w}]
    read that way (frozenset() for 2K1), is the set of codes whose masks
    hold it, since g[{v,w}]'s edges are exactly the arity-2 edges on
    {v,w}: every edge has at least 2 distinct vertices.  Built per call by
    partition_solve, and memoised per host by decomp's densest-member
    verdict."""
    index = {}
    for e in g.edges:
        if len(e.vertices) == 2:
            a, b = e.vertices
            ordered = e.kind is EdgeKind.ORDERED
            code = ordered, not ordered or a < b, e.colour
            rows = index.get(code)
            if rows is None:
                rows = index[code] = [0] * g.n
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return index


def _partners(index: dict, sets: frozenset, n: int) -> list:
    """Per vertex v of an n-vertex graph with pair index `index`
    (_pair_index), the bitmask of the w whose pair with v has a type in
    sets: its masks hold {v,w} for every code of the type and for no
    other code.  The list may be one of the index's own: read it only."""
    out = None
    for t in sets:
        if not t <= index.keys():
            continue  # some code of t is on no pair
        has = [index[c] for c in t] or [[(1 << n) - 1 ^ 1 << v for v in range(n)]]
        got = has[0]
        for rows in has[1:]:
            got = [a & b for a, b in zip(got, rows)]
        for c, rows in index.items():
            if c not in t:
                got = [a & ~b for a, b in zip(got, rows)]
        out = got if out is None else [a | b for a, b in zip(out, got)]
    return [0] * n if out is None else out


@lru_cache(maxsize=256)
def _full_pair_type(u: Universe) -> frozenset:
    """The type (see _pair_index) of a pair joined by every arity-2 edge
    that u admits, both orientations of each ordered one: that of two
    vertices of different blocks in a densest join member, whose crossing
    edges are every admissible edge meeting two blocks.  frozenset() when
    u has no arity 2."""
    one = Hypergraph(u, 1, frozenset())
    return frozenset(_pair_code(e, 0) for e in crossing_edge_candidates([one, one]))


def forbidden_property(universe: Universe, graphs: Iterable) -> FiniteForbidden:
    """FiniteForbidden from any finite family; minimizes it first."""
    return FiniteForbidden(universe, minimize_forbidden(graphs))


@_hash_once
@dataclass(frozen=True)
class ProductProperty(Property):
    """Ordered composition of at least two factor properties."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) < 2:
            raise ValueError("product needs at least 2 factors")
        u = factors[0].universe
        for f in factors:
            if f.universe != u:
                raise ValueError("factors over different universes")
        object.__setattr__(self, "factors", factors)

    @property
    def universe(self) -> Universe:
        return self.factors[0].universe

    @cached_property
    def edge_closed(self) -> bool:
        """Is every factor, nested products flattened, a finite forbidden
        set closed under deleting an edge (FiniteForbidden.edge_closed)?
        Then so is the product: deleting an edge of a member changes at
        most the one block that holds the edge, and that block stays in
        its factor; crossing edges are free.  False does not prove the
        product open."""
        return all(isinstance(f, (FiniteForbidden, ProductProperty)) and f.edge_closed
                   for f in self.factors)

    def member(self, g: Hypergraph) -> MembershipResult:
        self._check_universe(g)
        pa = partition_solve(g, self.factors)
        if pa is None:
            return MembershipResult(False)
        return MembershipResult(True, pa)


@_hash_once
@dataclass(frozen=True)
class GeneratedBounded(Property):
    """Everything embedding induced into some generator, queryable only
    for graphs with at most `bound` vertices."""

    universe: Universe
    generators: tuple
    bound: int

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("need at least one generator")
        if self.bound < 1:
            raise ValueError("bound must be positive")
        for g in gens:
            if g.universe != self.universe:
                raise ValueError("generator over a different universe")
        by_key = {canonical_key(g): canonical_form(g) for g in gens}
        ordered = tuple(sorted(by_key.values(), key=lambda g: (g.n, canonical_key(g))))
        object.__setattr__(self, "generators", ordered)

    def member(self, g: Hypergraph) -> MembershipResult:
        self._check_universe(g)
        if g.n > self.bound:
            raise BoundExceededError(
                f"query on {g.n} vertices exceeds the declared bound {self.bound}")
        if g.n == 0:
            return MembershipResult(True)
        for gen in self.generators:
            if embed_induced(g, gen) is not None:
                return MembershipResult(True, gen)
        return MembershipResult(False)


def member(p: Property, g: Hypergraph) -> MembershipResult:
    return p.member(g)


def min_forbidden_order(p: FiniteForbidden) -> int:
    """Smallest vertex count among the minimal forbidden graphs."""
    if not isinstance(p, FiniteForbidden):
        raise HgError("minimum forbidden order needs a finite forbidden set")
    return min(f.n for f in p.forbidden)


def is_additive(p: Property, search_bound: Optional[int] = None) -> bool:
    """Is the property closed under disjoint unions?

    Exact for FiniteForbidden: closure holds iff every minimal forbidden
    graph is connected (a disconnected minimal one splits into members
    whose union leaves the property; a connected graph inside a disjoint
    union lies inside one summand).  Other representations get a bounded
    verdict from forbidden_up_to and need an explicit search_bound.
    """
    if isinstance(p, FiniteForbidden):
        return p.additive
    if search_bound is None:
        raise HgError("additivity for this representation needs a search bound")
    return all(is_connected(f) for f in forbidden_up_to(p, search_bound))


def _twins(factors: Sequence) -> tuple:
    """Per factor, the index of the nearest earlier factor equal (==) to
    it, or None: the twins _assign takes."""
    return tuple(next((t for t in range(i - 1, -1, -1) if factors[t] == fac), None)
                 for i, fac in enumerate(factors))


def _assign(twins: Sequence, n: int, fits, complete=None) -> Optional[list]:
    """Lexicographically least assignment of items 0..n-1 to one block
    per factor, as block bitmasks over the items, or None.  twins is
    _twins(factors): one entry per factor, the nearest earlier factor
    equal to it, or None.

    Complete backtracking: items are placed in ascending order, each
    trying the blocks in ascending order.  fits(i, block, j) is asked as
    soon as item j joins block i, block being the bitmask with j in it; a
    False cuts every completion, which is sound when fits is hereditary
    (a block that fails never recovers by growing).  complete(blocks),
    when given, is asked about every full assignment that fits.

    Equal factors are interchangeable: an item may open an empty block i
    only if block twins[i] is nonempty already.  This needs fits(i, block,
    j) to depend on factors[i] only through its value, and complete to
    keep its answer when the blocks of two equal factors are swapped.
    Take an accepted assignment that opens block i while an equal earlier
    block t is empty: swapping blocks i and t gives an accepted assignment
    that is smaller at the first item placed in either block, so the least
    one is never in a skipped subtree.  A skipped subtree is the swap image
    of the subtree that places the same item in block t, block sizes
    included, so every fits question asked in it is asked in that image
    too, about an equal factor and the same block, with the same answer;
    by induction along the equal factors and down the items, the search
    meets that image unless it has returned already.  So the result is
    that of the search without the rule, and a search that returns None
    has asked, up to equal factors, every question that one asks.
    """
    m = len(twins)
    blocks = [0] * m

    def place(j: int) -> bool:
        if j == n:
            return complete is None or complete(blocks)
        for i in range(m):
            if not blocks[i] and twins[i] is not None and not blocks[twins[i]]:
                continue
            blocks[i] |= 1 << j
            if fits(i, blocks[i], j) and place(j + 1):
                return True
            blocks[i] ^= 1 << j
        return False

    return blocks if place(0) else None


class _SolvePlan(NamedTuple):
    """What partition_solve needs of a factor tuple, whatever the graph."""

    deferred: tuple  # factors checked on complete blocks only: products
    pair_sets: tuple  # per factor, its pair_edge_sets, or frozenset()
    distinct_pair_sets: tuple  # the nonempty pair_sets, each once
    patterns: tuple  # per factor, _pattern(f, True) of its forbidden f on 3+ vertices
    twins: tuple  # _twins(factors)


@lru_cache(maxsize=1024)
def _solve_plan(factors: tuple) -> _SolvePlan:
    """partition_solve's plan for a factor tuple, built once per distinct
    tuple (== of the factors, which compares their values).  Every entry
    depends on the factors' values only, so equal tuples built apart
    share one plan."""
    pair_sets = tuple(fac.pair_edge_sets if isinstance(fac, FiniteForbidden) else frozenset()
                      for fac in factors)
    return _SolvePlan(
        deferred=tuple(i for i, fac in enumerate(factors)
                       if not isinstance(fac, (FiniteForbidden, GeneratedBounded))),
        pair_sets=pair_sets,
        distinct_pair_sets=tuple(dict.fromkeys(sets for sets in pair_sets if sets)),
        patterns=tuple(tuple(_pattern(f, True) for f in fac.forbidden if f.n > 2)
                       if isinstance(fac, FiniteForbidden) else () for fac in factors),
        twins=_twins(factors))


def partition_solve(g: Hypergraph, factors: Sequence) -> Optional[PartitionAssignment]:
    """First vertex partition (empty blocks allowed) whose i-th block
    induces a member of factors[i]; None when none exists.

    What does not depend on g comes from the factor tuple's plan
    (_solve_plan), built once per distinct tuple: which factors wait for
    complete blocks, each factor's pair_edge_sets, the anchored _pattern
    of each forbidden graph on 3 or more vertices, and _assign's twins.
    Everything that reads g is built per call.

    The vertices are _assign's items, so the returned assignment vector
    is the lexicographically least solution.  Equal factors are
    interchangeable by _assign's proof, and equal generated factors have
    equal bounds, so solutions and BoundExceededError come out exactly as
    without that rule.  Finite-forbidden and generated factors prune
    partial blocks (membership is hereditary, so a partial block that
    already fails can never recover); product factors are only checked on
    complete blocks.

    A finite-forbidden block, a vertex bitmask, is checked incrementally:
    it was clean before vertex v joined, so only forbidden copies through
    v can appear.

    A forbidden graph on 2 vertices is decided by one bitmask test.  g's
    pair index (_pair_index, built per call, as a memo would hash every
    graph asked about, join members seen once among them) gives each
    vertex v, per distinct pair_edge_sets value, a partner mask
    (_partners): the w for which g[{v,w}], its edges read as _pair_code
    tuples from the lower of v and w, is one of those forbidden graphs.
    The block stays clean of them iff v's partner mask misses it, which
    is what _find would answer:
    - g[{v,w}]'s edges are exactly g's arity-2 edges on {v,w}, since every
      edge has at least 2 distinct vertices; a pair with none is 2K1,
      whose edge set is empty;
    - two graphs on 2 vertices are isomorphic iff one of the two
      bijections maps one edge set onto the other, and pair_edge_sets
      holds each forbidden edge set as seen under both;
    - the masks depend on the factor's value only, so _assign's twin rule
      still holds.

    Forbidden graphs on 3 or more vertices are searched for by _find
    under the block's mask on g's index (_incidence), built once per call
    and only when some factor has such a graph, with each one's anchored
    plan from _pattern(f, True).  If none of them has an isolated vertex
    (no_isolated) and v has no neighbour in the block, no such copy exists
    (the vertex mapped to v lies on an edge, whose image would give v a
    neighbour; an edge plus a vertex could have its isolated vertex at v)
    and the search is skipped.  Every additive factor qualifies, since
    forbidden graphs have at least 2 vertices.

    A block larger than a generated factor's bound cannot be decided.
    Such branches are cut; a solution found elsewhere is still definite,
    but when the search is exhausted after cutting any, the verdict
    depends on the unknown part of the factor and BoundExceededError is
    raised.  It names the least bound that cut, which does not depend on
    the search order.
    """
    for fac in factors:
        if fac.universe != g.universe:
            raise UniverseMismatchError("factor universe differs from the graph's")
    if not factors:
        raise ValueError("need at least one factor")
    factors = tuple(factors)
    deferred, pair_sets, distinct_pair_sets, patterns, twins = _solve_plan(factors)
    index = _pair_index(g) if distinct_pair_sets else None
    partners = {sets: _partners(index, sets, g.n) for sets in distinct_pair_sets}
    partner = [partners.get(sets) for sets in pair_sets]
    # built, not memoised: most graphs here are join members seen once
    host = _incidence.__wrapped__(g) if any(patterns) else None
    cut_bound = None  # least bound of a generated factor that cut a branch

    def fits(i: int, block: int, v: int) -> bool:
        nonlocal cut_bound
        fac = factors[i]
        if isinstance(fac, FiniteForbidden):
            if partner[i] is not None and partner[i][v] & block:
                return False
            if not patterns[i] or fac.no_isolated and not host[1][v] & block:
                return True
            return all(_find(pat, host, block, v) is None for pat in patterns[i])
        if isinstance(fac, GeneratedBounded):
            if block.bit_count() > fac.bound:
                cut_bound = fac.bound if cut_bound is None else min(cut_bound, fac.bound)
                return False
            return bool(fac.member(induced(g, _bits(block))))
        return True

    def complete(blocks: list) -> bool:
        return all(bool(factors[i].member(induced(g, _bits(blocks[i])))) for i in deferred)

    blocks = _assign(twins, g.n, fits, complete)
    if blocks is not None:
        return PartitionAssignment(tuple(frozenset(_bits(b)) for b in blocks))
    if cut_bound is not None:
        raise BoundExceededError(
            f"no partition keeps every block within the declared bound {cut_bound} "
            f"of a generated factor")
    return None


def forbidden_up_to(p: Property, n: int) -> tuple:
    """All minimal non-members with at most n vertices, canonical forms
    in enumeration order.

    A non-member F is minimal when every one-vertex deletion is a member;
    heredity makes that equivalent to all proper induced subgraphs being
    members.  So a least-degree deletion of F is a member, and F is among
    the classes grown from the members on one vertex fewer
    (generate._decided, in the full stream's order): only those classes
    are asked about, and the non-members among them are checked for
    minimality.  The verdicts are kept with the layers, which
    generate._members_up_to reads too.
    """
    EnumSpec(p.universe, n)  # an over-cap or negative bound raises
    out = []
    for m in range(n + 1):
        for g, holds in _decided(p, m):
            if not holds and all(p.member(induced(g, set(g.vertices) - {v}))
                                 for v in g.vertices):
                out.append(g)
    return tuple(out)


# --- property text format -------------------------------------------------

def format_property(p: Property, name: str, factor_names: Optional[Sequence] = None) -> str:
    """Text form of a property.  Product factors are referenced by file
    name, so factor_names is required for products."""
    head = ["property v1", f"name: {name}"]
    if isinstance(p, FiniteForbidden):
        head.append("repr: forbidden")
        head.append(f"universe: {_format_universe(p.universe)}")
        head.append("begin forbidden")
        for f in p.forbidden:
            head.append(format_hypergraph(f).rstrip("\n"))
        head.append("end")
    elif isinstance(p, GeneratedBounded):
        head.append(f"repr: generated bound={p.bound}")
        head.append(f"universe: {_format_universe(p.universe)}")
        head.append("begin generators")
        for f in p.generators:
            head.append(format_hypergraph(f).rstrip("\n"))
        head.append("end")
    elif isinstance(p, ProductProperty):
        head.append("repr: product")
        if factor_names is None or len(factor_names) != len(p.factors):
            raise ValueError("product serialization needs one file name per factor")
        for fn in factor_names:
            head.append(f"factor: {fn}")
    else:
        raise TypeError(f"unknown property representation: {type(p).__name__}")
    return "\n".join(head) + "\n"


def _parse_blocks(lines, i, terminator: str):
    graphs = []
    while i < len(lines) and lines[i][1] != terminator:
        g, i = parse_hypergraph_block(lines, i)
        graphs.append(g)
    if i >= len(lines):
        raise FormatError(f"missing {terminator!r}", lines[-1][0])
    return graphs, i + 1


def parse_property(text: str, base_dir: str = ".", _depth: int = 0):
    """Parse a property file body.  Returns (name, property).

    Product factor files are resolved relative to base_dir; nesting
    deeper than 8 levels is treated as a reference cycle.
    """
    if _depth > 8:
        raise FormatError("factor files nest too deep (reference cycle?)")
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != "property v1":
        raise FormatError("expected 'property v1' header", lines[0][0] if lines else None)
    if len(lines) < 3 or not lines[1][1].startswith("name:"):
        raise FormatError("expected name line", lines[1][0] if len(lines) > 1 else None)
    name = lines[1][1][len("name:"):].strip()
    if not lines[2][1].startswith("repr:"):
        raise FormatError("expected repr line", lines[2][0])
    kind = lines[2][1][len("repr:"):].strip()
    i = 3

    def take_universe(i):
        if i >= len(lines) or not lines[i][1].startswith("universe:"):
            raise FormatError("expected universe line", lines[i - 1][0] + 1)
        u = _parse_universe_spec(lines[i][1][len("universe:"):].strip(), lines[i][0])
        return u, i + 1

    if kind == "forbidden":
        u, i = take_universe(i)
        if i >= len(lines) or lines[i][1] != "begin forbidden":
            raise FormatError("expected 'begin forbidden'", lines[min(i, len(lines) - 1)][0])
        graphs, i = _parse_blocks(lines, i + 1, "end")
        _expect_eof(lines, i)
        try:
            return name, FiniteForbidden(u, tuple(graphs))
        except ValueError as exc:
            raise FormatError(str(exc), lines[0][0]) from None
    if kind.startswith("generated"):
        tokens = kind.split()
        if len(tokens) != 2 or not tokens[1].startswith("bound="):
            raise FormatError("generated repr needs 'generated bound=N'", lines[2][0])
        try:
            bound = int(tokens[1][len("bound="):])
        except ValueError:
            raise FormatError("bad bound", lines[2][0]) from None
        u, i = take_universe(i)
        if i >= len(lines) or lines[i][1] != "begin generators":
            raise FormatError("expected 'begin generators'", lines[min(i, len(lines) - 1)][0])
        graphs, i = _parse_blocks(lines, i + 1, "end")
        _expect_eof(lines, i)
        try:
            return name, GeneratedBounded(u, tuple(graphs), bound)
        except ValueError as exc:
            raise FormatError(str(exc), lines[0][0]) from None
    if kind == "product":
        factors = []
        while i < len(lines):
            lineno, text_i = lines[i]
            if not text_i.startswith("factor:"):
                raise FormatError(f"unexpected content {text_i!r}", lineno)
            path = os.path.join(base_dir, text_i[len("factor:"):].strip())
            try:
                with open(path, encoding="utf-8") as fh:
                    body = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise FormatError(f"cannot read factor file: {exc}", lineno) from None
            _, fac = parse_property(body, os.path.dirname(path) or ".", _depth + 1)
            factors.append(fac)
            i += 1
        try:
            return name, ProductProperty(tuple(factors))
        except ValueError as exc:
            raise FormatError(str(exc), lines[0][0]) from None
    raise FormatError(f"unknown repr {kind!r}", lines[2][0])


def _expect_eof(lines, i):
    if i != len(lines):
        raise FormatError(f"unexpected content {lines[i][1]!r}", lines[i][0])


def load_property(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_property(fh.read(), os.path.dirname(path) or ".")


def save_property(p: Property, path: str, name: str):
    """Write a property file; product factors become sibling files."""
    factor_names = None
    if isinstance(p, ProductProperty):
        stem = os.path.splitext(os.path.basename(path))[0]
        factor_names = [f"{stem}.factor{i}.prop" for i in range(len(p.factors))]
        for fac, fn in zip(p.factors, factor_names):
            save_property(fac, os.path.join(os.path.dirname(path) or ".", fn),
                          f"{name}.{fn.split('.')[-2]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_property(p, name, factor_names))
