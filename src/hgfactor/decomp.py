"""Join containment, vertex decompositions and their invariants.

A decomposition of G for a property P is a partition of V(G) into
nonempty parts such that for every k, every graph obtained by taking k
disjoint copies of each part side by side and adding arbitrary
part-crossing edges still satisfies P.  dec(G) is the maximum part count
over such partitions (0 when G itself fails P).

For finite forbidden sets one split engine (_first_split) decides joins:
it walks the forbidden graphs in order and every assignment of a
forbidden graph's vertices to the parts in lexicographic order, and asks
a fit about each nonempty slice.  Slices are cut once per forbidden
graph.  Two fits, one per mode:

* EXACT: every connected component of each slice embeds induced into
  its part.  Each component can be routed to its own copy, so one copy
  per component suffices and the copy count never needs to exceed
  |V(F)|; conversely the slices of an embedded F inside a join member
  are induced in the copied parts.  The equivalence is validated
  against the brute-force procedure in the test suite.  Parts are
  bitmasks of one host graph; no part graph is built.
* BOUNDED(k_max): each whole slice embeds induced into k copies of its
  part, for k = 1..k_max, the copies being blocks of k copies of the
  host.

Products are decided in BOUNDED mode.  A product closed under deleting
an edge (ProductProperty.edge_closed: every factor a finite forbidden
set no forbidden graph of which becomes a member when an edge is added)
is decided on one member per copy count, the densest, with every
crossing edge (_densest_member): every other member is it minus some
crossing edges, so it is bad iff some member is.  When its factors
forbid only graphs on 2 vertices, that member's verdict is read from
partner bitmasks of the host's pair index (_densest_holds), and the
member is built only for a caller that reads the counterexample.
Another product whose factors are all finite forbidden sets first tries
a certificate (_product_certificate): the parts grouped by factor, each
group passing the exact test on sub-masks of the host, searched by
props._assign.  It proves every k-fold join a member, so "holds" costs
no join member.
Other joins are scanned by brute force, densest member first
(_first_bad_member), and only these build part graphs; member_cap
bounds the members a join would stream.  A refutation is exact; a pass
is only "no failure up to k_max" and is marked as such.

Every join question, from join_subset_of, is_decomposition, the lattice
walk or the constructions, goes through one decision point (_decide),
which validates its arguments and keeps its answers in one memo
(_join_memo) keyed on the property, the block codes (_block_codes: each
block's order and edges on ranks, so equal part graphs of any hosts share
an entry) and the mode, with k_max and member_cap in BOUNDED mode.  The
lattice walk asks for verdicts only (verdict_only), so no counterexample
is built for it.

One memoised walk of the partition lattice (_level) answers every
decomposition query: level k holds the valid k-part decompositions, each
refined from a valid one with one part fewer.  dec_number reads the
deepest nonempty level, all_decompositions reads one level, and the
uniqueness queries read the level at dec(G).  A level is walked depth
first (_valid): one part of a valid decomposition is split by placing its
vertices one at a time along its edges, right side first, and a partial
split whose join is already refuted cuts all of its completions, since
every property here is induced-hereditary.  Four rules settle questions
without a walk.  Three are proved in _valid: level 1 is p.member(G) for
an additive forbidden set in EXACT mode and in BOUNDED mode at k_max =
1; and level k is empty once the join over k single vertices, decided
once per process, is refuted, as it is an induced part of the join over
any k-part partition.  The fourth, proved in _has_decomposition, answers
the existence question "dec(G) >= k?" in EXACT mode: yes when that join
over k single vertices holds and G has a colouring with at most k
classes, none holding a whole edge (_coloured), since a partition into
such classes has every join inside a join over single vertices.  Every
decision, of a whole partition, a partial one or k single vertices,
goes through _decide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial
from typing import Iterable, Optional, Sequence

from .core import (
    DEFAULT_JOIN_EDGE_CAP,
    CapExceededError,
    EdgeKind,
    Embedding,
    HgError,
    Hypergraph,
    canonical_key,
    connected_components,
    disjoint_union,
    embed_induced,
    induced,
    crossing_edge_candidates,
    replicate,
    _bits,
    _codes,
    _find,
    _incidence,
    _join_stream,
    _pattern,
    _unchecked_edge,
    _unchecked_graph,
)
from .props import (
    BoundExceededError,
    FiniteForbidden,
    ProductProperty,
    Property,
    min_forbidden_order,
    _assign,
    _full_pair_type,
    _pair_index,
    _partners,
    _solve_plan,
    _twins,
)

__all__ = [
    "EXACT",
    "BOUNDED",
    "Decomposition",
    "ComponentEmbedding",
    "DecWitness",
    "JoinCheck",
    "DecResult",
    "StrictnessWitness",
    "join_subset_of",
    "is_decomposition",
    "dec_number",
    "all_decompositions",
    "is_uniquely_decomposable",
    "unique_decomposition",
    "strictness_witness",
    "is_strict",
    "strictify",
    "ind_parts",
    "multiplicity",
    "respects",
    "respects_uniformly",
    "DEFAULT_K_MAX",
    "DEFAULT_MEMBER_CAP",
]

EXACT = "exact"
BOUNDED = "bounded"

DEFAULT_K_MAX = 3
DEFAULT_MEMBER_CAP = 10**6


@dataclass(frozen=True)
class Decomposition:
    """Unordered partition into nonempty parts, stored sorted by the
    smallest vertex of each part."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(frozenset(p) for p in self.parts)
        if any(not p for p in parts):
            raise ValueError("empty part in a decomposition")
        seen = set()
        for p in parts:
            if p & seen:
                raise ValueError("overlapping parts")
            seen |= p
        object.__setattr__(self, "parts", tuple(sorted(parts, key=min)))

    @property
    def ground(self) -> frozenset:
        return frozenset().union(*self.parts) if self.parts else frozenset()

    def key(self) -> tuple:
        return tuple(tuple(sorted(p)) for p in self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "|".join("{" + ",".join(map(str, sorted(p))) + "}" for p in self.parts)


@dataclass(frozen=True)
class ComponentEmbedding:
    """One connected component of a forbidden-graph slice, embedded
    induced into one part."""

    part_index: int
    component: tuple  # vertices of the forbidden graph, ascending
    embedding: Embedding  # image vertices inside the part's own labelling


@dataclass(frozen=True)
class DecWitness:
    """Certificate that a join containment fails: a forbidden graph, a
    slicing of its vertices across the parts, and embeddings of every
    slice component."""

    forbidden: Hypergraph
    split: tuple  # split[i] = vertices of the forbidden graph put on part i
    components: tuple  # ComponentEmbedding records


@dataclass(frozen=True)
class JoinCheck:
    """Outcome of a join-containment test.

    confidence is "exact" or "bounded k_max=N".  witness carries a
    DecWitness for forbidden-set refutations; counterexample carries a
    concrete bad join member for brute-force refutations.
    """

    holds: bool
    confidence: str
    witness: Optional[DecWitness] = None
    counterexample: Optional[Hypergraph] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class DecResult:
    value: int
    decomposition: Optional[Decomposition]
    confidence: str

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class StrictnessWitness:
    """Forbidden graph F and vertex v with F minus v embedding induced
    into G: joining a fresh vertex to G along F's edges at v leaves P."""

    forbidden: Hypergraph
    removed_vertex: int
    embedding: Embedding  # of F minus v (vertices relabelled ascending) into G

    def rest_to_graph(self) -> dict:
        """Map from F's own non-removed vertices to their images in G."""
        rest = [w for w in range(self.forbidden.n) if w != self.removed_vertex]
        return {w: self.embedding.mapping[i] for i, w in enumerate(rest)}


class _Slices(dict):
    """The slices of one forbidden graph f, each cut on first use: block
    (ascending f vertices) -> (block, induced slice, components), each
    component an (f vertices, induced component) pair, by smallest
    vertex.  At most 2^|V(f)| entries."""

    def __init__(self, f: Hypergraph):
        self.f = f

    def __missing__(self, block: tuple) -> tuple:
        g = induced(self.f, block)
        comps = tuple((tuple(block[c] for c in sorted(comp)), induced(g, comp))
                      for comp in connected_components(g))
        self[block] = (block, g, comps)
        return self[block]


_slices = lru_cache(maxsize=1024)(_Slices)


def _first_split(p: FiniteForbidden, n_parts: int, fit) -> Optional[DecWitness]:
    """First (forbidden order, then vertex-lexicographic split order)
    split of some forbidden graph across n_parts parts that fits, or
    None.  fit(i, block, slice, components) gets each nonempty slice and
    returns its ComponentEmbedding records on part i, or None when the
    slice does not fit there."""
    for f in p.forbidden:
        slices = _slices(f)
        for assign in itertools.product(range(n_parts), repeat=f.n):
            split = tuple(tuple(v for v in range(f.n) if assign[v] == i)
                          for i in range(n_parts))
            records = []
            for i, block in enumerate(split):
                fitted = fit(i, *slices[block]) if block else ()
                if fitted is None:
                    break
                records.extend(fitted)
            else:
                return DecWitness(f, split, tuple(records))
    return None


@lru_cache(maxsize=65536)
def _in_host(f: Hypergraph, g: Hypergraph) -> bool:
    """Does f embed induced in g?  If not, it embeds in no block of g."""
    return _find(_pattern(f), _incidence(g), (1 << g.n) - 1) is not None


@lru_cache(maxsize=4096)
def _coded_edges(g: Hypergraph) -> tuple:
    """g's sorted _codes as (support bitmask, ordered?, colour index, vertices)."""
    return tuple((sum(1 << v for v in vs), o, c, vs)
                 for o, c, vs, _, _ in sorted(_codes(g.universe, g.edges)))


def _exact_split(p: FiniteForbidden, host: tuple, masks: Sequence,
                 in_host=None) -> Optional[DecWitness]:
    """The exact criterion on blocks of one host index (_incidence) given
    as vertex bitmasks (0 for an empty cell): first split whose every
    slice component embeds induced into its block, or None.  Components
    are renamed by rank in the block, as induced() labels a part.
    in_host(comp), when given, may rule a component out before any
    search: False means it embeds nowhere in the host."""
    def fit(i, block, sl, comps):
        # a slice may be larger than its block: components embed into
        # separate copies, so no size-based pruning is sound here
        mask = masks[i]
        records = []
        for f_verts, comp in comps:
            image = _find(_pattern(comp), host, mask) \
                if in_host is None or in_host(comp) else None
            if image is None:
                return None
            local = tuple((mask & ((1 << u) - 1)).bit_count() for u in image)
            records.append(ComponentEmbedding(i, f_verts, Embedding(local)))
        return records

    return _first_split(p, len(masks), fit)


def _block_codes(g: Hypergraph, masks: Sequence) -> tuple:
    """The blocks of g given as vertex bitmasks, each as its order and its
    edges on ranks in the block.  Ranks keep _coded_edges' order, so equal
    part graphs of any hosts get equal codes, the memo keys below."""
    codes = []
    for mask in masks:
        rank = {v: i for i, v in enumerate(_bits(mask))}
        codes.append((len(rank), tuple((o, c, *map(rank.__getitem__, vs))
                                       for sup, o, c, vs in _coded_edges(g)
                                       if sup & mask == sup)))
    return tuple(codes)


def _factors(p: Property) -> tuple:
    """p's factors with nested products flattened (composition is
    associative), or (p,) for a property that is no product."""
    if not isinstance(p, ProductProperty):
        return (p,)
    return tuple(f for q in p.factors for f in _factors(q))


def _part_masks(parts: Sequence) -> list:
    """The vertex bitmask of each part laid side by side, in order."""
    ends = list(itertools.accumulate((g.n for g in parts), initial=0))
    return [(1 << b) - (1 << a) for a, b in zip(ends, ends[1:])]


def _product_certificate(p: ProductProperty, g: Hypergraph, masks: Sequence) -> bool:
    """Can the blocks of g given as vertex bitmasks be grouped by factor,
    empty groups allowed, so that each factor Fi's group passes the exact
    join test for Fi?  Needs every factor, nested products flattened, to
    be a finite forbidden set; False otherwise.

    A yes proves that every member M of every k-fold join over the parts
    lies in P.  Colour each copied part in M by its group's factor.  The
    vertices of colour i carry the copies of group i's parts and some
    edges between different parts, so they induce a member of the k-fold
    join over group i, which lies in Fi by the exact test.  The colour
    classes are then the blocks that ProductProperty.member asks for.  No
    additivity is used.

    The groups are searched by props._assign, the blocks as its items,
    and each group is decided as it grows, as sub-masks of g's memoised
    index by _exact_split; in the lattice walk g is G itself.  Cutting at
    a failed group is sound because the exact test is hereditary: a
    group's join members are induced subgraphs of a larger group's.  Equal
    factors are interchangeable, as _assign proves.
    """
    factors = _factors(p)
    if not all(isinstance(f, FiniteForbidden) for f in factors):
        return False
    host = _incidence(g)
    return _assign(_twins(factors), len(masks), lambda i, group, j: _exact_split(
        factors[i], host, [masks[b] for b in _bits(group)]) is None) is not None


def _first_bad_member(p: Property, graphs: Sequence, member_cap: int,
                      what: str) -> Optional[Hypergraph]:
    """First join member over the graphs outside P, or None; raises
    CapExceededError when the join has more than member_cap members.
    Members are streamed densest first, from every crossing edge down to
    none: any order is complete, and in the measured product joins a bad
    member comes far sooner this way than in join_members' order."""
    cands = crossing_edge_candidates(graphs)
    if 1 << len(cands) > member_cap:
        raise CapExceededError(
            f"{what} has 2^{len(cands)} members, over the cap")
    for m in _join_stream(graphs, cands, range((1 << len(cands)) - 1, -1, -1)):
        if not p.member(m):
            return m
    return None


def _copies_split(p: FiniteForbidden, g: Hypergraph, masks: Sequence,
                  k: int) -> Optional[DecWitness]:
    """First split of some forbidden graph whose every whole slice embeds
    induced into k copies of its block of g, or None: a bad member of the
    k-fold join exists iff there is one.  The blocks' copies are sub-masks
    of the index of k copies of g; an image is renamed copy by copy, by
    rank in the block, as replicate() labels k copies of a part.  _find
    tries candidates in ascending order, which the renaming keeps, so the
    embedding is the one embed_induced finds in the copied part graph."""
    host = _incidence(g) if k == 1 else _incidence.__wrapped__(replicate(k, g))

    def fit(i, block, sl, comps):
        mask = masks[i]
        image = _find(_pattern(sl), host, sum(mask << c * g.n for c in range(k)))
        if image is None:
            return None
        local = tuple(c * mask.bit_count() + (mask & ((1 << w) - 1)).bit_count()
                      for c, w in (divmod(u, g.n) for u in image))
        return [ComponentEmbedding(i, block, Embedding(local))]

    return _first_split(p, len(masks), fit)


_crossing_memo = {}  # (universe, block sizes) -> crossing edges, small ones only
_CROSSING_KEYS = 128
_CROSSING_KEPT = 256


def _crossing(u, sizes: tuple) -> frozenset:
    """Every crossing edge of a join whose blocks have these vertex counts,
    laid side by side: those of edgeless blocks, through
    crossing_edge_candidates, so DEFAULT_JOIN_EDGE_CAP bounds them.

    Memoised for the latest _CROSSING_KEYS block sizes, and only when
    there are at most _CROSSING_KEPT edges: a kept edge costs about 200 to
    260 bytes, so the memo stays under about 8 MB however large the joins
    are.  A sweep round keeps 15 keys; dec of C5vC5 under K3f^2 at k_max
    = 3 keeps 69, the largest with 225 edges."""
    key = (u, sizes)
    edges = _crossing_memo.get(key)
    if edges is None:
        edges = frozenset(crossing_edge_candidates(
            [Hypergraph(u, n, frozenset()) for n in sizes]))
        if len(edges) <= _CROSSING_KEPT:
            if len(_crossing_memo) >= _CROSSING_KEYS:
                del _crossing_memo[next(iter(_crossing_memo))]
            _crossing_memo[key] = edges
    return edges


def _densest_member(g: Hypergraph, masks: Sequence, k: int) -> Hypergraph:
    """The member of the k-fold join over the nonempty blocks of g given
    as vertex bitmasks that carries every crossing edge: the first member
    _first_bad_member streams over the graphs replicate(k, induced(g,
    block)).  Built from g's edges, block after block, with block i's k
    copies side by side as replicate lays them out; the crossing edges,
    which join different blocks and never two copies of one, come from
    _crossing.  The copied edges skip EdgeObject's checks (_unchecked_edge,
    whose docstring proves they would change nothing), and the graph skips
    Hypergraph's: every edge is a relabelled edge of g or a crossing edge
    over g's universe, inside the vertex count."""
    u, sizes, edges = g.universe, [], set()
    for mask in masks:
        if mask:
            vs = _bits(mask)
            at = {v: sum(sizes) + r for r, v in enumerate(vs)}
            for e in g.edges:
                if all(v in at for v in e.vertices):
                    edges.update(_unchecked_edge(e.kind, tuple(at[v] + c * len(vs)
                                                               for v in e.vertices), e.colour)
                                 for c in range(k))
            sizes.append(k * len(vs))
    return _unchecked_graph(u, sum(sizes), frozenset(edges | _crossing(u, tuple(sizes))))


@lru_cache(maxsize=1024)
def _crossing_count(u, sizes: tuple) -> int:
    """len(_crossing(u, sizes)), counted with no edge built: per arity r,
    the r-sets of vertices meeting two blocks or more, each carrying per
    colour one unordered edge and r! ordered ones, as far as u admits
    those kinds."""
    total = sum(sizes)
    per_set = [(EdgeKind.UNORDERED in u.kinds) + (EdgeKind.ORDERED in u.kinds) * factorial(r)
               for r in range(max(u.arities) + 1)]
    return len(u.colours) * sum((comb(total, r) - sum(comb(s, r) for s in sizes)) * per_set[r]
                                for r in u.arities)


def _pairs_only(p: ProductProperty) -> bool:
    """For a product closed under deleting an edge: do its factors all
    forbid graphs on 2 vertices only?  Read from partition_solve's plan:
    no factor waits for complete blocks (a nested product) and none has a
    forbidden graph on 3 or more vertices; closure leaves no other kind of
    factor."""
    plan = _solve_plan(p.factors)
    return not plan.deferred and not any(plan.patterns)


_host_pairs = lru_cache(maxsize=4096)(_pair_index)  # per host; _level has hashed it


def _densest_holds(p: ProductProperty, g: Hypergraph, masks: Sequence, k: int,
                   pairs: Optional[dict]) -> bool:
    """Is the densest member of the k-fold join over the nonempty blocks
    of g given as vertex bitmasks, _densest_member(g, masks, k), in P, a
    product closed under deleting an edge?

    pairs is g's pair index (props._pair_index) when the factors forbid
    only graphs on 2 vertices (_pairs_only), else None, and then the
    member is built and tested.  With the index the verdict is read from
    partner masks with no member built.  p.member runs partition_solve,
    which for such factors is props._assign over the member's vertices
    with one test: v fits a block iff v's partner mask misses it, the
    partners being the w whose pair with v has a type (the edge set of
    the pair's induced graph, see _pair_index) among the factor's
    pair_edge_sets.  The member's pair types follow from g's and the
    blocks alone:
    - two vertices of one copy of a block: the copy holds g's edges inside
      the block renamed by rank, which keeps the lower vertex lower, so
      the pair has its type in g;
    - two copies of one block: no edge meets both, as copied edges stay in
      their copy and crossing edges meet two blocks, so the type is 2K1's,
      frozenset();
    - two blocks: every admissible arity-2 edge on the pair is a crossing
      edge, so the type is _full_pair_type(u).

    The items are g's own labels: item c*|V(G)| + v stands for copy c of
    vertex v, a renaming of the member, which changes no verdict.  An item
    whose vertex lies in no block stands for nothing: no mask names it,
    and it is pinned to block 0, so the search never branches on it and
    every other item meets the same tests as in the member.  The
    pin breaks the symmetry _assign's equal-factor rule asks for, but not
    its completeness: given any assignment of the member, give each run
    of equal factors its blocks in order of least item, block 0 first,
    and add the pinned items to block 0, which can only lower its least
    item; the rule lets every block open in that assignment, so the
    search meets it unless it returns sooner.

    The crossing edges are never built here, but when there are more
    than DEFAULT_JOIN_EDGE_CAP of them (_crossing_count) the member is
    built anyway, so CapExceededError is raised as before."""
    u, n = g.universe, g.n
    if pairs is None or _crossing_count(
            u, tuple(k * m.bit_count() for m in masks if m)) > DEFAULT_JOIN_EDGE_CAP:
        return bool(p.member(_densest_member(g, masks, k)))
    plan, full = _solve_plan(p.factors), _full_pair_type(u)
    repeat = sum(1 << c * n for c in range(k))  # x * repeat: x in every copy
    own, cover = [0] * n, 0
    for b in masks:
        cover |= b
        for v in _bits(b):
            own[v] = b
    rows = {}
    for sets in plan.distinct_pair_sets:
        host = _partners(pairs, sets, n)
        apart, across = frozenset() in sets, full in sets
        row = [1 << x for x in range(k * n)]  # pinned items fit no block but 0
        for v in _bits(cover):
            b = own[v]
            side = (cover ^ b) * repeat if across else 0
            for at in range(0, k * n, n):
                row[at + v] = (host[v] & b) << at | side | (b * repeat ^ b << at if apart else 0)
        rows[sets] = row
    partner = [rows[sets] for sets in plan.pair_sets]
    partner[0] = [0 if not own[x % n] else mask for x, mask in enumerate(partner[0])]
    return _assign(plan.twins, k * n, lambda i, block, v: not partner[i][v] & block) is not None


def _join_bounded(p: Property, g: Hypergraph, masks: Sequence, k_max: int,
                  member_cap: int) -> JoinCheck | int:
    """The BOUNDED decision on blocks of g given as vertex bitmasks: tries
    k = 1..k_max copies of every block; its refutations are exact.

    A product closed under deleting an edge (ProductProperty.edge_closed)
    is decided on its densest members (_densest_member), one membership
    test per copy count, when member_cap admits one member.  Every member
    of a k-fold join is the densest one minus some crossing edges, so the
    join holds iff its densest member is in P, and that member is the
    first of _first_bad_member's stream: the verdict and counterexample
    are those of the stream, and member_cap counts the members streamed,
    one per copy count.  Each test is _densest_holds, on the host's
    memoised pair index when the factors forbid only graphs on 2 vertices
    (_pairs_only), with no member built.  A refutation returns the least
    failing copy count k, not a JoinCheck: _decide builds the
    counterexample, _densest_member(g, masks, k), only for a caller that
    reads it.  After k = 1 holds, _product_certificate may prove
    every k at once; otherwise k = 2..k_max are tested in turn.  The
    certificate changes no verdict here, only the time: at k_max = 3 it
    settles most joins that reach k = 2 and saves the larger members,
    which measured about a fifth faster on dec of C5vC5 and of the
    K3f^2 members up to 6 vertices (BENCH_densest_member.json).

    Any other product that _product_certificate settles holds for every
    k, so it gets the same "holds" verdict with no member streamed; the
    proof is in that function.  A finite forbidden set is decided on g's
    bitmasks (_copies_split).  Anything else streams the members of each
    k-fold join over the nonempty blocks, none when every block is empty,
    and only then are the blocks' graphs built; at k = 1 the block graphs
    themselves are streamed, equal to their one-fold replicate().  The
    stream raises CapExceededError when a join has more than member_cap
    members.
    """
    holds = JoinCheck(True, f"bounded k_max={k_max}")
    if isinstance(p, ProductProperty) and p.edge_closed and member_cap >= 1 and any(masks):
        pairs = _host_pairs(g) if _pairs_only(p) else None
        for k in range(1, k_max + 1):
            if k == 2 and _product_certificate(p, g, masks):
                break
            if not _densest_holds(p, g, masks, k, pairs):
                return k
        return holds
    if isinstance(p, ProductProperty) and _product_certificate(p, g, masks):
        return holds
    if isinstance(p, FiniteForbidden):
        for k in range(1, k_max + 1):
            witness = _copies_split(p, g, masks, k)
            if witness is not None:
                return JoinCheck(False, EXACT, witness=witness)
        return holds
    parts = [induced(g, _bits(mask)) for mask in masks if mask]
    for k in range(1, k_max + 1):
        copies = parts if k == 1 else [replicate(k, h) for h in parts]
        bad = _first_bad_member(p, copies, member_cap,
                                f"join of {k} copies") if parts else None
        if bad is not None:
            return JoinCheck(False, EXACT, counterexample=bad)
    return holds


def join_subset_of(p: Property, parts: Sequence, mode: str = EXACT,
                   k_max: int = DEFAULT_K_MAX,
                   member_cap: int = DEFAULT_MEMBER_CAP) -> JoinCheck:
    """Does every k-fold join over the parts stay inside the property?

    EXACT mode needs a finite forbidden set and decides the question for
    all k at once.  BOUNDED mode brute-forces k = 1..k_max; a "holds"
    answer is then only a bounded verdict and says so in confidence.  The
    parts are laid side by side as blocks of one host and decided by
    _decide.
    """
    parts = tuple(parts)
    for g in parts:
        if g.universe != p.universe:
            raise HgError("part universe differs from the property's")
    return _decide(reduce(disjoint_union, parts) if parts else None, p,
                   _part_masks(parts), mode, k_max, member_cap)


def _as_decomposition(d) -> Decomposition:
    return d if isinstance(d, Decomposition) else Decomposition(tuple(d))


def is_decomposition(g: Hypergraph, d, p: Property, mode: str = EXACT,
                     k_max: int = DEFAULT_K_MAX,
                     member_cap: int = DEFAULT_MEMBER_CAP) -> JoinCheck:
    """Is d a valid decomposition of G for P?  Truthy JoinCheck, decided
    by _decide on d's parts."""
    d = _as_decomposition(d)
    if d.ground != frozenset(g.vertices):
        raise HgError("parts do not partition the vertex set")
    return _decide(g, p, [sum(1 << v for v in part) for part in d.parts],
                   mode, k_max, member_cap)


_join_memo = {}  # (p, block codes, mode[, k_max, member_cap]) -> witness, JoinCheck or k


def _decide(g: Hypergraph, p: Property, masks: Sequence, mode: str = EXACT,
            k_max: int = DEFAULT_K_MAX, member_cap: int = DEFAULT_MEMBER_CAP,
            verdict_only: bool = False):
    """The one join decision point: do the k-fold joins over the blocks
    of G given as vertex bitmasks (disjoint, 0 for an empty block, not
    necessarily covering V(G)) stay in P?  Raises ValueError for no
    blocks, HgError for a foreign universe or EXACT mode on anything but
    a finite forbidden set, and ValueError for an unknown mode, in that
    order.

    EXACT mode decides on G's memoised index (_exact_split), a component
    skipped for good once it is not _in_host at all; BOUNDED mode decides
    by _join_bounded.  Answers are memoised on p, the block codes and the
    mode, with k_max and member_cap in BOUNDED mode; the oldest entry is
    dropped past 120,000, and a raise is not stored.  With verdict_only
    the answer is bool(JoinCheck) alone, and nothing more is built.

    A closed product's refutation is memoised as its least failing copy
    count k, and the counterexample is built here from the caller's own G
    and masks, _densest_member(g, masks, k).  It is the member the first
    caller was refuted with: the entry is keyed on the block codes, and
    equal codes mean equal part graphs, as a block's code is its order
    and its edges on ranks, the part graph itself as induced() labels it
    (an empty block's code is (0, ()), and _densest_member skips it).
    _densest_member reads the blocks only as those part graphs, laid side
    by side in order with k copies each, plus the crossing edges of their
    sizes over p's universe, so equal codes give equal densest members."""
    if not masks:
        raise ValueError("need at least one part")
    if g.universe != p.universe:
        raise HgError("part universe differs from the property's")
    if mode == EXACT:
        if not isinstance(p, FiniteForbidden):
            raise HgError("exact join containment needs a finite forbidden set")
        key = (p, _block_codes(g, masks), mode)
    elif mode == BOUNDED:
        key = (p, _block_codes(g, masks), mode, k_max, member_cap)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if key not in _join_memo:
        _join_memo[key] = _exact_split(p, _incidence(g), masks,
                                       lambda comp: _in_host(comp, g)) \
            if mode == EXACT else _join_bounded(p, g, masks, k_max, member_cap)
        if len(_join_memo) > 120_000:
            del _join_memo[next(iter(_join_memo))]
    value = _join_memo[key]
    if mode == EXACT:
        return value is None if verdict_only else JoinCheck(value is None, EXACT, witness=value)
    if isinstance(value, int):
        return False if verdict_only else \
            JoinCheck(False, EXACT, counterexample=_densest_member(g, masks, value))
    return value.holds if verdict_only else value


def _rgs(d: Decomposition) -> tuple:
    """d's restricted growth string: each vertex's part index, vertices
    ascending.  These strings order partitions as enumerate_partitions
    yields them."""
    label = {v: i for i, part in enumerate(d.parts) for v in part}
    return tuple(label[v] for v in sorted(label))


def _split_order(part: int, nbr: Sequence) -> list:
    """The vertices of a part given as a bitmask in the order the walk
    places them: its least vertex, then each time the least unplaced one
    with a placed neighbour (nbr: G's neighbour bitmasks), or the least
    unplaced one when none has."""
    order, reach = [], 0
    while part:
        pick = part & reach or part
        v = (pick & -pick).bit_length() - 1
        order.append(v)
        reach |= nbr[v]
        part &= ~(1 << v)
    return order


@lru_cache(maxsize=4096)
def _singletons_refuted(p: Property, mode: str, k_max: int, member_cap: int,
                        k: int) -> bool:
    """Is the join over k single vertices refuted?  Decided once per
    process by _decide, as k one-vertex blocks of an edgeless k-vertex
    graph; a decision that raises CapExceededError or BoundExceededError
    refutes nothing."""
    try:
        return not _decide(Hypergraph(p.universe, k, frozenset()), p,
                           [1 << i for i in range(k)], mode, k_max, member_cap, True)
    except (CapExceededError, BoundExceededError):
        return False


def _valid(g: Hypergraph, p: Property, mode: str, k_max: int, member_cap: int,
           k: int):
    """Yield the valid k-part decompositions of G, each once, deciding
    only as far as the caller reads.

    Level 1 is the one-part partition when it is valid: membership of G
    does not make it valid for a non-additive property, as every k-fold
    copy union of G must stay in P.  It is read from p.member(G) with no
    join decided in two cases where the two provably agree.  In EXACT mode
    on an additive finite forbidden set: the j-fold join over one part is
    j disjoint copies of G, as copies of one part carry no edges between
    them, and it lies in P iff G does (P is closed under disjoint unions
    and under induced subgraphs).  In BOUNDED mode with k_max = 1: the
    1-fold join over one part is G itself.  There the decision is still
    made when member_cap < 1, since its one-member stream raises
    CapExceededError.

    Merging two parts of a valid decomposition keeps it valid, in EXACT
    and BOUNDED mode alike (checked in the tests), so every valid k-part
    partition splits one part of a valid d at level k-1 (read from
    _level) in two.  When level k-1 is nonempty, the join over k single
    vertices is decided first (_singletons_refuted, once per process),
    and a refutation empties level k with no split decided.  This is
    sound for every G: take one vertex from each part of a k-part
    partition.  Every member of the j-fold join over those single
    vertices is an induced subgraph of a member of the j-fold join over
    the partition's parts (copy its crossing edges among the chosen
    vertices' copies, and no others).  No edge inside one part copy is
    among them, as an edge has at least two vertices and each part copy
    holds one chosen vertex.  So a bad member at j copies, j <= k_max in
    BOUNDED mode, refutes every k-part partition.  A decision that raises
    cuts nothing.

    Otherwise the splits are walked depth first.  For each d and each
    part Q of d, Q's vertices are placed one at a time in _split_order:
    Q's least vertex stays on the left side, and then each next vertex is
    a neighbour of a placed one while Q has such a vertex unplaced.  The
    right side is tried first.  A node whose right side is nonempty is
    decided (_decide) as a partial partition: d's other parts and the two
    sides on the vertices placed so far.  A refuted node cuts its
    subtree.  This is sound because every property here is
    induced-hereditary: every member of the j-fold join over a partial's
    parts is an induced subgraph of a member of the j-fold join over any
    completion's parts (copy the crossing edges between placed vertices,
    drop the others).  So a bad member at j copies gives one for every
    completion at the same j, which is no more than k_max in BOUNDED
    mode; a completion's decision would refute it too, or raise where the
    walk now answers.  "Holds" proves nothing about a completion and
    never cuts.  A node with an empty right side is a restriction of d
    and always holds, so it is not decided.  The placement order and the
    side tried first change which nodes are decided, not the level.  A
    full level decides the same nodes with either side first; a reader
    that stops at the first valid split (_has_decomposition) meets it
    sooner with the right side first on the tests' inputs, and a
    connected prefix of Q carries the edges that refute a partial sooner
    than scattered vertices do.

    Leaves, the full splits, are decided once each even when two d reach
    the same one, and valid ones are yielded in walk order, which is not
    enumerate_partitions order; _level sorts them.

    Raises: level 1 raises what its decision or p.member raises.  Above
    it, the single-vertex decision and a partial that raise
    CapExceededError or BoundExceededError cut nothing, and a leaf that
    raises one is held back: the generator raises it (the least in
    enumerate_partitions order, if several) only after yielding every
    valid decomposition.  A reader that stops at the first valid one
    (_has_decomposition) therefore never sees it, and a reader of the
    whole level sees it exactly when some undecided partition could
    still be valid.  Any other error propagates."""
    if k == 1:
        settled = isinstance(p, FiniteForbidden) and p.additive if mode == EXACT \
            else mode == BOUNDED and k_max == 1 and member_cap >= 1
        if p.member(g) and g.n and (settled or _decide(
                g, p, [(1 << g.n) - 1], mode, k_max, member_cap, True)):
            yield Decomposition((g.vertices,))
        return
    below = _level(g, p, mode, k_max, member_cap, k - 1)
    if not below or _singletons_refuted(p, mode, k_max, member_cap, k):
        return

    def refuted(node):
        try:
            return not _decide(g, p, node, mode, k_max, member_cap, True)
        except (CapExceededError, BoundExceededError):
            return False

    nbr = _incidence(g)[1]
    seen, held = set(), None
    for d in below:
        masks = [sum(1 << v for v in q) for q in d.parts]
        for i, mask in enumerate(masks):
            vs = _split_order(mask, nbr)
            fixed = masks[:i] + masks[i + 1:]
            stack = [(1, 1 << vs[0], 0)]  # (vertices placed, left, right)
            while stack:
                placed, left, right = stack.pop()
                node = tuple(sorted(fixed + [left, right], key=lambda m: m & -m)) \
                    if right else None
                if placed < len(vs):
                    if node is None or not refuted(node):
                        v = 1 << vs[placed]
                        stack.append((placed + 1, left | v, right))
                        stack.append((placed + 1, left, right | v))
                    continue
                if node is None or node in seen:
                    continue
                seen.add(node)
                try:
                    ok = _decide(g, p, node, mode, k_max, member_cap, True)
                except (CapExceededError, BoundExceededError) as exc:
                    key = _rgs(Decomposition(tuple(map(_bits, node))))
                    if held is None or key < held[0]:
                        held = (key, exc)
                    continue
                if ok:
                    yield Decomposition(tuple(map(_bits, node)))
    if held is not None:
        raise held[1]


@lru_cache(maxsize=4096)
def _level(g: Hypergraph, p: Property, mode: str, k_max: int, member_cap: int,
           k: int) -> tuple:
    """The valid k-part decompositions of G, in enumerate_partitions order
    (_valid, memoised in full)."""
    return tuple(sorted(_valid(g, p, mode, k_max, member_cap, k), key=_rgs))


def dec_number(g: Hypergraph, p: Property, mode: str = EXACT,
               k_max: int = DEFAULT_K_MAX,
               member_cap: int = DEFAULT_MEMBER_CAP) -> DecResult:
    """Maximum part count over decompositions, with one maximizer.

    Walks the valid levels of the partition lattice (_level) until one is
    empty.  For finite forbidden sets the part count provably stays below
    the minimum forbidden order; that bound is asserted.  The reported
    maximizer is the least in Decomposition.key order, which need not be
    the first of all_decompositions at that part count.
    """
    confidence = EXACT if mode == EXACT else f"bounded k_max={k_max}"
    k = 0
    while _level(g, p, mode, k_max, member_cap, k + 1):
        k += 1
        if isinstance(p, FiniteForbidden) and k >= min_forbidden_order(p):
            raise HgError("internal error: decomposition at the forbidden-order bound")
    if k == 0:
        return DecResult(0, None, confidence)
    best = min(_level(g, p, mode, k_max, member_cap, k), key=Decomposition.key)
    return DecResult(k, best, confidence)


def all_decompositions(g: Hypergraph, p: Property, n_parts: int, mode: str = EXACT,
                       k_max: int = DEFAULT_K_MAX,
                       member_cap: int = DEFAULT_MEMBER_CAP) -> list:
    """All decompositions with exactly n_parts parts, in the canonical
    partition enumeration order (that of enumerate_partitions).  Decides
    no partition with more than n_parts parts."""
    if not _below_filled(g, p, n_parts, mode, k_max, member_cap):
        return []
    return list(_level(g, p, mode, k_max, member_cap, n_parts))


def _coloured(g: Hypergraph, n_parts: int) -> bool:
    """Can V(G) be split into at most n_parts classes, none of which
    holds the whole support of an edge?  Searched by props._assign: the
    vertices are its items and the classes n_parts equal slots, so the
    twin rule tries each set of classes once, and a class fails for good
    once an edge lies inside it.  Items are placed in ascending order, so
    only the edges whose highest vertex is the one placed are checked."""
    tops = [set() for _ in range(g.n)]
    for sup, *_ in _coded_edges(g):
        tops[sup.bit_length() - 1].add(sup)
    return _assign(_twins((0,) * n_parts), g.n, lambda i, block, v: all(
        sup & block != sup for sup in tops[v])) is not None


def _has_decomposition(g: Hypergraph, p: Property, n_parts: int, mode: str,
                       k_max: int, member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """bool(all_decompositions(...)), walking level n_parts (_valid) only
    up to its first valid partition, in walk order, and keeping no memo
    of it.  Since merging two parts of a valid decomposition keeps it
    valid, it is true iff G has a decomposition with at least n_parts
    parts, that is iff dec(G) >= n_parts.  Levels below n_parts come
    from _level.

    In EXACT mode, for G over p's universe and 1 <= n_parts <= |V(G)|, it
    first answers True with no walk and no level read when the join over
    n_parts single vertices holds (_singletons_refuted, decided once per
    process; in EXACT mode on a finite forbidden set it cannot raise) and
    G has a colouring with at most n_parts classes, no edge's support
    inside one class (_coloured).  The colour classes are then a valid
    decomposition.  A colouring with fewer classes gives one with exactly
    n_parts by moving vertices into singleton classes, as n_parts <=
    |V(G)|; a subset of a class still holds no edge.  Take the classes'
    sizes s_i, s their largest, and any j.  Every member of the j-fold
    join over the classes is an induced subgraph of a member of the
    (j*s)-fold join over n_parts single vertices: send the copies of class
    i into distinct copies of vertex i, and copy exactly the member's
    edges.  In both joins the blocks have no inner edges, as a class holds
    no edge, and the crossing edges, those whose support meets two blocks,
    are arbitrary, so the member's edges are crossing edges of the larger
    join.  That join lies in P, which is induced-hereditary, so every
    member over the classes does; G itself is a member of the 1-fold
    join, so G lies in P too.  When either condition fails, or outside
    this case, the walk below answers, unchanged.

    It raises only where a walk deciding every split of level n_parts-1
    in enumerate_partitions order, up to its first valid partition,
    raises as well.  Levels below are read in full either way, and the
    pruned walk decides a subset of their partitions.  At level n_parts a
    partial partition that raises cuts nothing, and a full split that
    raises is held back until the walk ends with no valid partition (see
    _valid).  Then every split it did not decide is invalid, so that
    other walk decides every split, none valid, and raises at each one
    this walk saw raise.  An answer never depends on the raise: a valid
    partition found proves dec(G) >= n_parts outright.  A foreign graph
    or n_parts < 1 is left to the walk, and raises there before any
    colouring is tried."""
    if mode == EXACT and isinstance(p, FiniteForbidden) and g.universe == p.universe \
            and 1 <= n_parts <= g.n \
            and not _singletons_refuted(p, mode, k_max, member_cap, n_parts) \
            and _coloured(g, n_parts):
        return True
    return _below_filled(g, p, n_parts, mode, k_max, member_cap) and \
        next(_valid(g, p, mode, k_max, member_cap, n_parts), None) is not None


def _below_filled(g: Hypergraph, p: Property, n_parts: int, mode: str,
                  k_max: int, member_cap: int) -> bool:
    """Are levels 1..n_parts-1 of G's lattice all nonempty, with n_parts
    at most |V(G)|?  Otherwise level n_parts is empty, with nothing of it
    decided."""
    if n_parts < 1:
        raise ValueError("need at least one part")
    if n_parts > g.n:
        p.member(g)  # nothing to decide, but a foreign or over-bound graph still raises
        return False
    return all(_level(g, p, mode, k_max, member_cap, k) for k in range(1, n_parts))


def is_uniquely_decomposable(g: Hypergraph, p: Property, mode: str = EXACT,
                             k_max: int = DEFAULT_K_MAX,
                             member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """Exactly one decomposition at the maximum part count.

    Graphs with maximum 1 qualify trivially.  Non-members (and the null
    graph, which has no nonempty-part partitions at all) do not.
    """
    res = dec_number(g, p, mode, k_max, member_cap)
    return res.value > 0 and \
        len(all_decompositions(g, p, res.value, mode, k_max, member_cap)) == 1


def unique_decomposition(g: Hypergraph, p: Property, mode: str = EXACT,
                         k_max: int = DEFAULT_K_MAX,
                         member_cap: int = DEFAULT_MEMBER_CAP) -> Decomposition:
    res = dec_number(g, p, mode, k_max, member_cap)
    if res.value == 0:
        raise HgError("graph has no decomposition at all")
    found = all_decompositions(g, p, res.value, mode, k_max, member_cap)
    if len(found) != 1:
        raise HgError(f"graph is not uniquely decomposable "
                      f"({len(found)} decompositions with {res.value} parts)")
    return found[0]


def strictness_witness(g: Hypergraph, p: FiniteForbidden) -> Optional[StrictnessWitness]:
    """Witness that some one-vertex join extension of G leaves P.

    Such an extension exists iff some forbidden F has a vertex v with
    F minus v embedding induced into G: gluing a fresh vertex to the
    image along F's edges at v realizes F, and conversely any bad
    extension restricted to G plus the new vertex contains a forbidden
    graph that uses the new vertex (G itself is clean).  Deterministic:
    first forbidden graph, then lowest removed vertex, then the first
    embedding.
    """
    if not isinstance(p, FiniteForbidden):
        raise HgError("strictness witnesses need a finite forbidden set")
    if not p.member(g):
        raise HgError("graph is not in the property")
    return _first_strictness_witness(g, p)


def _first_strictness_witness(g: Hypergraph, p: FiniteForbidden) \
        -> Optional[StrictnessWitness]:
    """strictness_witness' search, for a G already known to lie in P."""
    for f in p.forbidden:
        slices = _slices(f)
        for v in range(f.n):
            _, rest, _ = slices[tuple(w for w in range(f.n) if w != v)]
            emb = embed_induced(rest, g)
            if emb is not None:
                return StrictnessWitness(f, v, emb)
    return None


def is_strict(g: Hypergraph, p: Property, member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """Is G in P with some one-vertex join extension outside P?

    Exact criterion for finite forbidden sets.  A product closed under
    deleting an edge (ProductProperty.edge_closed) decides the densest
    extension alone, G plus a vertex joined to it by every admissible
    edge: every other extension is it minus some edges, so it leaves P
    iff some extension does.  That is one member streamed, refused only
    when member_cap < 1, and decided by _densest_holds, with no member
    built when the factors forbid only graphs on 2 vertices.  Another
    product whose factors are all finite forbidden sets first tries
    _product_certificate on G and one vertex: a certificate proves every
    one-vertex join extension a member, so G is not strict and no
    extension is streamed.  Otherwise brute force over all single-vertex
    join extensions, raising CapExceededError when there are more than
    member_cap of them.
    """
    if not p.member(g):
        raise HgError("graph is not in the property")
    return _strict_member(g, p, member_cap)


def _strict_member(g: Hypergraph, p: Property,
                   member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """is_strict for a G known to lie in P, with no membership test: for
    is_strict after its own, and for factor's strict-member scan, whose
    members come from P's member layers."""
    if isinstance(p, FiniteForbidden):
        return _first_strictness_witness(g, p) is not None
    return _is_strict_join(g, p, member_cap)


@lru_cache(maxsize=65536)
def _is_strict_join(g: Hypergraph, p: Property, member_cap: int) -> bool:
    """_strict_member for a property that is no finite forbidden set,
    memoised: factor._strict_members asks again about every member on
    each pass, and without a certificate or closure under deleting an
    edge each answer streams every one-vertex extension.  A raise is not
    memoised."""
    one = Hypergraph(g.universe, 1, frozenset())
    host, masks = disjoint_union(g, one), [(1 << g.n) - 1, 1 << g.n]
    if isinstance(p, ProductProperty) and p.edge_closed and member_cap >= 1:
        pairs = _pair_index(host) if _pairs_only(p) else None
        return not _densest_holds(p, host, masks, 1, pairs)
    if isinstance(p, ProductProperty) and _product_certificate(p, host, masks):
        return False
    return _first_bad_member(p, [g, one], member_cap, "one-vertex join") is not None


def strictify(g: Hypergraph, p: FiniteForbidden) -> Hypergraph:
    """Some strict supergraph of G inside P, adding fewer vertices than
    the minimum forbidden order.

    Appends the vertices of a smallest forbidden graph one at a time,
    each carrying its edges into the earlier appended ones, and stops
    just before the appended prefix completes the forbidden graph.  The
    last member of the chain is strict: the next vertex is a one-vertex
    join extension realizing a forbidden graph.
    """
    if not isinstance(p, FiniteForbidden):
        raise HgError("strictify needs a finite forbidden set")
    if not p.member(g):
        raise HgError("graph is not in the property")
    if is_strict(g, p):
        return g
    f_min = min(p.forbidden, key=lambda f: (f.n, canonical_key(f)))
    slices = _slices(f_min)
    best = g
    for i in range(1, f_min.n + 1):
        _, prefix, _ = slices[tuple(range(i))]
        cand = disjoint_union(g, prefix)
        if not p.member(cand):
            return best
        best = cand
    raise HgError("internal error: appending a forbidden graph stayed in the property")


def ind_parts(g: Hypergraph, p: Property, mode: str = EXACT,
              k_max: int = DEFAULT_K_MAX,
              member_cap: int = DEFAULT_MEMBER_CAP) -> tuple:
    """Part-induced subgraphs of the unique maximal decomposition."""
    d = unique_decomposition(g, p, mode, k_max, member_cap)
    return tuple(induced(g, part) for part in d.parts)


def multiplicity(f: Hypergraph, g: Hypergraph, p: Property, mode: str = EXACT,
                 k_max: int = DEFAULT_K_MAX,
                 member_cap: int = DEFAULT_MEMBER_CAP) -> int:
    """Number of ind-parts of G containing f induced."""
    return sum(1 for part in ind_parts(g, p, mode, k_max, member_cap)
               if embed_induced(f, part) is not None)


def respects(d, d0) -> bool:
    """Every part of d lies inside a single part of d0."""
    d, d0 = _as_decomposition(d), _as_decomposition(d0)
    if d.ground != d0.ground:
        raise HgError("decompositions live on different vertex sets")
    return all(any(part <= ref for ref in d0.parts) for part in d.parts)


def respects_uniformly(d, d0, copies: Iterable) -> bool:
    """Every part of d picks one part of d0 that absorbs its slice in
    every copy.

    d and d0 partition the same ground set (d0 typically being a
    base-level partition extended over all copies); copies partition the
    ground set into the tracked blocks.
    """
    d, d0 = _as_decomposition(d), _as_decomposition(d0)
    if d.ground != d0.ground:
        raise HgError("decompositions live on different vertex sets")
    copies = [frozenset(c) for c in copies]
    cover = frozenset().union(*copies) if copies else frozenset()
    if cover != d.ground or sum(len(c) for c in copies) != len(cover):
        raise HgError("copies do not partition the vertex set")
    for part in d.parts:
        if not any(all(part & c <= ref for c in copies) for ref in d0.parts):
            return False
    return True
