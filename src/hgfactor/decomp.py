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
  part, for k = 1..k_max.  A product whose factors are all finite
  forbidden sets first tries a certificate (_product_certificate): the
  parts grouped by factor, each group passing the exact test.  It proves
  every k-fold join a member, so "holds" costs no join member.  Other
  joins are scanned by brute force, densest member first
  (_first_bad_member).  A refutation is exact; a pass is only "no
  failure up to k_max" and is marked as such.

One memoised walk of the partition lattice (_level) answers every
decomposition query: level k holds the valid k-part decompositions, each
refined from a valid one with one part fewer.  dec_number reads the
deepest nonempty level, all_decompositions reads one level, and the
uniqueness queries read the level at dec(G).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence

from .core import (
    CapExceededError,
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
)
from .props import (
    FiniteForbidden,
    ProductProperty,
    Property,
    min_forbidden_order,
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


_split_memo = {}  # (p, block codes) -> witness; oldest dropped past 120,000


def _split_fail_witness(p: FiniteForbidden, g: Hypergraph,
                        masks: Sequence) -> Optional[DecWitness]:
    """_exact_split on g's memoised index, a component skipped for good
    once it is not _in_host at all.  Memoised on p and the blocks' orders
    and edges on ranks; ranks keep _coded_edges' order, so equal part
    graphs of any hosts share an entry."""
    codes = []
    for mask in masks:
        rank = {v: i for i, v in enumerate(_bits(mask))}
        codes.append((len(rank), tuple((o, c, *map(rank.__getitem__, vs))
                                       for sup, o, c, vs in _coded_edges(g)
                                       if sup & mask == sup)))
    key = (p, tuple(codes))
    if key in _split_memo:
        return _split_memo[key]
    witness = _split_memo[key] = _exact_split(p, _incidence(g), masks,
                                              lambda comp: _in_host(comp, g))
    if len(_split_memo) > 120_000:
        del _split_memo[next(iter(_split_memo))]
    return witness


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


def _product_certificate(p: ProductProperty, parts: tuple) -> bool:
    """Can the parts be grouped by factor, empty groups allowed, so that
    each factor Fi's group passes the exact join test for Fi?  Needs
    every factor, nested products flattened, to be a finite forbidden
    set; False otherwise.

    A yes proves that every member M of every k-fold join over the parts
    lies in P.  Colour each copied part in M by its group's factor.  The
    vertices of colour i carry the copies of group i's parts and some
    edges between different parts, so they induce a member of the k-fold
    join over group i, which lies in Fi by the exact test.  The colour
    classes are then the blocks that ProductProperty.member asks for.  No
    additivity is used.

    Every group is decided as bitmask blocks of the parts' disjoint
    union, by _exact_split on one index built for this call and kept in
    no memo: most part tuples are seen once, and the host-keyed memos
    would grow with them.  Each (factor, group) pair is decided at most
    once per call.
    """
    factors = _factors(p)
    if not all(isinstance(f, FiniteForbidden) for f in factors):
        return False
    host = _incidence.__wrapped__(reduce(disjoint_union, parts))
    masks = _part_masks(parts)
    decided = {}

    def fits(i: int, group: tuple) -> bool:
        if (i, group) not in decided:
            decided[i, group] = _exact_split(
                factors[i], host, [masks[j] for j in group]) is None
        return decided[i, group]

    return any(all(fits(i, tuple(j for j, a in enumerate(assign) if a == i))
                   for i in range(len(factors)))
               for assign in itertools.product(range(len(factors)), repeat=len(parts)))


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


@lru_cache(maxsize=120_000)
def _join_cached(p: Property, parts: tuple, k_max: int, member_cap: int) -> JoinCheck:
    """The BOUNDED join memo: tries k = 1..k_max copies of every part;
    its refutations are exact.

    A product that _product_certificate settles holds for every k, so it
    gets the same "holds" verdict with no member streamed; the proof is
    in that function.  Any other product streams its members.
    """
    if isinstance(p, ProductProperty) and _product_certificate(p, parts):
        return JoinCheck(True, f"bounded k_max={k_max}")
    for k in range(1, k_max + 1):
        blown = [replicate(k, g) for g in parts]
        if isinstance(p, FiniteForbidden):
            # a bad member exists iff some forbidden graph slices into the
            # k-fold copied parts, whole slices embedding induced
            def fit(i, block, g, comps):
                emb = embed_induced(g, blown[i])
                return None if emb is None else [ComponentEmbedding(i, block, emb)]

            witness = _first_split(p, len(blown), fit)
            if witness is not None:
                return JoinCheck(False, EXACT, witness=witness)
        elif any(b.n for b in blown):
            bad = _first_bad_member(p, [b for b in blown if b.n], member_cap,
                                    f"join of {k} copies")
            if bad is not None:
                return JoinCheck(False, EXACT, counterexample=bad)
    return JoinCheck(True, f"bounded k_max={k_max}")


def join_subset_of(p: Property, parts: Sequence, mode: str = EXACT,
                   k_max: int = DEFAULT_K_MAX,
                   member_cap: int = DEFAULT_MEMBER_CAP) -> JoinCheck:
    """Does every k-fold join over the parts stay inside the property?

    EXACT mode needs a finite forbidden set and decides the question for
    all k at once, the parts laid side by side as blocks of one host.
    BOUNDED mode brute-forces k = 1..k_max; a "holds" answer is then only
    a bounded verdict and says so in confidence.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("need at least one part")
    for g in parts:
        if g.universe != p.universe:
            raise HgError("part universe differs from the property's")
    if mode == EXACT:
        if not isinstance(p, FiniteForbidden):
            raise HgError("exact join containment needs a finite forbidden set")
        witness = _split_fail_witness(p, reduce(disjoint_union, parts), _part_masks(parts))
        return JoinCheck(witness is None, EXACT, witness=witness)
    if mode == BOUNDED:
        return _join_cached(p, parts, k_max, member_cap)
    raise ValueError(f"unknown mode {mode!r}")


def _as_decomposition(d) -> Decomposition:
    return d if isinstance(d, Decomposition) else Decomposition(tuple(d))


def is_decomposition(g: Hypergraph, d, p: Property, mode: str = EXACT,
                     k_max: int = DEFAULT_K_MAX,
                     member_cap: int = DEFAULT_MEMBER_CAP) -> JoinCheck:
    """Is d a valid decomposition of G for P?  Truthy JoinCheck.  EXACT
    mode decides the parts as bitmasks of G; BOUNDED mode, and bad
    arguments, go to join_subset_of with the induced parts."""
    d = _as_decomposition(d)
    if d.ground != frozenset(g.vertices):
        raise HgError("parts do not partition the vertex set")
    if mode == EXACT and d.parts and isinstance(p, FiniteForbidden) \
            and g.universe == p.universe:
        witness = _split_fail_witness(p, g, [sum(1 << v for v in part) for part in d.parts])
        return JoinCheck(witness is None, EXACT, witness=witness)
    parts = [induced(g, part) for part in d.parts]
    return join_subset_of(p, parts, mode, k_max, member_cap)


def _refinements(d: Decomposition):
    """Partitions obtained by splitting one part of d in two."""
    for idx, part in enumerate(d.parts):
        if len(part) < 2:
            continue
        members = sorted(part)
        anchor, rest = members[0], members[1:]
        # anchor stays on the left side: each unordered split once
        for r in range(len(rest) + 1):
            for picks in itertools.combinations(rest, r):
                left = frozenset((anchor,) + picks)
                right = part - left
                if not right:
                    continue
                yield Decomposition(d.parts[:idx] + (left, right) + d.parts[idx + 1:])


def _rgs(d: Decomposition) -> tuple:
    """d's restricted growth string: each vertex's part index, vertices
    ascending.  These strings order partitions as enumerate_partitions
    yields them."""
    label = {v: i for i, part in enumerate(d.parts) for v in part}
    return tuple(label[v] for v in sorted(label))


def _valid(g: Hypergraph, p: Property, mode: str, k_max: int, member_cap: int,
           k: int):
    """Yield the valid k-part decompositions of G, in enumerate_partitions
    order, deciding each partition only when the caller asks for the next.

    Level 1 is the one-part partition when it is valid: membership of G
    does not make it valid for a non-additive property, as every k-fold
    copy union of G must stay in P.  Level k is the valid refinements of
    level k-1 (read from _level), each decided once.  Merging two parts
    of a valid decomposition keeps it valid, in EXACT and BOUNDED mode
    alike (checked in the tests), so every valid partition refines a
    valid one with one part fewer: a partition the walk never reaches is
    invalid.
    """
    if k == 1:
        kids = {(0,) * g.n: Decomposition((g.vertices,))} if p.member(g) and g.n else {}
    else:
        kids = {_rgs(c): c for d in _level(g, p, mode, k_max, member_cap, k - 1)
                for c in _refinements(d)}
    for _, d in sorted(kids.items()):
        if is_decomposition(g, d, p, mode, k_max, member_cap):
            yield d


@lru_cache(maxsize=4096)
def _level(g: Hypergraph, p: Property, mode: str, k_max: int, member_cap: int,
           k: int) -> tuple:
    """The valid k-part decompositions of G, in enumerate_partitions order
    (_valid, memoised in full)."""
    return tuple(_valid(g, p, mode, k_max, member_cap, k))


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


def _has_decomposition(g: Hypergraph, p: Property, n_parts: int, mode: str,
                       k_max: int, member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """bool(all_decompositions(...)), deciding level n_parts only up to
    its first valid partition and keeping no memo of it.  Since merging
    two parts of a valid decomposition keeps it valid, it is true iff G
    has a decomposition with at least n_parts parts, that is iff
    dec(G) >= n_parts.  Levels below n_parts come from _level."""
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

    Exact criterion for finite forbidden sets.  A product whose factors
    are all finite forbidden sets first tries _product_certificate on G
    and one vertex: a certificate proves every one-vertex join extension
    a member, so G is not strict and no extension is streamed.  Otherwise
    brute force over all single-vertex join extensions, raising
    CapExceededError when there are more than member_cap of them.
    """
    if isinstance(p, FiniteForbidden):
        return strictness_witness(g, p) is not None
    return _is_strict_join(g, p, member_cap)


@lru_cache(maxsize=65536)
def _is_strict_join(g: Hypergraph, p: Property, member_cap: int) -> bool:
    """is_strict for a property that is no finite forbidden set, memoised:
    factor._strict_members asks again about every member on each pass,
    and without a certificate each answer streams every one-vertex
    extension.  A raise is not memoised."""
    if not p.member(g):
        raise HgError("graph is not in the property")
    one = Hypergraph(g.universe, 1, frozenset())
    if isinstance(p, ProductProperty) and _product_certificate(p, (g, one)):
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
