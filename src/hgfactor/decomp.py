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
  host.  A product whose factors are all finite forbidden sets first
  tries a certificate (_product_certificate): the parts grouped by
  factor, each group passing the exact test on sub-masks of the host,
  searched by props._assign.  It proves every k-fold join a member, so
  "holds" costs no join member.  Other joins are scanned by
  brute force, densest member first (_first_bad_member), and only these
  build part graphs.  A refutation is exact; a pass is only "no failure
  up to k_max" and is marked as such.

Every join question, from join_subset_of, is_decomposition, the lattice
walk or the constructions, goes through one decision point (_decide),
which validates its arguments and keeps its answers in one memo
(_join_memo) keyed on the property, the block codes (_block_codes: each
block's order and edges on ranks, so equal part graphs of any hosts share
an entry) and the mode, with k_max and member_cap in BOUNDED mode.

One memoised walk of the partition lattice (_level) answers every
decomposition query: level k holds the valid k-part decompositions, each
refined from a valid one with one part fewer.  dec_number reads the
deepest nonempty level, all_decompositions reads one level, and the
uniqueness queries read the level at dec(G).  A level is walked depth
first (_valid): one part of a valid decomposition is split by placing its
vertices one at a time, and a partial split whose join is already
refuted cuts all of its completions, since every property here is
induced-hereditary.  Every decision, of a whole partition or a partial
one, goes through _decide.
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
    BoundExceededError,
    FiniteForbidden,
    ProductProperty,
    Property,
    min_forbidden_order,
    _assign,
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
    return _assign(factors, len(masks), lambda i, group, j: _exact_split(
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


def _join_bounded(p: Property, g: Hypergraph, masks: Sequence, k_max: int,
                  member_cap: int) -> JoinCheck:
    """The BOUNDED decision on blocks of g given as vertex bitmasks: tries
    k = 1..k_max copies of every block; its refutations are exact.

    A product that _product_certificate settles holds for every k, so it
    gets the same "holds" verdict with no member streamed; the proof is
    in that function.  A finite forbidden set is decided on g's bitmasks
    (_copies_split).  Anything else streams the members of each k-fold
    join over the nonempty blocks, none when every block is empty, and
    only then are the blocks' graphs built.
    """
    if isinstance(p, ProductProperty) and _product_certificate(p, g, masks):
        return JoinCheck(True, f"bounded k_max={k_max}")
    if isinstance(p, FiniteForbidden):
        for k in range(1, k_max + 1):
            witness = _copies_split(p, g, masks, k)
            if witness is not None:
                return JoinCheck(False, EXACT, witness=witness)
        return JoinCheck(True, f"bounded k_max={k_max}")
    parts = [induced(g, _bits(mask)) for mask in masks if mask]
    for k in range(1, k_max + 1):
        bad = _first_bad_member(p, [replicate(k, h) for h in parts], member_cap,
                                f"join of {k} copies") if parts else None
        if bad is not None:
            return JoinCheck(False, EXACT, counterexample=bad)
    return JoinCheck(True, f"bounded k_max={k_max}")


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


_join_memo = {}  # (p, block codes, mode[, k_max, member_cap]) -> witness or JoinCheck


def _decide(g: Hypergraph, p: Property, masks: Sequence, mode: str = EXACT,
            k_max: int = DEFAULT_K_MAX,
            member_cap: int = DEFAULT_MEMBER_CAP) -> JoinCheck:
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
    dropped past 120,000, and a raise is not stored."""
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
    return JoinCheck(value is None, EXACT, witness=value) if mode == EXACT else value


def _rgs(d: Decomposition) -> tuple:
    """d's restricted growth string: each vertex's part index, vertices
    ascending.  These strings order partitions as enumerate_partitions
    yields them."""
    label = {v: i for i, part in enumerate(d.parts) for v in part}
    return tuple(label[v] for v in sorted(label))


def _valid(g: Hypergraph, p: Property, mode: str, k_max: int, member_cap: int,
           k: int):
    """Yield the valid k-part decompositions of G, each once, deciding
    only as far as the caller reads.

    Level 1 is the one-part partition when it is valid: membership of G
    does not make it valid for a non-additive property, as every k-fold
    copy union of G must stay in P.  Merging two parts of a valid
    decomposition keeps it valid, in EXACT and BOUNDED mode alike
    (checked in the tests), so every valid k-part partition splits one
    part of a valid d at level k-1 (read from _level) in two.

    Those splits are walked depth first.  For each d and each part Q of
    d, Q's least vertex stays on the left side and the others are placed
    one at a time in ascending order, left side first.  A node whose
    right side is nonempty is decided (_decide) as a partial partition:
    d's other parts and the two sides on the vertices placed so far.  A
    refuted node cuts its subtree.  This is sound because every property
    here is induced-hereditary: every member of the j-fold join over a
    partial's parts is an induced subgraph of a member of the j-fold
    join over any completion's parts (copy the crossing edges between
    placed vertices, drop the others).  So a bad member at j copies
    gives one for every completion at the same j, which is no more than
    k_max in BOUNDED mode; a completion's decision would refute it too,
    or raise where the walk now answers.  "Holds" proves nothing about a
    completion and never cuts.  A node with an empty right side is a
    restriction of d and always holds, so it is not decided.

    Leaves, the full splits, are decided once each even when two d reach
    the same one, and valid ones are yielded in walk order, which is not
    enumerate_partitions order; _level sorts them.

    Raises: level 1 raises what its decision raises.  Above it, a
    partial that raises CapExceededError or BoundExceededError cuts
    nothing, and a leaf that raises one is held back: the generator
    raises it (the least in enumerate_partitions order, if several) only
    after yielding every valid decomposition.  A reader that stops at
    the first valid one (_has_decomposition) therefore never sees it,
    and a reader of the whole level sees it exactly when some undecided
    partition could still be valid.  Any other error propagates."""
    if k == 1:
        if p.member(g) and g.n and _decide(g, p, [(1 << g.n) - 1], mode, k_max,
                                           member_cap):
            yield Decomposition((g.vertices,))
        return
    def refuted(node):
        try:
            return not _decide(g, p, node, mode, k_max, member_cap)
        except (CapExceededError, BoundExceededError):
            return False

    seen, held = set(), None
    for d in _level(g, p, mode, k_max, member_cap, k - 1):
        masks = [sum(1 << v for v in q) for q in d.parts]
        for i, q in enumerate(d.parts):
            vs = sorted(q)
            fixed = masks[:i] + masks[i + 1:]
            stack = [(1, 1 << vs[0], 0)]  # (vertices placed, left, right)
            while stack:
                placed, left, right = stack.pop()
                node = tuple(sorted(fixed + [left, right], key=lambda m: m & -m)) \
                    if right else None
                if placed < len(vs):
                    if node is None or not refuted(node):
                        v = 1 << vs[placed]
                        stack.append((placed + 1, left, right | v))
                        stack.append((placed + 1, left | v, right))
                    continue
                if node is None or node in seen:
                    continue
                seen.add(node)
                try:
                    ok = _decide(g, p, node, mode, k_max, member_cap)
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


def _has_decomposition(g: Hypergraph, p: Property, n_parts: int, mode: str,
                       k_max: int, member_cap: int = DEFAULT_MEMBER_CAP) -> bool:
    """bool(all_decompositions(...)), walking level n_parts (_valid) only
    up to its first valid partition, in walk order, and keeping no memo
    of it.  Since merging two parts of a valid decomposition keeps it
    valid, it is true iff G has a decomposition with at least n_parts
    parts, that is iff dec(G) >= n_parts.  Levels below n_parts come
    from _level.

    It raises only where a walk deciding every split of level n_parts-1
    in enumerate_partitions order, up to its first valid partition,
    raises as well.  Levels below are read in full either way, and the
    pruned walk decides a subset of their partitions.  At level n_parts a
    partial partition that raises cuts nothing, and a full split that
    raises is held back until the walk ends with no valid partition (see
    _valid).  Then every split it did not decide is invalid, so that
    other walk decides every split, none valid, and raises at each one
    this walk saw raise.  An answer never depends on the raise: a valid
    partition found proves dec(G) >= n_parts outright."""
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
    if isinstance(p, ProductProperty) and _product_certificate(
            p, disjoint_union(g, one), [(1 << g.n) - 1, 1 << g.n]):
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
