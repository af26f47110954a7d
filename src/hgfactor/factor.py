"""Bounded factorization of properties into irreducible factors.

Nothing here decides property equality in general: every verdict is
relative to an explicit vertex bound and says so.  A factorization
"verified at n" means both sides agree on every graph with at most n
vertices; a dec bracket (lower, upper) sandwiches the true minimum of
the maximal part count over all strict members.  Two candidate factors
are the same at n when their forbidden antichains have the same graphs
on at most n vertices (factor_search has the proof).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .core import (
    CapExceededError,
    Hypergraph,
    HgError,
    canonical_form,
    canonical_key,
    embed_induced,
    induced,
)
from .generate import EnumSpec, _decided, _members_up_to, enumerate_hypergraphs
from .props import (
    FiniteForbidden,
    GeneratedBounded,
    ProductProperty,
    Property,
    is_additive,
    min_forbidden_order,
)
from .decomp import (
    BOUNDED,
    DEFAULT_MEMBER_CAP,
    EXACT,
    _factors,
    _has_decomposition,
    _strict_member,
    all_decompositions,
    dec_number,
)

__all__ = [
    "IRREDUCIBLE_CERTIFIED",
    "REDUCIBLE",
    "UNKNOWN",
    "FullMultiplicityError",
    "Factorisation",
    "VerifyResult",
    "DecBounds",
    "IrreducibilityVerdict",
    "verify_factorisation",
    "dec_bounds",
    "irreducibility_test",
    "factor_search",
    "ind_part_family",
    "case_split",
]

IRREDUCIBLE_CERTIFIED = "IRREDUCIBLE_CERTIFIED"
REDUCIBLE = "REDUCIBLE"
UNKNOWN = "UNKNOWN"


class FullMultiplicityError(HgError):
    """The chosen graph hits every ind-part of some family member, so the
    bounded-multiplicity split does not apply."""


def _check_workers(workers: int) -> None:
    """workers= is accepted and ignored: every search runs serially, in
    the calling thread.  Values below 1 are still rejected."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _mode_for(p: Property) -> str:
    return EXACT if isinstance(p, FiniteForbidden) else BOUNDED


@dataclass(frozen=True)
class Factorisation:
    """factors verified to multiply to the target property on every
    graph with at most equality_bound vertices."""

    factors: tuple
    equality_bound: int
    dec_bracket: tuple

    def __post_init__(self):
        lo, hi = self.dec_bracket
        if lo > hi:
            raise ValueError("inverted dec bracket")
        for f in self.factors:
            if isinstance(f, FiniteForbidden) and not is_additive(f):
                raise ValueError("factor is not additive")


@dataclass(frozen=True)
class VerifyResult:
    holds: bool
    bound: int
    counterexample: Optional[Hypergraph] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class DecBounds:
    lower: int
    upper: int
    witness: Optional[tuple] = None  # (strict graph, its maximal decomposition)
    note: str = ""

    def __iter__(self):
        return iter((self.lower, self.upper))


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str
    factorisations: tuple = ()
    witness: Optional[tuple] = None
    note: str = ""


def verify_factorisation(p: Property, factors: Sequence, n: int,
                         workers: int = 1) -> VerifyResult:
    """Do P and the product of the factors agree on every graph with at
    most n vertices?  The reported counterexample is the first
    disagreeing graph in enumeration order.  workers is accepted and
    ignored (at least 1): the scan is serial.

    No graph is scanned when the factors, nested products flattened, are
    P's own flattened factors in some order and all are finite forbidden
    sets: composition is associative and commutative for membership (a
    vertex partition into blocks, one per factor, can be regrouped and
    reordered), so the two representations agree on every graph.  A
    factor of any other kind, such as a GeneratedBounded one that raises
    past its bound, always gets the full scan.

    When P's flattened factors and the product's are all finite forbidden
    sets, P and the product are both induced-hereditary (partition_solve
    allows empty blocks, so a valid partition of G restricted to an
    induced subgraph H is a valid partition of H, each block of H
    inducing a subgraph of the same block of G and each factor being
    hereditary).  Then only P's member layers are scanned
    (generate._decided): P's members, and the non-members that its
    layers reach from a member parent, each with P's verdict kept there.
    A skipped graph never comes first among the disagreeing ones.  Let G
    be the first graph in enumeration order on which P and the product
    disagree.  If G is in P, it is in P's layers.  If not, G holds a
    minimal non-member H of P as an induced subgraph, and H lies in the
    product since G does, so H disagrees too; H comes no later than G,
    vertex counts ascending first, so H is G.  Deleting a vertex of its
    first least-degree cell then leaves a member, so G is in P's layers
    too.  The layers are the full stream's classes filtered, in the same
    order, so the first disagreeing graph they hold is the one reported.
    Any other P, or a factor of any other kind, gets the full scan.
    """
    _check_workers(workers)
    prod = ProductProperty(tuple(factors))
    spec = EnumSpec(p.universe, n)  # an over-cap or negative n still raises
    own = _factors(prod)
    if all(isinstance(f, FiniteForbidden) for f in own):
        if Counter(own) == Counter(_factors(p)):
            return VerifyResult(True, n)
        if all(isinstance(f, FiniteForbidden) for f in _factors(p)):
            for m in range(n + 1):
                for g, holds in _decided(p, m):
                    if holds != bool(prod.member(g)):
                        return VerifyResult(False, n, g)
            return VerifyResult(True, n)
    for g in enumerate_hypergraphs(spec):
        if bool(p.member(g)) != bool(prod.member(g)):
            return VerifyResult(False, n, g)
    return VerifyResult(True, n)


def _strict_members(p: Property, n: int):
    """P's strict members on 1 to n vertices, in enumeration order.  Only
    P's members are enumerated (generate._members_up_to, which has the
    proof that they are the full stream's members in the same order), so
    strictness is asked with no second membership test
    (decomp._strict_member)."""
    for g in _members_up_to(p, n):
        if g.n and _strict_member(g, p):
            yield g


def dec_bounds(p: Property, n: int, k_max: int = 1) -> DecBounds:
    """Bracket the minimum maximal-part-count over strict members.

    upper scans the strict members with at most n vertices in
    enumeration order and keeps the first of least dec (the true value is
    a minimum over all strict members, so any finite scan only
    overshoots); lower is the factor count m, nested products
    flattened, each factor contributing at least one part.
    Non-forbidden-set representations are scanned in bounded join mode
    (k_max), which for the shapes handled here is still exact on
    refutations.

    The scan stops once the bracket is closed at its proven lower bound:
    when the factors F1..Fm are all additive finite forbidden sets, dec
    is additive over the product, so every strict G has bounded dec(G)
    >= dec(G) >= dec(P) = dec(F1) + ... + dec(Fm) >= m = lower.  No
    later member can lower upper, and the first witness stays the
    witness.  A plain additive forbidden set is the case m = 1.  Once
    upper is set, a member is decided in full only when it has no
    decomposition into upper parts, the one case in which it could lower
    upper.

    Brackets are memoised per (p, n, k_max) for the life of the process;
    a call that raises is not remembered and raises again when repeated.
    """
    # lru_cache keys on the call's spelling, so normalise k_max here
    return _dec_bounds(p, n, k_max)


@lru_cache(maxsize=256)
def _dec_bounds(p: Property, n: int, k_max: int) -> DecBounds:
    """dec_bounds' scan.  It ends at a member with no decomposition, or
    at upper == lower when every flattened factor is an additive finite
    forbidden set (dec_bounds has the proof; such a product is additive,
    so no member has dec 0 and the first exit is never skipped).

    A member with a valid decomposition into upper parts has dec >= upper
    (dec is the largest valid part count), and the first witness of
    least dec is kept only on a strict decrease, so skipping it changes
    nothing.  The skip test asks only whether level upper of the
    member's partition lattice is nonempty: merging two parts of a valid
    decomposition keeps it valid, so dec >= upper iff that level has a
    valid partition.  decomp._has_decomposition reads levels 1..upper-1
    from the same memoised lattice as dec_number and walks level upper
    only up to its first valid partition, so a skipped member costs no
    level that cannot lower the bracket and at most part of level upper.
    In EXACT mode it first tries a colouring of the member with at most
    upper classes, none holding a whole edge: when the join over upper
    single vertices holds (one decision per process), such a colouring is
    a valid decomposition, and the member is skipped with no level read
    or walked.  For bip at 6 a colouring settles all 54 skip tests.
    In bounded mode a split of level upper that raises CapExceededError
    is held back and raised only when the walk finds no valid partition,
    so a member with a decomposition into upper parts is skipped without
    a raise.

    Each member is decided once, with the least work that settles it.
    Its membership comes from P's member layers (generate._decided, with
    a finite forbidden set asked only about copies through the growth
    vertex), so its strictness is asked with no second membership test
    (decomp._strict_member).  Once upper is set, EXACT mode asks the
    skip test before strictness: a member with dec >= upper cannot lower
    the bracket whether or not it is strict, the EXACT skip test cannot
    raise (see decomp._has_decomposition), and a colouring settles it for
    less than a strictness test costs.  A member that fails it is still
    tested for strictness before dec_number, since a member that is not
    strict may have dec below upper (the paw in C5-free, for one).  So
    the members passed to dec_number, and the bracket, are those of the
    strictness-first order.  BOUNDED mode keeps that order: there a walk
    may raise, and it costs more than a strictness test.
    """
    mode = _mode_for(p)
    factors = _factors(p)
    lower = len(factors)
    closes = all(isinstance(f, FiniteForbidden) and is_additive(f) for f in factors)
    upper = None
    witness = None
    for g in _members_up_to(p, n):
        if not g.n:
            continue
        if upper is None or mode != EXACT:
            if not _strict_member(g, p):
                continue
            if upper is not None and _has_decomposition(g, p, upper, mode, k_max):
                continue  # dec(g) >= upper: it cannot lower the bracket
        elif _has_decomposition(g, p, upper, mode, k_max) or not _strict_member(g, p):
            continue  # the skip test first: in EXACT mode it cannot raise
        res = dec_number(g, p, mode, k_max)
        if upper is None or res.value < upper:
            upper, witness = res.value, (g, res.decomposition)
        if upper == 0 or (upper == lower and closes):
            break
    note = ""
    if upper is None:
        if isinstance(p, FiniteForbidden):
            upper = min_forbidden_order(p) - 1
            note = (f"no strict member within {n} vertices; upper bound is the "
                    f"minimum forbidden order minus one")
        else:
            raise HgError(f"no strict member within {n} vertices")
    if upper == 0:
        # some strict member admits no decomposition at all, so even the
        # one-part join fails for it; only non-additive properties do
        # this and the factor calculus does not apply to them
        raise HgError("a strict member has no decomposition; "
                      "factor bounds need an additive property")
    if lower > upper:
        raise HgError("internal error: dec bracket inverted")
    return DecBounds(lower, upper, witness, note)


def _connected_candidates(p: Property, max_size: int) -> list:
    """Finite-forbidden properties with connected forbidden antichains
    drawn from graphs of 2..max_size vertices (additive by construction);
    the 2^(graph count) subsets to scan are capped at DEFAULT_MEMBER_CAP."""
    conn = [g for g in enumerate_hypergraphs(
        EnumSpec(p.universe, max_size, connected_only=True)) if g.n >= 2]
    if 1 << len(conn) > DEFAULT_MEMBER_CAP:
        raise CapExceededError(f"{len(conn)} connected graphs give 2^{len(conn)} "
                               "candidate forbidden sets, over the cap")
    out = []
    for r in range(1, len(conn) + 1):
        for combo in itertools.combinations(conn, r):
            if all(embed_induced(a, b) is None
                   for a, b in itertools.permutations(combo, 2)):
                out.append(FiniteForbidden(p.universe, combo))
    return out


def _antichain_key(f: FiniteForbidden, n: int) -> tuple:
    """f's identity on graphs up to n vertices (proof: factor_search)."""
    return tuple(canonical_key(h) for h in f.forbidden if h.n <= n)


def factor_search(p: Property, candidate_forbidden_size: int, equality_bound: int,
                  workers: int = 1, _depth: int = 0) -> list:
    """Factorizations of P that verify at the equality bound.

    Candidate factors are finite-forbidden properties whose forbidden
    antichains use connected graphs of at most candidate_forbidden_size
    vertices (connectedness keeps every candidate additive).  Tuples up
    to the dec upper bound are verified extensionally; verified factors
    are refined recursively while they test reducible; results are
    deduplicated as unordered multisets under bounded property equality.
    Combinations are checked one after another in a plain loop; workers
    is accepted and ignored (at least 1).

    A refined tuple is not verified again.  Refining swaps a factor F
    for factors verified to multiply to F on every graph with at most n
    vertices.  A product's verdict on a graph H reads only its factors'
    verdicts on blocks of H, none larger than H, so swapping block by
    block the refined tuple verifies whenever the original did.

    Bounded equality comes from the forbidden antichains (_antichain_key),
    with no graph enumerated.  Every factor that reaches the dedupe is a
    FiniteForbidden from _connected_candidates.  Its forbidden graphs on
    at most n vertices are exactly its minimal non-members on at most n
    vertices: they form an antichain, so each is a non-member whose
    proper induced subgraphs are members.  A non-member on at most n
    vertices contains one, so two factors agree on every graph up to n
    iff their keys, the canonical keys of those forbidden graphs in
    stored order, are equal.
    """
    _check_workers(workers)
    if _depth > 4:
        return []
    bracket = dec_bounds(p, equality_bound)
    if bracket.upper < 2:
        return []
    candidates = _connected_candidates(p, candidate_forbidden_size)
    verified = []
    for length in range(2, bracket.upper + 1):
        for combo in itertools.combinations_with_replacement(candidates, length):
            if verify_factorisation(p, combo, equality_bound):
                verified.append(combo)

    def refine(factors) -> tuple:
        out = []
        for f in factors:
            verdict = irreducibility_test(f, equality_bound,
                                          candidate_forbidden_size,
                                          _depth=_depth + 1)
            if verdict.status == REDUCIBLE and verdict.factorisations:
                out.extend(refine(verdict.factorisations[0].factors))
            else:
                out.append(f)
        return tuple(out)

    results = []
    seen = set()
    for combo in verified:
        refined = refine(combo)
        key = tuple(sorted(_antichain_key(f, equality_bound) for f in refined))
        if key in seen:
            continue
        seen.add(key)
        results.append(Factorisation(refined, equality_bound,
                                     (bracket.lower, bracket.upper)))
    return results


def irreducibility_test(p: Property, n: int, candidate_forbidden_size: int = 2,
                        workers: int = 1, _depth: int = 0) -> IrreducibilityVerdict:
    """Certify irreducibility via a strict member with maximal part
    count 1, or exhibit a verified factorization, or give up.  workers
    is accepted and ignored (at least 1)."""
    _check_workers(workers)
    bracket = dec_bounds(p, n)
    if bracket.upper == 1:
        return IrreducibilityVerdict(
            IRREDUCIBLE_CERTIFIED, witness=bracket.witness,
            note="strict member with maximal part count 1")
    found = factor_search(p, candidate_forbidden_size, n, _depth=_depth)
    if found:
        return IrreducibilityVerdict(REDUCIBLE, tuple(found))
    return IrreducibilityVerdict(
        UNKNOWN, note=f"no certificate either way at bound {n}")


def _strict_unique_family(p: Property, n: int, k_max: int) -> list:
    """Strict, uniquely decomposable members with the maximal part count
    equal to the dec upper bound, paired with their decompositions."""
    ub = dec_bounds(p, n, k_max).upper
    mode = _mode_for(p)
    fam = []
    for g in _strict_members(p, n):
        if dec_number(g, p, mode, k_max).value != ub:
            continue
        found = all_decompositions(g, p, ub, mode, k_max)
        if len(found) == 1:
            fam.append((g, found[0]))
    return fam


def ind_part_family(p: Property, n: int, k_max: int = 1) -> tuple:
    """Union of the ind-parts over every strict, uniquely decomposable
    member within the bound whose maximal part count meets the dec upper
    bound.  Needs an additive property (additivity checked exactly for
    forbidden sets, at the same bound otherwise)."""
    if not is_additive(p, search_bound=None if isinstance(p, FiniteForbidden) else n):
        raise HgError("the property is not additive")
    parts = {}
    for g, d in _strict_unique_family(p, n, k_max):
        for part in d.parts:
            h = induced(g, part)
            parts.setdefault(canonical_key(h), h)
    return tuple(sorted((canonical_form(parts[k]) for k in parts),
                        key=lambda h: (h.n, canonical_key(h))))


def case_split(p: Property, f: Hypergraph, n: int, k_max: int = 1) -> tuple:
    """Split by whether an ind-part contains f.

    Over the strict uniquely-decomposable family, f must appear in some
    ind-parts but never in all of them (full multiplicity defeats the
    split).  Members attaining the peak multiplicity contribute the
    union of their f-carrying parts as generators of the first returned
    property and the union of the rest as generators of the second; both
    come back bounded at n.
    """
    if not is_additive(p, search_bound=None if isinstance(p, FiniteForbidden) else n):
        raise HgError("the property is not additive")
    ub = dec_bounds(p, n, k_max).upper
    fam = [(g, d, [part for part in d.parts if embed_induced(f, induced(g, part)) is not None])
           for g, d in _strict_unique_family(p, n, k_max)]
    peak = max((len(carrying) for _, _, carrying in fam), default=0)
    if peak == 0:
        raise HgError("the graph appears in no ind-part over the family")
    if peak == ub:
        raise FullMultiplicityError(
            "the graph hits every ind-part of some family member")
    with_gens = {}
    without_gens = {}
    for g, d, carrying in fam:
        if len(carrying) != peak:
            continue
        rest = [part for part in d.parts if part not in carrying]
        hit = induced(g, frozenset().union(*carrying))
        miss = induced(g, frozenset().union(*rest) if rest else frozenset())
        with_gens.setdefault(canonical_key(hit), canonical_form(hit))
        without_gens.setdefault(canonical_key(miss), canonical_form(miss))
    return (GeneratedBounded(p.universe, tuple(with_gens.values()), n),
            GeneratedBounded(p.universe, tuple(without_gens.values()), n))
