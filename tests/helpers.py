"""Brute-force oracles, written independently of the library internals.

Everything here works on explicit edge triples and permutation search so
that library results (embeddings, canonical forms, join criteria,
strictness) can be checked against a second opinion that shares no code
with the implementation under test.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from hgfactor import (
    BOUNDED,
    CANONICAL_ORDER_CAP,
    CapExceededError,
    DecBounds,
    EXACT,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    Factorisation,
    FiniteForbidden,
    FullMultiplicityError,
    GeneratedBounded,
    HgError,
    Hypergraph,
    ProductProperty,
    VerifyResult,
    canonical_form,
    canonical_key,
    dec_bounds,
    dec_number,
    embed_induced,
    enumerate_hypergraphs,
    forbidden_property,
    induced,
    ind_parts,
    is_strict,
    is_uniquely_decomposable,
    member,
    min_forbidden_order,
    multiplicity,
    unique_decomposition,
    verify_factorisation,
)
from hgfactor.core import _codes


def edge_triple(e):
    verts = e.vertices if e.kind is EdgeKind.ORDERED else tuple(sorted(e.vertices))
    return (e.kind.value, verts, e.colour)


def graph_triples(g):
    return frozenset(edge_triple(e) for e in g.edges)


def mapped_triples(f, mapping):
    """f's triples with vertex i renamed to mapping[i]."""
    out = set()
    for e in f.edges:
        verts = tuple(mapping[v] for v in e.vertices)
        if e.kind is not EdgeKind.ORDERED:
            verts = tuple(sorted(verts))
        out.add((e.kind.value, verts, e.colour))
    return frozenset(out)


def image_triples(g, image):
    image = frozenset(image)
    return frozenset(edge_triple(e) for e in g.edges
                     if frozenset(e.vertices) <= image)


def brute_embeddings(f, g):
    for mapping in itertools.permutations(range(g.n), f.n):
        if mapped_triples(f, mapping) == image_triples(g, mapping):
            yield mapping


def brute_embed(f, g):
    for m in brute_embeddings(f, g):
        return m
    return None


def brute_iso(a, b):
    return a.n == b.n and len(a.edges) == len(b.edges) \
        and brute_embed(a, b) is not None


def brute_canonical_key(g):
    best = None
    for perm in itertools.permutations(range(g.n)):
        key = tuple(sorted(mapped_triples(g, perm)))
        if best is None or key < best:
            best = key
    return (g.n, best or ())


def brute_automorphisms(g):
    """Every vertex permutation that maps g's edge set onto itself."""
    own = graph_triples(g)
    return [perm for perm in itertools.permutations(range(g.n))
            if mapped_triples(g, perm) == own]


def reference_format(g):
    """The hypergraph v1 text of g, each line written afresh: header,
    universe, vertex count, then one line per edge in EdgeObject.sort_key
    order."""
    u = g.universe
    kinds = ",".join(sorted(k.value for k in u.kinds))
    arities = ",".join(str(a) for a in sorted(u.arities))
    out = ["hypergraph v1",
           f"universe: kinds={kinds} arities={arities} colours={','.join(u.colours)}",
           f"vertices: {g.n}"]
    for e in sorted(g.edges, key=EdgeObject.sort_key):
        verts = " ".join(str(v) for v in e.vertices)
        out.append(f"edge: {e.kind.value} {verts} ; {e.colour}")
    return "\n".join(out) + "\n"


def brute_member_ff(forbidden, g):
    return all(brute_embed(f, g) is None for f in forbidden)


def induced_block(g, block):
    """The subgraph of g induced on the given vertices, renamed 0.. in
    ascending order."""
    rank = {v: i for i, v in enumerate(sorted(block))}
    return Hypergraph(g.universe, len(rank), frozenset(
        EdgeObject(e.kind, tuple(rank[v] for v in e.vertices), e.colour)
        for e in g.edges if all(v in rank for v in e.vertices)))


def brute_member_product(forbidden_lists, g):
    """Is g in the product of the finite-forbidden factors whose forbidden
    graphs are given, one list per factor?  Every assignment of g's
    vertices to the factors is tried, each block checked by
    brute_member_ff."""
    return any(
        all(brute_member_ff(forbidden, induced_block(
            g, [v for v in range(g.n) if assign[v] == i]))
            for i, forbidden in enumerate(forbidden_lists))
        for assign in itertools.product(range(len(forbidden_lists)), repeat=g.n))


def admissible_edges(u, vertices):
    """Every edge the universe allows over the given vertex pool."""
    vertices = sorted(vertices)
    out = []
    for arity in sorted(u.arities):
        for combo in itertools.combinations(vertices, arity):
            for kind in sorted(u.kinds, key=lambda k: k.value):
                tuples = itertools.permutations(combo) \
                    if kind is EdgeKind.ORDERED else [combo]
                for verts in tuples:
                    for colour in u.colours:
                        out.append(EdgeObject(kind, verts, colour))
    return out


def random_graph(u, n, p, rng):
    """Random graph over u: each admissible edge kept with probability p."""
    pool = admissible_edges(u, range(n))
    return Hypergraph(u, n, frozenset(e for e in pool if rng.random() < p))


def random_hereditary(u, n, p, rng):
    """Three random hereditary properties over u: a forbidden set, a
    product of two forbidden sets, and a GeneratedBounded of bound n - 1
    with a generator on n - 1 vertices, so that some graph on n vertices
    has a member parent and asking about it raises."""
    def forbidden():
        graphs = [random_graph(u, rng.randint(2, 3), p, rng) for _ in range(3)]
        return forbidden_property(u, rng.sample(graphs, rng.randint(1, 3)))

    gens = [random_graph(u, n - 1, p, rng)] + [random_graph(u, rng.randint(1, n - 1), p, rng)]
    return (forbidden(), ProductProperty((forbidden(), forbidden())),
            GeneratedBounded(u, tuple(gens), n - 1))


def all_labeled_graphs(u, n):
    pool = admissible_edges(u, range(n))
    for r in range(len(pool) + 1):
        for chosen in itertools.combinations(pool, r):
            yield Hypergraph(u, n, frozenset(chosen))


def count_unlabeled(u, n):
    return len({brute_canonical_key(g) for g in all_labeled_graphs(u, n)})


def oracle_join_fails(forbidden, parts, k_max):
    """Criterion oracle: does some member of a join of up to k_max copies
    of the parts contain a forbidden graph?

    Copies of the parts are laid out disjointly; every placement of a
    forbidden graph is tried; pairs falling across blocks are freely
    completable, so a placement works exactly when the within-block
    induced pattern matches.
    """
    for k in range(1, k_max + 1):
        # the k copies of one part form a single join block (their
        # disjoint union); crossing edges run only between different
        # parts, so pairs inside a block are fixed and everything across
        # blocks is freely completable
        block_of = {}
        total = 0
        edges = set()
        for i, part in enumerate(parts):
            for _ in range(k):
                for e in part.edges:
                    verts = tuple(v + total for v in e.vertices)
                    edges.add(EdgeObject(e.kind, verts, e.colour))
                for v in range(part.n):
                    block_of[v + total] = i
                total += part.n
        blown = Hypergraph(parts[0].universe, total, frozenset(edges))
        for f in forbidden:
            for mapping in itertools.permutations(range(total), f.n):
                want = {t for t in mapped_triples(f, mapping)
                        if len({block_of[v] for v in t[1]}) == 1}
                have = image_triples(blown, mapping)
                if want == have:
                    return True
    return False


def brute_one_vertex_extensions(g):
    """All members of the join of g with a single fresh vertex."""
    z = g.n
    cands = [e for e in admissible_edges(g.universe, range(g.n + 1))
             if z in e.vertices]
    out = []
    for r in range(len(cands) + 1):
        for chosen in itertools.combinations(cands, r):
            out.append(Hypergraph(g.universe, g.n + 1, g.edges | frozenset(chosen)))
    return out


def unpruned_layer(parents):
    """Every class one vertex up from the given classes, by unpruned
    growth: each parent plus every subset of the edges through the new
    vertex, keyed by the library's canonical_key, deduplicated, as
    canonical forms in key order."""
    from hgfactor import canonical_form, canonical_key
    reps = {}
    for p in parents:
        for h in brute_one_vertex_extensions(p):
            reps.setdefault(canonical_key(h), h)
    return tuple(canonical_form(reps[k]) for k in sorted(reps))


def least_degree_orbits(parent, first_cell=False):
    """How many orbits, under the parent's automorphisms with the new
    vertex fixed, the one-vertex extensions of the parent in which the
    new vertex has the least degree (edges at a vertex, of any kind and
    colour) fall into.  With first_cell, only the orbits whose new vertex
    also lies in the first cell of least degree of naive_cells, the
    cells of a refinement run to the end, are counted."""
    z = parent.n
    auts = [perm + (z,) for perm in brute_automorphisms(parent)]
    orbits = set()
    for h in brute_one_vertex_extensions(parent):
        deg = [0] * (z + 1)
        for e in h.edges:
            for v in e.vertices:
                deg[v] += 1
        if deg[z] != min(deg):
            continue
        if first_cell and h.edges:
            cells = naive_cells(z + 1, _codes(h.universe, h.edges))
            if z not in next(c for c in cells if deg[c[0]] == deg[z]):
                continue
        orbits.add(min(tuple(sorted(mapped_triples(h, a))) for a in auts))
    return len(orbits)


def brute_strict(g, member_fn):
    if not member_fn(g):
        return False
    return any(not member_fn(m) for m in brute_one_vertex_extensions(g))


def flat_factors(p):
    """p's factors with nested products flattened, or [p]."""
    if not isinstance(p, ProductProperty):
        return [p]
    return [f for q in p.factors for f in flat_factors(q)]


def reference_dec_bounds(p, n, k_max=1):
    """The dec bracket by a full scan: dec_number on every strict member
    with at most n vertices in enumeration order, keeping the first of
    least dec, with dec_bounds' note and errors and no early exit but
    the one at a member with no decomposition.  Returns the bracket and
    the dec of every strict member scanned."""
    mode = EXACT if isinstance(p, FiniteForbidden) else BOUNDED
    lower = len(flat_factors(p))
    upper = witness = None
    decs = []
    for g in enumerate_hypergraphs(EnumSpec(p.universe, n)):
        if g.n == 0 or not p.member(g) or not is_strict(g, p):
            continue
        res = dec_number(g, p, mode, k_max)
        decs.append(res.value)
        if upper is None or res.value < upper:
            upper, witness = res.value, (g, res.decomposition)
        if upper == 0:
            break
    note = ""
    if upper is None:
        if not isinstance(p, FiniteForbidden):
            raise HgError(f"no strict member within {n} vertices")
        upper = min_forbidden_order(p) - 1
        note = (f"no strict member within {n} vertices; upper bound is the "
                f"minimum forbidden order minus one")
    if upper == 0:
        raise HgError("a strict member has no decomposition; "
                      "factor bounds need an additive property")
    if lower > upper:
        raise HgError("internal error: dec bracket inverted")
    return DecBounds(lower, upper, witness, note), decs


def reference_verify_factorisation(p, factors, n):
    """verify_factorisation by a full scan: P and the product of the
    factors asked about every graph with at most n vertices in
    enumeration order, the first disagreeing graph reported."""
    prod = ProductProperty(tuple(factors))
    for g in enumerate_hypergraphs(EnumSpec(p.universe, n)):
        if bool(member(p, g)) != bool(member(prod, g)):
            return VerifyResult(False, n, g)
    return VerifyResult(True, n)


def forbidden_up_to(p, n):
    """p's minimal non-members with at most n vertices: every non-member
    whose one-vertex-deleted subgraphs are all members.  For a hereditary
    p, the finite forbidden set on them agrees with p up to n."""
    return [g for g in enumerate_hypergraphs(EnumSpec(p.universe, n))
            if not member(p, g)
            and all(member(p, induced(g, set(range(g.n)) - {v})) for v in range(g.n))]


def all_assignments(n, k):
    return itertools.product(range(k), repeat=n)


def solve_by_assignment(g, factor_member_fns):
    """First vertex assignment whose blocks all pass, scanning all
    assignments in lexicographic order; None when none passes."""
    from hgfactor import induced
    k = len(factor_member_fns)
    for assign in all_assignments(g.n, k):
        blocks = [frozenset(v for v in range(g.n) if assign[v] == i)
                  for i in range(k)]
        if all(fn(induced(g, b)) for fn, b in zip(factor_member_fns, blocks)):
            return assign
    return None


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def stirling2(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def reference_fingerprint(p, n):
    """Bounded extensional identity by enumeration: the sorted canonical
    keys of p's members with at most n vertices."""
    return tuple(sorted(canonical_key(g)
                        for g in enumerate_hypergraphs(EnumSpec(p.universe, n))
                        if member(p, g)))


def reference_factor_search(p, candidate_forbidden_size, n, _depth=0):
    """factor_search with factor identity by enumeration: verified tuples
    of candidate factors are refined, each refined tuple is verified
    again (and the unrefined tuple kept if that fails), and results are
    deduplicated by reference_fingerprint.  Returns the factorisations
    and, for every top-level tuple that refinement changed, the tuple,
    its refinement and whether the refinement verified."""
    from hgfactor.factor import _connected_candidates
    if _depth > 4:
        return [], []
    bracket = dec_bounds(p, n)
    if bracket.upper < 2:
        return [], []
    candidates = _connected_candidates(p, candidate_forbidden_size)
    verified = [combo for length in range(2, bracket.upper + 1)
                for combo in itertools.combinations_with_replacement(candidates, length)
                if verify_factorisation(p, combo, n)]

    def refine(factors):
        out = []
        for f in factors:
            # irreducibility_test: certified at dec 1, else reducible when
            # a factorisation is found
            found = [] if dec_bounds(f, n).upper == 1 else \
                reference_factor_search(f, candidate_forbidden_size, n, _depth + 1)[0]
            out.extend(refine(found[0].factors) if found else (f,))
        return tuple(out)

    results, refinements, seen = [], [], set()
    for combo in verified:
        refined = refine(combo)
        if refined != tuple(combo):
            holds = bool(verify_factorisation(p, refined, n))
            refinements.append((combo, refined, holds))
            if not holds:
                refined = tuple(combo)
        key = tuple(sorted(reference_fingerprint(f, n) for f in refined))
        if key not in seen:
            seen.add(key)
            results.append(Factorisation(refined, n, (bracket.lower, bracket.upper)))
    return results, refinements


def _reference_family(p, n, k_max):
    """Strict members with at most n vertices whose dec meets the dec
    upper bound and which are uniquely decomposable, with the bound."""
    mode = EXACT if isinstance(p, FiniteForbidden) else BOUNDED
    ub = dec_bounds(p, n, k_max).upper
    fam = [g for g in enumerate_hypergraphs(EnumSpec(p.universe, n))
           if g.n and member(p, g) and is_strict(g, p)
           and dec_number(g, p, mode, k_max).value == ub
           and is_uniquely_decomposable(g, p, mode, k_max)]
    return fam, mode, ub


def reference_ind_part_family(p, n, k_max=1):
    """ind_part_family from decomp.ind_parts on every family member."""
    fam, mode, _ = _reference_family(p, n, k_max)
    parts = {canonical_key(h): h for g in fam for h in ind_parts(g, p, mode, k_max)}
    return tuple(sorted((canonical_form(h) for h in parts.values()),
                        key=lambda h: (h.n, canonical_key(h))))


def reference_case_split(p, f, n, k_max=1):
    """case_split from decomp.multiplicity on every family member, with
    the same errors; the generators come from unique_decomposition."""
    fam, mode, ub = _reference_family(p, n, k_max)
    mults = [multiplicity(f, g, p, mode, k_max) for g in fam]
    peak = max(mults, default=0)
    if peak == 0:
        raise HgError("the graph appears in no ind-part over the family")
    if peak == ub:
        raise FullMultiplicityError("the graph hits every ind-part of some family member")
    with_gens, without_gens = {}, {}
    for g, m in zip(fam, mults):
        if m != peak:
            continue
        parts = unique_decomposition(g, p, mode, k_max).parts
        hit = frozenset().union(*(q for q in parts
                                  if embed_induced(f, induced(g, q)) is not None))
        for gens, block in ((with_gens, hit), (without_gens, frozenset(range(g.n)) - hit)):
            h = induced(g, block)
            gens.setdefault(canonical_key(h), canonical_form(h))
    return (GeneratedBounded(p.universe, tuple(with_gens.values()), n),
            GeneratedBounded(p.universe, tuple(without_gens.values()), n))


# core._cells and core._canon as they stood before the ordering loop became
# a pruned search, copied verbatim: the keys and cells that every stored
# key, enumeration order and digest were frozen from

def naive_cells(n: int, codes: Sequence) -> list:
    """Refined vertex classes of the graph on n vertices with these _codes,
    as ascending vertex lists in colour order.

    A vertex's profile lists, per incident edge, the kind bit, colour
    index, arity, own position (ordered edges only) and the current
    colours of the other members (of all members, in order, for an
    ordered edge), and colours are ranks of (colour, sorted profile) until
    the class count stops growing; every isomorphism, and so every
    automorphism, respects the final classes.  Raises CapExceededError
    when the orderings within the classes exceed CANONICAL_ORDER_CAP.
    """
    # at[v]: (profile entry head, vertices whose colours it carries, sort?)
    at = [[] for _ in range(n)]
    for ordered, ci, verts, _, _ in codes:
        r = len(verts)
        for i, v in enumerate(verts):
            if ordered:
                at[v].append((0, ci, r, i, verts, False))
            else:
                at[v].append((1, ci, r, -1, verts[:i] + verts[i + 1:], r > 2))
    colours = [0] * n
    n_classes = 1
    while n_classes < n:  # a discrete colouring cannot split further
        look = colours.__getitem__
        sigs = []
        for v in range(n):
            prof = [(o, ci, r, i, tuple(sorted(map(look, ws))) if srt
                     else tuple(map(look, ws))) for o, ci, r, i, ws, srt in at[v]]
            prof.sort()
            sigs.append((colours[v], tuple(prof)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(rank) == n_classes:
            break
        colours, n_classes = [rank[s] for s in sigs], len(rank)
    cells = {}
    for v in range(n):
        cells.setdefault(colours[v], []).append(v)
    cell_list = [cells[c] for c in sorted(cells)]
    total = 1
    for cell in cell_list:
        for i in range(2, len(cell) + 1):
            total *= i
        if total > CANONICAL_ORDER_CAP:
            raise CapExceededError(
                f"canonical labelling would try more than {CANONICAL_ORDER_CAP} orderings")
    return cell_list


# core._cells as it stood with tuple profiles, before each profile entry
# was coded as one int, kept word for word: the integer coding must give
# the same cells, in the same order, and the same None for a probe
def reference_cells(n: int, codes: Sequence, probe: int = -1) -> Optional[list]:
    """Refined vertex classes of the graph on n vertices with these _codes,
    as ascending vertex lists in colour order.

    A vertex's profile lists, per incident edge, the kind bit, colour
    index, arity, own position (ordered edges only) and the current
    colours of the other members (of all members, in order, for an
    ordered edge), and colours are ranks of (colour, sorted profile) until
    the class count stops growing; every isomorphism, and so every
    automorphism, respects the final classes.  Raises CapExceededError
    when the orderings within the classes exceed CANONICAL_ORDER_CAP.

    The first round ranks profiles of entry heads alone, built with the
    incidence lists.  Every colour is 0 in that round, so an entry's
    colours are a run of zeros whose length its kind bit and arity fix,
    and the signature's leading colour is 0 for every vertex: dropping
    both changes no comparison between signatures, so the ranks, the
    colours and the cells are those of the full round.

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
    # at[v]: (profile entry head, vertices whose colours it carries, sort?)
    at = [[] for _ in range(n)]
    heads = [[] for _ in range(n)]
    for ordered, ci, verts, _, _ in codes:
        r = len(verts)
        for i, v in enumerate(verts):
            if ordered:
                at[v].append((0, ci, r, i, verts, False))
                heads[v].append((0, ci, r, i))
            else:
                at[v].append((1, ci, r, -1, verts[:i] + verts[i + 1:], r > 2))
                heads[v].append((1, ci, r, -1))
    sigs = [tuple(sorted(prof)) for prof in heads]
    rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
    colours = [rank[s] for s in sigs]
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
        prof = [(o, ci, r, i, tuple(sorted(map(look, ws))) if srt
                 else tuple(map(look, ws))) for o, ci, r, i, ws, srt in at[v]]
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


def reference_least_ordering(n: int, codes: Sequence) -> list:
    """The label of each vertex in the first ordering within the
    naive_cells classes, in product order, whose key is reference_canon's:
    the least leaf, in which core._canon_search reads a probe's label."""
    cell_list = naive_cells(n, codes)
    best = labels = None
    mapping = [0] * n
    look = mapping.__getitem__
    for combo in itertools.product(*(itertools.permutations(c) for c in cell_list)):
        for i, v in enumerate(itertools.chain.from_iterable(combo)):
            mapping[v] = i
        key = sorted((len(verts), tuple(map(look, verts)) if ordered
                      else tuple(sorted(map(look, verts))), kind, colour)
                     for ordered, _, verts, kind, colour in codes)
        if best is None or key < best:
            best, labels = key, mapping[:]
    return labels


def reference_canon(n: int, codes: Sequence) -> tuple:
    """canonical_key of the graph on n vertices with these _codes.

    Each ordering within the _cells classes, in product order, maps the
    edges to (arity, vertices, kind value, colour) entries, and the least
    sorted list wins.
    """
    if not codes:
        return (n, ())
    cell_list = naive_cells(n, codes)
    best = None
    mapping = [0] * n
    look = mapping.__getitem__
    for combo in itertools.product(*(itertools.permutations(c) for c in cell_list)):
        i = 0
        for cell_perm in combo:
            for v in cell_perm:
                mapping[v] = i
                i += 1
        key = sorted((len(verts), tuple(map(look, verts)) if ordered
                      else tuple(sorted(map(look, verts))), kind, colour)
                     for ordered, _, verts, kind, colour in codes)
        if best is None or key < best:
            best = key
    return (n, tuple(best))
