"""Core data structures, embeddings, canonical forms and the text format."""

import itertools
import random
from functools import reduce

import pytest

from hgfactor import (
    CapExceededError,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    FormatError,
    Hypergraph,
    Universe,
    canonical_form,
    canonical_key,
    connected_components,
    crossing_edge_candidates,
    disjoint_union,
    embed_induced,
    enumerate_hypergraphs,
    format_hypergraph,
    induced,
    is_connected,
    is_isomorphic,
    join_members,
    parse_hypergraph,
    relabel,
    replicate,
    simple_graph,
    simple_universe,
)
from hgfactor.core import (_canon, _canon_search, _cells, _codes, _find, _format_universe,
                           _incidence, _pattern)
from helpers import (
    admissible_edges,
    brute_automorphisms,
    brute_canonical_key,
    brute_embed,
    brute_iso,
    count_unlabeled,
    graph_triples,
    image_triples,
    mapped_triples,
    random_graph,
    reference_canon,
    reference_cells,
    reference_format,
)

SEED = 20240811


def digraph_universe():
    return Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))


def two_colour_universe():
    return Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("r", "b"))


def triple_universe():
    return Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",))


def mixed_universe():
    return Universe(frozenset({EdgeKind.ORDERED, EdgeKind.UNORDERED}),
                    frozenset({2, 3}), ("e",))


# (universe, edge density) for oracle comparisons on every edge shape
UNIVERSE_CASES = [
    pytest.param(simple_universe(), 0.5, id="simple"),
    pytest.param(digraph_universe(), 0.35, id="digraph"),
    pytest.param(two_colour_universe(), 0.4, id="two_colour"),
    pytest.param(triple_universe(), 0.5, id="three_uniform"),
    pytest.param(mixed_universe(), 0.1, id="mixed"),
]


# --- universe and edge validation ---------------------------------------

def test_universe_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Universe(frozenset({EdgeKind.UNORDERED}), frozenset(), ("e",))
    with pytest.raises(ValueError):
        Universe(frozenset({EdgeKind.UNORDERED}), frozenset({1}), ("e",))
    with pytest.raises(ValueError):
        Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ())
    with pytest.raises(ValueError):
        Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("e", "e"))
    with pytest.raises(ValueError):
        Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("bad colour",))


def test_colour_index_follows_declaration_order():
    u = two_colour_universe()
    assert u.colour_index("r") == 0
    assert u.colour_index("b") == 1


def test_edge_object_normalization():
    e = EdgeObject(EdgeKind.UNORDERED, (2, 0), "e")
    assert e.vertices == (0, 2)
    d = EdgeObject(EdgeKind.ORDERED, (2, 0), "a")
    assert d.vertices == (2, 0)
    with pytest.raises(ValueError):
        EdgeObject(EdgeKind.UNORDERED, (1, 1), "e")  # loop
    with pytest.raises(ValueError):
        EdgeObject(EdgeKind.UNORDERED, (1,), "e")  # arity below 2


def test_hypergraph_validation(u):
    with pytest.raises(ValueError):
        Hypergraph(u, -1, frozenset())
    with pytest.raises(ValueError):
        simple_graph(2, [(0, 2)])  # vertex out of range
    with pytest.raises(ValueError):
        Hypergraph(u, 3, frozenset({EdgeObject(EdgeKind.UNORDERED, (0, 1), "x")}))
    with pytest.raises(ValueError):
        Hypergraph(u, 3, frozenset({EdgeObject(EdgeKind.ORDERED, (0, 1), "e")}))
    du = digraph_universe()
    with pytest.raises(ValueError):
        Hypergraph(du, 4, frozenset({EdgeObject(EdgeKind.ORDERED, (0, 1, 2), "a")}))


def test_null_graph_and_isolated_vertices(u, g):
    assert g.k0.n == 0
    assert list(g.k0.vertices) == []
    assert connected_components(g.k0) == []
    iso = simple_graph(3, [(0, 1)])
    comps = connected_components(iso)
    assert comps == [frozenset({0, 1}), frozenset({2})]


# --- vertex operations ----------------------------------------------------

def test_relabel_requires_bijection(g):
    with pytest.raises(ValueError):
        relabel(g.k2, [0, 0])
    with pytest.raises(ValueError):
        relabel(g.k2, [0, 2])


def test_relabel_round_trip(g):
    m = [2, 0, 3, 1]
    h = relabel(g.c4, m)
    inv = [0] * 4
    for old, new in enumerate(m):
        inv[new] = old
    assert relabel(h, inv) == g.c4
    assert canonical_key(h) == canonical_key(g.c4)


def test_induced_golden(g):
    assert induced(g.c4, [0, 1, 2]) == simple_graph(3, [(0, 1), (1, 2)])
    assert induced(g.c4, []) == g.k0
    assert induced(g.c4, range(4)) == g.c4
    with pytest.raises(ValueError):
        induced(g.c4, [0, 4])


def test_disjoint_union_and_replicate(g):
    two = disjoint_union(g.k2, g.k2)
    assert two == g.two_k2
    r = replicate(3, g.k2)
    assert r.n == 6 and len(r.edges) == 3
    assert len(connected_components(r)) == 3
    assert replicate(1, g.c4) == g.c4
    with pytest.raises(ValueError):
        replicate(0, g.k2)


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_disjoint_union_of_two_copies_is_replicate(universe, p):
    rng = random.Random(SEED + 4)
    for _ in range(30):
        g_ = random_graph(universe, rng.randint(0, 5), p, rng)
        assert disjoint_union(g_, g_) == replicate(2, g_)


def test_connectivity(g):
    assert is_connected(g.c5)
    assert not is_connected(g.two_k2)
    assert not is_connected(g.e2)
    assert is_connected(g.k1)


# --- induced embeddings ---------------------------------------------------

def test_embed_induced_goldens(g):
    assert embed_induced(g.k2, g.k3) is not None
    # P3 sits in K3 as a subgraph but never as an induced one
    assert embed_induced(g.p3, g.k3) is None
    assert embed_induced(g.p3, g.c4) is not None
    assert embed_induced(g.c4, g.p3) is None
    assert embed_induced(g.k0, g.k2) is not None
    assert embed_induced(g.e2, g.c4) is not None
    assert embed_induced(g.e2, g.k3) is None


def test_embedding_is_valid_when_found(g):
    m = embed_induced(g.p3, g.c4)
    img = m.mapping
    assert len(set(img)) == 3
    assert mapped_triples(g.p3, img) == image_triples(g.c4, img)


def test_embed_induced_matches_brute_force(u):
    # the library must return exactly the first embedding in permutation
    # order, on every edge shape the universes allow; half of the patterns
    # are shuffled induced subgraphs of the host, so hits are common
    rng = random.Random(SEED)
    cases = [(u, 0.5), (digraph_universe(), 0.35), (triple_universe(), 0.5),
             (two_colour_universe(), 0.4), (mixed_universe(), 0.1)]
    for uni, p in cases:
        checked_hits = 0
        for _ in range(200):
            g_ = random_graph(uni, rng.randint(0, 6), p, rng)
            k = rng.randint(0, 4)
            if rng.random() < 0.5 and k <= g_.n:
                sub = induced(g_, rng.sample(range(g_.n), k))
                perm = rng.sample(range(k), k)
                f = relabel(sub, perm)
            else:
                f = random_graph(uni, k, p, rng)
            lib = embed_induced(f, g_)
            brute = brute_embed(f, g_)
            assert (None if lib is None else lib.mapping) == brute
            if lib is not None and f.edges:
                checked_hits += 1
        assert checked_hits > 15


def test_embed_induced_on_ordered_edges():
    du = digraph_universe()
    arc = Hypergraph(du, 2, frozenset({EdgeObject(EdgeKind.ORDERED, (0, 1), "a")}))
    back = Hypergraph(du, 2, frozenset({EdgeObject(EdgeKind.ORDERED, (1, 0), "a")}))
    both = Hypergraph(du, 2, frozenset({EdgeObject(EdgeKind.ORDERED, (0, 1), "a"),
                                        EdgeObject(EdgeKind.ORDERED, (1, 0), "a")}))
    assert is_isomorphic(arc, back)
    assert embed_induced(arc, both) is None  # induced image would carry both arcs
    assert embed_induced(arc, arc) is not None


def test_embed_respects_colours():
    u2 = two_colour_universe()
    red = Hypergraph(u2, 2, frozenset({EdgeObject(EdgeKind.UNORDERED, (0, 1), "r")}))
    blue = Hypergraph(u2, 2, frozenset({EdgeObject(EdgeKind.UNORDERED, (0, 1), "b")}))
    assert embed_induced(red, blue) is None
    assert not is_isomorphic(red, blue)


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_find_under_a_block_mask_matches_brute_force(universe, p):
    # the kernel runs on the whole host's index with a vertex bitmask; it
    # must return the first embedding into the induced block, in host
    # labels (the block's ascending order maps part labels to host ones)
    rng = random.Random(SEED + 3)
    hits = misses = 0
    for _ in range(200):
        g_ = random_graph(universe, rng.randint(0, 7), p, rng)
        block = sorted(rng.sample(range(g_.n), rng.randint(0, g_.n)))
        part = induced(g_, block)
        k = rng.randint(1, 4)
        if rng.random() < 0.5 and k <= part.n:
            sub = induced(part, rng.sample(range(part.n), k))
            f = relabel(sub, rng.sample(range(k), k))
        else:
            f = random_graph(universe, k, p, rng)
        got = _find(_pattern(f), _incidence(g_), sum(1 << v for v in block))
        want = brute_embed(f, part)
        assert got == (None if want is None else tuple(block[i] for i in want))
        if f.edges:
            hits += got is not None
            misses += got is None and brute_embed(f, g_) is not None
    assert hits > 10 and misses > 5


# --- canonical forms ------------------------------------------------------

# (universe, edge density for the classification sample, for relabelling)
CANONICAL_CASES = [
    pytest.param(simple_universe(), 0.5, 0.4, id="simple"),
    pytest.param(digraph_universe(), 0.35, 0.3, id="digraph"),
    pytest.param(two_colour_universe(), 0.4, 0.3, id="two_colour"),
    pytest.param(triple_universe(), 0.5, 0.4, id="three_uniform"),
    pytest.param(mixed_universe(), 0.1, 0.1, id="mixed"),
]


@pytest.mark.parametrize("universe, p, p_relabel", CANONICAL_CASES)
def test_canonical_key_classifies_like_brute_force(universe, p, p_relabel):
    # the key layouts differ; what matters is that both keys induce the
    # same partition into isomorphism classes.  Relabelled copies of the
    # first draws make sure the sample has isomorphic pairs with
    # different edge sets.
    rng = random.Random(SEED + 1)
    sample = [random_graph(universe, rng.randint(0, 4), p, rng) for _ in range(40)]
    for a in sample[:20]:
        sample.append(relabel(a, rng.sample(range(a.n), a.n)))
    lib = [canonical_key(a) for a in sample]
    brute = [brute_canonical_key(a) for a in sample]
    twins = 0
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            assert (lib[i] == lib[j]) == (brute[i] == brute[j])
            twins += brute[i] == brute[j] and a != b
    assert twins > 10


@pytest.mark.parametrize("universe, p, p_relabel", CANONICAL_CASES)
def test_canonical_key_relabel_invariant(universe, p, p_relabel):
    rng = random.Random(SEED + 2)
    for _ in range(40):
        n = rng.randint(1, 6)
        g_ = random_graph(universe, n, p_relabel, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(relabel(g_, perm)) == canonical_key(g_)


def generated_group(gens, n):
    """Every product of the vertex maps gens, the identity included."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for s in gens:
            b = tuple(s[v] for v in a)
            if b not in group:
                group.add(b)
                todo.append(b)
    return group


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_canon_search_generators_span_the_automorphism_group(universe, p):
    # each generator keeps the edge set, and together they span every
    # permutation that does: the edgeless and complete graphs have one
    # class and the whole group, a discrete refinement has no generators
    # (the graphs on 7 vertices make some of those on every edge shape)
    rng = random.Random(SEED + 5)
    sample = [Hypergraph(universe, 5, frozenset()),
              Hypergraph(universe, 5, frozenset(admissible_edges(universe, range(5))))]
    sample += [random_graph(universe, rng.randint(0, 5), p, rng) for _ in range(60)]
    sample += [random_graph(universe, 7, p, rng) for _ in range(6)]
    split = split_symmetric = discrete = 0
    for g_ in sample:
        codes = _codes(g_.universe, g_.edges)
        key, gens = _canon_search(g_.n, codes)
        assert key == canonical_key(g_)
        own = graph_triples(g_)
        assert all(mapped_triples(g_, s) == own for s in gens)
        group = generated_group(gens, g_.n)
        assert group == set(brute_automorphisms(g_))
        cells = len(_cells(g_.n, codes)) if codes else 1
        if cells == g_.n:
            assert gens == []
            discrete += g_.n > 1
        split += cells > 1
        split_symmetric += 1 < cells < g_.n and len(group) > 1
    assert [len(generated_group(_canon_search(5, _codes(universe, h.edges))[1], 5))
            for h in sample[:2]] == [120, 120]
    assert split > 15 and split_symmetric > 0 and discrete > 0


# every class up to 5 vertices where that layer is small, fewer where not
PATTERN_CASES = [pytest.param(case.values[0], top, id=case.id)
                 for case, top in zip(UNIVERSE_CASES, (5, 4, 4, 5, 3))]


@pytest.mark.parametrize("universe, top", PATTERN_CASES)
def test_anchored_plans_start_at_each_orbit_minimum(universe, top):
    # one anchored start per automorphism orbit: its least vertex, the
    # starts ascending; the edgeless graphs of every size are included
    classes = list(enumerate_hypergraphs(EnumSpec(universe, top)))
    assert sum(not f.edges for f in classes) == top + 1
    for f in classes:
        auts = brute_automorphisms(f)
        want = [w for w in range(f.n) if w == min(a[w] for a in auts)]
        _, _, plans = _pattern(f, True)
        assert [order[0] for order, _, _ in plans] == want
        assert all(order[1:] == sorted(order[1:]) for order, _, _ in plans)


def test_canonical_form_is_idempotent_and_isomorphic(g):
    c = canonical_form(g.c4)
    assert is_isomorphic(c, g.c4)
    assert canonical_form(c) == c
    assert format_hypergraph(canonical_form(relabel(g.c4, [2, 0, 3, 1]))) \
        == format_hypergraph(c)


def test_is_isomorphic_matches_brute_force(u):
    rng = random.Random(SEED + 3)
    hits = 0
    for _ in range(80):
        a = random_graph(u, rng.randint(0, 4), 0.5, rng)
        b = random_graph(u, rng.randint(0, 4), 0.5, rng)
        assert is_isomorphic(a, b) == brute_iso(a, b)
        hits += is_isomorphic(a, b)
    assert hits > 3  # the sample actually contains isomorphic pairs


def test_canonical_key_distinguishes_on_digraphs():
    du = digraph_universe()
    rng = random.Random(SEED + 4)
    sample = [random_graph(du, 3, 0.5, rng) for _ in range(25)]
    lib_classes = {canonical_key(g_) for g_ in sample}
    brute_classes = {brute_canonical_key(g_) for g_ in sample}
    assert len(lib_classes) == len(brute_classes) > 5
    for a in sample:
        assert is_isomorphic(a, canonical_form(a))


def cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


def symmetric_family():
    """Graphs whose refinement leaves large cells, so that the canonical
    search has many orderings to choose from."""
    three = triple_universe()
    red_matching = {(0, 1), (2, 3)}
    k4 = Hypergraph(two_colour_universe(), 4, frozenset(
        EdgeObject(EdgeKind.UNORDERED, pair, "r" if pair in red_matching else "b")
        for pair in itertools.combinations(range(4), 2)))
    return [
        simple_graph(6, cycle(6)),
        simple_graph(7, cycle(7)),
        simple_graph(8, cycle(8)),
        simple_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3
        simple_graph(6, cycle(3) + cycle(3, 3) + [(0, 3), (1, 4), (2, 5)]),  # prism
        simple_graph(6, cycle(3) + cycle(3, 3)),  # 2K3
        simple_graph(8, cycle(4) + cycle(4, 4)),  # C4+C4
        k4,
        Hypergraph(three, 5, frozenset(admissible_edges(three, range(5)))),
        Hypergraph(three, 6, frozenset(admissible_edges(three, range(6)))),
    ]


def assert_keys_as_reference(graphs):
    for g_ in graphs:
        codes = _codes(g_.universe, g_.edges)
        assert _cells(g_.n, codes) == reference_cells(g_.n, codes)
        assert _canon(g_.n, codes) == reference_canon(g_.n, codes)


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_canonical_keys_equal_the_ordering_product_on_random_graphs(universe, p):
    # the pruned search must return the very key of the least ordering in
    # the cell product, not just some class invariant: keys are output
    rng = random.Random(SEED + 6)
    assert_keys_as_reference([random_graph(universe, rng.randint(6, 8), p, rng)
                              for _ in range(100)])


def test_canonical_keys_equal_the_ordering_product_on_symmetric_graphs():
    assert_keys_as_reference(symmetric_family())


def cells_or_cap_error(cells, n, codes):
    try:
        return cells(n, codes)
    except CapExceededError as err:
        return str(err)


def assert_probes_as_reference(n, codes, cells):
    # a probe vertex gets the reference cells when it lies in their first
    # cell of least degree, and None otherwise, whichever round it left in
    deg = [0] * n
    for _, _, verts, _, _ in codes:
        for v in verts:
            deg[v] += 1
    first = next(c for c in cells if deg[c[0]] == min(deg))
    for v in range(n):
        assert _cells(n, codes, v) == (cells if v in first else None)


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_cells_equal_the_reference_on_larger_random_graphs(universe, p):
    # graphs too large for the ordering product: refinement alone, with
    # the same cap error where the cells admit too many orderings
    rng = random.Random(SEED + 7)
    for _ in range(100):
        g_ = random_graph(universe, rng.randint(9, 14), p, rng)
        codes = _codes(g_.universe, g_.edges)
        cells = cells_or_cap_error(reference_cells, g_.n, codes)
        assert cells_or_cap_error(_cells, g_.n, codes) == cells
        if codes and not isinstance(cells, str):
            assert_probes_as_reference(g_.n, codes, cells)


def test_cells_equal_the_reference_over_several_rounds():
    # each needs three or more rounds, with one-vertex cells beside larger
    # ones, so the order of split pieces decides the colours that follow
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED
    legs = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)]
    coloured = Hypergraph(two_colour_universe(), 7, frozenset(
        EdgeObject(un, (i, i + 1), "rrbrrb"[i]) for i in range(6)))
    mixed = Hypergraph(mixed_universe(), 7, frozenset(
        [EdgeObject(un, (i, i + 1), "e") for i in range(6)]
        + [EdgeObject(o, (0, 6), "e"), EdgeObject(un, (1, 3, 5), "e")]))
    for g_ in (simple_graph(7, [(i, i + 1) for i in range(6)]), simple_graph(7, legs),
               coloured, mixed):
        codes = _codes(g_.universe, g_.edges)
        assert _cells(g_.n, codes) == reference_cells(g_.n, codes)
        assert_probes_as_reference(g_.n, codes, reference_cells(g_.n, codes))


def test_canonical_order_cap_raises_unchanged():
    # 10 vertices that refinement cannot split: 10! orderings in the cells
    petersen = cycle(5) + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)] \
        + [(i, i + 5) for i in range(5)]
    for g_ in (simple_graph(10, cycle(10)), simple_graph(10, petersen),
               simple_graph(10, [(2 * i, 2 * i + 1) for i in range(5)])):
        with pytest.raises(CapExceededError) as err:
            canonical_key(g_)
        assert str(err.value) == "canonical labelling would try more than 2000000 orderings"


def test_unlabeled_counts_small(u):
    # graphs: 1, 1, 2, 4 for n = 0..3
    for n, want in enumerate([1, 1, 2, 4]):
        assert count_unlabeled(u, n) == want


# --- join plumbing --------------------------------------------------------

def test_crossing_candidates_simple(g):
    cands = crossing_edge_candidates([g.k1, g.k1])
    assert [e.vertices for e in cands] == [(0, 1)]
    cands = crossing_edge_candidates([g.k2, g.k1])
    assert sorted(e.vertices for e in cands) == [(0, 2), (1, 2)]
    # a single part has no crossing pairs at all
    assert crossing_edge_candidates([g.c4]) == []


def test_crossing_candidates_ordered_universe():
    du = digraph_universe()
    a = Hypergraph(du, 1, frozenset())
    cands = crossing_edge_candidates([a, a])
    assert sorted(e.vertices for e in cands) == [(0, 1), (1, 0)]


def test_crossing_candidates_cap(g):
    with pytest.raises(CapExceededError):
        crossing_edge_candidates([g.c4, g.c4], edge_cap=3)


def test_join_members_enumeration(g):
    members = list(join_members([g.k2, g.k1]))
    assert len(members) == 4  # 2 crossing candidates
    base = members[0]
    assert graph_triples(base) == graph_triples(simple_graph(3, [(0, 1)]))
    for m in members:
        assert induced(m, [0, 1]) == g.k2
        assert induced(m, [2]) == g.k1
    # all members are distinct and the last one has every crossing edge
    assert len({m.edges for m in members}) == 4
    assert len(members[-1].edges) == 3
    # the public stream counts in binary over the candidate list, the bare
    # disjoint union first; only the refutation scan in decomp runs the
    # other way
    for parts in ([g.k2, g.k1], [g.p3, g.e2], [g.k1, g.k1, g.k1]):
        cands = crossing_edge_candidates(parts)
        base = reduce(disjoint_union, parts)
        assert list(join_members(parts)) == \
            [Hypergraph(base.universe, base.n,
                        base.edges | {c for i, c in enumerate(cands) if mask >> i & 1})
             for mask in range(1 << len(cands))]


def test_join_members_single_part(g):
    members = list(join_members([g.c4]))
    assert members == [g.c4]


# --- text format ----------------------------------------------------------

def test_format_parse_round_trip(u):
    rng = random.Random(SEED + 5)
    for _ in range(40):
        g_ = random_graph(u, rng.randint(0, 5), 0.5, rng)
        text = format_hypergraph(g_)
        assert parse_hypergraph(text) == g_
        assert format_hypergraph(parse_hypergraph(text)) == text
        assert text.endswith("\n")


@pytest.mark.parametrize("universe, p", UNIVERSE_CASES)
def test_format_matches_reference_on_fresh_and_shared_edges(universe, p):
    # random graphs build their edges afresh; canonical forms take theirs
    # from the per-process store of key entries, so equal edges met
    # through either route must format to the same bytes
    # and the universe line is built once for all of them
    rng = random.Random(SEED + 6)
    _format_universe.cache_clear()
    for _ in range(30):
        g_ = random_graph(universe, rng.randint(0, 5), p, rng)
        c = canonical_form(g_)
        for h in (g_, c):
            text = format_hypergraph(h)
            assert text == reference_format(h)
            assert parse_hypergraph(text) == h
        assert brute_iso(c, g_)
    assert _format_universe.cache_info().misses == 1


def test_format_round_trip_rich_universe():
    mixed = Universe(frozenset({EdgeKind.ORDERED, EdgeKind.UNORDERED}),
                     frozenset({2, 3}), ("r", "b"))
    g_ = Hypergraph(mixed, 4, frozenset({
        EdgeObject(EdgeKind.ORDERED, (2, 0, 3), "r"),
        EdgeObject(EdgeKind.UNORDERED, (1, 2), "b"),
    }))
    assert parse_hypergraph(format_hypergraph(g_)) == g_


def test_format_is_byte_stable(g):
    a = format_hypergraph(g.c4)
    b = format_hypergraph(simple_graph(4, [(3, 0), (2, 1), (1, 0), (3, 2)]))
    assert a == b


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_hypergraph("")
    assert exc.value.line is None

    with pytest.raises(FormatError) as exc:
        parse_hypergraph("hypergraph v2\n")
    assert exc.value.line == 1

    good = ("hypergraph v1\n"
            "universe: kinds=UNORDERED arities=2 colours=e\n"
            "vertices: 3\n")
    with pytest.raises(FormatError) as exc:
        parse_hypergraph(good + "edge: UNORDERED 0 5 ; e\n")
    assert exc.value.line == 4
    assert "out of range" in str(exc.value)

    with pytest.raises(FormatError) as exc:
        parse_hypergraph(good + "edge: UNORDERED 0 1 ; e\n"
                                "edge: UNORDERED 1 0 ; e\n")
    assert exc.value.line == 5
    assert "duplicate" in str(exc.value)

    with pytest.raises(FormatError) as exc:
        parse_hypergraph(good + "edge: UNORDERED 0 1 ; e\nwhat now\n")
    assert exc.value.line == 5

    with pytest.raises(FormatError) as exc:
        parse_hypergraph("hypergraph v1\n"
                         "universe: kinds=UNORDERED arities=2\n"
                         "vertices: 1\n")
    assert exc.value.line == 2

    with pytest.raises(FormatError) as exc:
        parse_hypergraph("hypergraph v1\n"
                         "universe: kinds=UNORDERED arities=2 colours=e\n"
                         "vertices: nope\n")
    assert exc.value.line == 3


def test_parse_ignores_blank_lines(g):
    text = format_hypergraph(g.k2)
    padded = "\n" + text.replace("\n", "\n\n")
    assert parse_hypergraph(padded) == g.k2
