"""Join containment, decomposition numbers, strictness, part structure."""

import itertools
import random
from functools import reduce

import pytest

from hgfactor import (
    BOUNDED,
    BoundExceededError,
    CapExceededError,
    DecWitness,
    Decomposition,
    EXACT,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    FiniteForbidden,
    GeneratedBounded,
    HgError,
    Hypergraph,
    JoinCheck,
    ProductProperty,
    Universe,
    all_decompositions,
    canonical_form,
    crossing_edge_candidates,
    dec_number,
    disjoint_union,
    embed_induced,
    enumerate_hypergraphs,
    enumerate_partitions,
    forbidden_property,
    ind_parts,
    induced,
    is_decomposition,
    is_isomorphic,
    is_strict,
    is_uniquely_decomposable,
    join_members,
    join_subset_of,
    member,
    min_forbidden_order,
    multiplicity,
    partition_solve,
    replicate,
    respects,
    respects_uniformly,
    simple_graph,
    simple_universe,
    strictify,
    strictness_witness,
    unique_decomposition,
)
from hgfactor import decomp
from hgfactor import props as hgprops
from helpers import (
    admissible_edges,
    brute_member_product,
    brute_strict,
    image_triples,
    mapped_triples,
    oracle_join_fails,
    random_graph,
)
from test_core import UNIVERSE_CASES

SEED = 995511


def _hg(u, n, edges):
    return Hypergraph(u, n, frozenset(EdgeObject(k, vs, c) for k, vs, c in edges))


def _universes_beyond_simple():
    """(name, universe, forbidden-set properties) on ORDERED-2,
    UNORDERED-3 and 2-colour graphs: one connected forbidden graph and
    one that is an edge plus an isolated vertex."""
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED
    du = Universe(frozenset({o}), frozenset({2}), ("a",))
    tu = Universe(frozenset({un}), frozenset({3}), ("e",))
    cu = Universe(frozenset({un}), frozenset({2}), ("r", "b"))
    return [
        ("ORDERED-2", du, [
            forbidden_property(du, [_hg(du, 3, [(o, (0, 1), "a"), (o, (1, 2), "a"),
                                                (o, (2, 0), "a")])]),
            forbidden_property(du, [_hg(du, 3, [(o, (0, 1), "a")])]),
        ]),
        ("UNORDERED-3", tu, [
            forbidden_property(tu, [_hg(tu, 4, [(un, (0, 1, 2), "e"),
                                                (un, (1, 2, 3), "e")])]),
            forbidden_property(tu, [_hg(tu, 4, [(un, (0, 1, 2), "e")])]),
        ]),
        ("2-colour", cu, [
            forbidden_property(cu, [_hg(cu, 3, [(un, (0, 1), "r"), (un, (1, 2), "r"),
                                                (un, (0, 2), "b")])]),
            forbidden_property(cu, [_hg(cu, 3, [(un, (0, 1), "b")])]),
        ]),
    ]


def _beyond_simple_samples(rng, draws, min_n=0):
    """Seeded (universe name, graph, property) triples on ORDERED-2,
    UNORDERED-3 and 2-colour universes.  Per universe: three forbidden
    sets, each of one or two connected graphs on 2-3 vertices (2-4 on
    UNORDERED-3, whose only connected graph on 3 vertices is a single
    edge), then `draws` random graphs on min_n..4 vertices, each paired
    with every set."""
    density = {"ORDERED-2": 0.35, "UNORDERED-3": 0.5, "2-colour": 0.4}
    for name, uu, _ in _universes_beyond_simple():
        top = 4 if name == "UNORDERED-3" else 3
        conn = [h for h in enumerate_hypergraphs(EnumSpec(uu, top, connected_only=True))
                if h.n >= 2]
        ps = [forbidden_property(uu, rng.sample(conn, min(len(conn), rng.randint(1, 2))))
              for _ in range(3)]
        for _ in range(draws):
            g_ = random_graph(uu, rng.randint(min_n, 4), density[name], rng)
            for p in ps:
                yield name, g_, p


def _random_parts(uu, rng):
    """One or two random parts of 1..3 vertices: with two parts every
    split of a forbidden graph is tried, with one part only copies."""
    return [random_graph(uu, rng.randint(1, 3), 0.5, rng)
            for _ in range(rng.choice((1, 2)))]


# --- decomposition container ------------------------------------------------

def test_decomposition_validation_and_ordering():
    with pytest.raises(ValueError):
        Decomposition(({0}, set()))
    with pytest.raises(ValueError):
        Decomposition(({0, 1}, {1, 2}))
    d = Decomposition(({3, 1}, {0, 2}))
    assert d.parts == (frozenset({0, 2}), frozenset({1, 3}))
    assert str(d) == "{0,2}|{1,3}"
    assert len(d) == 2
    assert d.ground == frozenset(range(4))
    assert d.key() == ((0, 2), (1, 3))


# --- join containment ---------------------------------------------------

def test_join_goldens(g, props):
    assert join_subset_of(props.trifree, [g.k1, g.k1])
    assert join_subset_of(props.edgeless, [g.k1])
    chk = join_subset_of(props.trifree, [g.k2, g.k1])
    assert not chk
    assert chk.confidence == EXACT
    w = chk.witness
    assert isinstance(w, DecWitness)
    assert w.forbidden == props.trifree.forbidden[0]
    assert tuple(len(b) for b in w.split) == (2, 1)


def test_join_memo_tells_an_empty_part_from_a_vertex(g, props):
    # the exact memo keys each part by its order and edges; K0 and K1
    # have the same (empty) edges, but only K1 can carry a triangle vertex
    assert not join_subset_of(props.trifree, [g.k2, g.k1])
    assert join_subset_of(props.trifree, [g.k2, g.k0])


def test_join_witness_embeddings_are_real(g, props):
    chk = join_subset_of(props.trifree, [g.c4, g.k2])
    assert not chk
    parts = [g.c4, g.k2]
    for rec in chk.witness.components:
        comp_graph = induced(chk.witness.forbidden, rec.component)
        m = rec.embedding.mapping
        assert mapped_triples(comp_graph, m) \
            == image_triples(parts[rec.part_index], m)


def test_disconnected_slice_may_outgrow_its_part(g, props, u):
    # P3 splits into its two end vertices plus the centre; the ends form
    # an edgeless pair whose components land in separate copies of a
    # single-vertex part, so the join is not P3-free
    chk = join_subset_of(props.p3free, [g.k1, g.k1])
    assert not chk
    sizes = sorted(len(b) for b in chk.witness.split)
    assert sizes == [1, 2]
    # same effect with a single part and a disconnected forbidden graph
    m2 = forbidden_property(u, [g.two_k2])
    assert not join_subset_of(m2, [g.k2])
    assert dec_number(g.k2, m2).value == 0


def test_join_exact_matches_oracle(u, g, props):
    rng = random.Random(SEED)
    flips = 0
    for _ in range(30):
        a = random_graph(u, rng.randint(1, 3), 0.5, rng)
        b = random_graph(u, rng.randint(1, 3), 0.5, rng)
        for p in [props.trifree, props.p3free]:
            got = bool(join_subset_of(p, [a, b]))
            want = not oracle_join_fails(p.forbidden, [a, b], k_max=3)
            assert got == want
            flips += not got
    assert flips > 5
    for name, uu, ps in _universes_beyond_simple():
        flips = 0
        for _ in range(12):
            parts = _random_parts(uu, rng)
            for p in ps:
                got = bool(join_subset_of(p, parts))
                assert got == (not oracle_join_fails(p.forbidden, parts, k_max=3)), \
                    (name, p, parts)
                flips += not got
        assert 0 < flips < 12 * len(ps), name


def test_join_bounded_agrees_with_exact_for_forbidden_sets(u, props):
    rng = random.Random(SEED + 1)
    for _ in range(20):
        a = random_graph(u, rng.randint(1, 3), 0.5, rng)
        b = random_graph(u, rng.randint(1, 3), 0.5, rng)
        exact = bool(join_subset_of(props.trifree, [a, b], EXACT))
        bounded = join_subset_of(props.trifree, [a, b], BOUNDED, k_max=3)
        assert exact == bool(bounded)
        if bounded:
            assert bounded.confidence == "bounded k_max=3"
    for name, uu, ps in _universes_beyond_simple():
        refuted = 0
        for _ in range(12):
            parts = _random_parts(uu, rng)
            for p in ps:
                bounded = join_subset_of(p, parts, BOUNDED, k_max=3)
                assert bool(join_subset_of(p, parts, EXACT)) == bool(bounded), (name, p)
                if bounded:
                    assert bounded.confidence == "bounded k_max=3"
                    continue
                refuted += 1
                _assert_whole_slice_witness(p, parts, bounded)
        assert 0 < refuted < 12 * len(ps), name


def _assert_whole_slice_witness(p, parts, chk):
    """A bounded forbidden-set refutation records each nonempty block of
    its split whole, embedded induced into k copies of its part, at the
    smallest k whose join fails."""
    w = chk.witness
    k = next(k for k in range(1, 4) if oracle_join_fails(p.forbidden, parts, k))
    assert chk.confidence == EXACT and chk.counterexample is None
    assert w.forbidden in p.forbidden
    assert [(r.part_index, r.component) for r in w.components] == \
        [(i, block) for i, block in enumerate(w.split) if block]
    for rec in w.components:
        m = rec.embedding.mapping
        assert mapped_triples(induced(w.forbidden, rec.component), m) \
            == image_triples(replicate(k, parts[rec.part_index]), m)


def _first_bad_descending(is_member, parts, k_max):
    """The first join member that is_member rejects, scanning k = 1..k_max
    and each join's members from the last of join_members' binary order,
    the densest, back to the first; None if there is none."""
    for k in range(1, k_max + 1):
        for m in reversed(list(join_members([replicate(k, h) for h in parts]))):
            if not is_member(m):
                return m
    return None


def test_join_bounded_product_counterexample(g, props):
    edgeless = [f.forbidden for f in props.two_colour.factors]
    # with [K2, K2] the first bad member in binary order is a triangle
    # plus an edge, in descending order the complete graph K4
    for parts in ([g.k2, g.k1], [g.k2, g.k2], [g.p3, g.k1]):
        chk = join_subset_of(props.two_colour, parts, BOUNDED, k_max=2)
        assert not chk
        assert chk.counterexample is not None
        assert not member(props.two_colour, chk.counterexample)
        assert not brute_member_product(edgeless, chk.counterexample)
        assert chk.counterexample == _first_bad_descending(
            lambda m: brute_member_product(edgeless, m), parts, 2), parts
    k4 = simple_graph(4, itertools.combinations(range(4), 2))
    assert join_subset_of(props.two_colour, [g.k2, g.k2], BOUNDED).counterexample == k4


# joins streamed in the certificate oracle test have at most 2^9 members
_ORACLE_CANDIDATES = 9


def _certificate_by_scan(factors, parts):
    """The certificate's question over every assignment of the parts to
    the factors, none skipped: does some grouping pass the exact join
    test for each factor's group?"""
    return any(all(join_subset_of(f, [h for h, a in zip(parts, assign) if a == i])
                   for i, f in enumerate(factors) if i in assign)
               for assign in itertools.product(range(len(factors)), repeat=len(parts)))


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_product_certificate_is_sound(uu, density):
    """Wherever the certificate proves a product of finite-forbidden
    factors contains a join, a brute-force scan of the binary-order
    join_members stream at k = 1, 2 finds no non-member; streaming
    densest first refutes exactly the joins binary order refutes.  The
    products are F x G, F x F and (F x F) x F, the equal factors built
    apart so that they are equal but not the same object, and the
    certificate's verdict, which skips groupings that open a factor's
    group before its equal twin's, equals a scan over every grouping."""
    rng = random.Random(SEED + 7)
    top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top)) if h.n >= 2]
    certified = refuted = 0
    shapes = set()
    while certified + refuted < 30:
        sample = [rng.sample(pool, rng.randint(1, 2)) for _ in range(2)]
        shape = rng.choice(["FG", "FF", "FFF"])
        if shape == "FG":
            prod = ProductProperty(tuple(forbidden_property(uu, fs) for fs in sample))
        else:
            twins = [forbidden_property(uu, sample[0]) for _ in shape]
            prod = ProductProperty(tuple(twins[:2])) if shape == "FF" \
                else ProductProperty((ProductProperty(tuple(twins[:2])), twins[2]))
        factors = decomp._factors(prod)
        forbidden_lists = [f.forbidden for f in factors]
        parts = [random_graph(uu, rng.randint(1, 2), density, rng)
                 for _ in range(rng.randint(1, 3))]
        joins = [[replicate(k, h) for h in parts] for k in (1, 2)]
        joins = [j for j in joins if len(crossing_edge_candidates(j)) <= _ORACLE_CANDIDATES]
        if not joins:
            continue
        proved = decomp._product_certificate(prod, reduce(disjoint_union, parts),
                                             decomp._part_masks(parts))
        assert proved == _certificate_by_scan(factors, parts), (prod, parts)
        bad = None
        for blown in joins:
            binary = next((m for m in join_members(blown) if not member(prod, m)), None)
            dense = decomp._first_bad_member(prod, blown, 1 << _ORACLE_CANDIDATES, "join")
            assert (binary is None) == (dense is None), (prod, parts)
            if proved:
                assert all(brute_member_product(forbidden_lists, m)
                           for m in join_members(blown)), (prod, parts)
            bad = dense if bad is None else bad
        if bad is not None:
            assert not brute_member_product(forbidden_lists, bad)
        assert bool(join_subset_of(prod, parts, BOUNDED, k_max=len(joins))) == (bad is None)
        certified += proved
        refuted += bad is not None
        shapes.add((shape, proved))
    assert certified > 0 and refuted > 0, (certified, refuted)
    assert {shape for shape, proved in shapes if proved} == {"FG", "FF", "FFF"}, shapes


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_join_streams_equal_validated_members(uu, density):
    """join_members and _first_bad_member's dense-first stream build their
    members without per-edge universe checks; each member equals the
    validated Hypergraph of the same edges, in the stream's order."""
    rng = random.Random(SEED + 9)
    checked = 0
    while checked < 12:
        parts = [random_graph(uu, rng.randint(0, 2), density, rng)
                 for _ in range(rng.randint(1, 3))]
        cands = crossing_edge_candidates(parts)
        if len(cands) > _ORACLE_CANDIDATES:
            continue
        base = reduce(disjoint_union, parts)
        want = [Hypergraph(base.universe, base.n,
                           base.edges | {c for i, c in enumerate(cands) if mask >> i & 1})
                for mask in range(1 << len(cands))]
        members = list(join_members(parts))
        assert members == want
        assert all(type(m.edges) is frozenset for m in members)
        seen = []

        class Recorder:
            member = staticmethod(lambda m: seen.append(m) or True)

        assert decomp._first_bad_member(Recorder(), parts, 1 << len(cands), "join") is None
        assert seen == want[::-1]
        checked += 1


def test_join_mode_errors(g, props):
    with pytest.raises(HgError, match="exact join containment needs a finite forbidden set"):
        join_subset_of(props.two_colour, [g.k1], EXACT)
    with pytest.raises(ValueError, match="need at least one part"):
        join_subset_of(props.trifree, [])
    with pytest.raises(ValueError, match="unknown mode 'quick'"):
        join_subset_of(props.trifree, [g.k1], mode="quick")
    # an empty part list is refused before the mode is looked at
    with pytest.raises(ValueError, match="need at least one part"):
        join_subset_of(props.two_colour, [], EXACT)
    # bounded checks decide on bitmasks of one host, and still refuse a
    # foreign universe and an empty part list
    arc = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))
    with pytest.raises(HgError, match="part universe differs from the property's"):
        join_subset_of(props.two_colour, [Hypergraph(arc, 1, frozenset())], BOUNDED)
    with pytest.raises(HgError, match="part universe differs from the property's"):
        is_decomposition(Hypergraph(arc, 2, frozenset()), [{0}, {1}], props.two_colour,
                         BOUNDED)
    with pytest.raises(ValueError, match="need at least one part"):
        join_subset_of(props.two_colour, [], BOUNDED)
    with pytest.raises(ValueError, match="need at least one part"):
        is_decomposition(g.k0, [], props.two_colour, BOUNDED)


def test_is_decomposition(g, props):
    assert is_decomposition(g.c4, [{0, 2}, {1, 3}], props.trifree)
    assert not is_decomposition(g.c4, [{0, 1}, {2, 3}], props.trifree)
    with pytest.raises(HgError):
        is_decomposition(g.c4, [{0, 1}], props.trifree)


def _kernel_universes(u):
    """(name, universe, edge density) for the five test universes."""
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED
    density = {"ORDERED-2": 0.35, "UNORDERED-3": 0.5, "2-colour": 0.4}
    mixed = Universe(frozenset({o, un}), frozenset({2, 3}), ("e",))
    return ([("simple", u, 0.45)]
            + [(name, uu, density[name]) for name, uu, _ in _universes_beyond_simple()]
            + [("mixed", mixed, 0.15)])


def _assert_records_embed(w, parts):
    for rec in w.components:
        m = rec.embedding.mapping
        assert mapped_triples(induced(w.forbidden, rec.component), m) \
            == image_triples(parts[rec.part_index], m)


@pytest.mark.parametrize("name", ["simple", "ORDERED-2", "UNORDERED-3", "2-colour",
                                  "mixed"])
def test_exact_blocks_match_part_graphs_and_oracle(u, name):
    # is_decomposition decides the blocks of G as vertex bitmasks on G's
    # own index.  Its verdict and witness must be those of join_subset_of
    # over the induced part graphs (the memo cleared in between, so both
    # are computed) and agree with the oracle, on hosts in and outside P.
    # The construct path hands the engine an empty cell as a zero mask.
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    lo, hi = (3, 4) if name == "UNORDERED-3" else (2, 3)
    rng = random.Random(f"{SEED}:{name}")
    outside = refuted = held = 0
    for _ in range(100):
        forb = []
        while len(forb) < rng.randint(1, 2):
            f = random_graph(uu, rng.randint(lo, hi), dens, rng)
            if f.edges:
                forb.append(f)
        p = forbidden_property(uu, forb)
        g_ = random_graph(uu, rng.randint(1, 4), dens, rng)
        outside += not member(p, g_)
        assign = [rng.randrange(3) for _ in range(g_.n)]
        d = Decomposition([{v for v in g_.vertices if assign[v] == i}
                           for i in set(assign)])
        parts = [induced(g_, part) for part in d.parts]
        chk = is_decomposition(g_, d, p)
        decomp._join_memo.clear()
        assert chk == join_subset_of(p, parts)
        assert bool(chk) == (not oracle_join_fails(p.forbidden, parts, k_max=3))
        if chk:
            held += 1
        else:
            refuted += 1
            _assert_records_embed(chk.witness, parts)
        masks = [sum(1 << v for v in part) for part in d.parts]
        gap = rng.randint(0, len(masks))
        masks.insert(gap, 0)
        parts.insert(gap, Hypergraph(uu, 0, frozenset()))
        w = decomp._decide(g_, p, masks).witness
        assert (w is None) == (not oracle_join_fails(p.forbidden, parts, k_max=3))
        if w is not None:
            assert w.split[gap] == ()
            _assert_records_embed(w, parts)
    assert outside > 5 and refuted > outside and held > 5


_KERNEL_NAMES = ["simple", "ORDERED-2", "UNORDERED-3", "2-colour", "mixed"]


def _random_forbidden(uu, dens, rng, name):
    """A random forbidden set over uu: half the time one or two random
    graphs, the other half every graph on the vertices of one random
    graph F that has F's edges, which is closed under deleting an edge
    (any of them plus an edge is another)."""
    lo, hi = {"UNORDERED-3": (3, 4), "mixed": (2, 2)}.get(name, (2, 3))
    if rng.random() < 0.5:
        return forbidden_property(uu, [random_graph(uu, rng.randint(lo, hi), dens, rng)
                                       for _ in range(rng.randint(1, 2))])
    f = random_graph(uu, rng.randint(lo, hi), dens, rng)
    free = [e for e in admissible_edges(uu, range(f.n)) if e not in f.edges]
    return forbidden_property(uu, [Hypergraph(uu, f.n, f.edges | set(more))
                                   for r in range(len(free) + 1)
                                   for more in itertools.combinations(free, r)])


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_edge_closure_matches_deleting_every_edge(u, name):
    """FiniteForbidden.edge_closed equals a brute force that deletes each
    edge of every member with at most as many vertices as the largest
    forbidden graph, on random forbidden sets closed and not closed.  A
    bad deletion, if any, shows there: its forbidden graph plus the edge
    is a member."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:closure:{name}")
    seen = set()
    for _ in range(12):
        p = _random_forbidden(uu, dens, rng, name)
        top = max(f.n for f in p.forbidden)
        brute = all(member(p, Hypergraph(uu, h.n, h.edges - {e}))
                    for h in enumerate_hypergraphs(EnumSpec(uu, top)) if member(p, h)
                    for e in h.edges)
        assert p.edge_closed == brute, p
        seen.add(brute)
    assert seen == {True, False}


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_densest_member_decides_like_the_dense_first_stream(u, name):
    """The bounded JoinCheck, verdict and counterexample, equals that of
    the dense-first join_members stream at k = 1 and 2 (k = 1 alone where
    the k = 2 join has more than 2^12 members), on products of two random
    forbidden sets and random parts.  Products closed under deleting an
    edge are decided on densest members, the others by the certificate
    and the stream.  Some closed product must be refuted at k = 2, where
    copies of one part carry no edge between them, and some other
    product must have a bad member that is not the densest, which the
    densest member alone would miss.  The mixed universe is exempt: its
    joins with at most 2^12 members are over at most two vertices, or one
    part, and all of them hold here."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:densest:{name}")
    closed_at_two = sparse_bad = 0
    for _ in range(60):
        prod = ProductProperty(tuple(_random_forbidden(uu, dens, rng, name) for _ in range(2)))
        parts = [random_graph(uu, rng.randint(1, 3 if name == "UNORDERED-3" else 2), dens, rng)
                 for _ in range(rng.randint(1, 2))]
        if len(crossing_edge_candidates(parts)) > 12:
            continue
        k_max = 1 + (len(crossing_edge_candidates([replicate(2, h) for h in parts])) <= 12)
        bad = _first_bad_descending(lambda m: bool(member(prod, m)), parts, k_max)
        decomp._join_memo.clear()
        chk = join_subset_of(prod, parts, BOUNDED, k_max=k_max)
        assert chk == (JoinCheck(True, f"bounded k_max={k_max}") if bad is None
                       else JoinCheck(False, EXACT, counterexample=bad)), (prod, parts)
        if bad is not None:
            k = bad.n // sum(h.n for h in parts)
            densest = list(join_members([replicate(k, h) for h in parts]))[-1]
            assert bad == densest or not prod.edge_closed, (prod, parts)
            closed_at_two += prod.edge_closed and k == 2
            sparse_bad += bad != densest
    if name != "mixed":
        assert closed_at_two and sparse_bad, (closed_at_two, sparse_bad)


def _solved(g_, factors):
    """partition_solve's answer as a comparable value: the parts, None, or
    the bound error's message."""
    try:
        pa = partition_solve(g_, factors)
    except BoundExceededError as exc:
        return str(exc)
    return None if pa is None else pa.parts


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_solve_plans_answer_like_plans_built_per_call(u, name, monkeypatch):
    """partition_solve reads one memoised plan per factor tuple; it must
    answer as it does with the plan built afresh on every call: the same
    assignment, None, or BoundExceededError with the same bound.  Six
    factor tuples of two and three factors are asked about each of 40
    random graphs in turn, so every plan is read again after plans of
    other tuples of its length.  Two factors are random forbidden sets;
    a third forbids every edge of the least arity, and a copy of it built
    apart is equal, which the plan's twins must pair as _twins does; two
    tuples have a GeneratedBounded factor that holds every graph on 2
    vertices, up to its bound 2.  Each distinct tuple's plan is built
    once."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:plans:{name}")
    a, b = (_random_forbidden(uu, dens, rng, name) for _ in range(2))
    r = min(uu.arities)
    e = forbidden_property(uu, [Hypergraph(uu, r, frozenset({edge}))
                                for edge in admissible_edges(uu, range(r))
                                if len(edge.vertices) == r])
    twin = FiniteForbidden(uu, e.forbidden)
    assert twin == e and twin is not e
    gen = GeneratedBounded(uu, tuple(h for h in enumerate_hypergraphs(EnumSpec(uu, 2))
                                     if h.n == 2), 2)
    tuples = [(a, b), (b, a), (e, twin), (gen, e), (a, b, e), (b, gen, a)]
    assert hgprops._solve_plan.__wrapped__((e, twin)).twins == (None, 0)
    graphs = [random_graph(uu, rng.randint(1, 6 if name == "UNORDERED-3" else 5), dens, rng)
              for _ in range(40)]
    hgprops._solve_plan.cache_clear()
    memoised = [[_solved(g_, factors) for factors in tuples] for g_ in graphs]
    assert hgprops._solve_plan.cache_info().misses == len(tuples)
    monkeypatch.setattr(hgprops, "_solve_plan", hgprops._solve_plan.__wrapped__)
    assert memoised == [[_solved(g_, factors) for factors in tuples] for g_ in graphs]
    answers = {type(x) for row in memoised for x in row}
    assert answers == {tuple, type(None), str}, (name, answers)


@pytest.mark.parametrize("name", ["ORDERED-2", "UNORDERED-3", "2-colour", "mixed"])
def test_densest_member_equals_the_validated_build(u, name):
    """_densest_member builds its copied edges unchecked; the graph must
    equal the one built through EdgeObject's and Hypergraph's checks: k
    copies of each nonempty block's induced graph side by side, plus every
    crossing edge, at k = 1..3, on directed, 3-uniform, 2-colour and
    mixed-kind blocks, an empty block among them at times."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:unchecked:{name}")
    for _ in range(15):
        g_ = random_graph(uu, rng.randint(2, 5), dens, rng)
        assign = [rng.randrange(3) for _ in range(g_.n)]
        masks = [sum(1 << v for v in g_.vertices if assign[v] == i) for i in range(3)]
        blocks = [induced(g_, [v for v in g_.vertices if assign[v] == i])
                  for i in range(3) if i in assign]
        for k in (1, 2, 3):
            copies = [replicate(k, h) for h in blocks]
            base = reduce(disjoint_union, copies)
            want = Hypergraph(uu, base.n, base.edges | {
                EdgeObject(e.kind, e.vertices, e.colour)
                for e in crossing_edge_candidates(copies)})
            got = decomp._densest_member(g_, masks, k)
            assert got == want, (g_, masks, k)
            assert all(EdgeObject(e.kind, e.vertices, e.colour) == e for e in got.edges)


def _pair_only_forbidden(uu, rng):
    """A random forbidden set of graphs on 2 vertices closed under
    deleting an edge: every graph on 2 vertices whose edges contain those
    of one or two random ones.  A random 2K1 forbids every graph on 2
    vertices; on UNORDERED-3, which has no arity 2, that is all there
    is."""
    pool = admissible_edges(uu, range(2))
    out = []
    for _ in range(rng.randint(1, 2)):
        f = random_graph(uu, 2, 0.5, rng)
        free = [e for e in pool if e not in f.edges]
        out += [Hypergraph(uu, 2, f.edges | set(more))
                for r in range(len(free) + 1) for more in itertools.combinations(free, r)]
    return forbidden_property(uu, out)


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_mask_verdict_matches_the_built_densest_member(u, name):
    """_densest_holds on the host's pair index, with no member built,
    equals p.member of the densest member it stands for, on products of
    two or three random forbidden sets of graphs on 2 vertices closed
    under deleting an edge (2K1 forbidden at times; equal factors at
    times, which _assign pairs by its twin rule), random hosts, three
    blocks of which some are empty and some vertices in none, and k =
    1..3.  _crossing_count must equal the crossing edges built.  Both
    verdicts must be met, and a join refuted only once its blocks are
    copied, a join holding and one refuted with a vertex in no block, and
    a factor forbidding 2K1."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:masks:{name}")
    two_k1 = Hypergraph(uu, 2, frozenset())
    seen = set()
    for _ in range(40):
        factors = [_pair_only_forbidden(uu, rng) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.3:
            factors[-1] = factors[0]
        prod = ProductProperty(tuple(factors))
        assert prod.edge_closed and decomp._pairs_only(prod), prod
        seen |= {"2K1"} if any(two_k1 in f.forbidden for f in factors) else set()
        g_ = random_graph(uu, rng.randint(1, 4 if name == "mixed" else 5), dens, rng)
        pairs = hgprops._pair_index(g_)
        for _ in range(3):
            assign = [rng.randrange(4) for _ in range(g_.n)]  # 3: in no block
            masks = [sum(1 << v for v in g_.vertices if assign[v] == i) for i in range(3)]
            if not any(masks):
                continue
            before = True
            for k in (1, 2, 3):
                sizes = tuple(k * m.bit_count() for m in masks if m)
                assert decomp._crossing_count(uu, sizes) == len(decomp._crossing(uu, sizes))
                want = bool(member(prod, decomp._densest_member(g_, masks, k)))
                got = decomp._densest_holds(prod, g_, masks, k, pairs)
                assert got == want, (prod, g_, masks, k)
                seen.add(want)
                if before and not want and k > 1:
                    seen.add("copies")
                if 3 in assign:
                    seen.add(("pinned", want))
                before = want
    assert seen >= {True, False, "copies", ("pinned", True), ("pinned", False), "2K1"}, seen


def test_mask_verdict_builds_the_member_past_the_edge_cap(g, props, monkeypatch):
    """Past DEFAULT_JOIN_EDGE_CAP crossing edges _densest_holds builds the
    densest member, whose crossing edges raise CapExceededError as they
    did before the mask verdict; the count is faked here, as a real one
    needs a join of over 2,000 vertices."""
    built = []
    real = decomp._densest_member
    monkeypatch.setattr(decomp, "_densest_member", lambda *a: built.append(a) or real(*a))
    pairs = hgprops._pair_index(g.p3)
    assert decomp._densest_holds(props.two_colour, g.p3, [1, 6], 1, pairs) is False
    assert not built
    monkeypatch.setattr(decomp, "_crossing_count",
                        lambda *a: decomp.DEFAULT_JOIN_EDGE_CAP + 1)
    assert decomp._densest_holds(props.two_colour, g.p3, [1, 6], 1, pairs) is False
    assert [a[0] for a in built] == [g.p3]


def test_shared_memo_counterexamples_come_from_the_callers_host(g, u, props, monkeypatch):
    """A closed product's refutation is memoised as its least failing copy
    count, filled here by the lattice walk of a host A, which builds no
    densest member.  join_subset_of and is_decomposition on a host B whose
    blocks have equal codes hit that entry and return the counterexample
    that the dense-first stream gives over B's parts, built from B: under
    edgeless*edgeless, K1 | K2 refuted at one copy from the path 0-1-2,
    and under edgeless * {K2, 2K1}-free, K2 alone refuted at two copies
    from a K2 equal to B but built apart."""
    built, missed = [], []
    real_member, real_bounded = decomp._densest_member, decomp._join_bounded
    monkeypatch.setattr(decomp, "_densest_member",
                        lambda *a: built.append(a) or real_member(*a))
    monkeypatch.setattr(decomp, "_join_bounded", lambda *a: missed.append(a) or real_bounded(*a))
    point = forbidden_property(u, [g.k2, g.e2])
    cases = [(props.two_colour, g.p3, 1, simple_graph(3, [(1, 2)]), [{0}, {1, 2}]),
             (ProductProperty((props.edgeless, point)), g.k2, 2,
              simple_graph(2, [(0, 1)]), [{0, 1}])]
    for p, a, k_max, b, d in cases:
        assert a is not b
        decomp._level.cache_clear()
        decomp._join_memo.clear()
        dec_number(a, p, BOUNDED, k_max=k_max)
        masks = [sum(1 << v for v in part) for part in d]
        key = (p, decomp._block_codes(b, masks), BOUNDED, k_max, decomp.DEFAULT_MEMBER_CAP)
        assert decomp._join_memo[key] == k_max
        assert not built
        missed.clear()
        parts = [induced(b, sorted(part)) for part in d]
        want = _first_bad_descending(lambda m: bool(member(p, m)), parts, k_max)
        for chk in (is_decomposition(b, d, p, BOUNDED, k_max=k_max),
                    join_subset_of(p, [b] if len(d) == 1 else parts, BOUNDED, k_max=k_max)):
            assert chk == JoinCheck(False, EXACT, counterexample=want)
        assert not missed
        assert len(built) == 2 and all(args[0] is not a for args in built)
        built.clear()


def test_crossing_memo_keeps_only_small_joins(u):
    """The crossing edges of densest members are memoised for at most
    _CROSSING_KEYS block sizes, each with at most _CROSSING_KEPT edges:
    two 17-vertex blocks have 289 crossing edges, which are built again
    on every call and never kept."""
    decomp._crossing_memo.clear()
    for _ in range(2):
        big = decomp._crossing(u, (17, 17))
        assert big == frozenset(crossing_edge_candidates(
            [Hypergraph(u, 17, frozenset())] * 2))
        assert len(big) == 289 and not decomp._crossing_memo
    for n in range(1, decomp._CROSSING_KEYS + 10):
        assert len(decomp._crossing(u, (1, n))) == n
    assert len(decomp._crossing_memo) == decomp._CROSSING_KEYS
    assert max(map(len, decomp._crossing_memo.values())) <= decomp._CROSSING_KEPT


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_closed_product_strictness_matches_every_extension(u, name, monkeypatch):
    """is_strict on a product of two forbidden sets closed under deleting
    an edge, which decides the densest one-vertex extension alone and
    streams none, equals a scan of every one-vertex extension, on random
    members until both answers and at least six members are seen.  On
    UNORDERED-3 the members have 4 vertices: any graph on at most 4
    splits into two blocks with no 3-edge, so it lies in every product
    here and nothing smaller is strict."""
    streamed = []
    real = decomp._first_bad_member
    monkeypatch.setattr(decomp, "_first_bad_member", lambda *a: streamed.append(a) or real(*a))
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    lo, hi = {"UNORDERED-3": (4, 4), "mixed": (1, 2)}.get(name, (2, 3))
    rng = random.Random(f"{SEED}:strict:{name}")
    answers = []
    while len(answers) < 6 or len(set(answers)) < 2:
        prod = ProductProperty(tuple(_random_forbidden(uu, dens, rng, name) for _ in range(2)))
        g_ = random_graph(uu, rng.randint(lo, hi), dens, rng)
        if not prod.edge_closed or not member(prod, g_):
            continue
        want = brute_strict(g_, lambda h: bool(member(prod, h)))
        decomp._is_strict_join.cache_clear()
        assert is_strict(g_, prod) == want, (prod, g_)
        answers.append(want)
    assert not streamed


# --- decomposition numbers ---------------------------------------------------

def test_dec_goldens(g, props):
    assert dec_number(g.k3, props.trifree).value == 0  # not a member
    assert dec_number(g.k2, props.trifree).value == 2
    assert dec_number(g.c4, props.trifree).value == 2
    assert dec_number(g.c5, props.trifree).value == 1
    assert dec_number(g.two_k2, props.trifree).value == 2
    assert dec_number(g.k1, props.edgeless).value == 1
    assert dec_number(g.k0, props.trifree).value == 0


def test_dec_reports_a_valid_maximizer(g, props):
    res = dec_number(g.c4, props.trifree)
    assert str(res.decomposition) == "{0,2}|{1,3}"
    assert is_decomposition(g.c4, res.decomposition, props.trifree)
    assert res.confidence == EXACT
    assert int(res) == 2


def test_dec_stays_below_min_forbidden_order(u, props):
    rng = random.Random(SEED + 2)
    for _ in range(25):
        g_ = random_graph(u, rng.randint(1, 5), 0.4, rng)
        for p in [props.edgeless, props.trifree, props.bip]:
            res = dec_number(g_, p)
            assert res.value < min_forbidden_order(p)


def _flat_dec(g_, p):
    """Largest part count over every partition that is a decomposition."""
    best = 0
    for parts in enumerate_partitions(g_.vertices, g_.n):
        if member(p, g_) and is_decomposition(g_, Decomposition(parts), p):
            best = max(best, len(parts))
    return best


def test_dec_equals_max_over_all_partitions(u, props):
    # lattice walk must agree with a flat scan of every partition
    rng = random.Random(SEED + 3)
    for _ in range(15):
        g_ = random_graph(u, rng.randint(1, 5), 0.45, rng)
        for p in [props.trifree, props.p3free]:
            assert dec_number(g_, p).value == _flat_dec(g_, p)
    for name, g_, p in _beyond_simple_samples(rng, 6, min_n=1):
        assert dec_number(g_, p).value == _flat_dec(g_, p), (name, p, g_)


def _assert_merges_stay_valid(g_, p, mode=EXACT):
    for parts in enumerate_partitions(g_.vertices, g_.n):
        d = Decomposition(parts)
        if not is_decomposition(g_, d, p, mode, k_max=1):
            continue
        for i, j in itertools.combinations(range(len(d.parts)), 2):
            merged = [pt for k, pt in enumerate(d.parts) if k not in (i, j)]
            merged.append(d.parts[i] | d.parts[j])
            assert is_decomposition(g_, Decomposition(merged), p, mode, k_max=1), \
                (g_, p, d)


def test_merging_parts_keeps_validity(u, props):
    # coarsening: any two parts of a valid decomposition can be merged, so
    # the lattice walk reaches every valid partition through valid ones
    rng = random.Random(SEED + 4)
    for _ in range(15):
        g_ = random_graph(u, rng.randint(2, 5), 0.45, rng)
        for p in [props.trifree, props.p3free]:
            if member(p, g_):
                _assert_merges_stay_valid(g_, p)
    for name, g_, p in _beyond_simple_samples(rng, 4, min_n=2):
        _assert_merges_stay_valid(g_, p)
    for g_ in enumerate_hypergraphs(EnumSpec(u, 5)):
        if g_.n >= 2:
            _assert_merges_stay_valid(g_, props.two_colour, BOUNDED)


def test_dec_bounded_mode_on_products(g, props):
    res = dec_number(g.c4, props.two_colour, BOUNDED, k_max=1)
    assert res.value == 2
    assert res.confidence == "bounded k_max=1"
    assert dec_number(g.k3, props.two_colour, BOUNDED, k_max=1).value == 0


def test_all_decompositions_golden(g, props):
    got = all_decompositions(g.two_k2, props.trifree, 2)
    assert [str(d) for d in got] == ["{0,2}|{1,3}", "{0,3}|{1,2}"]
    assert all_decompositions(g.k3, props.trifree, 2) == []
    assert all_decompositions(g.c4, props.trifree, 2) == \
        [Decomposition(({0, 2}, {1, 3}))]
    # the maximizer is the least in Decomposition.key order, which is the
    # last of all_decompositions (restricted-growth-string order) here
    e4 = simple_graph(4, [])
    assert str(dec_number(e4, props.trifree).decomposition) == "{0}|{1,2,3}"
    assert [str(d) for d in all_decompositions(e4, props.trifree, 2)] == [
        "{0,1,2}|{3}", "{0,1,3}|{2}", "{0,1}|{2,3}", "{0,2,3}|{1}",
        "{0,2}|{1,3}", "{0,3}|{1,2}", "{0}|{1,2,3}"]


def test_uniqueness_goldens(g, props):
    assert is_uniquely_decomposable(g.c4, props.trifree)
    assert not is_uniquely_decomposable(g.two_k2, props.trifree)
    assert is_uniquely_decomposable(g.k1, props.edgeless)  # max 1 part
    assert not is_uniquely_decomposable(g.k3, props.trifree)  # non-member
    assert not is_uniquely_decomposable(g.k0, props.trifree)
    assert unique_decomposition(g.c4, props.trifree) \
        == Decomposition(({0, 2}, {1, 3}))
    with pytest.raises(HgError):
        unique_decomposition(g.two_k2, props.trifree)
    with pytest.raises(HgError):
        unique_decomposition(g.k3, props.trifree)


def test_uniqueness_matches_all_decompositions(u, props):
    # the lattice walk against a flat scan of every partition, per part count
    du, (cyc, arc_k1) = _universes_beyond_simple()[0][1:]
    arc_free = forbidden_property(du, [_hg(du, 2, [(EdgeKind.ORDERED, (0, 1), "a")])])
    arc_free2 = ProductProperty((arc_free, arc_free))
    cases = [(u, 5, [props.trifree, props.p3free], EXACT),
             (du, 3, [cyc, arc_k1], EXACT),
             (u, 5, [props.two_colour], BOUNDED),
             (du, 3, [arc_free2], BOUNDED)]
    for uu, n, ps, mode in cases:
        for g_ in enumerate_hypergraphs(EnumSpec(uu, n)):
            for p in ps:
                levels = {k: [Decomposition(parts)
                              for parts in enumerate_partitions(g_.vertices, k, min_parts=k)
                              if is_decomposition(g_, Decomposition(parts), p, mode, k_max=1)]
                          for k in range(1, g_.n + 2)}
                for k, flat in levels.items():
                    assert all_decompositions(g_, p, k, mode, k_max=1) == flat, (g_, p, k)
                res = dec_number(g_, p, mode, k_max=1)
                dec = max((k for k, flat in levels.items() if flat), default=0)
                assert res.value == dec
                unique = is_uniquely_decomposable(g_, p, mode, k_max=1)
                if dec == 0:
                    assert res.decomposition is None and not unique
                    continue
                assert res.decomposition == min(levels[dec], key=Decomposition.key)
                assert unique == (len(levels[dec]) == 1)


def test_all_decompositions_decides_no_larger_partition(monkeypatch, props):
    # every decision, partial partitions of the walk included, goes
    # through _decide
    sizes = []
    check = decomp._decide

    def recording(g_, p, masks, *args):
        sizes.append(len(masks))
        return check(g_, p, masks, *args)

    monkeypatch.setattr(decomp, "_decide", recording)
    decomp._level.cache_clear()
    e4 = simple_graph(4, [])
    assert len(all_decompositions(e4, props.trifree, 2)) == 7
    assert max(sizes) == 2


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_has_decomposition_matches_all_decompositions(uu, density):
    """The existence test, which decides level k only up to its first
    valid partition, equals bool(all_decompositions) at every part count
    from 1 to |V(G)|: for a forbidden set in EXACT mode and for a product
    in BOUNDED mode, on random members.  Products are asked about smaller
    graphs, whose bounded joins stream fewer members; on the mixed
    universe those have at most 2 vertices, and a product of two
    forbidden sets contains every such join."""
    rng = random.Random(SEED + 11)
    top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top)) if h.n >= 2]
    answers = set()
    for _ in range(40):
        f1, f2 = (forbidden_property(uu, rng.sample(pool, rng.randint(1, 2)))
                  for _ in range(2))
        for p, mode, size in ((f1, EXACT, top + 1), (ProductProperty((f1, f2)), BOUNDED, top)):
            g_ = random_graph(uu, rng.randint(1, size), density, rng)
            if not member(p, g_):
                continue
            for k in range(1, g_.n + 1):
                has = decomp._has_decomposition(g_, p, k, mode, k_max=1)
                assert has == bool(all_decompositions(g_, p, k, mode, k_max=1)), (g_, p, k)
                answers.add((mode, has))
    want = {(EXACT, True), (EXACT, False), (BOUNDED, True), (BOUNDED, False)}
    if len(uu.kinds) > 1:
        want.discard((BOUNDED, False))
    assert want <= answers


def _has_in_partition_order(g_, p, n_parts, member_cap):
    """_has_decomposition by a walk that decides every split of every
    valid partition of the level below in enumerate_partitions order,
    levels below n_parts in full and level n_parts up to its first valid
    partition, raising at the first decision that raises; BOUNDED,
    k_max = 1."""
    level = [Decomposition((g_.vertices,))]
    for k in range(1, n_parts + 1):
        if k > 1:
            kids = {}
            for d in level:
                for i, part in enumerate(d.parts):
                    _, *rest = sorted(part)
                    for r in range(1, len(rest) + 1):
                        for right in itertools.combinations(rest, r):
                            c = Decomposition(d.parts[:i] + (part - set(right), set(right))
                                              + d.parts[i + 1:])
                            kids[decomp._rgs(c)] = c
            level = [c for _, c in sorted(kids.items())]
        valid = []
        for d in level:
            if is_decomposition(g_, d, p, BOUNDED, 1, member_cap):
                if k == n_parts:
                    return True
                valid.append(d)
        level = valid
    return False


def test_member_cap_keeps_every_answer(u, props):
    """Under edgeless^3, and under edgeless x {P3}-free, whose second
    factor is not closed under deleting an edge, with member caps that
    some bounded joins exceed: every existence query that a walk in
    enumerate_partitions order answers keeps its answer, and every
    answer, existence or whole level, is the one given under the default
    cap.  edgeless^3 is closed under deleting an edge, so each join is
    decided on one densest member per copy count, and it answers every
    query under both caps exactly as under the default cap.  Under
    edgeless x {P3}-free, on C4 with cap 4, the walk in partition order
    raises at {0,1,2}|{3} before it reaches {0,3}|{1,2}; the pruned walk
    holds the error back, answers the existence query, and raises it for
    the whole level, which it cannot decide."""
    for p, closed in ((ProductProperty((props.edgeless,) * 3), True),
                      (ProductProperty((props.edgeless, props.p3free)), False)):
        assert p.edge_closed == closed
        kept = levels = raised = 0
        for g_ in enumerate_hypergraphs(EnumSpec(u, 5)):
            if g_.n < 3 or not p.member(g_):
                continue
            for cap in (4, 64):
                for k in range(2, g_.n + 1):
                    full = all_decompositions(g_, p, k, BOUNDED, 1)
                    try:
                        want = _has_in_partition_order(g_, p, k, cap)
                    except CapExceededError:
                        want = None
                        raised += 1
                    try:
                        has = decomp._has_decomposition(g_, p, k, BOUNDED, 1, cap)
                    except CapExceededError:
                        assert want is None, (g_, cap, k)
                        raised += 1
                    else:
                        assert has == bool(full), (g_, cap, k)
                        kept += want is not None
                    try:
                        assert all_decompositions(g_, p, k, BOUNDED, 1, cap) == full, \
                            (g_, cap, k)
                        levels += 1
                    except CapExceededError:
                        raised += 1
        assert kept > 50 and levels > 50, (p, kept, levels)
        assert (raised == 0) == closed, (p, raised)
    q = ProductProperty((props.edgeless, props.p3free))
    c4 = simple_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    with pytest.raises(CapExceededError, match=r"2\^3 members"):
        _has_in_partition_order(c4, q, 2, 4)
    assert decomp._has_decomposition(c4, q, 2, BOUNDED, 1, 4)
    with pytest.raises(CapExceededError, match=r"2\^3 members"):
        all_decompositions(c4, q, 2, BOUNDED, 1, 4)
    # a partial partition that raises cuts nothing: under this product
    # {0,2}|{1,3} raises at cap 8, and so do its completions {0,2,4}|{1,3}
    # and {0,2}|{1,3,4}, which are valid under the default cap
    q = ProductProperty((props.edgeless, forbidden_property(u, [simple_graph(3, [(1, 2)])]),
                         forbidden_property(u, [simple_graph(3, [(0, 2), (1, 2)])])))
    assert not q.edge_closed
    g_ = simple_graph(5, [(0, 2), (1, 3)])
    assert {"{0,2,4}|{1,3}", "{0,2}|{1,3,4}"} <= \
        {str(d) for d in all_decompositions(g_, q, 2, BOUNDED, 1)}
    with pytest.raises(CapExceededError, match=r"2\^6 members"):
        all_decompositions(g_, q, 2, BOUNDED, 1, 8)


def test_bipartite_sweep_work_counts(g, u, props, monkeypatch):
    """The uniqueness queries of the sweep workload, criterion 7 at 6
    vertices, from cold join and lattice memos: the 28 connected
    bipartite graphs and 2K2, each asked whether it is uniquely
    decomposable under edgeless*edgeless.  The walk reads level 1 from
    membership, empties level 3 at its single-vertex join and places a
    part's vertices along its edges.  It makes 308 decisions (711 before
    the walk's cuts) and decides 72 distinct bounded joins, the misses of
    the join memo (128 before the cuts).  edgeless*edgeless is closed
    under deleting an edge, so each of them is decided on its one densest
    member (72 verdicts) and none is streamed (59 before; 113 before the
    cuts) or tried by the certificate, which ran _exact_split 134 times
    before (254 before the cuts).  Its factors forbid a graph on 2
    vertices alone, so each verdict is read from partner masks of the
    host's pair index and no densest member is built (72 were, each then
    asked of partition_solve, before the mask verdict).  partition_solve
    runs _find 0 times: it decides K2 by partner bitmasks with no
    embedding search.  It ran _find 602 times while it searched for K2
    (576 before the densest members, 968 before the cuts).  The walk's 29
    product memberships, the levels 1 read from membership, call
    partition_solve (101 with the 72 densest members), which builds the
    plan of its one factor tuple once, from a cold plan memo, and reads
    it on every later call."""
    calls = {"_decide": [], "_first_bad_member": [], "_join_bounded": [],
             "_exact_split": [], "_densest_member": [], "_densest_holds": [], "_find": [],
             "partition_solve": []}

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls[name].append(a) or real(*a))

    members = [h for h in enumerate_hypergraphs(EnumSpec(u, 6, connected_only=True))
               if props.two_colour.member(h)]
    assert len(members) == 28
    for name in ("_decide", "_first_bad_member", "_join_bounded", "_exact_split",
                 "_densest_member", "_densest_holds"):
        count(decomp, name)
    count(hgprops, "_find")
    count(hgprops, "partition_solve")
    decomp._level.cache_clear()
    decomp._singletons_refuted.cache_clear()
    decomp._join_memo.clear()
    hgprops._solve_plan.cache_clear()
    assert [is_uniquely_decomposable(h, props.two_colour, BOUNDED, k_max=1)
            for h in members + [g.two_k2]] == [True] * 28 + [False]
    assert {name: len(c) for name, c in calls.items()} == {
        "_decide": 308, "_join_bounded": 72, "_first_bad_member": 0, "_exact_split": 0,
        "_densest_member": 0, "_densest_holds": 72, "_find": 0, "partition_solve": 29}
    distinct = {tuple(factors) for _, factors in calls["partition_solve"]}
    assert len(distinct) == hgprops._solve_plan.cache_info().misses == 1


def test_pruned_levels_match_a_flat_scan(monkeypatch):
    """Every level of the pruned lattice walk equals a flat scan of all
    k-part partitions, each decided by is_decomposition, on the five
    test universes: random forbidden sets, additive or not, in EXACT
    mode, and products of two of them in BOUNDED mode with k_max = 1.
    The flat scan streams up to 2^c members per bounded partition, so
    product graphs have at most 6 possible edges.  The walk must have cut
    at refuted partial partitions in both modes and for a non-additive
    set, and at a refuted single-vertex join in both modes, or the
    comparison would not test the cuts.  The single-vertex cut empties
    the random non-additive levels before any partial split is refuted,
    so one fixed case keeps that partial cut: {K3 + K1}-free on P3 + K1,
    whose 2-vertex join holds and whose partial split {0,1}|{2} is
    refuted."""
    cut, singles = set(), set()
    real, real_singles = decomp._decide, decomp._singletons_refuted

    def recording(g_, p, masks, mode, *args):
        check = real(g_, p, masks, mode, *args)
        if not check and reduce(int.__or__, masks) != (1 << g_.n) - 1:
            cut.add((mode, getattr(p, "additive", None)))
        return check

    def recording_singles(p, mode, *args):
        refuted = real_singles(p, mode, *args)
        if refuted:
            singles.add(mode)
        return refuted

    def compare(g_, p, mode):
        for k in range(1, g_.n + 1):
            flat = [Decomposition(parts)
                    for parts in enumerate_partitions(g_.vertices, k, min_parts=k)
                    if is_decomposition(g_, Decomposition(parts), p, mode, k_max=1)]
            assert all_decompositions(g_, p, k, mode, k_max=1) == flat, (g_, p, k)

    monkeypatch.setattr(decomp, "_decide", recording)
    monkeypatch.setattr(decomp, "_singletons_refuted", recording_singles)
    rng = random.Random(SEED + 12)
    for case in UNIVERSE_CASES:
        uu, density = case.values
        top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
        small = max(n for n in range(2, 8) if len(admissible_edges(uu, range(n))) <= 6)
        pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top)) if h.n >= 2]
        for _ in range(30):
            f1, f2 = (forbidden_property(uu, rng.sample(pool, rng.randint(1, 2)))
                      for _ in range(2))
            for p, mode, size in ((f1, EXACT, top + 3),
                                  (ProductProperty((f1, f2)), BOUNDED, small)):
                drawn = (random_graph(uu, rng.randint(min(3, size), size), density, rng)
                         for _ in range(20))
                g_ = next((h for h in drawn if member(p, h)), None)
                if g_ is not None:
                    compare(g_, p, mode)
    k3_k1 = forbidden_property(simple_universe(), [simple_graph(4, [(0, 1), (0, 2), (1, 2)])])
    decomp._level.cache_clear()
    compare(simple_graph(4, [(0, 1), (1, 2)]), k3_k1, EXACT)
    assert {(EXACT, True), (EXACT, False), (BOUNDED, None)} <= cut, cut
    assert singles == {EXACT, BOUNDED}, singles


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_level_one_is_the_one_block_decision(uu, density, monkeypatch):
    """Where level 1 is read from membership, additive forbidden sets in
    EXACT mode and products in BOUNDED mode at k_max = 1, it equals the
    one-block decision it skips, and that skip decides no join.  Both
    sides agree on a non-member before any join is decided, so the
    members are what must be met in both modes."""
    rng = random.Random(SEED + 13)
    top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top, connected_only=True))
            if h.n >= 2]
    real = decomp._decide
    seen = set()
    for _ in range(40):
        f1, f2 = (forbidden_property(uu, rng.sample(pool, rng.randint(1, 2)))
                  for _ in range(2))
        assert f1.additive and f2.additive
        for p, mode in ((f1, EXACT), (ProductProperty((f1, f2)), BOUNDED)):
            g_ = random_graph(uu, rng.randint(1, top + 1), density, rng)
            decided = []
            monkeypatch.setattr(decomp, "_decide", lambda *a: decided.append(a) or real(*a))
            level = list(decomp._valid(g_, p, mode, 1, decomp.DEFAULT_MEMBER_CAP, 1))
            monkeypatch.setattr(decomp, "_decide", real)
            assert not decided
            want = bool(member(p, g_)) and bool(real(g_, p, [(1 << g_.n) - 1], mode, 1))
            assert level == ([Decomposition((g_.vertices,))] if want else []), (g_, p)
            seen.add((mode, want))
    assert {(EXACT, True), (EXACT, False), (BOUNDED, True)} <= seen


def test_level_one_of_a_non_additive_set_is_decided(g, u):
    """{2K2}-free is not additive: K2 is a member, but two copies of it
    are 2K2, so level 1 stays empty in EXACT mode and at k_max = 2.  At
    k_max = 1 the one-fold join is K2 itself."""
    p = forbidden_property(u, [g.two_k2])
    assert member(p, g.k2) and not p.additive
    assert all_decompositions(g.k2, p, 1) == []
    assert dec_number(g.k2, p).value == 0
    assert dec_number(g.k2, p, BOUNDED, k_max=2).value == 0
    assert str(dec_number(g.k2, p, BOUNDED, k_max=1).decomposition) == "{0}|{1}"


def test_level_one_with_member_cap_zero_still_raises(g, props):
    """In BOUNDED mode at k_max = 1 level 1 is read from membership only
    while the member cap admits the one-member join: under cap 0 the
    decision is still made and raises, as it did before."""
    with pytest.raises(CapExceededError, match=r"2\^0 members"):
        dec_number(g.k2, props.two_colour, BOUNDED, k_max=1, member_cap=0)
    assert dec_number(g.k2, props.two_colour, BOUNDED, k_max=1, member_cap=1).value == 2


def test_sweep_level_three_costs_one_memoised_decision(g, u, props, monkeypatch):
    """Under edgeless*edgeless, level 3 of every sweep member (the
    connected bipartite graphs on at most 6 vertices and 2K2) is emptied
    by the one memoised decision of the join over three single vertices,
    which holds a triangle, once levels 1 and 2 are read."""
    members = [h for h in enumerate_hypergraphs(EnumSpec(u, 6, connected_only=True))
               if props.two_colour.member(h)] + [g.two_k2]
    decomp._level.cache_clear()
    for h in members:
        decomp._level(h, props.two_colour, BOUNDED, 1, decomp.DEFAULT_MEMBER_CAP, 2)
    decomp._singletons_refuted.cache_clear()
    decided = []
    real = decomp._decide
    monkeypatch.setattr(decomp, "_decide", lambda *a: decided.append(a) or real(*a))
    assert not any(decomp._level(h, props.two_colour, BOUNDED, 1,
                                 decomp.DEFAULT_MEMBER_CAP, 3) for h in members)
    assert [(a[0].n, a[0].edges, a[2]) for a in decided] == [(3, frozenset(), [1, 2, 4])]


def test_a_raising_single_vertex_join_cuts_nothing(u, g):
    """The single-vertex join of a generated property streams its
    members, and under cap 1 the two members over two single vertices
    raise.  That decision cuts nothing: the split {0}|{1} of 2K1 is
    decided and raises in turn, for a read of the whole level and for the
    existence test alike."""
    p = GeneratedBounded(u, (g.p3,), 4)
    decomp._singletons_refuted.cache_clear()
    with pytest.raises(CapExceededError, match=r"2\^1 members"):
        all_decompositions(g.e2, p, 2, BOUNDED, 1, member_cap=1)
    with pytest.raises(CapExceededError, match=r"2\^1 members"):
        decomp._has_decomposition(g.e2, p, 2, BOUNDED, 1, member_cap=1)
    assert str(dec_number(g.e2, p, BOUNDED, 1).decomposition) == "{0}|{1}"


@pytest.mark.parametrize("name", _KERNEL_NAMES)
def test_coloured_existence_test_matches_all_decompositions(g, u, name, monkeypatch):
    """In EXACT mode the existence test answers True with no walk when
    the join over k single vertices holds and G has a colouring with at
    most k classes, none holding a whole edge.  Its answer equals
    bool(all_decompositions) at every k from 1 to |V(G)|, on random
    forbidden sets, closed under deleting an edge or not, and random
    graphs in and outside them.  The rule must fire, and be declined both
    for a refuted single-vertex join and for want of a colouring: the
    edgeless property on K2 has a colouring into two classes but dec 0,
    and C5 has no colouring into two classes."""
    results = []
    real = decomp._coloured
    monkeypatch.setattr(decomp, "_coloured", lambda *a: results.append(real(*a)) or results[-1])
    tally = {"fired": 0, "no join": 0, "no colouring": 0}

    def check(g_, p, k):
        del results[:]
        has = decomp._has_decomposition(g_, p, k, EXACT, 1)
        assert has == bool(all_decompositions(g_, p, k)), (g_, p, k)
        if decomp._singletons_refuted(p, EXACT, 1, decomp.DEFAULT_MEMBER_CAP, k):
            assert results == [], (g_, p, k)
            tally["no join"] += 1
        else:
            assert len(results) == 1, (g_, p, k)
            tally["fired" if results[0] else "no colouring"] += 1
        return results

    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    rng = random.Random(f"{SEED}:coloured:{name}")
    hi = 6 if name == "UNORDERED-3" else 5
    for _ in range(120):
        p = _random_forbidden(uu, dens, rng, name)
        g_ = random_graph(uu, rng.randint(1, hi), dens, rng)
        for k in range(1, g_.n + 1):
            check(g_, p, k)
    assert all(tally.values()), tally
    edgeless = forbidden_property(u, [g.k2])
    assert real(g.k2, 2) and not check(g.k2, edgeless, 2)
    assert check(g.c5, forbidden_property(u, [g.k3]), 2) == [False]


def test_coloured_existence_test_keeps_its_errors(g, u, props, monkeypatch):
    """A graph over a foreign universe and a part count below 1 raise in
    the existence test as in all_decompositions, before any colouring is
    tried."""
    tried = []
    monkeypatch.setattr(decomp, "_coloured", lambda *a: tried.append(a))
    other = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))
    foreign = Hypergraph(other, 3, frozenset())
    for k in (1, 3, 4):
        for ask in (decomp._has_decomposition, all_decompositions):
            with pytest.raises(HgError, match="universes differ"):
                ask(foreign, props.trifree, k, EXACT, 1)
    for k in (0, -1):
        for ask in (decomp._has_decomposition, all_decompositions):
            with pytest.raises(ValueError, match="at least one part"):
                ask(g.p3, props.trifree, k, EXACT, 1)
    assert tried == []


# --- strictness ---------------------------------------------------------

def test_strictness_goldens(g, props):
    assert not is_strict(g.k1, props.trifree)
    assert is_strict(g.k2, props.trifree)
    assert is_strict(g.k1, props.edgeless)
    assert is_strict(g.c5, props.trifree)
    with pytest.raises(HgError):
        is_strict(g.k3, props.trifree)


def test_strictness_matches_brute_force(u, props):
    rng = random.Random(SEED + 5)
    for _ in range(25):
        g_ = random_graph(u, rng.randint(0, 4), 0.4, rng)
        for p in [props.edgeless, props.trifree, props.p3free]:
            if not member(p, g_):
                continue
            assert is_strict(g_, p) == brute_strict(g_, lambda h: bool(member(p, h)))
    strict = 0
    for name, g_, p in _beyond_simple_samples(rng, 8):
        if not member(p, g_):
            continue
        want = brute_strict(g_, lambda h: bool(member(p, h)))
        assert is_strict(g_, p) == want, (name, p, g_)
        w = strictness_witness(g_, p)
        assert (w is not None) == want
        if w is not None:
            strict += 1
            _assert_witness_leaves(p, g_, w)
    assert strict > 0


def _assert_witness_leaves(p, g_, w):
    """Gluing a fresh vertex to G along F's edges at the removed vertex
    gives a graph outside P."""
    place = dict(w.rest_to_graph())
    place[w.removed_vertex] = g_.n
    glued = frozenset(EdgeObject(e.kind, tuple(place[v] for v in e.vertices), e.colour)
                      for e in w.forbidden.edges if w.removed_vertex in e.vertices)
    assert not member(p, Hypergraph(g_.universe, g_.n + 1, g_.edges | glued))


def test_strictness_brute_force_for_products(g, props):
    assert is_strict(g.k2, props.two_colour)
    assert not is_strict(g.k1, props.two_colour)
    assert brute_strict(g.k2, lambda h: bool(member(props.two_colour, h)))


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_product_strictness_matches_brute_force(uu, density, monkeypatch):
    """is_strict on a product of two finite-forbidden factors agrees with
    brute_strict under brute_member_product.  A product closed under
    deleting an edge decides its densest one-vertex extension and streams
    none; under any other product a graph the certificate settles streams
    no one-vertex extension and is not strict, and the other graphs
    stream theirs.  Only graphs under products not closed under deleting
    an edge are counted, at least 8 that the certificate settles and 8
    that stream; the closed products are counted by
    test_closed_product_strictness_matches_every_extension."""
    streamed = []
    real = decomp._first_bad_member
    monkeypatch.setattr(decomp, "_first_bad_member",
                        lambda *a: streamed.append(a) or real(*a))
    rng = random.Random(SEED + 8)
    top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top)) if h.n >= 2]
    one = Hypergraph(uu, 1, frozenset())
    settled = scanned = 0
    while settled < 8 or scanned < 8:
        prod = ProductProperty(tuple(forbidden_property(uu, rng.sample(pool, rng.randint(1, 2)))
                                     for _ in range(2)))
        forbidden_lists = [f.forbidden for f in prod.factors]
        g_ = random_graph(uu, rng.randint(0, 3), density, rng)
        if len(crossing_edge_candidates([g_, one])) > _ORACLE_CANDIDATES \
                or not brute_member_product(forbidden_lists, g_):
            continue
        want = brute_strict(g_, lambda h: brute_member_product(forbidden_lists, h))
        decomp._is_strict_join.cache_clear()  # a memoised answer streams nothing
        before = len(streamed)
        assert is_strict(g_, prod) == want, (prod, g_)
        proved = decomp._product_certificate(prod, disjoint_union(g_, one),
                                             [(1 << g_.n) - 1, 1 << g_.n])
        assert (len(streamed) == before) == (proved or prod.edge_closed), (prod, g_)
        assert not (proved and want), (prod, g_)
        settled += proved and not prod.edge_closed
        scanned += not proved and not prod.edge_closed


def test_strictness_brute_force_respects_member_cap(u, g, props):
    """K2 plus one vertex has 2 crossing edges, so 2^2 join members.
    Under edgeless x complete graphs ({2K1}-free, not closed under
    deleting an edge) no certificate settles them and all are streamed,
    so caps below 4 raise.  edgeless*edgeless is closed under deleting an
    edge: its densest extension, K3, decides alone, under any cap that
    admits one member; cap 0 still raises."""
    q = ProductProperty((props.edgeless, forbidden_property(u, [g.e2])))
    assert not q.edge_closed and props.two_colour.edge_closed
    for cap in (1, 3):
        with pytest.raises(CapExceededError, match=r"2\^2 members"):
            is_strict(g.k2, q, member_cap=cap)
        assert is_strict(g.k2, props.two_colour, member_cap=cap)
    assert not is_strict(g.k2, q, member_cap=4)
    assert is_strict(g.k2, props.two_colour, member_cap=4)
    with pytest.raises(CapExceededError, match=r"2\^2 members"):
        is_strict(g.k2, props.two_colour, member_cap=0)


def test_strictness_witness_structure(g, props):
    w = strictness_witness(g.k2, props.trifree)
    assert w.forbidden == props.trifree.forbidden[0]
    rest = w.rest_to_graph()
    assert len(rest) == 2 and w.removed_vertex not in rest
    assert set(rest.values()) <= set(g.k2.vertices)
    assert strictness_witness(g.k1, props.trifree) is None


def test_strictify_properties(u, props):
    rng = random.Random(SEED + 6)
    for _ in range(20):
        g_ = random_graph(u, rng.randint(0, 4), 0.3, rng)
        for p in [props.trifree, props.bip]:
            if not member(p, g_):
                continue
            s = strictify(g_, p)
            assert member(p, s)
            assert is_strict(s, p)
            assert s.n < g_.n + min_forbidden_order(p)
            assert induced(s, range(g_.n)) == g_  # original kept as a prefix
    for name, g_, p in _beyond_simple_samples(rng, 8):
        if not member(p, g_):
            continue
        s = strictify(g_, p)
        assert member(p, s) and is_strict(s, p), (name, p, g_)
        assert s.n < g_.n + min_forbidden_order(p)
        assert induced(s, range(g_.n)) == g_


def test_strictify_fixed_point(g, props):
    assert strictify(g.k2, props.trifree) == g.k2


# --- part structure -------------------------------------------------------

def test_ind_parts_golden(g, props):
    parts = ind_parts(g.c4, props.trifree)
    assert len(parts) == 2
    assert all(p.n == 2 and not p.edges for p in parts)


def test_multiplicity_golden(g, props):
    assert multiplicity(g.k1, g.c4, props.trifree) == 2
    assert multiplicity(g.k2, g.c4, props.trifree) == 0
    assert multiplicity(g.e2, g.c4, props.trifree) == 2


def test_respects(g):
    d0 = Decomposition(({0, 2}, {1, 3}))
    assert respects(Decomposition(({0,}, {2}, {1, 3})), d0)
    assert respects(d0, d0)
    assert not respects(Decomposition(({0, 1}, {2, 3})), d0)
    with pytest.raises(HgError):
        respects(Decomposition(({0, 1},)), d0)


def test_respects_uniformly():
    # two copies of a two-vertex base: copy 0 on {0,1}, copy 1 on {2,3}
    copies = [frozenset({0, 1}), frozenset({2, 3})]
    d0 = Decomposition(({0, 2}, {1, 3}))  # base part 0 in both copies, part 1 in both
    aligned = Decomposition(({0, 2}, {1, 3}))
    assert respects_uniformly(aligned, d0, copies)
    crossed = Decomposition(({0, 3}, {1, 2}))
    assert not respects_uniformly(crossed, d0, copies)
    with pytest.raises(HgError):
        respects_uniformly(aligned, d0, [frozenset({0, 1})])


def test_respects_uniformly_mixed_copy_choice():
    # part {0,3} takes d0-part 0 in copy 0 but d0-part 1 in copy 1, so it
    # respects per copy yet not uniformly
    copies = [frozenset({0, 1}), frozenset({2, 3})]
    d0 = Decomposition(({0, 3}, {1, 2}))
    d = Decomposition(({0, 2}, {1, 3}))
    for part in d.parts:
        for c in copies:
            assert any(part & c <= ref for ref in d0.parts)
    assert not respects_uniformly(d, d0, copies)


# --- generated properties in the decomposition machinery ------------------

def test_dec_with_generated_property(u, g):
    q = GeneratedBounded(u, (g.two_k2,), 4)
    res = dec_number(g.k2, q, BOUNDED, k_max=2)
    assert res.value >= 1
    assert dec_number(g.k3, q, BOUNDED, k_max=2).value == 0
