"""Join containment, decomposition numbers, strictness, part structure."""

import itertools
import random
from functools import reduce

import pytest

from hgfactor import (
    BOUNDED,
    CapExceededError,
    DecWitness,
    Decomposition,
    EXACT,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    GeneratedBounded,
    HgError,
    Hypergraph,
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
from helpers import (
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


def _first_bad_descending(forbidden_lists, parts, k_max):
    """The first join member outside the product, scanning k = 1..k_max
    and each join's members from the last of join_members' binary order
    back to the first, by brute force; None if there is none."""
    for k in range(1, k_max + 1):
        for m in reversed(list(join_members([replicate(k, h) for h in parts]))):
            if not brute_member_product(forbidden_lists, m):
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
        assert chk.counterexample == _first_bad_descending(edgeless, parts, 2), parts
    k4 = simple_graph(4, itertools.combinations(range(4), 2))
    assert join_subset_of(props.two_colour, [g.k2, g.k2], BOUNDED).counterexample == k4


# joins streamed in the certificate oracle test have at most 2^9 members
_ORACLE_CANDIDATES = 9


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_product_certificate_is_sound(uu, density):
    """Wherever the certificate proves a product of two finite-forbidden
    factors contains a join, a brute-force scan of the binary-order
    join_members stream at k = 1, 2 finds no non-member; streaming
    densest first refutes exactly the joins binary order refutes."""
    rng = random.Random(SEED + 7)
    top = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    pool = [h for h in enumerate_hypergraphs(EnumSpec(uu, top)) if h.n >= 2]
    certified = refuted = 0
    while certified + refuted < 30:
        prod = ProductProperty(tuple(forbidden_property(uu, rng.sample(pool, rng.randint(1, 2)))
                                     for _ in range(2)))
        forbidden_lists = [f.forbidden for f in prod.factors]
        parts = [random_graph(uu, rng.randint(1, 2), density, rng)
                 for _ in range(rng.randint(1, 3))]
        joins = [[replicate(k, h) for h in parts] for k in (1, 2)]
        joins = [j for j in joins if len(crossing_edge_candidates(j)) <= _ORACLE_CANDIDATES]
        if not joins:
            continue
        proved = decomp._product_certificate(prod, tuple(parts))
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
    assert certified > 0 and refuted > 0, (certified, refuted)


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
    with pytest.raises(HgError):
        join_subset_of(props.two_colour, [g.k1], EXACT)
    with pytest.raises(ValueError):
        join_subset_of(props.trifree, [])
    with pytest.raises(ValueError):
        join_subset_of(props.trifree, [g.k1], mode="quick")


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
        decomp._split_memo.clear()
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
        w = decomp._split_fail_witness(p, g_, masks)
        assert (w is None) == (not oracle_join_fails(p.forbidden, parts, k_max=3))
        if w is not None:
            assert w.split[gap] == ()
            _assert_records_embed(w, parts)
    assert outside > 5 and refuted > outside and held > 5


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
    sizes = []
    check = decomp.is_decomposition

    def recording(g_, d, *args):
        sizes.append(len(d))
        return check(g_, d, *args)

    monkeypatch.setattr(decomp, "is_decomposition", recording)
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
    brute_strict under brute_member_product; a graph the certificate
    settles streams no one-vertex extension and is not strict, and the
    other graphs stream theirs."""
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
        proved = decomp._product_certificate(prod, (g_, one))
        assert (len(streamed) == before) == proved, (prod, g_)
        assert not (proved and want), (prod, g_)
        settled += proved
        scanned += not proved


def test_strictness_brute_force_respects_member_cap(g, props):
    # K2 plus one vertex has 2 crossing edges, so 2^2 join members
    for cap in (1, 3):
        with pytest.raises(CapExceededError, match=r"2\^2 members"):
            is_strict(g.k2, props.two_colour, member_cap=cap)
    assert is_strict(g.k2, props.two_colour, member_cap=4)


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
