"""Property representations: membership, witnesses, additivity, files."""

import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

from hgfactor import (
    BoundExceededError,
    EdgeKind,
    EdgeObject,
    FiniteForbidden,
    ForbiddenWitness,
    FormatError,
    GeneratedBounded,
    HgError,
    Hypergraph,
    PartitionAssignment,
    ProductProperty,
    Universe,
    UniverseMismatchError,
    canonical_form,
    forbidden_property,
    forbidden_up_to,
    format_property,
    induced,
    is_additive,
    load_property,
    member,
    min_forbidden_order,
    minimize_forbidden,
    parse_property,
    partition_solve,
    save_property,
    simple_graph,
    simple_universe,
)
from hgfactor import generate, props as hgprops
from helpers import (
    brute_member_ff,
    image_triples,
    mapped_triples,
    forbidden_up_to as reference_forbidden_up_to,
    random_graph,
    random_hereditary,
    solve_by_assignment,
)
from test_core import UNIVERSE_CASES, mixed_universe, triple_universe, two_colour_universe
from test_decomp import _kernel_universes

SEED = 77003


# --- construction and validation -------------------------------------------

def test_forbidden_set_validation(u, g):
    with pytest.raises(ValueError):
        FiniteForbidden(u, ())
    with pytest.raises(ValueError):
        FiniteForbidden(u, (g.k1,))  # single vertices cannot be forbidden
    with pytest.raises(ValueError):
        FiniteForbidden(u, (g.k2, g.k2))
    with pytest.raises(ValueError):
        FiniteForbidden(u, (g.p3, g.c4))  # P3 sits induced in C4


def test_forbidden_property_minimizes(u, g):
    p = forbidden_property(u, [g.k3, g.k2, g.c4])
    assert p.forbidden == (canonical_form(g.k2),)


def test_minimize_forbidden_goldens(g):
    assert minimize_forbidden([g.k2, g.k3]) == (canonical_form(g.k2),)
    got = minimize_forbidden([g.p3, g.k3, g.c4])
    assert len(got) == 2
    assert {h.n for h in got} == {3}


def test_product_validation(u, props):
    with pytest.raises(ValueError):
        ProductProperty((props.edgeless,))
    du = forbidden_property(u, [simple_graph(2, [(0, 1)])])
    assert ProductProperty((du, props.trifree)).universe == u


def test_generated_bounded_validation(u, g):
    with pytest.raises(ValueError):
        GeneratedBounded(u, (), 3)
    with pytest.raises(ValueError):
        GeneratedBounded(u, (g.k2,), 0)
    q = GeneratedBounded(u, (g.c4, g.k2, canonical_form(g.k2)), 4)
    assert len(q.generators) == 2  # duplicates collapse
    assert [h.n for h in q.generators] == [2, 4]


# --- kept hashes --------------------------------------------------------------

# Builds one value of every class that keeps its hash, over simple and
# mixed-kind 2-colour universes; run here and in fresh processes.
KEPT_VALUES = """
from hgfactor import (EdgeKind, EdgeObject, GeneratedBounded, Hypergraph, ProductProperty,
                      Universe, forbidden_property, simple_graph)

def values():
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED
    mixed = Universe(frozenset({o, un}), frozenset({2, 3}), ("r", "b"))
    k3 = simple_graph(3, [(0, 1), (0, 2), (1, 2)])
    shaped = Hypergraph(mixed, 3, frozenset({EdgeObject(o, (2, 0), "r"),
                                             EdgeObject(un, (0, 1, 2), "b")}))
    edgeless = forbidden_property(k3.universe, [simple_graph(2, [(0, 1)])])
    trifree = forbidden_property(k3.universe, [k3])
    return [k3.universe, mixed, k3, shaped, Hypergraph(mixed, 4, frozenset()),
            edgeless, trifree, forbidden_property(mixed, [shaped]),
            ProductProperty((edgeless, trifree)),
            ProductProperty((ProductProperty((edgeless, edgeless)), trifree)),
            GeneratedBounded(k3.universe, (k3, simple_graph(4, [(0, 1)])), 5)]
"""

PICKLE_VALUES = KEPT_VALUES + """
import pickle, sys
vals = values()
hashes = [hash(v) for v in vals]
assert all(vars(v)["_hash"] == h for v, h in zip(vals, hashes))
with open(sys.argv[1], "wb") as fh:
    pickle.dump((vals, hashes), fh)
"""

LOAD_VALUES = KEPT_VALUES + """
import pickle, sys
with open(sys.argv[1], "rb") as fh:
    loaded, their = pickle.load(fh)
fresh = values()
assert not any("_hash" in vars(v) for v in loaded)
assert loaded == fresh and not any(a is b for a, b in zip(loaded, fresh))
assert [hash(v) for v in loaded] == [hash(v) for v in fresh]
assert set(loaded) == set(fresh) and all(v in set(fresh) for v in loaded)
index = {v: i for i, v in enumerate(fresh)}
assert [index[v] for v in loaded] == list(range(len(fresh)))
back = {v: i for i, v in enumerate(loaded)}
assert [back[v] for v in fresh] == list(range(len(fresh)))
print(sum(h != hash(v) for h, v in zip(their, fresh)))
"""

FIELDS = {"Universe": ["kinds", "arities", "colours"], "Hypergraph": ["universe", "n", "edges"],
          "FiniteForbidden": ["universe", "forbidden"], "ProductProperty": ["factors"],
          "GeneratedBounded": ["universe", "generators", "bound"]}


def _kept_values():
    namespace = {}
    exec(KEPT_VALUES, namespace)
    return namespace["values"]()


def test_kept_hashes_are_the_field_tuple_hashes():
    # each value keeps the hash of the tuple of its fields; equal values
    # built apart hash equal; fields, repr and == are the dataclass's
    values, apart = _kept_values(), _kept_values()
    assert {type(v).__name__ for v in values} == set(FIELDS)
    assert len(set(values)) == len(values)
    for v, w in zip(values, apart):
        names = [f.name for f in dataclasses.fields(v)]
        assert names == FIELDS[type(v).__name__]
        fields = tuple(getattr(v, name) for name in names)
        assert hash(v) == hash(fields) == vars(v)["_hash"]
        assert v == w and v is not w and hash(v) == hash(w)
        assert (v == w) == (fields == tuple(getattr(w, name) for name in names))
        assert sum(v == x for x in apart) == 1
        if type(v).__name__ != "Hypergraph":  # which has its own repr
            assert repr(v) == f"{type(v).__name__}(" + ", ".join(
                f"{name}={value!r}" for name, value in zip(names, fields)) + ")"
    assert repr(values[0]) == "Universe(kinds=frozenset({UNORDERED}), " \
        "arities=frozenset({2}), colours=('e',))"
    assert repr(values[2]) == "H(n=3; U(0,1;e) U(0,2;e) U(1,2;e))"


def test_copies_leave_the_kept_hash_behind():
    for v in _kept_values():
        hash(v)
        for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert "_hash" not in vars(c)
            assert c == v and hash(c) == hash(v) and vars(c)["_hash"] == vars(v)["_hash"]


def test_kept_hashes_never_travel_between_processes(tmp_path):
    # values pickled under one hash seed and loaded under another hash and
    # compare as fresh ones do there, and are found in sets and dicts of
    # them; the first process's hashes would be wrong there
    src = os.path.dirname(os.path.dirname(os.path.abspath(hgprops.__file__)))
    path = str(tmp_path / "values.pickle")

    def run(script, seed):
        return subprocess.run([sys.executable, "-c", script, path], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout

    run(PICKLE_VALUES, "1")
    assert int(run(LOAD_VALUES, "2")) > 0


# --- membership -------------------------------------------------------------

def test_membership_goldens(g, props):
    assert member(props.edgeless, g.e3)
    assert not member(props.edgeless, g.k2)
    assert member(props.trifree, g.c5)
    assert not member(props.trifree, g.k3)
    assert member(props.two_colour, g.c4)
    assert not member(props.two_colour, g.k3)
    assert member(props.bip, g.c4)
    assert member(props.bip, g.two_k2)


def test_null_graph_in_every_property(g, props, u):
    for p in [props.edgeless, props.trifree, props.bip, props.two_colour,
              GeneratedBounded(u, (g.k2,), 3)]:
        assert member(p, g.k0)


def test_forbidden_witness_is_a_real_embedding(g, props):
    res = member(props.bip, g.c5)
    assert not res
    w = res.detail
    assert isinstance(w, ForbiddenWitness)
    assert w.forbidden in props.bip.forbidden
    m = w.embedding.mapping
    assert mapped_triples(w.forbidden, m) == image_triples(g.c5, m)


def test_product_witness_solves(g, props):
    res = member(props.two_colour, g.c4)
    pa = res.detail
    assert isinstance(pa, PartitionAssignment)
    assert pa.parts == (frozenset({0, 2}), frozenset({1, 3}))


def test_membership_matches_brute_force(u, props):
    rng = random.Random(SEED)
    for _ in range(80):
        g_ = random_graph(u, rng.randint(0, 5), 0.4, rng)
        for p in [props.edgeless, props.trifree, props.bip]:
            assert bool(member(p, g_)) == brute_member_ff(p.forbidden, g_)


@pytest.mark.parametrize("name", ["simple", "ORDERED-2", "UNORDERED-3", "2-colour",
                                  "mixed"])
def test_member_layer_verdicts_through_the_growth_vertex(u, name):
    """Every class of a random finite forbidden set's member layers,
    members and the non-members grown from a member parent alike, gets
    p.member's verdict from copies through its growth vertex alone
    (props._member_through, as generate._decided asks it); and deleting
    the growth vertex leaves a member, the fact that rests on."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    # a mixed class on 2 vertices has 2^13 candidate children
    top = {"simple": 5, "UNORDERED-3": 5, "mixed": 2}.get(name, 4)
    rng = random.Random(f"{SEED}:{name}")
    verdicts = set()
    for _ in range(8):
        graphs = [random_graph(uu, rng.randint(2, top), dens, rng) for _ in range(3)]
        p = forbidden_property(uu, rng.sample(graphs, rng.randint(1, 3)))
        generate._layer.cache_clear()
        for n in range(top + 1):
            for i, (h, holds) in enumerate(generate._decided(p, n)):
                assert holds is bool(p.member(h)), (p, h)
                verdicts.add(holds)
                if n:
                    v = generate._layer(uu, p, n).growth[i]
                    assert hgprops._member_through(p, h, v) is holds
                    assert p.member(induced(h, [w for w in range(n) if w != v]))
    assert verdicts == {True, False}


def test_membership_universe_mismatch(props):
    from hgfactor import EdgeKind, Universe, Hypergraph
    other = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("x",))
    with pytest.raises(UniverseMismatchError):
        member(props.edgeless, Hypergraph(other, 1, frozenset()))


def test_generated_bounded_membership(u, g):
    q = GeneratedBounded(u, (g.c4,), 4)
    assert member(q, g.p3)
    assert member(q, g.e2)
    assert not member(q, g.k3)
    assert member(q, g.c4).detail == canonical_form(g.c4)
    with pytest.raises(BoundExceededError):
        member(q, g.c5)


# --- partition solving ------------------------------------------------------

def test_partition_solve_goldens(g, props):
    pa = partition_solve(g.c4, [props.edgeless, props.edgeless])
    assert pa.parts == (frozenset({0, 2}), frozenset({1, 3}))
    pa = partition_solve(g.k3, [props.trifree, props.edgeless])
    assert pa.parts == (frozenset({0, 1}), frozenset({2}))
    assert partition_solve(g.k3, [props.edgeless, props.edgeless]) is None


def test_partition_solve_allows_empty_blocks(g, props):
    pa = partition_solve(g.k1, [props.edgeless, props.edgeless])
    assert pa.parts == (frozenset({0}), frozenset())


def test_partition_solve_matches_assignment_scan(u, props):
    rng = random.Random(SEED + 1)
    fns = [lambda h: bool(member(props.edgeless, h)),
           lambda h: bool(member(props.trifree, h))]
    for _ in range(50):
        g_ = random_graph(u, rng.randint(1, 5), 0.45, rng)
        got = partition_solve(g_, [props.edgeless, props.trifree])
        want = solve_by_assignment(g_, fns)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.assignment_vector() == want


def test_partition_solve_matches_assignment_scan_beyond_simple_graphs():
    # directed and 3-uniform factors whose forbidden graphs have 2 to 4
    # vertices, so the search through the newly placed vertex starts from
    # every position of the forbidden graph.  Disconnected forbidden
    # graphs (2K2, two disjoint arcs, an edge or arc plus a vertex) make
    # factors that are not additive.  An edge or arc plus a vertex has an
    # isolated vertex: a forbidden copy may appear through a vertex with
    # no neighbour in its block, so the neighbour guard must not skip the
    # search for them.  2K2 and two disjoint arcs have none, so the guard
    # skips it for them.
    #
    # Forbidden graphs on 2 vertices are decided by partner bitmasks, so
    # the 2-colour and mixed cases pin what a pair is: 2K1 (a pair with no
    # arity-2 edge, also when a 3-edge covers it), a colour-distinguished
    # edge, an arc and an edge on one pair, and a lone arc, which a
    # 2-cycle must not match.  Some factors mix 2-vertex and 3-vertex
    # forbidden graphs, and some are equal but built apart.
    rng = random.Random(SEED + 2)
    su = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("e",))
    du = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))
    tu = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",))
    cu = two_colour_universe()
    mu = mixed_universe()
    O, U = EdgeKind.ORDERED, EdgeKind.UNORDERED

    def graph(uni, n, edges):
        kind = next(iter(uni.kinds))
        return Hypergraph(uni, n, frozenset(EdgeObject(kind, e, uni.colours[0])
                                            for e in edges))

    def shaped(uni, n, edges):  # edges as (kind, vertices, colour)
        return Hypergraph(uni, n, frozenset(EdgeObject(*e) for e in edges))

    arc = graph(du, 2, [(0, 1)])
    two_cycle = graph(du, 2, [(0, 1), (1, 0)])
    path = graph(du, 3, [(0, 1), (1, 2)])
    out_star = graph(du, 3, [(0, 1), (0, 2)])
    triple = graph(tu, 3, [(0, 1, 2)])
    pair = graph(tu, 4, [(0, 1, 2), (1, 2, 3)])
    loose = graph(tu, 5, [(0, 1, 2), (2, 3, 4)])
    two_k2 = graph(su, 4, [(0, 1), (2, 3)])
    edge_vertex = graph(su, 3, [(0, 1)])
    two_arcs = graph(du, 4, [(0, 1), (2, 3)])
    arc_vertex = graph(du, 3, [(0, 1)])
    cases = [
        (su, 0.35, 7, [forbidden_property(su, [edge_vertex]),
                       forbidden_property(su, [two_k2])]),
        (du, 0.3, 6, [forbidden_property(du, [arc_vertex, two_cycle]),
                      forbidden_property(du, [two_arcs, two_cycle])]),
        (du, 0.4, 6, [forbidden_property(du, [arc, two_cycle]),
                      forbidden_property(du, [path, two_cycle])]),
        (du, 0.8, 6, [forbidden_property(du, [out_star, two_cycle]),
                      forbidden_property(du, [path, two_cycle]),
                      forbidden_property(du, [arc, two_cycle])]),
        (tu, 0.5, 8, [forbidden_property(tu, [triple]),
                      forbidden_property(tu, [triple])]),
        (tu, 0.5, 8, [forbidden_property(tu, [triple]),
                      forbidden_property(tu, [pair, loose])]),
    ]
    red = shaped(cu, 2, [(U, (0, 1), "r")])
    red_blue = shaped(cu, 2, [(U, (0, 1), "r"), (U, (0, 1), "b")])
    blue_k3 = shaped(cu, 3, [(U, e, "b") for e in ((0, 1), (0, 2), (1, 2))])
    blue_vertex = shaped(cu, 3, [(U, (0, 1), "b")])
    lone_arc = shaped(mu, 2, [(O, (0, 1), "e")])
    arc_edge = shaped(mu, 2, [(O, (0, 1), "e"), (U, (0, 1), "e")])
    spanned = shaped(mu, 3, [(U, (0, 1, 2), "e")])
    ordered_triple = shaped(mu, 3, [(O, (2, 0, 1), "e"), (U, (0, 1), "e")])
    cases += [
        (cu, 0.5, 6, [forbidden_property(cu, [red]), forbidden_property(cu, [red])]),
        (cu, 0.6, 6, [forbidden_property(cu, [Hypergraph(cu, 2, frozenset()), blue_k3]),
                      forbidden_property(cu, [red_blue, blue_vertex])]),
        (cu, 0.7, 6, [forbidden_property(cu, [Hypergraph(cu, 2, frozenset())])
                      for _ in range(3)]),
        (mu, 0.15, 6, [forbidden_property(mu, [lone_arc]),
                       forbidden_property(mu, [arc_edge, spanned])]),
        (mu, 0.2, 6, [forbidden_property(mu, [arc_edge, ordered_triple]),
                      forbidden_property(mu, [arc_edge, ordered_triple])]),
        (mu, 0.5, 5, [forbidden_property(mu, [Hypergraph(mu, 2, frozenset())])
                      for _ in range(2)]),
    ]
    runs = solved = 0
    for uni, p, n_max, factors in cases:
        fns = [lambda h, fac=fac: bool(member(fac, h)) for fac in factors]
        found = 0
        for _ in range(40):
            g_ = random_graph(uni, rng.randint(1, n_max), p, rng)
            got = partition_solve(g_, factors)
            want = solve_by_assignment(g_, fns)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.assignment_vector() == want
                found += 1
        assert found > 0
        runs, solved = runs + 40, solved + found
    assert solved < runs


def test_partition_solve_on_squares_and_cubes_matches_assignment_scan():
    # equal factors are interchangeable, so a block opens only after its
    # nearest equal earlier block; the answer must still be the least
    # assignment vector of a scan over every assignment, or None with it.
    # Each equal factor is built on its own, equal but not the same object.
    rng = random.Random(SEED + 3)
    su = simple_universe()
    du = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))
    tu = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",))

    def power(uni, edges, n, m):
        kind = next(iter(uni.kinds))
        f = Hypergraph(uni, n, frozenset(EdgeObject(kind, e, uni.colours[0]) for e in edges))
        return [forbidden_property(uni, [f]) for _ in range(m)]

    cases = [
        (su, 0.4, 7, power(su, [(0, 1)], 2, 2)),                   # E^2
        (su, 0.45, 7, power(su, [(0, 1)], 2, 3)),                  # E^3
        (su, 0.6, 7, power(su, [(0, 1), (0, 2), (1, 2)], 3, 2)),   # K3-free^2
        (du, 0.25, 6, power(du, [(0, 1)], 2, 2)),                  # arc-free^2
        (tu, 0.35, 7, power(tu, [(0, 1, 2)], 3, 2)),               # triple-free^2
    ]
    for uni, p, n_max, factors in cases:
        assert factors[0] == factors[1] and factors[0] is not factors[1]
        fns = [lambda h, fac=fac: bool(member(fac, h)) for fac in factors]
        found = missed = 0
        for _ in range(40):
            g_ = random_graph(uni, rng.randint(1, n_max), p, rng)
            got = partition_solve(g_, factors)
            want = solve_by_assignment(g_, fns)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.assignment_vector() == want
            found += got is not None
            missed += got is None
        assert found and missed, (factors, found, missed)


def test_equal_factors_open_blocks_in_order(monkeypatch):
    # K5 has no partition into two triangle-free blocks and K7 none into
    # three.  Trying every block for every vertex runs _find 32 and 756
    # times; with equal factors interchangeable vertex 0 opens block 0
    # only, and block 2 opens only after block 1 has, so 16 and 127.
    # Factors are matched by ==, so a factor built twice counts as equal.
    k3 = simple_graph(3, [(0, 1), (0, 2), (1, 2)])
    t, t2 = (forbidden_property(k3.universe, [k3]) for _ in range(2))
    assert t == t2 and t is not t2
    calls = []
    find = hgprops._find
    monkeypatch.setattr(hgprops, "_find", lambda *a: calls.append(a) or find(*a))
    for factors, n, want in (([t, t], 5, 16), ([t, t2], 5, 16), ([t, t2, t], 7, 127)):
        calls.clear()
        assert partition_solve(simple_graph(n, itertools.combinations(range(n), 2)),
                               factors) is None
        assert len(calls) == want, (len(factors), len(calls))


def test_assign_asks_as_items_join_and_opens_equal_blocks_in_turn():
    # items go in ascending order, each trying the blocks in ascending
    # order, and fits hears of an item as soon as it joins a block.  Block
    # 1's factor equals block 0's (==, built apart), so item 0 never opens
    # it; block 2's factor differs, so it opens at once.
    k3 = simple_graph(3, [(0, 1), (0, 2), (1, 2)])
    t, t2 = (forbidden_property(k3.universe, [k3]) for _ in range(2))
    e = forbidden_property(k3.universe, [simple_graph(2, [(0, 1)])])
    assert t == t2 and t is not t2
    asked = []

    def fits(i, block, j):
        asked.append((i, block, j))
        return False

    assert hgprops._twins([t, t2, e]) == (None, 0, None)
    assert hgprops._assign(hgprops._twins([t, t2, e]), 2, fits) is None
    assert asked == [(0, 0b1, 0), (2, 0b1, 0)]
    asked.clear()
    # block 0 is empty when item 1 comes, so block 1 stays shut
    assert hgprops._assign(hgprops._twins([t, t2]), 2,
                           lambda i, block, j: asked.append((i, block, j))
                           or block != 0b11) == [0b01, 0b10]
    assert asked == [(0, 0b01, 0), (0, 0b11, 1), (1, 0b10, 1)]


def test_assign_finds_the_least_assignment_of_a_full_scan():
    # blocks hold at most cap[factor] items and no two conflicting ones,
    # and at the leaf every block of a cap-3 factor must be even: the
    # answer is the least assignment vector of a scan over all m^n, or
    # None with it, whatever the equal factors skip
    rng = random.Random(SEED + 5)
    answers = set()
    for _ in range(300):
        n, m = rng.randint(0, 6), rng.randint(1, 3)
        caps = [rng.choice((1, 2, 3)) for _ in range(m)]
        conflict = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}

        def ok(i, block):
            vs = [v for v in range(n) if block >> v & 1]
            return len(vs) <= caps[i] and not any(
                (a, b) in conflict for a, b in itertools.combinations(vs, 2))

        def complete(blocks):
            return all(b.bit_count() % 2 == 0 for b, c in zip(blocks, caps) if c == 3)

        want = next((vec for vec in itertools.product(range(m), repeat=n)
                     if all(ok(i, sum(1 << v for v in range(n) if vec[v] == i))
                            for i in range(m))
                     and complete([sum(1 << v for v in range(n) if vec[v] == i)
                                   for i in range(m)])), None)
        got = hgprops._assign(hgprops._twins(caps), n, lambda i, block, j: ok(i, block),
                              complete)
        if want is None:
            assert got is None, (caps, conflict)
        else:
            assert got == [sum(1 << v for v in range(n) if want[v] == i)
                           for i in range(m)], (caps, conflict)
        answers.add(want is None)
    assert answers == {True, False}


def test_neighbour_guard_skips_factors_without_isolated_forbidden_vertices(u, monkeypatch):
    # 2K2-free is not additive, but every vertex of 2K2 lies on an edge,
    # so a vertex with no neighbour in its block completes no copy and no
    # search runs; an edge plus a vertex has its isolated vertex free to
    # land there, so the search runs
    two_k2 = forbidden_property(u, [simple_graph(4, [(0, 1), (2, 3)])])
    edge_vertex = forbidden_property(u, [simple_graph(3, [(0, 1)])])
    assert (two_k2.additive, two_k2.no_isolated) == (False, True)
    assert (edge_vertex.additive, edge_vertex.no_isolated) == (False, False)
    calls = []
    find = hgprops._find
    monkeypatch.setattr(hgprops, "_find", lambda *a: calls.append(a) or find(*a))
    edgeless = simple_graph(6, [])
    assert partition_solve(edgeless, [two_k2]) is not None and not calls
    assert partition_solve(edgeless, [edge_vertex]) is not None and calls


def test_product_of_bounded_factors_is_honest(u, g):
    # blocks beyond a generated factor's bound cannot be decided: a
    # partition within the bounds is definite, running out of them raises
    q = GeneratedBounded(u, (g.e2,), 2)
    prod = ProductProperty((q, q))
    res = member(prod, simple_graph(4, []))
    assert res.detail.parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert not member(prod, g.k3)  # every branch fails inside the bounds
    with pytest.raises(BoundExceededError):
        member(prod, simple_graph(5, []))
    with pytest.raises(BoundExceededError):
        partition_solve(simple_graph(5, []), [q, q])
    # three equal factors: blocks open in order, with the same verdicts
    cube = ProductProperty((q, q, q))
    res = member(cube, simple_graph(6, []))
    assert res.detail.parts == (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    assert member(cube, g.k3).detail.parts == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert not member(cube, simple_graph(4, itertools.combinations(range(4), 2)))
    with pytest.raises(BoundExceededError):
        member(cube, simple_graph(7, []))


def test_bound_error_names_the_least_bound_that_cut(u, g):
    # when generated factors of different bounds both cut, the error names
    # the least of them, whatever the factor order
    q2 = GeneratedBounded(u, (g.e2,), 2)
    q3 = GeneratedBounded(u, (g.e3,), 3)
    for factors, n in (([q2, q3], 6), ([q3, q2], 6), ([q2, q2, q3], 8), ([q3, q2, q2], 8)):
        with pytest.raises(BoundExceededError, match="declared bound 2 "):
            partition_solve(simple_graph(n, []), factors)


def test_partition_assignment_validation():
    with pytest.raises(ValueError):
        PartitionAssignment(({0, 1}, {1, 2}))
    pa = PartitionAssignment(({1, 3}, {0, 2}))
    assert pa.assignment_vector() == (1, 0, 1, 0)


# --- derived facts ----------------------------------------------------------

def test_min_forbidden_order(props):
    assert min_forbidden_order(props.edgeless) == 2
    assert min_forbidden_order(props.trifree) == 3
    assert min_forbidden_order(props.bip) == 3
    with pytest.raises(HgError):
        min_forbidden_order(props.two_colour)


def test_additivity(u, g, props):
    assert is_additive(props.edgeless)
    assert is_additive(props.trifree)
    assert is_additive(props.p3free)
    assert not is_additive(forbidden_property(u, [g.two_k2]))
    with pytest.raises(HgError):
        is_additive(props.two_colour)
    assert is_additive(props.two_colour, search_bound=5)


def test_edge_closure_goldens(u, g, props):
    """Closed under deleting an edge: K2-free, K3-free and {K3, C5}-free
    (every chord of C5 closes a triangle), and products of closed factors,
    nested ones too.  Not: P3-free (P3 plus an edge is K3), {2K2}-free,
    and any product with such a factor or a generated one."""
    assert props.edgeless.edge_closed and props.trifree.edge_closed and props.bip.edge_closed
    assert not props.p3free.edge_closed
    assert not forbidden_property(u, [g.two_k2]).edge_closed
    assert props.two_colour.edge_closed
    assert ProductProperty((props.two_colour, props.trifree)).edge_closed
    assert not ProductProperty((props.trifree, props.p3free)).edge_closed
    assert not ProductProperty((props.edgeless, GeneratedBounded(u, (g.k3,), 3))).edge_closed


def test_forbidden_up_to_goldens(g, props, u):
    assert forbidden_up_to(props.edgeless, 3) == (canonical_form(g.k2),)
    assert forbidden_up_to(props.trifree, 4) == (canonical_form(g.k3),)
    got = forbidden_up_to(props.two_colour, 5)
    assert [h.n for h in got] == [3, 5]
    assert got[0] == canonical_form(g.k3)
    assert got[1] == canonical_form(g.c5)


def test_forbidden_up_to_generated(u, g):
    q = GeneratedBounded(u, (g.k2,), 3)
    got = forbidden_up_to(q, 3)
    assert [h.n for h in got] == [2, 3]
    assert got[0] == canonical_form(g.e2)
    assert got[1] == canonical_form(g.k3)


@pytest.mark.parametrize("universe, density", UNIVERSE_CASES)
def test_forbidden_up_to_matches_the_full_scan(universe, density):
    # grown from member layers, the minimal non-members are those of the
    # scan over every class, in the same order; past a generated
    # property's bound both raise the same error
    rng = random.Random(SEED)
    n = {simple_universe(): 5, triple_universe(): 5, mixed_universe(): 2}.get(universe, 4)

    def outcome(f, p, top):
        try:
            return list(f(p, top))
        except HgError as exc:
            return type(exc), str(exc)

    for _ in range(3):
        forbidden, product, generated = random_hereditary(universe, n, density, rng)
        for p, top in ((forbidden, n), (product, n), (generated, n - 1), (generated, n)):
            want = outcome(reference_forbidden_up_to, p, top)
            assert outcome(forbidden_up_to, p, top) == want, (p, top)
        assert want[0] is BoundExceededError


# --- property files ---------------------------------------------------------

def test_forbidden_file_round_trip(tmp_path, props):
    path = tmp_path / "t.prop"
    save_property(props.trifree, str(path), "triangle-free")
    name, back = load_property(str(path))
    assert name == "triangle-free"
    assert back == props.trifree


def test_generated_file_round_trip(tmp_path, u, g):
    q = GeneratedBounded(u, (g.c4, g.k2), 6)
    path = tmp_path / "q.prop"
    save_property(q, str(path), "two-gen")
    name, back = load_property(str(path))
    assert back == q


def test_product_file_round_trip(tmp_path, props):
    path = tmp_path / "two.prop"
    save_property(props.two_colour, str(path), "two-colour")
    assert (tmp_path / "two.factor0.prop").exists()
    assert (tmp_path / "two.factor1.prop").exists()
    name, back = load_property(str(path))
    assert back == props.two_colour


def test_format_property_product_needs_names(props):
    with pytest.raises(ValueError):
        format_property(props.two_colour, "x")


def test_property_parse_errors():
    with pytest.raises(FormatError) as exc:
        parse_property("property v2\n")
    assert exc.value.line == 1

    with pytest.raises(FormatError) as exc:
        parse_property("property v1\nname: x\nrepr: waffles\n")
    assert exc.value.line == 3

    body = ("property v1\n"
            "name: x\n"
            "repr: forbidden\n"
            "universe: kinds=UNORDERED arities=2 colours=e\n"
            "begin forbidden\n"
            "hypergraph v1\n"
            "universe: kinds=UNORDERED arities=2 colours=e\n"
            "vertices: 2\n"
            "edge: UNORDERED 0 1 ; e\n")
    with pytest.raises(FormatError) as exc:
        parse_property(body)  # no 'end'
    assert "end" in str(exc.value)

    with pytest.raises(FormatError) as exc:
        parse_property(body + "end\nextra\n")
    assert exc.value.line == 11


def test_product_file_missing_factor(tmp_path):
    path = tmp_path / "p.prop"
    path.write_text("property v1\nname: p\nrepr: product\nfactor: nowhere.prop\n")
    with pytest.raises(FormatError) as exc:
        load_property(str(path))
    assert "cannot read factor file" in str(exc.value)
    assert exc.value.line == 4


def test_product_reference_cycle(tmp_path):
    path = tmp_path / "loop.prop"
    path.write_text("property v1\nname: loop\nrepr: product\nfactor: loop.prop\n")
    with pytest.raises(FormatError) as exc:
        load_property(str(path))
    assert "deep" in str(exc.value)
