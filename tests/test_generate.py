"""Enumeration of small hypergraphs and of vertex partitions."""

import hashlib
import itertools
import os
import random
import subprocess
import sys

import pytest

from hgfactor import (
    BoundExceededError,
    CapExceededError,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    FiniteForbidden,
    GeneratedBounded,
    HARD_VERTEX_CAP,
    HgError,
    Hypergraph,
    Universe,
    canonical_form,
    canonical_key,
    enumerate_hypergraphs,
    enumerate_partitions,
    forbidden_property,
    format_hypergraph,
    is_connected,
    simple_universe,
)
from hgfactor import core, generate, props as props_module
from helpers import (
    admissible_edges,
    bell,
    count_unlabeled,
    graph_triples,
    least_degree_orbits,
    mapped_triples,
    random_graph,
    random_hereditary,
    reference_canon,
    reference_cells,
    stirling2,
    unpruned_layer,
)
from test_core import UNIVERSE_CASES, generated_group, mixed_universe, triple_universe
from test_decomp import _kernel_universes


def digraph_universe():
    return Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))


def by_vertex_count(spec):
    groups = {}
    for g in enumerate_hypergraphs(spec):
        groups.setdefault(g.n, []).append(g)
    return groups


# --- graph enumeration ----------------------------------------------------

def test_simple_graph_counts():
    u = simple_universe()
    groups = by_vertex_count(EnumSpec(u, 4))
    assert [len(groups.get(n, [])) for n in range(5)] == [1, 1, 2, 4, 11]


def test_counts_cross_checked_against_brute_force():
    u = simple_universe()
    groups = by_vertex_count(EnumSpec(u, 4))
    for n in range(5):
        assert len(groups[n]) == count_unlabeled(u, n)


def test_digraph_counts():
    du = digraph_universe()
    groups = by_vertex_count(EnumSpec(du, 3))
    assert len(groups[3]) == 16
    for n in range(4):
        assert len(groups[n]) == count_unlabeled(du, n)


def test_two_colour_counts():
    u2 = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({2}), ("r", "b"))
    groups = by_vertex_count(EnumSpec(u2, 2))
    assert len(groups[2]) == 4  # no edge, red, blue, both colours at once
    assert len(groups[2]) == count_unlabeled(u2, 2)


def test_representatives_are_canonical_and_deduplicated():
    u = simple_universe()
    seen = set()
    for g in enumerate_hypergraphs(EnumSpec(u, 4)):
        assert g == canonical_form(g)
        key = canonical_key(g)
        assert key not in seen
        seen.add(key)


def test_output_order_by_size_then_key():
    u = simple_universe()
    out = list(enumerate_hypergraphs(EnumSpec(u, 3)))
    sizes = [g.n for g in out]
    assert sizes == sorted(sizes)
    for n, group in itertools.groupby(out, key=lambda g: g.n):
        keys = [canonical_key(g) for g in group]
        assert keys == sorted(keys)


def test_connected_only_filter():
    u = simple_universe()
    out = list(enumerate_hypergraphs(EnumSpec(u, 3, connected_only=True)))
    assert all(is_connected(g) for g in out)
    assert [g.n for g in out] == [1, 2, 3, 3]  # K1, K2, P3, K3
    groups = by_vertex_count(EnumSpec(u, 5, connected_only=True))
    assert [len(groups.get(n, [])) for n in range(1, 6)] == [1, 1, 2, 6, 21]


def three_uniform_universe():
    return Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",))


def test_repeated_enumeration_is_identical():
    u = digraph_universe()
    first = list(enumerate_hypergraphs(EnumSpec(u, 3)))
    again = list(enumerate_hypergraphs(EnumSpec(u, 3)))
    assert again == first


@pytest.mark.parametrize("universe, top", [
    (simple_universe(), 5),
    (digraph_universe(), 4),
    (three_uniform_universe(), 5),
])
def test_bounded_stream_is_a_prefix_of_the_next(universe, top):
    # the larger bound first, so the smaller ones are read from the layers
    # it left behind
    streams = {k: list(enumerate_hypergraphs(EnumSpec(universe, k)))
               for k in range(top, -1, -1)}
    for k in range(top):
        assert streams[k + 1][:len(streams[k])] == streams[k]
        assert all(g.n == k + 1 for g in streams[k + 1][len(streams[k]):])


def test_connected_only_matches_the_full_stream():
    u = simple_universe()
    full = list(enumerate_hypergraphs(EnumSpec(u, 5)))
    conn = list(enumerate_hypergraphs(EnumSpec(u, 5, connected_only=True)))
    assert conn == [g for g in full if g.n > 0 and is_connected(g)]
    assert list(enumerate_hypergraphs(EnumSpec(u, 0, connected_only=True))) == full[:1]


O, U = EdgeKind.ORDERED, EdgeKind.UNORDERED


# sha256 of the concatenated format_hypergraph stream, frozen from the
# enumeration as it stood before canonical keys were computed from coded
# edge tuples: the within-size order is canonical-key order, so these pin
# the key values themselves and not only the classes
DIGEST_CASES = [
    pytest.param(simple_universe(), 6,
                 "c606bba620916dfedac5424c815a90d7a44ccf3e7f0a4fd74c6b431027e97c46",
                 id="simple"),
    pytest.param(digraph_universe(), 4,
                 "b9d4022f49585f763f27440c8f61c3d3ec53d0a3b2f0a0cc80bb6fd71b163d87",
                 id="ordered2"),
    pytest.param(three_uniform_universe(), 5,
                 "e7269fa9dbc4238769cf469d3562528b33440e30119018d16c6137dedb2bd370",
                 id="unordered3"),
    pytest.param(Universe(frozenset({U}), frozenset({2}), ("r", "b")), 3,
                 "abbccca2f2439ec4a515fbf9ee43987049c8351e2608b886fdc241ac5d811d0f",
                 id="two_colour"),
    pytest.param(Universe(frozenset({O, U}), frozenset({2}), ("e",)), 3,
                 "d5595c94e782496dfba001a9c5bdfc9c7030796945c89dc29e52a5fd1d28bbfc",
                 id="both_kinds2"),
    pytest.param(Universe(frozenset({U}), frozenset({2, 3}), ("e",)), 4,
                 "b83efbd57e34511df84a8e80cd7d7a710a09c766feef1f8f02eb03e230f6fa86",
                 id="arities23"),
]


def _minus_vertex(codes, v):
    """core._codes of a graph with vertex v deleted, the vertices above it
    moved down by one."""
    return tuple((o, ci, tuple(w - (w > v) for w in verts), kind, colour)
                 for o, ci, verts, kind, colour in codes if v not in verts)


@pytest.mark.parametrize("universe, top, digest", DIGEST_CASES)
def test_enumeration_stream_digest(universe, top, digest):
    h = hashlib.sha256()
    for g in enumerate_hypergraphs(EnumSpec(universe, top)):
        h.update(format_hypergraph(g).encode())
    assert h.hexdigest() == digest


def test_enumeration_keys_equal_the_ordering_product(monkeypatch):
    # every candidate tried while enumerating the pinned universes is
    # keyed exactly when its new vertex lies in the first least-degree
    # cell of the reference refinement, and then gets the cells and the
    # key of the least ordering in the cell product, and a probe label
    # whose deletion from the key's graph leaves the candidate's parent;
    # the classes, built without the per-edge universe checks, pass them
    probes = []
    key_candidate = generate._key_candidate

    def probe(n, codes):
        found = key_candidate(n, codes)
        probes.append((n, codes, found))
        return found

    monkeypatch.setattr(generate, "_key_candidate", probe)
    generate._layer.cache_clear()
    for case in DIGEST_CASES:
        universe, top, _ = case.values
        for g in enumerate_hypergraphs(EnumSpec(universe, top)):
            assert Hypergraph(universe, g.n, g.edges) == g
    keyed = [(n, codes) for n, codes, found in probes if found is not None]
    assert len(keyed) > 500 and len(keyed) < len(probes)
    for n, codes, found in probes:
        key, label, _ = found or (None, None, None)
        if key is not None:
            colour_index = {colour: ci for _, ci, _, _, colour in codes}
            key_codes = [(kind == "ORDERED", colour_index[colour], verts, kind, colour)
                         for _, verts, kind, colour in key[1]]
            assert core._canon(n - 1, _minus_vertex(key_codes, label)) \
                == core._canon(n - 1, _minus_vertex(codes, n - 1))
        if not codes:
            assert key == (n, ())
            continue
        cells = reference_cells(n, codes)
        deg = [0] * n
        for _, _, verts, _, _ in codes:
            for v in verts:
                deg[v] += 1
        assert (key is not None) == (n - 1 in next(c for c in cells if deg[c[0]] == deg[n - 1]))
        if key is not None:
            assert core._cells(n, codes) == cells
            assert key == reference_canon(n, codes)


def test_layers_add_no_canonical_key_memo_entries():
    # both memos cleared, so a candidate keyed through canonical_key would
    # be a miss and a new entry even if another test had keyed it before
    generate._layer.cache_clear()
    canonical_key.cache_clear()
    for universe, top in ((digraph_universe(), 4), (three_uniform_universe(), 5)):
        assert list(enumerate_hypergraphs(EnumSpec(universe, top)))
    info = canonical_key.cache_info()
    assert (info.currsize, info.misses) == (0, 0)


@pytest.mark.parametrize("universe, top, distinct", [
    pytest.param(digraph_universe(), 4, 12, id="digraph"),  # 4 * 3 arcs
    pytest.param(three_uniform_universe(), 5, 10, id="three_uniform"),  # C(5, 3)
])
def test_layers_build_and_format_each_distinct_edge_once(universe, top, distinct,
                                                        monkeypatch):
    # machine-independent work count: with the memos cleared, the classes
    # cost one EdgeObject validation per distinct key entry, on top of the
    # edges through each layer's new vertex, share one object per edge,
    # and format one line per distinct edge
    through = sum(sum(n - 1 in e.vertices for e in admissible_edges(universe, range(n)))
                  for n in range(1, top + 1))
    generate._layer.cache_clear()
    core._key_edge.cache_clear()
    core._edge_line.cache_clear()
    validations = []
    check = EdgeObject.__post_init__
    monkeypatch.setattr(EdgeObject, "__post_init__",
                        lambda e: validations.append(e) or check(e))
    graphs = list(enumerate_hypergraphs(EnumSpec(universe, top)))
    edges = [e for g in graphs for e in g.edges]
    assert len(set(edges)) == distinct
    assert len(validations) == distinct + through
    first = {}
    assert all(first.setdefault(e, e) is e for e in edges)
    for g in graphs:
        format_hypergraph(g)
    info = core._edge_line.cache_info()
    assert (info.misses, info.hits) == (distinct, len(edges) - distinct)


# the edge shapes of the oracle tests, each with the top layer grown; the
# mixed shape is split in two (arities {2,3}, and both kinds), because
# both kinds at arity 3 give 13 edges through the third vertex and make
# the unpruned reference take seconds
LAYER_CASES = [
    pytest.param(simple_universe(), 6, id="simple"),
    pytest.param(digraph_universe(), 4, id="digraph"),
    pytest.param(Universe(frozenset({U}), frozenset({2}), ("r", "b")), 4, id="two_colour"),
    pytest.param(three_uniform_universe(), 5, id="three_uniform"),
    pytest.param(Universe(frozenset({U}), frozenset({2, 3}), ("e",)), 4, id="arities23"),
    pytest.param(Universe(frozenset({O, U}), frozenset({2}), ("e",)), 3, id="both_kinds2"),
]


@pytest.mark.parametrize("universe, top", LAYER_CASES)
def test_layers_match_unpruned_growth(universe, top):
    # the pruned layers key fewer candidates but keep every class: each
    # equals the reference grown from the reference layer below it
    layer = (Hypergraph(universe, 0, frozenset()),)
    for n in range(1, top + 1):
        layer = unpruned_layer(layer)
        assert generate._layer(universe, None, n).classes == layer


@pytest.mark.parametrize("universe, top", LAYER_CASES)
def test_layer_keys_one_candidate_per_least_degree_orbit(universe, top, monkeypatch):
    # machine-independent work count: the top layer tries exactly one
    # candidate per orbit, under each parent's automorphisms, of the
    # subsets that leave the new vertex of least degree, and keys those
    # whose new vertex lies in the first least-degree cell of the
    # reference refinement, which knows nothing of the early exit
    generate._layer.cache_clear()
    parents = generate._layer(universe, None, top - 1).classes  # memoised before counting
    probed, keyed = [], []
    key_candidate = generate._key_candidate

    def probe(n, codes):
        probed.append(n)
        key = key_candidate(n, codes)
        if key is not None:
            keyed.append(n)
        return key

    monkeypatch.setattr(generate, "_key_candidate", probe)
    assert generate._layer(universe, None, top).classes
    assert keyed and set(probed) == {top}
    assert len(probed) == sum(least_degree_orbits(p) for p in parents)
    assert len(keyed) == sum(least_degree_orbits(p, first_cell=True) for p in parents)


# prints how many candidates _layer tries for 3-uniform hypergraphs up to
# 5 vertices, and a digest of them, each as (n, sorted codes, keyed?):
# the order of a candidate's codes changes no work, which candidate of an
# orbit is tried does
KEYINGS_DIGEST = """
import hashlib
from hgfactor import EdgeKind, Universe, generate
h = hashlib.sha256()
probes = []
key_candidate = generate._key_candidate

def probe(n, codes):
    key = key_candidate(n, codes)
    probes.append(key)
    h.update(repr((n, sorted(codes), key is not None)).encode())
    return key

generate._key_candidate = probe
generate._layer(Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",)), None, 5)
assert probes, "no candidate was hashed"
print(len(probes), sum(key is not None for key in probes), h.hexdigest())
"""


def test_layers_key_the_same_candidates_under_any_hash_seed():
    # machine-independent work must not follow set iteration order
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    outputs = [subprocess.run([sys.executable, "-c", KEYINGS_DIGEST], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "2")]
    probed, keyed, digest = outputs[0].split()
    assert int(probed) > int(keyed) > 0 and len(digest) == 64
    assert outputs[0] == outputs[1]


KERNEL_NAMES = ["simple", "ORDERED-2", "UNORDERED-3", "2-colour", "mixed"]


def assert_kept_generators(layer, n):
    """Each class's kept generators are automorphisms of it that generate
    the group core._canon_search finds for it, and a class keeps some
    only when that group is nontrivial."""
    assert len(layer.generators) == len(layer.classes)
    for h, gens in zip(layer.classes, layer.generators):
        assert type(gens) is bytes and len(gens) % max(n, 1) == 0
        kept = [tuple(gens[i:i + n]) for i in range(0, len(gens), n)] if gens else []
        own = graph_triples(h)
        assert all(mapped_triples(h, s) == own for s in kept), h
        group = generated_group(core._canon_search(n, core._codes(h.universe, h.edges))[1], n)
        assert generated_group(kept, n) == group, h
        assert bool(kept) == (len(group) > 1)


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_layers_keep_generators_of_each_class(u, name):
    """Full layers and random finite forbidden sets' member layers keep,
    for each class, generators of its automorphism group relabelled onto
    its canonical form: the ones _grow's rule (b) reads for the class as
    a parent, in place of a search of its own."""
    _, uu, dens = next(c for c in _kernel_universes(u) if c[0] == name)
    # a mixed class on 2 vertices has 2^13 candidate children
    top = {"simple": 5, "UNORDERED-3": 5, "mixed": 2}.get(name, 4)
    generate._layer.cache_clear()
    symmetric = 0
    for n in range(top + 1):
        layer = generate._layer(uu, None, n)
        assert_kept_generators(layer, n)
        symmetric += sum(map(bool, layer.generators))
    assert symmetric > top
    rng = random.Random(f"kept-generators:{name}")
    for _ in range(8):
        graphs = [random_graph(uu, rng.randint(2, top), dens, rng) for _ in range(3)]
        p = forbidden_property(uu, rng.sample(graphs, rng.randint(1, 3)))
        generate._layer.cache_clear()
        for n in range(top + 1):
            assert [h for h, _ in generate._decided(p, n)] == list(generate._layer(uu, p, n).classes)
            assert_kept_generators(generate._layer(uu, p, n), n)


# counts, in a fresh process, the canonical searches without a probe and
# the candidates keyed (and tried) by one factorize command
FACTORIZE_SEARCHES = """
import contextlib, io, sys
from hgfactor import cli, core, generate
searches, keyings = [], []
canon_search, key_candidate = core._canon_search, generate._key_candidate

def search(n, codes, probe=-1):
    if probe < 0:
        searches.append(n)
    return canon_search(n, codes, probe)

def key(n, codes):
    found = key_candidate(n, codes)
    keyings.append(found is not None)
    return found

for module in (core, generate):
    module._canon_search = search
generate._key_candidate = key
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["factorize", "-p", sys.argv[1], "--bound", "6"])
print(code, len(searches), sum(keyings), len(keyings))
"""


def test_cold_factorize_searches_no_layer_parent():
    # machine-independent work count: bip at 6 from a fresh process tries
    # 78 candidates, keys 68 of them, and makes 5 canonical searches
    # without a probe, for keys and embedding plans; searching each layer
    # parent for its automorphisms made 35
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(core.__file__))))
    out = subprocess.run(
        [sys.executable, "-c", FACTORIZE_SEARCHES,
         os.path.join(root, "perfbench", "data", "bip.prop")],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="1")).stdout
    assert tuple(map(int, out.split())) == (0, 5, 68, 78)


def test_enumeration_cap():
    u = simple_universe()
    with pytest.raises(CapExceededError):
        EnumSpec(u, HARD_VERTEX_CAP + 1)
    with pytest.raises(ValueError):
        EnumSpec(u, -1)


def test_null_graph_is_always_first():
    u = simple_universe()
    first = next(enumerate_hypergraphs(EnumSpec(u, 2)))
    assert first.n == 0 and not first.edges


# --- member layers of a property -------------------------------------------

def _outcome(stream):
    """The graphs a stream yields, or the type and message of its error."""
    try:
        return list(stream)
    except HgError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("universe, density", UNIVERSE_CASES)
def test_member_stream_is_the_full_stream_filtered(universe, density):
    # the same graphs in the same order as filtering every class, for a
    # forbidden set, a product and a generated property at its bound; one
    # vertex past that bound both raise the same error
    rng = random.Random(7)
    n = {simple_universe(): 5, triple_universe(): 5, mixed_universe(): 2}.get(universe, 4)
    for _ in range(3):
        forbidden, product, generated = random_hereditary(universe, n, density, rng)
        cases = [(forbidden, n), (product, n), (generated, n - 1), (generated, n)]
        for p, top in cases:
            want = _outcome(g for g in enumerate_hypergraphs(EnumSpec(universe, top))
                            if p.member(g))
            assert _outcome(generate._members_up_to(p, top)) == want, (p, top)
            assert _outcome(generate._members_up_to(p, top)) == want  # memoised
            if p is generated and top == n:
                assert want[0] is BoundExceededError


def test_member_stream_stopped_early_asks_nothing_past_its_stop(monkeypatch):
    # a consumer that stops early has asked the property only about
    # classes up to its stopping point, in enumeration order; the next
    # full pass asks only about the classes the first did not reach, and
    # the two together ask what one cold pass asks, each class once.
    # Every verdict goes through props._member_through, watched here.
    u = digraph_universe()
    arc = EdgeObject(EdgeKind.ORDERED, (0, 1), "a")
    back = EdgeObject(EdgeKind.ORDERED, (1, 0), "a")
    p = FiniteForbidden(u, (Hypergraph(u, 2, frozenset({arc, back})),))
    full = list(enumerate_hypergraphs(EnumSpec(u, 4)))
    position = {g: i for i, g in enumerate(full)}
    members = [g for g in full if p.member(g)]
    asked = []
    real = props_module._member_through
    monkeypatch.setattr(props_module, "_member_through",
                        lambda q, g, v: asked.append(g) or real(q, g, v))
    generate._layer.cache_clear()
    stop = len(members) // 2
    got = list(itertools.islice(generate._members_up_to(p, 4), stop))
    assert got == members[:stop]
    assert asked[-1] == got[-1]
    first = asked[:]
    del asked[:]
    assert list(generate._members_up_to(p, 4)) == members
    both = first + asked
    assert asked and [position[g] for g in both] == sorted(position[g] for g in both)
    del asked[:]
    assert list(generate._members_up_to(p, 4)) == members
    assert asked == []  # every verdict is kept
    generate._layer.cache_clear()
    assert list(generate._members_up_to(p, 4)) == members
    assert asked == both


def test_member_stream_that_raised_raises_again(monkeypatch):
    # a GeneratedBounded raises on the first class past its bound; the
    # class keeps no verdict, so a repeated call raises again after the
    # same members and never yields a shortened stream
    u = simple_universe()
    k2 = Hypergraph(u, 2, frozenset({EdgeObject(EdgeKind.UNORDERED, (0, 1), "e")}))
    p = GeneratedBounded(u, (k2,), 2)
    generate._layer.cache_clear()
    want = [g for g in enumerate_hypergraphs(EnumSpec(u, 2)) if p.member(g)]
    for _ in range(2):
        got = []
        with pytest.raises(BoundExceededError, match="exceeds the declared bound 2"):
            for g in generate._members_up_to(p, 3):
                got.append(g)
        assert got == want
    # a member test that raises mid-layer, once: the next pass asks that
    # class again and gets the whole stream
    q = FiniteForbidden(u, (Hypergraph(u, 3, frozenset()),))
    members = [g for g in enumerate_hypergraphs(EnumSpec(u, 4)) if q.member(g)]
    target = members[-2]
    real = props_module._member_through

    def flaky(q, g, v):
        if g == target and not raised:
            raised.append(g)
            raise HgError("flaky")
        return real(q, g, v)

    raised = []
    monkeypatch.setattr(props_module, "_member_through", flaky)
    got = []
    with pytest.raises(HgError, match="flaky"):
        for g in generate._members_up_to(q, 4):
            got.append(g)
    assert got == members[:-2]
    assert list(generate._members_up_to(q, 4)) == members


def test_member_stream_checks_its_bound():
    u = simple_universe()
    p = FiniteForbidden(u, (Hypergraph(u, 2, frozenset({
        EdgeObject(EdgeKind.UNORDERED, (0, 1), "e")})),))
    with pytest.raises(ValueError):
        list(generate._members_up_to(p, -1))
    with pytest.raises(CapExceededError):
        list(generate._members_up_to(p, HARD_VERTEX_CAP + 1))


# --- partition enumeration -------------------------------------------------

def test_partition_counts_match_bell_numbers():
    for n in range(1, 6):
        got = list(enumerate_partitions(range(n), n))
        assert len(got) == bell(n)


def test_partition_counts_match_stirling():
    for n in range(1, 6):
        for k in range(1, n + 1):
            exact = [p for p in enumerate_partitions(range(n), k) if len(p) == k]
            assert len(exact) == stirling2(n, k)


def test_partition_golden_order():
    got = list(enumerate_partitions(range(3), 3))
    assert got == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]


def test_partition_parts_ordered_by_smallest_member():
    for parts in enumerate_partitions(range(5), 3):
        mins = [min(p) for p in parts]
        assert mins == sorted(mins)
        assert mins[0] == 0
        assert sorted(v for p in parts for v in p) == list(range(5))


def test_partition_min_parts_filter():
    got = list(enumerate_partitions(range(4), 4, min_parts=2))
    assert len(got) == bell(4) - 1  # everything except the one-part partition
    assert all(len(p) >= 2 for p in got)


def test_partition_respects_vertex_collection():
    got = list(enumerate_partitions([4, 2], 2))
    assert got == [((2, 4),), ((2,), (4,))]


def test_partition_empty_input_and_bad_ranges():
    assert list(enumerate_partitions([], 2)) == []
    with pytest.raises(ValueError):
        list(enumerate_partitions(range(2), 0))
    with pytest.raises(ValueError):
        list(enumerate_partitions(range(2), 1, min_parts=2))
