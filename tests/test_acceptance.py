"""Release gate: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with their instance counts.  Everything here is exhaustive at desk
scale and uses the independent oracles from helpers, not the library's
own machinery, wherever a criterion demands an oracle.
"""

import itertools

import pytest

from hgfactor import (
    Decomposition,
    EdgeKind,
    EdgeObject,
    Hypergraph,
    Universe,
    IRREDUCIBLE_CERTIFIED,
    EnumSpec,
    FiniteForbidden,
    ProductProperty,
    aligning_super,
    dec_bounds,
    dec_number,
    embed_induced,
    enumerate_hypergraphs,
    enumerate_partitions,
    factor_search,
    forbidden_property,
    forcing_pair,
    ind_parts,
    induced,
    ind_part_family,
    irreducibility_test,
    is_decomposition,
    is_isomorphic,
    is_strict,
    is_uniquely_decomposable,
    join_subset_of,
    min_forbidden_order,
    respects,
    respects_uniformly,
    save_property,
    simple_graph,
    strictness_witness,
    unique_decomposition,
    unique_super,
    verify_factorisation,
)
from hgfactor.cli import run
from hgfactor.decomp import BOUNDED, EXACT

from helpers import oracle_join_fails


@pytest.fixture(scope="module")
def small_graphs(u):
    """All 53 simple graphs on at most 5 vertices, canonical, one each."""
    return list(enumerate_hypergraphs(EnumSpec(u, 5)))


def _mode(p):
    # exact machinery for finite forbidden sets, single-level joins else
    return (EXACT, 3) if isinstance(p, FiniteForbidden) else (BOUNDED, 1)


def _dec(g, p):
    m, k = _mode(p)
    return dec_number(g, p, m, k).value


def _strict(g, p):
    if isinstance(p, FiniteForbidden):
        return bool(p.member(g)) and strictness_witness(g, p) is not None
    return bool(p.member(g)) and is_strict(g, p)


def test_criterion_1_join_criterion_matches_oracle(u, props, small_graphs):
    checked = disagreements = 0
    for p in (props.edgeless, props.trifree, props.p3free):
        for g in small_graphs:
            if g.n == 0:
                continue
            for parts in enumerate_partitions(g.vertices, max_parts=3):
                part_graphs = [induced(g, b) for b in parts]
                exact = bool(join_subset_of(p, part_graphs, EXACT, k_max=3))
                brute = bool(join_subset_of(p, part_graphs, BOUNDED, k_max=3))
                oracle = not oracle_join_fails(p.forbidden, part_graphs, 3)
                checked += 1
                if not (exact == brute == oracle):
                    disagreements += 1
    assert checked == 4719
    assert disagreements == 0
    print(f"\n[criterion 1] PASS - exact join criterion vs brute-force "
          f"oracle and bounded enumeration: {checked} instances, "
          f"{disagreements} disagreements")


def test_criterion_2_part_count_table(g, props):
    t, o = props.trifree, props.edgeless
    table = [
        (g.k3, t, 0),
        (g.k2, t, 2),
        (g.c4, t, 2),
        (g.c5, t, 1),
        (g.two_k2, t, 2),
        (g.k1, o, 1),
    ]
    for graph, p, want in table:
        res = dec_number(graph, p, EXACT)
        assert res.value == want, (graph, want, res)
        assert res.value < min_forbidden_order(p)
    print(f"\n[criterion 2] PASS - part-count table reproduced, "
          f"{len(table)} entries, all below the first-exit order")


def test_criterion_3_invariant_suite(u, props, small_graphs):
    o, prod = props.edgeless, props.two_colour
    ff_props = (props.edgeless, props.trifree, props.p3free)
    counts = {}

    # nonempty two-block partitions with edgeless blocks are decompositions
    n0 = 0
    for g in small_graphs:
        if g.n < 2:
            continue
        for parts in enumerate_partitions(g.vertices, 2, min_parts=2):
            if all(o.member(induced(g, b)) for b in parts):
                assert is_decomposition(g, parts, prod, BOUNDED, k_max=1)
                n0 += 1
    counts["blockwise-membership"] = n0

    # strictness and part counts are monotone under induced extension
    n2 = 0
    for p in ff_props + (prod,):
        for h in small_graphs:
            if not p.member(h):
                continue
            h_strict = _strict(h, p)
            h_dec = _dec(h, p)
            for r in range(1, h.n):
                for s in itertools.combinations(range(h.n), r):
                    sub = induced(h, frozenset(s))
                    if _strict(sub, p):
                        assert h_strict
                        assert _dec(sub, p) >= h_dec
                        n2 += 1
    counts["strictness-monotone"] = n2

    # blocks of a solved partition of a strict member are factor-strict
    nl = 0
    for g in small_graphs:
        if g.n == 0 or not _strict(g, prod):
            continue
        for bits in itertools.product((0, 1), repeat=g.n):
            blocks = [frozenset(v for v in range(g.n) if bits[v] == i)
                      for i in (0, 1)]
            if all(o.member(induced(g, b)) for b in blocks):
                for b in blocks:
                    assert b and _strict(induced(g, b), o)
                nl += 1
    counts["solved-blocks-strict"] = nl

    # canonical parts embed into a supergraph's canonical parts, injectively
    nt = 0
    for p in ff_props + (prod,):
        m, k = _mode(p)
        for h in small_graphs:
            if h.n == 0 or not p.member(h):
                continue
            if not is_uniquely_decomposable(h, p, m, k):
                continue
            h_parts = ind_parts(h, p, m, k)
            for r in range(1, h.n + 1):
                for s in itertools.combinations(range(h.n), r):
                    sub = induced(h, frozenset(s))
                    if not is_uniquely_decomposable(sub, p, m, k):
                        continue
                    if _dec(sub, p) != len(h_parts):
                        continue
                    s_parts = ind_parts(sub, p, m, k)
                    assert any(
                        all(embed_induced(sp, h_parts[j]) is not None
                            for sp, j in zip(s_parts, perm))
                        for perm in itertools.permutations(
                            range(len(h_parts)), len(s_parts)))
                    nt += 1
    counts["parts-inject-upward"] = nt

    # solved blocks of a uniquely decomposable member are unions of parts
    nr = 0
    for g in small_graphs:
        if g.n == 0 or not prod.member(g):
            continue
        if _dec(g, prod) != len(prod.factors):
            continue
        if not is_uniquely_decomposable(g, prod, BOUNDED, k_max=1):
            continue
        ind = unique_decomposition(g, prod, BOUNDED, k_max=1).parts
        for bits in itertools.product((0, 1), repeat=g.n):
            blocks = [frozenset(v for v in range(g.n) if bits[v] == i)
                      for i in (0, 1)]
            if all(o.member(induced(g, b)) for b in blocks):
                assert all(any(part <= b for b in blocks) for part in ind)
                nr += 1
    counts["blocks-union-of-parts"] = nr

    # merging any two parts of a valid decomposition stays valid
    nc = 0
    for p in ff_props + (prod,):
        m, k = _mode(p)
        for g in small_graphs:
            if g.n < 2 or not p.member(g):
                continue
            for parts in enumerate_partitions(g.vertices, g.n):
                if len(parts) < 2:
                    continue
                if not is_decomposition(g, parts, p, m, k):
                    continue
                for i, j in itertools.combinations(range(len(parts)), 2):
                    merged = tuple(
                        frozenset(parts[i]) | frozenset(parts[j])
                        if t == i else frozenset(parts[t])
                        for t in range(len(parts)) if t != j)
                    assert is_decomposition(g, merged, p, m, k)
                    nc += 1
    counts["coarsening"] = nc

    assert counts == {
        "blockwise-membership": 70,
        "strictness-monotone": 742,
        "solved-blocks-strict": 88,
        "parts-inject-upward": 659,
        "blocks-union-of-parts": 24,
        "coarsening": 140,
    }
    logged = ", ".join(f"{k}={v}" for k, v in counts.items())
    print(f"\n[criterion 3] PASS - invariant suite exhaustive to 5 vertices, "
          f"zero failures, instances: {logged}")


def _copy_restriction(d, copy_map):
    inv = {w: v for v, w in enumerate(copy_map)}
    parts = [frozenset(inv[w] for w in part if w in inv) for part in d.parts]
    return Decomposition(tuple(p for p in parts if p))


def test_criterion_4_forcing_pair_golden(g, props):
    d0 = Decomposition((frozenset({0}), frozenset({1})))
    ct = forcing_pair(g.k2, d0, props.trifree)
    assert is_isomorphic(ct.graph, g.c4)

    # any valid decomposition that respects the classes on every copy
    # separately must respect them uniformly across copies
    ext, copies = ct.class_extension(), ct.copies()
    valid = nonvacuous = 0
    for parts in enumerate_partitions(ct.graph.vertices, ct.graph.n):
        d = Decomposition(parts)
        if not is_decomposition(ct.graph, d, props.trifree, EXACT):
            continue
        valid += 1
        if all(respects(_copy_restriction(d, m), ct.base_classes)
               for m in ct.copy_maps):
            assert respects_uniformly(d, ext, copies)
            nonvacuous += 1
    assert valid == 2 and nonvacuous == 1
    print(f"\n[criterion 4] PASS - two tracked copies of an edge give the "
          f"4-cycle; alignment implication scanned over all 15 partitions "
          f"({valid} valid, {nonvacuous} nonvacuous)")


def test_criterion_5_aligned_supergraph_unique(g, props):
    d0 = Decomposition((frozenset({0, 2}), frozenset({1, 3})))
    cap = 10**4
    ct = aligning_super(g.two_k2, d0, props.trifree, cap)
    assert ct.graph.n <= cap
    assert unique_super(g.two_k2, d0, props.trifree, cap) == ct

    found = []
    scanned = 0
    for parts in enumerate_partitions(ct.graph.vertices, 2, min_parts=2):
        scanned += 1
        d = Decomposition(parts)
        if is_decomposition(ct.graph, d, props.trifree, EXACT):
            found.append(d)
    assert scanned == 2**15 - 1
    assert found == [ct.class_extension()]
    print(f"\n[criterion 5] PASS - aligned supergraph on {ct.graph.n} "
          f"vertices has exactly one two-part decomposition out of "
          f"{scanned} scanned, and it extends the reference classes")


def test_criterion_5_directed_aligned_supergraph_unique():
    # the same construction over digraphs: forbid the directed 3-cycle and
    # align two disjoint arcs, tails in one class and heads in the other
    du = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("a",))

    def digraph(n, arcs):
        return Hypergraph(du, n, frozenset(EdgeObject(EdgeKind.ORDERED, a, "a")
                                           for a in arcs))

    p = forbidden_property(du, [digraph(3, [(0, 1), (1, 2), (2, 0)])])
    d0 = Decomposition((frozenset({0, 2}), frozenset({1, 3})))
    ct = aligning_super(digraph(4, [(0, 1), (2, 3)]), d0, p, 10**4)
    assert ct.graph.n == 16

    found = []
    scanned = 0
    for parts in enumerate_partitions(ct.graph.vertices, 2, min_parts=2):
        scanned += 1
        d = Decomposition(parts)
        if is_decomposition(ct.graph, d, p, EXACT):
            found.append(d)
    assert scanned == 2**15 - 1
    assert found == [ct.class_extension()]
    print(f"\n[criterion 5, directed] PASS - aligned supergraph of two arcs "
          f"on {ct.graph.n} vertices has exactly one two-part decomposition "
          f"out of {scanned} scanned, and it extends the reference classes")


def test_criterion_6_factorization_at_desk_scale(u, g, props):
    results = factor_search(props.bip, 2, 5)
    assert len(results) == 1
    assert results[0].factors == (props.edgeless, props.edgeless)

    vo = irreducibility_test(props.edgeless, 3)
    assert vo.status == IRREDUCIBLE_CERTIFIED
    assert is_isomorphic(vo.witness[0], g.k1)
    vt = irreducibility_test(props.trifree, 5)
    assert vt.status == IRREDUCIBLE_CERTIFIED
    assert is_isomorphic(vt.witness[0], g.c5)

    assert tuple(dec_bounds(props.two_colour, 5)) == (2, 2)
    print("\n[criterion 6] PASS - search recovers the edgeless*edgeless "
          "factorization uniquely; edgeless and triangle-free certified "
          "irreducible by 1-part strict witnesses; product bracket (2,2)")


def test_criterion_7_bipartite_unique_decomposability(u, g, props):
    prod = props.two_colour
    connected = list(enumerate_hypergraphs(EnumSpec(u, 7, connected_only=True)))
    members = [h for h in connected if prod.member(h)]
    assert len(connected) == 996
    assert len(members) == 72
    for h in members:
        assert is_uniquely_decomposable(h, prod, BOUNDED, k_max=1), h
    assert not is_uniquely_decomposable(g.two_k2, prod, BOUNDED, k_max=1)
    print(f"\n[criterion 7] PASS - all {len(members)} connected two-"
          f"colourable graphs up to 7 vertices are uniquely decomposable; "
          f"the two-edge matching is not")


def test_criterion_8_parallel_determinism(props, tmp_path, capsys):
    def battery(workers):
        lines = [
            repr(verify_factorisation(props.trifree,
                                      (props.edgeless, props.edgeless),
                                      5, workers=workers)),
            repr(factor_search(props.bip, 2, 5, workers=workers)),
            repr(irreducibility_test(props.trifree, 5, 2, workers=workers)),
            repr(ind_part_family(props.two_colour, 5)),
        ]
        prop_file = tmp_path / "bip.prop"
        save_property(props.bip, str(prop_file), "bip")
        code = run(["--workers", str(workers), "factorize",
                    "-p", str(prop_file), "--bound", "5"])
        assert code == 0
        lines.append(capsys.readouterr().out)
        return "\n".join(lines)

    serial, threaded = battery(1), battery(8)
    assert serial.encode() == threaded.encode()
    print(f"\n[criterion 8] PASS - report battery is byte-identical at "
          f"1 and 8 workers ({len(serial.encode())} bytes)")
