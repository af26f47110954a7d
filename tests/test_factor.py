"""Bounded factorization: brackets, verification, search, case splits."""

import random
import re
import threading

import pytest

from hgfactor import (
    BoundExceededError,
    DecBounds,
    EdgeKind,
    EdgeObject,
    EnumSpec,
    Factorisation,
    FiniteForbidden,
    FullMultiplicityError,
    GeneratedBounded,
    HgError,
    Hypergraph,
    IRREDUCIBLE_CERTIFIED,
    ProductProperty,
    REDUCIBLE,
    UNKNOWN,
    VerifyResult,
    Universe,
    case_split,
    dec_bounds,
    enumerate_hypergraphs,
    factor_search,
    forbidden_property,
    ind_part_family,
    irreducibility_test,
    is_isomorphic,
    member,
    save_property,
    simple_graph,
    simple_universe,
    verify_factorisation,
)
from hgfactor import decomp, factor, generate, props as props_module
from hgfactor.cli import run
from helpers import (
    flat_factors,
    forbidden_up_to,
    random_graph,
    reference_case_split,
    reference_dec_bounds,
    reference_factor_search,
    reference_fingerprint,
    reference_ind_part_family,
    reference_verify_factorisation,
)
from test_core import UNIVERSE_CASES, mixed_universe, triple_universe
from test_decomp import _kernel_universes

SEED = 424242


# --- plumbing ---------------------------------------------------------------

def test_workers_start_no_thread(props, tmp_path, monkeypatch, capsys):
    # workers is accepted and ignored: every search stays in this thread
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert not verify_factorisation(props.trifree, [props.edgeless] * 2, 5,
                                    workers=8)
    assert factor_search(props.bip, 2, 5, workers=8) == \
        factor_search(props.bip, 2, 5, workers=1)
    prop_file = tmp_path / "bip.prop"
    save_property(props.bip, str(prop_file), "bip")
    assert run(["--workers", "8", "factorize", "-p", str(prop_file),
                "--bound", "5"]) == 0
    assert "factorisation 1:" in capsys.readouterr().out


def test_workers_below_one_rejected(props):
    for call in (lambda: verify_factorisation(props.bip, [props.edgeless] * 2, 3,
                                              workers=0),
                 lambda: factor_search(props.bip, 2, 3, workers=0),
                 lambda: irreducibility_test(props.edgeless, 3, workers=0)):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            call()


def test_factorisation_validation(u, g, props):
    with pytest.raises(ValueError):
        Factorisation((props.edgeless, props.edgeless), 4, (3, 2))
    m2 = forbidden_property(u, [g.two_k2])
    with pytest.raises(ValueError):
        Factorisation((props.edgeless, m2), 4, (2, 2))
    ok = Factorisation((props.edgeless, props.edgeless), 4, (2, 2))
    assert ok.equality_bound == 4


# --- verification ------------------------------------------------------------

def test_verify_goldens(props):
    assert verify_factorisation(props.trifree, [props.edgeless] * 2, 4)
    bad = verify_factorisation(props.trifree, [props.edgeless] * 2, 5)
    assert not bad
    assert bad.bound == 5
    assert bad.counterexample is not None
    assert bad.counterexample.n == 5  # a 5-cycle separates the two sides
    assert len(bad.counterexample.edges) == 5
    assert verify_factorisation(props.bip, [props.edgeless] * 2, 5)
    # one factor too many: K3 lies in three independent sets, not in two
    extra = verify_factorisation(props.two_colour, [props.edgeless] * 3, 3)
    assert not extra and extra.counterexample.n == 3


def test_verify_counterexample_is_stable_across_workers(props):
    one = verify_factorisation(props.trifree, [props.edgeless] * 2, 5, workers=1)
    many = verify_factorisation(props.trifree, [props.edgeless] * 2, 5, workers=8)
    assert one.holds == many.holds
    assert one.counterexample == many.counterexample


def test_refutation_carries_a_concrete_counterexample(props):
    # bounded claims may flip when the bound grows, but a refutation must
    # always come with evidence
    res = verify_factorisation(props.trifree, [props.edgeless] * 2, 5)
    cex = res.counterexample
    assert bool(member(props.trifree, cex)) \
        != bool(member(ProductProperty((props.edgeless,) * 2), cex))


def _explicit_scan(p, factors, n):
    """Does p agree with the product of the factors on every enumerated
    graph with at most n vertices?"""
    prod = ProductProperty(tuple(factors))
    return all(bool(member(p, h)) == bool(member(prod, h))
               for h in enumerate_hypergraphs(EnumSpec(p.universe, n)))


def test_verify_own_factors_scans_nothing(props, monkeypatch):
    # the target's own forbidden-set factors, permuted or regrouped, hold
    # at once; an explicit scan agrees
    e, t = props.edgeless, props.trifree
    target = ProductProperty((e, t, e))
    lists = [[t, e, e], [e, ProductProperty((e, t))],
             [ProductProperty((t, e)), e], [ProductProperty((e, e)), t]]
    for factors in lists:
        assert _explicit_scan(target, factors, 5)

    def refuse(*args):
        raise AssertionError("verify_factorisation scanned graphs")

    # the full stream and the target's member layers both count as scans
    monkeypatch.setattr(factor, "enumerate_hypergraphs", refuse)
    monkeypatch.setattr(factor, "_decided", refuse)
    for factors in lists:
        res = verify_factorisation(target, factors, 5)
        assert res == VerifyResult(True, 5)
    assert verify_factorisation(props.two_colour, [e, e], 7) == VerifyResult(True, 7)
    with pytest.raises(ValueError):  # the bound is still checked
        verify_factorisation(props.two_colour, [e, e], -1)
    # a different multiset of factors, even over the same set, is scanned
    for p, factors in ((props.two_colour, [e, e, e]), (target, [e, t]),
                       (target, [e, t, t])):
        with pytest.raises(AssertionError, match="scanned"):
            verify_factorisation(p, factors, 5)


def test_verify_with_generated_factor_still_scans(u, g, props):
    e = props.edgeless
    q = GeneratedBounded(u, (g.k2,), 2)
    target = ProductProperty((e, q))
    for factors in ([e, q], [q, e]):
        assert verify_factorisation(target, factors, 3)
        # a 4-vertex graph with no split inside the generated bound raises,
        # as it did before the factor lists were compared
        with pytest.raises(BoundExceededError):
            verify_factorisation(target, factors, 4)


def _count_solves(monkeypatch):
    """Count partition_solve calls, which every product membership makes."""
    calls = []
    real = props_module.partition_solve
    monkeypatch.setattr(props_module, "partition_solve",
                        lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_verify_matches_full_scan(uu, density, monkeypatch):
    """verify_factorisation, which scans only the target's member layers
    when the target and the factors are forbidden sets, returns what the
    full scan returns, counterexample included: on targets equal to the
    product up to n, on targets with a forbidden graph inside the
    product, on random targets, and with a generated factor, where it
    makes the full scan's product checks.  A product of two forbidden
    sets contains every graph on two vertices, so on the mixed universe,
    scanned to 2 vertices, nothing can be skipped."""
    rng = random.Random(SEED)
    n = {simple_universe(): 5, triple_universe(): 5, mixed_universe(): 2}.get(uu, 4)
    calls = _count_solves(monkeypatch)
    skipped = fallback = False
    for _ in range(8):
        # small forbidden graphs leave graphs up to n outside the product
        small = [random_graph(uu, rng.randint(2, 3), density, rng) for _ in range(3)]
        small = [h for h in small if h.edges] or [random_graph(uu, 2, 1.0, rng)]
        factors = tuple(forbidden_property(uu, rng.sample(small, rng.randint(1, len(small))))
                        for _ in range(2))
        pool = [random_graph(uu, rng.randint(2, n + 1), density, rng) for _ in range(4)]
        pool = [h for h in pool if h.edges] or small
        prod = ProductProperty(factors)
        inside = [h for h in enumerate_hypergraphs(EnumSpec(uu, n))
                  if h.n >= 2 and member(prod, h)]
        exact = forbidden_up_to(prod, n)
        targets = [forbidden_property(uu, rng.sample(pool, rng.randint(1, len(pool))))]
        if exact:
            targets.append(forbidden_property(uu, exact))
        if inside:
            targets.append(forbidden_property(uu, exact + [rng.choice(inside)]))
        for p in targets:
            del calls[:]
            want = reference_verify_factorisation(p, factors, n)
            scanned = len(calls)
            del calls[:]
            assert verify_factorisation(p, factors, n) == want, (p, factors)
            skipped |= want.holds and len(calls) < scanned
            fallback |= not want.holds and any(f.n <= n and member(prod, f)
                                               for f in p.forbidden)
        gen = GeneratedBounded(uu, tuple(rng.sample(pool, min(2, len(pool)))), n)
        del calls[:]
        want = reference_verify_factorisation(targets[0], (factors[0], gen), n)
        scanned = len(calls)
        del calls[:]
        assert verify_factorisation(targets[0], (factors[0], gen), n) == want
        assert len(calls) == scanned
    assert fallback
    assert skipped or uu == mixed_universe()


def test_verify_decides_the_product_only_where_it_can_differ(props, monkeypatch):
    """bip against edgeless^2 at 6: the 65 classes of bip's member layers,
    its 62 members (the null graph included) and the 3 non-members grown
    from a member parent (K3, C5 and one graph on 6 vertices), not all
    209 graphs, are asked about the product.  Asking the members and
    bip's two forbidden graphs took 64."""
    calls = _count_solves(monkeypatch)
    assert verify_factorisation(props.bip, [props.edgeless] * 2, 6)
    assert len(calls) == 65
    del calls[:]
    assert reference_verify_factorisation(props.bip, [props.edgeless] * 2, 6)
    assert len(calls) == 209


@pytest.mark.parametrize("name", ["simple", "ORDERED-2", "UNORDERED-3", "2-colour",
                                  "mixed"])
def test_verify_over_member_layers_matches_full_scan(name, monkeypatch):
    """With P and every factor built from finite forbidden sets, P a
    forbidden set or a product, verification scans P's member layers and
    never the full stream, and returns the full scan's VerifyResult,
    counterexample included."""
    _, uu, dens = next(c for c in _kernel_universes(simple_universe()) if c[0] == name)
    n = {"simple": 5, "UNORDERED-3": 5, "mixed": 2}.get(name, 4)
    rng = random.Random(f"{SEED}:{name}")

    def forbidden_set():
        graphs = [random_graph(uu, rng.randint(2, min(n, 3)), dens, rng) for _ in range(3)]
        graphs = [h for h in graphs if h.edges] or [random_graph(uu, 2, 1.0, rng)]
        return forbidden_property(uu, rng.sample(graphs, rng.randint(1, len(graphs))))

    def refuse(spec):
        raise AssertionError("the full stream was scanned")

    outcomes = set()
    for _ in range(6):
        factors = (forbidden_set(), forbidden_set())
        prod = ProductProperty(factors)
        targets = [forbidden_set(), ProductProperty((forbidden_set(), forbidden_set())),
                   ProductProperty((factors[0], forbidden_set()))]
        exact = forbidden_up_to(prod, n)
        if exact:
            targets.append(forbidden_property(uu, exact))
        for p in targets:
            want = reference_verify_factorisation(p, factors, n)
            with monkeypatch.context() as m:
                m.setattr(factor, "enumerate_hypergraphs", refuse)
                assert verify_factorisation(p, factors, n) == want, (p, factors)
            outcomes.add(want.holds)
    assert outcomes == {True, False}


# --- dec brackets -------------------------------------------------------------

def test_dec_bounds_goldens(props):
    assert tuple(dec_bounds(props.edgeless, 3)) == (1, 1)
    res = dec_bounds(props.trifree, 5)
    assert tuple(res) == (1, 1)
    g5, d5 = res.witness
    assert g5.n == 5 and len(g5.edges) == 5  # the 5-cycle again
    assert len(d5) == 1
    assert tuple(dec_bounds(props.two_colour, 5)) == (2, 2)
    assert tuple(dec_bounds(props.bip, 5)) == (1, 2)


def test_dec_bounds_repeated_call_is_equal(props):
    first = dec_bounds(props.bip, 4)
    assert dec_bounds(props.bip, 4) == first
    assert dec_bounds(props.bip, 4, k_max=1) == first
    assert first.witness is not None


def test_dec_bounds_fallback_without_strict_members(props):
    res = dec_bounds(props.bip, 1)
    assert tuple(res) == (1, 2)
    assert res.witness is None
    assert "no strict member" in res.note


def test_dec_bounds_errors(u, g, props):
    for _ in range(2):  # a failed call is not remembered: it fails again
        with pytest.raises(HgError):
            dec_bounds(props.two_colour, 1)  # no strict member, no fallback
    m2 = forbidden_property(u, [g.two_k2])
    with pytest.raises(HgError) as exc:
        dec_bounds(m2, 4)
    assert "additive" in str(exc.value)


def _oracle_cases():
    """(id, property, bound): plain forbidden sets and products of two or
    three forbidden-set factors on simple, directed, 3-uniform and
    2-colour universes, a few with a non-additive factor."""
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED

    def hg(uu, n, edges):
        return Hypergraph(uu, n, frozenset(EdgeObject(k, vs, c) for k, vs, c in edges))

    su = simple_universe()
    du = Universe(frozenset({o}), frozenset({2}), ("a",))
    tu = Universe(frozenset({un}), frozenset({3}), ("e",))
    cu = Universe(frozenset({un}), frozenset({2}), ("r", "b"))
    e = forbidden_property(su, [simple_graph(2, [(0, 1)])])
    t = forbidden_property(su, [simple_graph(3, [(0, 1), (0, 2), (1, 2)])])
    p3 = forbidden_property(su, [simple_graph(3, [(0, 1), (1, 2)])])
    m2 = forbidden_property(su, [simple_graph(4, [(0, 1), (2, 3)])])
    k2k1 = forbidden_property(su, [simple_graph(3, [(1, 2)])])
    arc = hg(du, 2, [(o, (0, 1), "a")])
    a = forbidden_property(du, [arc])
    ad = forbidden_property(du, [arc, hg(du, 2, [(o, (0, 1), "a"), (o, (1, 0), "a")])])
    path = forbidden_property(du, [hg(du, 3, [(o, (0, 1), "a"), (o, (1, 2), "a")])])
    x = forbidden_property(tu, [hg(tu, 3, [(un, (0, 1, 2), "e")])])
    r = forbidden_property(cu, [hg(cu, 2, [(un, (0, 1), "r")])])
    b = forbidden_property(cu, [hg(cu, 2, [(un, (0, 1), "b")])])

    def prod(*fs):
        return ProductProperty(fs)

    return [
        ("simple-edgeless@4", e, 4), ("simple-trifree@5", t, 5),
        ("simple-2K2free@4", m2, 4), ("simple-K2+K1free@4", k2k1, 4),
        ("simple-edgeless^2@5", prod(e, e), 5),
        ("simple-edgeless*trifree@5", prod(e, t), 5),
        ("simple-edgeless^3@4", prod(e, e, e), 4),
        ("simple-nested-edgeless^3@4", prod(prod(e, e), e), 4),
        ("simple-trifree*p3free@4", prod(t, p3), 4),
        ("simple-edgeless*2K2free@4", prod(e, m2), 4),
        ("directed-arcfree@3", a, 3), ("directed-arcfree^2@3", prod(a, a), 3),
        ("directed-two_colour@3", prod(ad, ad), 3),
        ("directed-arcfree*pathfree@3", prod(a, path), 3),
        ("directed-arcfree^3@3", prod(a, a, a), 3),
        ("3-uniform-edgefree@4", x, 4), ("3-uniform-edgefree^2@4", prod(x, x), 4),
        ("2-colour-redfree@3", r, 3), ("2-colour-redfree*bluefree@3", prod(r, b), 3),
        ("2-colour-redfree^2@3", prod(r, r), 3),
        ("2-colour-redfree*bluefree^2@3", prod(r, b, b), 3),
    ]


_ORACLE_CASES = _oracle_cases()


def test_strict_members_second_pass_streams_nothing(monkeypatch):
    # redfree*bluefree has members whose one-vertex joins no product
    # certificate settles, so their strictness is decided by streaming
    # those joins, once per process
    p, n = next((p, n) for name, p, n in _ORACLE_CASES
                if name == "2-colour-redfree*bluefree@3")
    streamed = []
    real = decomp._first_bad_member
    monkeypatch.setattr(decomp, "_first_bad_member", lambda *a: streamed.append(a) or real(*a))
    decomp._is_strict_join.cache_clear()
    first = list(factor._strict_members(p, n))
    assert first and streamed
    before = len(streamed)
    assert list(factor._strict_members(p, n)) == first
    assert len(streamed) == before


@pytest.mark.parametrize("p, n", [c[1:] for c in _ORACLE_CASES],
                         ids=[c[0] for c in _ORACLE_CASES])
def test_dec_bounds_matches_full_scan(p, n, monkeypatch):
    """dec_bounds, which stops at a closed bracket and skips members that
    cannot lower it, gives the full scan's bracket, witness, note and
    error; every full scan has min dec at least the factor count."""
    try:
        want, decs = reference_dec_bounds(p, n)
    except HgError as exc:
        with pytest.raises(type(exc)) as got:
            factor._dec_bounds.__wrapped__(p, n, 1)
        assert str(got.value) == str(exc)
        return
    # the theorem the early exit rests on: dec(P) >= the factor count
    assert min(decs, default=want.upper) >= len(flat_factors(p))
    calls = []
    real = factor.dec_number
    monkeypatch.setattr(factor, "dec_number",
                        lambda *a: calls.append(a) or real(*a))
    got = factor._dec_bounds.__wrapped__(p, n, 1)
    assert got == want
    assert len(calls) <= len(decs)
    if want.lower == want.upper and isinstance(p, ProductProperty) and len(decs) > 1:
        assert len(calls) < len(decs)  # the closed bracket ended the scan


def test_dec_bounds_skip_test_stops_at_the_first_decomposition(props, monkeypatch):
    """bip at 6: a member with a decomposition into upper parts is
    skipped once the first is found, before its strictness is asked (in
    EXACT mode the skip test comes first).  Each of the 58 skip tests,
    one per member after K2, is settled by a colouring with at most
    upper = 2 classes, none holding an edge, once the join over two
    single vertices holds, so the scan makes 3 decisions, all in
    dec_number of the first strict member, K2: the single-vertex joins
    over two and three vertices and the split {0}|{1}.  Asking
    strictness first skip-tested the 54 strict members among them.
    Walking level upper up
    to its first valid partition made 342, reading all of it 1,460, and
    the walk made 499 before level 1 was read from membership and parts
    were split along edges, right side first."""
    calls, coloured = [], []
    real, real_coloured = decomp._decide, decomp._coloured
    monkeypatch.setattr(decomp, "_decide", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(decomp, "_coloured",
                        lambda *a: coloured.append(real_coloured(*a)) or coloured[-1])
    decomp._level.cache_clear()
    decomp._singletons_refuted.cache_clear()
    decomp._join_memo.clear()
    got = factor._dec_bounds.__wrapped__(props.bip, 6, 1)
    assert tuple(got) == (1, 2)
    assert len(calls) == 3
    assert coloured == [True] * 58


@pytest.mark.parametrize("n", [4, 5])
def test_dec_bounds_asks_strictness_after_the_skip_test(n, monkeypatch):
    """C5-free: once P4, its first strict member, sets upper = 2, the
    paw and K3 plus a vertex fail the skip test (dec 1) but are not
    strict, as they hold no induced P4; the scan must still leave them
    out.  The bracket and witness are the full scan's, and every member
    dec_number is asked about is strict."""
    u = simple_universe()
    c5 = forbidden_property(u, [simple_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])])
    asked = []
    real = factor.dec_number
    monkeypatch.setattr(factor, "dec_number", lambda g, *a: asked.append(g) or real(g, *a))
    got = factor._dec_bounds.__wrapped__(c5, n, 1)
    assert got == reference_dec_bounds(c5, n)[0]
    assert asked and all(decomp.is_strict(g, c5) for g in asked)


def test_cold_dec_bounds_keys_only_children_of_members(props, monkeypatch):
    """bip at 6 from cold memos: the strict-member scan grows each layer
    from bip's members alone, so enumeration tries 74 candidates and
    keys 64 where every class on up to 6 vertices needs 239 tries and
    208 keyings, and the bracket and its witness are the full scan's."""
    probed, keyed = [], []
    key_candidate = generate._key_candidate

    def probe(n, codes):
        probed.append(n)
        key = key_candidate(n, codes)
        if key is not None:
            keyed.append(n)
        return key

    monkeypatch.setattr(generate, "_key_candidate", probe)
    generate._layer.cache_clear()
    assert len(list(enumerate_hypergraphs(EnumSpec(props.bip.universe, 6)))) == 209
    assert (len(probed), len(keyed)) == (239, 208)
    del probed[:], keyed[:]
    generate._layer.cache_clear()
    got = factor._dec_bounds.__wrapped__(props.bip, 6, 1)
    assert (len(probed), len(keyed)) == (74, 64)
    assert got == reference_dec_bounds(props.bip, 6)[0]
    assert tuple(got) == (1, 2)


def test_dec_bounds_superadditive_for_products(props):
    three = ProductProperty((props.edgeless,) * 3)
    res = dec_bounds(three, 4)
    assert tuple(res) == (3, 3)
    assert res.lower >= dec_bounds(props.two_colour, 4).lower \
        + dec_bounds(props.edgeless, 4).lower


# --- search and verdicts -------------------------------------------------------

def test_factor_search_golden(props):
    found = factor_search(props.bip, 2, 5)
    assert len(found) == 1
    fac = found[0]
    assert fac.equality_bound == 5
    assert fac.dec_bracket == (1, 2)
    assert len(fac.factors) == 2
    for f in fac.factors:
        assert isinstance(f, FiniteForbidden)
        assert len(f.forbidden) == 1
        assert f.forbidden[0].n == 2 and len(f.forbidden[0].edges) == 1
    assert verify_factorisation(props.bip, fac.factors, 5)


def test_factor_search_empty_when_certified(props):
    assert factor_search(props.trifree, 3, 5) == []


def test_factor_search_reaches_the_bracket(props):
    # three edgeless factors: the only verified tuple has as many factors
    # as the dec upper bound
    three = ProductProperty((props.edgeless,) * 3)
    found = factor_search(three, 2, 4)
    assert len(found) == 1
    assert len(found[0].factors) == 3
    assert found[0].dec_bracket == (3, 3)


def test_factor_search_of_a_product(props):
    found = factor_search(props.two_colour, 2, 4)
    assert len(found) == 1
    assert len(found[0].factors) == 2


def test_irreducibility_certified(props):
    v = irreducibility_test(props.edgeless, 3)
    assert v.status == IRREDUCIBLE_CERTIFIED
    assert v.witness[0].n == 1
    v = irreducibility_test(props.trifree, 5)
    assert v.status == IRREDUCIBLE_CERTIFIED
    assert v.witness[0].n == 5
    v = irreducibility_test(props.p3free, 4)
    assert v.status == IRREDUCIBLE_CERTIFIED


def test_irreducibility_is_bound_relative(props):
    # at bound 4 the two-colour split still matches triangle-freeness, so
    # the verdict is honest about only being bounded
    v = irreducibility_test(props.trifree, 4)
    assert v.status == REDUCIBLE
    assert v.factorisations[0].equality_bound == 4


def test_irreducibility_reducible(props):
    v = irreducibility_test(props.bip, 5)
    assert v.status == REDUCIBLE
    assert len(v.factorisations) == 1


def test_irreducibility_unknown(props):
    # the candidate pool has no graphs at size 1, so nothing can verify,
    # and the two-colour target has no irreducibility witness either
    v = irreducibility_test(props.two_colour, 5, candidate_forbidden_size=1)
    assert v.status == UNKNOWN
    assert "no certificate" in v.note


def test_bounded_equivalence_flips_with_evidence(props):
    # independent-set times triangle-free agrees with three independent
    # sets up to 5 vertices; the 5-wheel separates them at 6
    target = ProductProperty((props.edgeless, props.trifree))
    v = irreducibility_test(target, 4, candidate_forbidden_size=2)
    assert v.status == REDUCIBLE
    assert len(v.factorisations[0].factors) == 3
    res = verify_factorisation(target, [props.edgeless] * 3, 6)
    assert not res
    w5 = res.counterexample
    assert w5.n == 6 and len(w5.edges) == 10
    assert member(target, w5)


@pytest.mark.parametrize("uu, density", UNIVERSE_CASES)
def test_antichain_key_matches_enumerated_fingerprint(uu, density):
    """Two forbidden-set properties have equal antichain keys at n iff
    they have the same members on at most n vertices.  Forbidden graphs
    on n+1 vertices are drawn too, so a key that reads them would fail."""
    rng = random.Random(SEED)
    n = 2 if len(uu.kinds) > 1 else max(uu.arities) + 1
    outcomes = []
    for _ in range(100):
        pool = [random_graph(uu, rng.randint(2, n + 1), density, rng) for _ in range(3)]
        p, q = (forbidden_property(uu, rng.sample(pool, rng.randint(1, 3)))
                for _ in range(2))
        same = factor._antichain_key(p, n) == factor._antichain_key(q, n)
        assert same == (reference_fingerprint(p, n) == reference_fingerprint(q, n)), (p, q)
        outcomes.append(same)
    assert outcomes.count(True) >= 5 and outcomes.count(False) >= 5


def _search_battery():
    su = simple_universe()
    k3 = simple_graph(3, [(0, 1), (0, 2), (1, 2)])
    c5 = simple_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    e = forbidden_property(su, [simple_graph(2, [(0, 1)])])
    t = forbidden_property(su, [k3])
    return [("trifree^2", ProductProperty((t, t)), 3, 4),
            ("edgeless*trifree", ProductProperty((e, t)), 3, 4),
            ("bip", forbidden_property(su, [k3, c5]), 2, 5),
            ("two_colour", ProductProperty((e, e)), 2, 4),
            ("edgeless^3", ProductProperty((e, e, e)), 2, 4)]


def test_factor_search_matches_reference_search():
    """factor_search, which keys factors by their antichains and does not
    verify a refined tuple again, equals the search that fingerprints
    every factor by enumeration and re-verifies; some tuples are refined,
    and every refinement verified."""
    refinements = []
    for name, p, size, n in _search_battery():
        want, refined = reference_factor_search(p, size, n)
        assert factor_search(p, size, n) == want, name
        refinements += refined
    assert refinements
    assert all(holds for _, _, holds in refinements)


def test_factor_search_enumerates_nothing_past_the_bracket(monkeypatch):
    """Directed two-colouring at bound 6: the bracket closes early and the
    search enumerates under 1,000 classes, not the digraphs on up to 6
    vertices, to tell its one factorisation apart.  Classes are counted
    from both streams factor reads: every class, and a property's
    members."""
    du = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("e",))
    arc = EdgeObject(EdgeKind.ORDERED, (0, 1), "e")
    back = EdgeObject(EdgeKind.ORDERED, (1, 0), "e")
    ad = forbidden_property(du, [Hypergraph(du, 2, frozenset({arc})),
                                 Hypergraph(du, 2, frozenset({arc, back}))])
    yielded = []

    def counted(stream):
        def wrapped(*args):
            for h in stream(*args):
                yielded.append(h)
                if len(yielded) >= 1000:
                    raise AssertionError("factor_search enumerated 1,000 classes")
                yield h
        return wrapped

    monkeypatch.setattr(factor, "enumerate_hypergraphs", counted(factor.enumerate_hypergraphs))
    monkeypatch.setattr(factor, "_members_up_to", counted(factor._members_up_to))
    assert factor_search(ProductProperty((ad, ad)), 2, 6) \
        == [Factorisation((ad, ad), 6, (2, 2))]


# --- part families and case splits ------------------------------------------

def test_ind_part_family_golden(g, props):
    fam = ind_part_family(props.two_colour, 5)
    assert [(h.n, len(h.edges)) for h in fam] \
        == [(1, 0), (2, 0), (3, 0), (4, 0)]


def test_ind_part_family_needs_additivity(u, g):
    m2 = forbidden_property(u, [g.two_k2])
    with pytest.raises(HgError):
        ind_part_family(m2, 4)


def test_case_split_golden(g, props):
    hit, miss = case_split(props.two_colour, g.e3, 5)
    assert isinstance(hit, GeneratedBounded)
    assert isinstance(miss, GeneratedBounded)
    assert hit.bound == 5 and miss.bound == 5
    assert sorted(h.n for h in hit.generators) == [3, 4]
    assert sorted(h.n for h in miss.generators) == [1, 2]
    assert member(hit, g.e3)
    with pytest.raises(BoundExceededError):
        member(hit, simple_graph(6, []))


def test_case_split_rejects_full_multiplicity(g, props):
    with pytest.raises(FullMultiplicityError):
        case_split(props.two_colour, g.k1, 5)
    with pytest.raises(FullMultiplicityError):
        case_split(props.two_colour, g.e2, 5)


def test_case_split_rejects_absent_graph(g, props):
    with pytest.raises(HgError):
        case_split(props.two_colour, g.k2, 5)


def _products_beyond_simple():
    o, un = EdgeKind.ORDERED, EdgeKind.UNORDERED
    du = Universe(frozenset({o}), frozenset({2}), ("a",))
    cu = Universe(frozenset({un}), frozenset({2}), ("r", "b"))
    a = forbidden_property(du, [Hypergraph(du, 2, frozenset({EdgeObject(o, (0, 1), "a")}))])
    r = forbidden_property(cu, [Hypergraph(cu, 2, frozenset({EdgeObject(un, (0, 1), "r")}))])
    return [pytest.param(ProductProperty((a, a)), 3, id="directed-arcfree^2@3"),
            pytest.param(ProductProperty((r, r)), 3, id="2-colour-redfree^2@3")]


@pytest.mark.parametrize("p, n", _products_beyond_simple())
def test_family_and_case_split_match_decomp_reference(p, n):
    """ind_part_family and case_split, which read parts off the family's
    own decompositions, agree with ind_parts and multiplicity, errors
    included, for every graph on at most 3 vertices."""
    fam = ind_part_family(p, n)
    assert fam and fam == reference_ind_part_family(p, n)
    splits = 0
    for f in enumerate_hypergraphs(EnumSpec(p.universe, 3)):
        try:
            want = reference_case_split(p, f, n)
        except HgError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                case_split(p, f, n)
            continue
        assert case_split(p, f, n) == want, f
        splits += 1
    assert splits
