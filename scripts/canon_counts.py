"""Machine-independent work counts of canonical labelling in enumeration.

For each enumeration below, every candidate that generate._layer tries
is captured at generate._key_candidate, with its one layer memo cleared
first.  Per enumeration it prints, as one JSON object per line:

- probed: candidates tried, one per orbit of subsets that leave the new
  vertex of least degree;
- rejected: probed candidates whose new vertex is outside the first cell
  of least degree, so that core._cells gave up on it and none was keyed;
- keyings: probed candidates keyed, probed minus rejected (an edgeless
  graph is keyed without refinement or ordering, and counts in neither
  discrete nor orderings);
- discrete: keyings whose refinement leaves every vertex alone in its cell;
- orderings: the orderings in the product of the refined cells of the
  keyings, summed (the leaves of a search that pruned nothing);
- leaves: the orderings the keyings' searches key, counted as calls of
  the nested key function of core._canon_search;
- nodes: the nodes the keyings' searches visit, leaves included,
  counted as calls of the nested search function of core._canon_search;
- profiles: the vertex profiles that the refinement rounds after the
  first build, rejected probes included (a vertex alone in its cell gets
  none), counted as calls of the nested profile function of core._cells.

Only candidates are counted.  A layer makes no other canonical search:
each parent's automorphisms are the generators its class's keying found
one layer down (generate._grow).

It then prints leaves and nodes of one canonical search, without a probe,
of each graph in SYMMETRIC: vertex-transitive graphs, whose refinement
leaves one cell, so the search's first leaf is seldom the least.

Run from the repository root:

    PYTHONPATH=src python3 scripts/canon_counts.py
"""

import json
import math
import sys

from hgfactor import EdgeKind, EnumSpec, Universe, enumerate_hypergraphs, simple_universe
from hgfactor import core, generate

DIGRAPHS = Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("e",))
THREE_UNIFORM = Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",))

CASES = [
    ("digraphs<=5", DIGRAPHS, 5),
    ("3-uniform<=6", THREE_UNIFORM, 6),
    ("simple<=6", simple_universe(), 6),
]


def cycle(n, start=0):
    return [(start + i, start + (i + 1) % n) for i in range(n)]


def graph(universe, n, tuples):
    kind = next(iter(universe.kinds))
    return core.Hypergraph(universe, n, frozenset(
        core.EdgeObject(kind, t, universe.colours[0]) for t in tuples))


SYMMETRIC = [
    ("C6", graph(simple_universe(), 6, cycle(6))),
    ("C7", graph(simple_universe(), 7, cycle(7))),
    ("C8", graph(simple_universe(), 8, cycle(8))),
    ("Q3", graph(simple_universe(), 8,
                 [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1])),
    ("K3,3", graph(simple_universe(), 6, [(a, b) for a in range(3) for b in range(3, 6)])),
    ("2C4", graph(simple_universe(), 8, cycle(4) + cycle(4, 4))),
    ("directed C7", graph(DIGRAPHS, 7, cycle(7))),
    ("Fano plane", graph(THREE_UNIFORM, 7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)])),
]


def nested_code(f, name):
    return next(c for c in f.__code__.co_consts if getattr(c, "co_name", None) == name)


KEY_CODE = nested_code(core._canon_search, "key")
SEARCH_CODE = nested_code(core._canon_search, "search")
PROFILE_CODE = nested_code(core._cells, "profile")


def traced(f, *args):
    """f(*args), and the calls it made of each nested function counted."""
    calls = dict.fromkeys((KEY_CODE, SEARCH_CODE, PROFILE_CODE), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        return f(*args), calls
    finally:
        sys.setprofile(None)


def counts(universe, top):
    probes = []
    key_candidate = generate._key_candidate

    def probe(*args):
        probes.append(args)
        return key_candidate(*args)

    generate._key_candidate = probe
    try:
        generate._layer.cache_clear()
        for _ in enumerate_hypergraphs(EnumSpec(universe, top)):
            pass
    finally:
        generate._key_candidate = key_candidate
    leaves = nodes = profiles = 0
    keyings = orderings = discrete = 0
    for n, codes, *rest in probes:
        key, calls = traced(key_candidate, n, codes, *rest)
        leaves += calls[KEY_CODE]
        nodes += calls[SEARCH_CODE]
        profiles += calls[PROFILE_CODE]
        if key is None:
            continue
        keyings += 1
        if codes:
            cells = core._cells(n, codes)
            orderings += math.prod(math.factorial(len(c)) for c in cells)
            discrete += len(cells) == n
    return {"probed": len(probes), "rejected": len(probes) - keyings, "keyings": keyings,
            "discrete": discrete, "orderings": orderings, "leaves": leaves,
            "nodes": nodes, "profiles": profiles}


def search_counts(g):
    _, calls = traced(core._canon_search, g.n, core._codes(g.universe, g.edges))
    return {"leaves": calls[KEY_CODE], "nodes": calls[SEARCH_CODE]}


if __name__ == "__main__":
    for label, universe, top in CASES:
        print(json.dumps({"enumeration": label, **counts(universe, top)}))
    for label, g in SYMMETRIC:
        print(json.dumps({"graph": label, **search_counts(g)}))
