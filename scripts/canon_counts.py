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
- profiles: the vertex profiles that the refinement rounds after the
  first build, rejected probes included (a vertex alone in its cell gets
  none), counted as calls of the nested profile function of core._cells.

Only candidates are counted.  A layer makes no other canonical search:
each parent's automorphisms are the generators its class's keying found
one layer down (generate._grow).

Run from the repository root:

    PYTHONPATH=src python3 scripts/canon_counts.py
"""

import json
import math
import sys

from hgfactor import EdgeKind, EnumSpec, Universe, enumerate_hypergraphs, simple_universe
from hgfactor import core, generate

CASES = [
    ("digraphs<=5", Universe(frozenset({EdgeKind.ORDERED}), frozenset({2}), ("e",)), 5),
    ("3-uniform<=6", Universe(frozenset({EdgeKind.UNORDERED}), frozenset({3}), ("e",)), 6),
    ("simple<=6", simple_universe(), 6),
]


def nested_code(f, name):
    return next(c for c in f.__code__.co_consts if getattr(c, "co_name", None) == name)


KEY_CODE = nested_code(core._canon_search, "key")
PROFILE_CODE = nested_code(core._cells, "profile")


def counts(universe, top):
    probes = []
    key_candidate = generate._key_candidate
    generate._key_candidate = lambda n, codes: probes.append((n, codes)) or key_candidate(n, codes)
    try:
        generate._layer.cache_clear()
        for _ in enumerate_hypergraphs(EnumSpec(universe, top)):
            pass
    finally:
        generate._key_candidate = key_candidate
    leaves = profiles = 0

    def profile(frame, event, arg):
        nonlocal leaves, profiles
        if event == "call":
            leaves += frame.f_code is KEY_CODE
            profiles += frame.f_code is PROFILE_CODE

    keyings = orderings = discrete = 0
    for n, codes in probes:
        sys.setprofile(profile)
        try:
            key = key_candidate(n, codes)
        finally:
            sys.setprofile(None)
        if key is None:
            continue
        keyings += 1
        if codes:
            cells = core._cells(n, codes)
            orderings += math.prod(math.factorial(len(c)) for c in cells)
            discrete += len(cells) == n
    return {"probed": len(probes), "rejected": len(probes) - keyings, "keyings": keyings,
            "discrete": discrete, "orderings": orderings, "leaves": leaves,
            "profiles": profiles}


if __name__ == "__main__":
    for label, universe, top in CASES:
        print(json.dumps({"enumeration": label, **counts(universe, top)}))
