"""Machine-independent work counts of canonical labelling in enumeration.

For each enumeration below, every keying that generate._layer makes is
captured, with its one layer memo cleared first.  Per enumeration it
prints, as one JSON object per line:

- keyings: calls of core._canon (an edgeless graph is keyed without
  refinement or ordering, and counts nowhere below);
- discrete: keyings whose refinement leaves every vertex alone in its cell;
- orderings: the orderings in the product of the refined cells, summed
  (the leaves of a search that pruned nothing);
- leaves: the orderings core._canon keys, counted as calls of its
  nested key function;
- profiles: the vertex profiles that the refinement rounds after the
  first build (a vertex alone in its cell gets none), counted as calls
  of the nested profile function of core._cells.

Only candidate keyings, the calls of generate._canon, are counted; the
searches that find each parent's automorphisms are not.

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
    keyings = []
    canon = generate._canon
    generate._canon = lambda n, codes: keyings.append((n, codes)) or canon(n, codes)
    try:
        generate._layer.cache_clear()
        for _ in enumerate_hypergraphs(EnumSpec(universe, top)):
            pass
    finally:
        generate._canon = canon
    leaves = profiles = 0

    def profile(frame, event, arg):
        nonlocal leaves, profiles
        if event == "call":
            leaves += frame.f_code is KEY_CODE
            profiles += frame.f_code is PROFILE_CODE

    orderings = discrete = 0
    for n, codes in keyings:
        if not codes:
            continue
        cells = core._cells(n, codes)
        orderings += math.prod(math.factorial(len(c)) for c in cells)
        discrete += len(cells) == n
        sys.setprofile(profile)
        try:
            core._canon(n, codes)
        finally:
            sys.setprofile(None)
    return {"keyings": len(keyings), "discrete": discrete,
            "orderings": orderings, "leaves": leaves, "profiles": profiles}


if __name__ == "__main__":
    for label, universe, top in CASES:
        print(json.dumps({"enumeration": label, **counts(universe, top)}))
