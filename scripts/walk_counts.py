"""Machine-independent work counts of the partition-lattice walk, per level.

Two cases, each from cold decomposition memos:

- sweep: the uniqueness queries of criterion 7 at 6 vertices, the 28
  connected bipartite graphs and 2K2, each asked whether it is uniquely
  decomposable under edgeless*edgeless (BOUNDED, k_max=1);
- bip-dec-bounds: dec_bounds of {K3, C5}-free at 6 vertices, whose
  strict-member scan asks dec_number and the skip test
  (_has_decomposition) of each member (EXACT).

Per case and level it prints, as one JSON object per line:

- decisions: calls of decomp._decide, partial partitions of the walk and
  the single-vertex cut included;
- bounded_misses: calls of decomp._join_bounded, the bounded decisions
  that missed the join memo;
- streamed: calls of decomp._first_bad_member, the bounded joins whose
  members were streamed;
- masked: the densest-member verdicts read from partner masks of the
  host's pair index (calls of decomp._densest_holds that built no
  member), one per copy count decided, for a product closed under
  deleting an edge whose factors forbid only graphs on 2 vertices;
- densest: calls of decomp._densest_member, the densest join members
  built: for the verdicts of other closed products, and for the
  counterexamples that join_subset_of and is_decomposition return, which
  the walk never reads;
- coloured: calls of decomp._coloured that found a colouring, the skip
  tests (_has_decomposition, EXACT) settled with no level read or walked,
  as the join over that many single vertices holds;
- solves: calls of props.partition_solve, one per product membership;
- plans: the partition_solve plans built (props._solve_plan misses), one
  per distinct factor tuple, as the plan memo starts empty too.

Work is charged to the level whose walk (decomp._valid) was running when
it was done; the level read below it is charged to its own line.  A last
line per case, with level "all", holds the sums.

A second mode counts the work of ``hgfactor factorize`` on the benchmark's
three commands (bip at 6, dir_two_colour at 4, trifree at 6, from
perfbench/data), each in a fresh process, one JSON object per command:

- find_anchored, find_plain: calls of core._find with an anchor (a
  copy through one vertex: layer verdicts and partition_solve) and
  without one (embed_induced and the exact join test);
- members: membership tests of finite forbidden sets, calls of
  FiniteForbidden.member plus the layer verdicts decided through a
  growth vertex (props._member_through on a finite forbidden set);
- products: calls of ProductProperty.member, the product's verdicts
  that verify_factorisation compares;
- strict: strictness tests (decomp._strict_member, or decomp.is_strict
  in a tree without it);
- skip: skip tests of the dec scan (decomp._has_decomposition);
- parsers: argparse.ArgumentParser constructions, the command line
  parsers cli.run builds;
- searches: calls of core._canon_search without a probe, the canonical
  searches made outside enumeration's candidate keyings (canonical_key
  and the anchored embedding plans, and in an older tree the searches
  for each layer parent's automorphisms).

The counts read only the names a tree has, so the same script counts an
older checkout's work when run with its src on PYTHONPATH.

Run from the repository root:

    PYTHONPATH=src python3 scripts/walk_counts.py
    PYTHONPATH=src python3 scripts/walk_counts.py factorize
"""

import contextlib
import io
import json
import os
import subprocess
import sys

from hgfactor import (
    BOUNDED,
    EnumSpec,
    ProductProperty,
    enumerate_hypergraphs,
    forbidden_property,
    is_uniquely_decomposable,
    simple_graph,
    simple_universe,
)
from hgfactor import decomp, factor, props

COUNTED = {"_decide": "decisions", "_join_bounded": "bounded_misses",
           "_first_bad_member": "streamed", "_densest_member": "densest",
           "_coloured": "coloured"}
COLUMNS = (*COUNTED.values(), "masked", "solves", "plans")


def sweep():
    u = simple_universe()
    edgeless = forbidden_property(u, [simple_graph(2, [(0, 1)])])
    prod = ProductProperty((edgeless, edgeless))
    graphs = [h for h in enumerate_hypergraphs(EnumSpec(u, 6, connected_only=True))
              if prod.member(h)] + [simple_graph(4, [(0, 1), (2, 3)])]
    for h in graphs:
        is_uniquely_decomposable(h, prod, BOUNDED, k_max=1)


def bip_dec_bounds():
    u = simple_universe()
    k3 = simple_graph(3, [(0, 1), (0, 2), (1, 2)])
    c5 = simple_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    factor._dec_bounds.__wrapped__(forbidden_property(u, [k3, c5]), 6, 1)


CASES = [("sweep", sweep), ("bip-dec-bounds", bip_dec_bounds)]


def counts(run):
    """{level: {count name: n}} for one case; level None is work done
    outside any walk."""
    levels, stack = {}, []
    real = {name: getattr(decomp, name) for name in (*COUNTED, "_valid", "_densest_holds")}
    real_solve = props.partition_solve

    def row(level):
        return levels.setdefault(level, dict.fromkeys(COLUMNS, 0))

    def counting(name):
        def call(*args):
            at = row(stack[-1] if stack else None)
            result = real[name](*args)
            at[COUNTED[name]] += bool(result) if name == "_coloured" else 1
            return result
        return call

    def densest_holds(*args):
        at = row(stack[-1] if stack else None)
        built = at["densest"]
        result = real["_densest_holds"](*args)
        at["masked"] += at["densest"] == built
        return result

    def solve(g, factors):
        at = row(stack[-1] if stack else None)
        built = props._solve_plan.cache_info().misses
        result = real_solve(g, factors)
        at["solves"] += 1
        at["plans"] += props._solve_plan.cache_info().misses - built
        return result

    def valid(g, p, mode, k_max, member_cap, k):
        row(k)
        walk = real["_valid"](g, p, mode, k_max, member_cap, k)
        while True:
            stack.append(k)
            try:
                d = next(walk)
            except StopIteration:
                return
            finally:
                stack.pop()
            yield d

    decomp._level.cache_clear()
    decomp._singletons_refuted.cache_clear()
    decomp._join_memo.clear()
    props._solve_plan.cache_clear()
    for name in COUNTED:
        setattr(decomp, name, counting(name))
    decomp._valid = valid
    decomp._densest_holds = densest_holds
    props.partition_solve = solve
    try:
        run()
    finally:
        for name, f in real.items():
            setattr(decomp, name, f)
        props.partition_solve = real_solve
    return levels


DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "data")
FACTORIZE = {"bip": 6, "dir_two_colour": 4, "trifree": 6}


def factorize_counts(name):
    """The work counts of one factorize command, from a fresh process."""
    import argparse

    from hgfactor import cli, core, generate

    found = dict.fromkeys(("find_anchored", "find_plain", "members", "products", "strict",
                           "skip", "parsers", "searches"), 0)
    real_find = core._find

    def find(pattern, host, allowed, anchor=None):
        found["find_plain" if anchor is None else "find_anchored"] += 1
        return real_find(pattern, host, allowed, anchor)

    def counting(column, f):
        def call(*args, **kwargs):
            found[column] += 1
            return f(*args, **kwargs)
        return call

    for module in (core, props, decomp):
        module._find = find
    props.FiniteForbidden.member = counting("members", props.FiniteForbidden.member)
    props.ProductProperty.member = counting("products", props.ProductProperty.member)
    if hasattr(props, "_member_through"):
        through = props._member_through

        def member_through(p, g, v):
            # a finite forbidden set's verdict here makes no member call
            found["members"] += isinstance(p, props.FiniteForbidden)
            return through(p, g, v)

        props._member_through = member_through
    strict = "_strict_member" if hasattr(decomp, "_strict_member") else "is_strict"
    strict_test = counting("strict", getattr(decomp, strict))
    for module in (decomp, factor):
        setattr(module, strict, strict_test)
    factor._has_decomposition = counting("skip", decomp._has_decomposition)
    argparse.ArgumentParser.__init__ = counting("parsers", argparse.ArgumentParser.__init__)
    real_search = core._canon_search

    def search(n, codes, probe=-1):
        found["searches"] += probe < 0
        return real_search(n, codes, probe)

    for module in (core, generate):
        if hasattr(module, "_canon_search"):
            module._canon_search = search
    argv = ["factorize", "-p", os.path.join(DATA, f"{name}.prop"),
            "--bound", str(FACTORIZE[name])]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)
    return found


if __name__ == "__main__":
    if sys.argv[1:] == ["factorize"]:
        for name in FACTORIZE:
            subprocess.run([sys.executable, __file__, "factorize", name], check=True)
        sys.exit()
    if sys.argv[1:2] == ["factorize"]:
        print(json.dumps({"command": sys.argv[2], **factorize_counts(sys.argv[2])}))
        sys.exit()
    for label, run in CASES:
        levels = counts(run)
        for level in sorted(levels, key=lambda k: -1 if k is None else k):
            print(json.dumps({"case": label, "level": level, **levels[level]}))
        print(json.dumps({"case": label, "level": "all", **{
            name: sum(row[name] for row in levels.values()) for name in COLUMNS}}))
