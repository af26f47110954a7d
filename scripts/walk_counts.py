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

Run from the repository root:

    PYTHONPATH=src python3 scripts/walk_counts.py
"""

import json

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


if __name__ == "__main__":
    for label, run in CASES:
        levels = counts(run)
        for level in sorted(levels, key=lambda k: -1 if k is None else k):
            print(json.dumps({"case": label, "level": level, **levels[level]}))
        print(json.dumps({"case": label, "level": "all", **{
            name: sum(row[name] for row in levels.values()) for name in COLUMNS}}))
