"""One benchmark job: a fresh process that sets up one workload's inputs,
runs its operations with hgfactor's caches cold, checks every answer
against the independent oracles and prints one JSON record.

Started by run.py as ``python3 perfbench/job.py '<json spec>'``.  The spec
names the workload, the seed, the round, the job within the round, the
monotonic time at which the parent spawned this process (set-up time runs
from there) and, for a traced job, the file that receives the spans.  A
spec with "setup_only" stops once the inputs are ready; one with "probe"
times factor_search at a worker count instead of a workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")

# Known answers.  Connected simple graphs and connected bipartite graphs up
# to n vertices: prefix sums of OEIS A001349 and A005142.
SWEEP_BOUND = 6
SWEEP_COUNTS = {6: (143, 28), 7: (996, 72)}
# Partitions decided per scan job (each job is one cold process).
SCAN_SAMPLE = 1500
# command -> (argv tail, expected report file)
FACTORIZE = {
    "bip": (["-p", "bip.prop", "--bound", "6"], "factorize-bip.txt"),
    "dir_two_colour": (["-p", "dir_two_colour.prop", "--bound", "4"],
                       "factorize-dir_two_colour.txt"),
    "trifree": (["-p", "trifree.prop", "--bound", "6"], "factorize-trifree.txt"),
}
# command -> (vertex bound, universe, class count: prefix sums of OEIS
# A000273 for digraphs and A000665 for 3-uniform hypergraphs)
ENUMERATE = {
    "digraphs": (5, "kinds=ORDERED arities=2 colours=e", 9847),
    "3-uniform": (6, "kinds=UNORDERED arities=3 colours=e", 2180),
}
K3_EDGES = {("UNORDERED", (0, 1), "e"), ("UNORDERED", (0, 2), "e"),
            ("UNORDERED", (1, 2), "e")}


def plan(workload: str, seed: int, round_no: int) -> list:
    """Job specs of one round; a round always runs to completion."""
    if workload in ("sweep", "scan"):
        return [{}]
    names = list(FACTORIZE if workload == "factorize" else ENUMERATE)
    random.Random(f"{workload}:{seed}:{round_no}").shuffle(names)
    return [{"command": name} for name in names]


# --- workloads ----------------------------------------------------------------
#
# Each workload is set-up (library calls that prepare the inputs, counted
# in setup_s), one op per input item (timed one by one), and a check that
# uses only the oracle and runs untimed.  setup returns a state dict with
# "items" and, when one item stands for several ops, "ops_per_item".
# check returns a failure flag per item and a list of whole-job errors.

def sweep_setup(H, spec, rng):
    u = H.simple_universe()
    edgeless = H.forbidden_property(u, [H.simple_graph(2, [(0, 1)])])
    prod = H.ProductProperty((edgeless, edgeless))
    graphs = list(H.enumerate_hypergraphs(
        H.EnumSpec(u, SWEEP_BOUND, connected_only=True)))
    two_k2 = H.simple_graph(4, [(0, 1), (2, 3)])
    items = [(h, True) for h in graphs] + [(two_k2, False)]
    rng.shuffle(items)
    return {"prod": prod, "items": items, "enumerated": len(graphs)}


def sweep_op(H, st, item):
    from hgfactor.decomp import BOUNDED
    h, prod = item[0], st["prod"]
    res = prod.member(h)
    unique = H.is_uniquely_decomposable(h, prod, BOUNDED, k_max=1) if res else None
    return bool(res), res.detail, unique


def sweep_check(oracle, st, outcomes):
    fails, errors, bipartite = [], [], 0
    for (h, from_enum), outcome in zip(st["items"], outcomes):
        edges = oracle.edge_set(h)
        colouring = oracle.two_colouring(h.n, edges)
        bipartite += from_enum and colouring is not None
        ok = not isinstance(outcome, Exception)
        if ok and from_enum and not oracle.connected(h.n, edges):
            ok = False
        if ok:
            member, detail, unique = outcome
            ok = member == (colouring is not None)
            if ok and member:
                # the paper's result: connected two-colourable graphs are
                # uniquely decomposable; the two-edge matching is not
                blocks = [set(b) for b in detail.parts]
                ok = (len(blocks) == 2
                      and sorted(v for b in blocks for v in b) == list(range(h.n))
                      and all(oracle.independent(edges, b) for b in blocks)
                      and unique == from_enum)
        fails.append(not ok)
    if (st["enumerated"], bipartite) != SWEEP_COUNTS[SWEEP_BOUND]:
        errors.append(f"sweep counts {st['enumerated']}, {bipartite} differ from "
                      f"OEIS {SWEEP_COUNTS[SWEEP_BOUND]}")
    return fails, errors


def scan_setup(H, spec, rng):
    u = H.simple_universe()
    trifree = H.forbidden_property(u, [H.simple_graph(3, [(0, 1), (0, 2), (1, 2)])])
    two_k2 = H.simple_graph(4, [(0, 1), (2, 3)])
    d0 = H.Decomposition((frozenset({0, 2}), frozenset({1, 3})))
    ct = H.aligning_super(two_k2, d0, trifree, 10**4)
    n = ct.graph.n
    # a 2-part partition is vertex 0's side plus a nonzero mask over 1..n-1
    ext_mask = sum(1 << (v - 1) for v in ct.class_extension().parts[1])
    masks = rng.sample(range(1, 1 << (n - 1)), SCAN_SAMPLE)
    if ext_mask not in masks:
        masks[rng.randrange(SCAN_SAMPLE)] = ext_mask
    items = []
    for m in masks:
        b = frozenset(v for v in range(1, n) if m >> (v - 1) & 1)
        items.append((frozenset(range(n)) - b, b))
    return {"ct": ct, "trifree": trifree, "items": items}


def scan_op(H, st, parts):
    return H.is_decomposition(st["ct"].graph, H.Decomposition(parts), st["trifree"],
                              H.EXACT)


def scan_check(oracle, st, outcomes):
    g = st["ct"].graph
    edges = oracle.edge_set(g)
    errors = []
    colouring = oracle.two_colouring(g.n, edges)
    ext = {frozenset(p) for p in st["ct"].class_extension().parts}
    # For a triangle-free graph and P = triangle-free, a 2-part partition
    # is a decomposition iff both parts are independent: the forbidden K3
    # can be split 2+1 (needs an edge inside a part) but never 3+0 (no
    # triangle inside a part).  A connected bipartite graph has exactly one
    # such partition, so it must be the class extension.
    if g.n != 16 or not oracle.triangle_free(g.n, edges) \
            or not oracle.connected(g.n, edges) or colouring is None:
        errors.append("aligned supergraph is not a connected triangle-free "
                      "bipartite graph on 16 vertices")
    elif {frozenset(v for v in range(g.n) if colouring[v] == c) for c in (0, 1)} != ext:
        errors.append("class extension is not the unique 2-colouring")
    if not any(set(p) == ext for p in st["items"]):
        errors.append("class extension missing from the sample")
    fails = []
    for (a, b), outcome in zip(st["items"], outcomes):
        if isinstance(outcome, Exception):
            fails.append(True)
            continue
        want = oracle.independent(edges, a) and oracle.independent(edges, b)
        ok = bool(outcome) == want and outcome.confidence == "exact"
        if ok and not want:
            w = outcome.witness
            ok = w is not None and oracle.dec_witness_error(
                w, K3_EDGES, 3,
                [oracle.induced_edges(edges, a), oracle.induced_edges(edges, b)],
                [len(a), len(b)]) is None
        fails.append(not ok)
    return fails, errors


def cli_op(H, st, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = H.cli.run(argv)
    return code, buf.getvalue()


def factorize_setup(H, spec, rng):
    tail, expected = FACTORIZE[spec["command"]]
    argv = ["factorize", "-p", os.path.join(DATA, tail[1])] + tail[2:]
    return {"items": [argv], "expected": expected}


def factorize_check(oracle, st, outcomes):
    with open(os.path.join(DATA, st["expected"]), encoding="utf-8") as fh:
        want = fh.read()
    return [outcomes[0] != (0, want)], []


def enumerate_setup(H, spec, rng):
    bound, universe, classes = ENUMERATE[spec["command"]]
    argv = ["enumerate", "--vertices", str(bound), "--universe", universe]
    # one op per class emitted, each charged the command's mean time
    return {"items": [argv], "universe": universe, "ops_per_item": classes}


def enumerate_check(oracle, st, outcomes):
    classes, outcome = st["ops_per_item"], outcomes[0]
    ok = not isinstance(outcome, Exception) and outcome[0] == 0
    if ok:
        text = outcome[1]
        ok = (text.count("hypergraph v1\n") == classes
              and text.count(f"universe: {st['universe']}\n") == classes)
    return [not ok], []


WORKLOADS = {
    "sweep": (sweep_setup, sweep_op, sweep_check),
    "scan": (scan_setup, scan_op, scan_check),
    "factorize": (factorize_setup, cli_op, factorize_check),
    "enumerate": (enumerate_setup, cli_op, enumerate_check),
}


def speedup_probe(H, workers: int) -> dict:
    """Raw wall time of factor_search(bip, 2, 6); no reference clock, whose
    samples would compete with the worker threads."""
    _, bip = H.load_property(os.path.join(DATA, "bip.prop"))
    t = time.perf_counter()
    found = H.factor_search(bip, 2, 6, workers=workers)
    return {"seconds": time.perf_counter() - t, "report": repr(found)}


def main(spec: dict) -> dict:
    spawned = spec["spawned"] + time.perf_counter() - time.monotonic()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hgfactor", "__init__.py")):
        raise SystemExit(f"no hgfactor package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import hgfactor as H
    import hgfactor.cli  # noqa: F401  (bound before tracing patches it)
    import oracle
    import refclock
    import spans

    if not os.path.abspath(H.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported hgfactor from {H.__file__}, not {src}")
    if spec.get("probe") == "speedup":
        return speedup_probe(H, spec["workers"])
    setup, op, check = WORKLOADS[spec["workload"]]
    tracer = spans.Tracer() if spec.get("spans") else None
    scope = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = refclock.RefClock(lambda: scope("bench.calibrate"))
    clock.start()
    if tracer:
        tracer.install()
    rng = random.Random(f"{spec['workload']}:{spec['seed']}:{spec['round']}:"
                        f"{spec.get('command', '')}")
    with scope("bench.setup"):
        st = setup(H, spec, rng)
    setup_s, _ = clock.elapsed((spawned, 0.0), clock.mark())
    record = {"setup_s": setup_s}
    if spec.get("setup_only"):
        clock.stop()
        return record
    samples, outcomes = [], []
    per_item = st.get("ops_per_item", 1)
    with scope("bench.ops"):
        for item in st["items"]:
            start = clock.mark()
            try:
                outcome = op(H, st, item)
            except Exception as exc:  # counted as a failed op
                outcome = exc
            ref, raw = clock.elapsed(start, clock.mark())
            samples.append([ref, raw, per_item])
            outcomes.append(outcome)
    clock.stop()
    if tracer:
        tracer.write(spec["spans"])
    fails, errors = check(oracle, st, outcomes)
    record.update(
        samples=samples,
        failed=per_item * sum(fails),
        errors=errors,
        loop_s=clock.loop_time(float("-inf"), float("inf")),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
