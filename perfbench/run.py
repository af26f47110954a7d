"""hgfactor benchmark: four workloads, end-to-end metrics from untraced
runs, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload all`` runs the four workloads one after another.

Workloads (one op each):

- sweep: connected simple graphs up to 6 vertices plus the two-edge
  matching, in seeded order; one op decides membership in
  edgeless*edgeless and, for members, unique decomposability (bounded,
  k_max=1).  Exercises props.partition_solve and the bounded join.
- scan: a seeded sample of 2-part partitions of the 16-vertex aligned
  supergraph of the two-edge matching (triangle-free), class extension
  always included; one op is an exact is_decomposition.  Exercises
  core.embed_induced on a 16-vertex host.
- factorize: ``hgfactor factorize`` through hgfactor.cli.run on a seeded
  order of bip@6, directed edgeless*edgeless@4 and trifree@6; one op is
  one command.
- enumerate: ``hgfactor enumerate`` for digraphs up to 5 vertices and
  3-uniform hypergraphs up to 6; one op is one isomorphism class emitted.

Every job runs in a fresh process, so hgfactor's caches start cold the way
they do for a new command or sweep script, and fill during the job.  A run
repeats whole rounds of jobs until --seconds have passed, one process at a
time; each round draws its own seeded inputs.  setup_s is the median, over
every job of the run plus set-up-only probes, of the time from spawning
the process to having inputs ready.  Jobs run with PYTHONHASHSEED=0: the
hash seed alone moves enumeration time by a fifth.

Times are reference seconds (refclock.py): wall time scaled by a
calibration loop sampled every quarter second in the same process,
because the host's CPU speed swings by up to 1.8x for seconds at a time.
The summary line also gives the raw wall-clock throughput.

With --trace 1 the run makes one untraced round and two traced rounds of
the same seed: the first traced round gives the per-layer metrics, the
second must reproduce its machine-independent counts exactly, and the
untraced round gives the tracing overhead.  Spans are written under
``.perfbench-out/spans/<workload>/``.

Every op is checked against answers the benchmark knows independently
(job.py, oracle.py).  failed_ratio (failed / attempted) is printed with
the metrics and carried by the result's "attempted" and "failed" keys; it
is not a bounded metric because it is 0 whenever the program is correct.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import job  # noqa: E402  (no hgfactor import at module level)
import refclock  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("sweep", "scan", "factorize", "enumerate")

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = spans.SPAN_METRICS + (
    ("factor.factor_search.speedup_w2", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.counts_repeat", "bool", "higher"),
    ("trace.layer_check", "bool", "higher"),
)
# setup_s samples per run: every job contributes one, probes make up the rest
MIN_SETUP_SAMPLES = 5
# every process must end before this many seconds into the run
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def spawn(self, spec: dict) -> dict:
        """Run one job process to completion and return its record."""
        spec = dict(spec, workload=self.workload, seed=self.seed)
        env = {k: v for k, v in os.environ.items() if k != "HGFACTOR_CONFIG"}
        env["PYTHONHASHSEED"] = "0"
        left = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run deadline passed")
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=left, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"job {spec} did not finish before the run deadline")
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"job {spec} exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def round(self, round_no: int) -> list:
        return [self.spawn(dict(spec, round=round_no))
                for spec in job.plan(self.workload, self.seed, round_no)]

    def setup_probes(self, records: list, first_round: int) -> list:
        samples = [r["setup_s"] for r in records]
        r = first_round
        while len(samples) < MIN_SETUP_SAMPLES:
            for spec in job.plan(self.workload, self.seed, r):
                samples.append(self.spawn(dict(spec, round=r, setup_only=True))["setup_s"])
            r += 1
        return samples


def _latencies(records) -> list:
    """Reference seconds per op; an item of several ops charges each its
    share."""
    out = []
    for r in records:
        for ref, _, count in r["samples"]:
            out.extend([ref / count] * count)
    return out


def _ops_per_s(records, column=0) -> float:
    """Ops per reference second (column 0) or per raw wall second (1)."""
    ops = sum(s[2] for r in records for s in r["samples"])
    return ops / sum(s[column] for r in records for s in r["samples"])


def _tally(records) -> tuple:
    attempted = sum(s[2] for r in records for s in r["samples"])
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]]
    return attempted, failed, errors


def measure(workload: str, seed: int, seconds: int) -> tuple:
    """End-to-end metrics from untraced rounds lasting at least `seconds`."""
    runner = Runner(workload, seed)
    records = []
    round_no = 0
    while round_no == 0 or time.monotonic() - runner.started < seconds:
        records.extend(runner.round(round_no))
        round_no += 1
    setup = runner.setup_probes(records, round_no)
    lat = _latencies(records)
    metrics = {
        "ops_per_s": _ops_per_s(records),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    summary = (f"{round_no} rounds, {len(lat)} ops, raw wall "
               f"{_ops_per_s(records, 1):.6g} ops/s")
    return metrics, _tally(records), summary, []


def _speedup_w2(runner: Runner) -> tuple:
    """factor_search(bip, 2, 6) time at 1 worker over time at 2, median
    of two cold processes each, and whether both reports agree."""
    times = {1: [], 2: []}
    reports = set()
    for workers in (1, 2, 2, 1):
        rec = runner.spawn({"round": 0, "probe": "speedup", "workers": workers})
        times[workers].append(rec["seconds"])
        reports.add(rec["report"])
    return statistics.median(times[1]) / statistics.median(times[2]), len(reports) == 1


def _layer_check(workload: str, m: dict) -> list:
    """Expectations of the workload design; returns the ones that fail."""
    def incl(name):
        return m.get(f"incl_share.{name}", 0.0)

    def self_share(name):
        return m.get(f"self_share.{name}", 0.0)

    rules = {
        "sweep": [
            ("partition_solve holds most of the time",
             incl("props.partition_solve") > 0.5),
            ("bounded join is used", m["decomp.join_subset_of.bounded.calls"] > 0),
            ("no exact join", m["decomp.join_subset_of.exact.calls"] == 0),
        ],
        "scan": [
            ("embed_induced holds most of the time",
             self_share("core.embed_induced") > 0.5),
            ("no partition_solve", m["props.partition_solve.calls"] == 0),
            ("no enumeration", m["generate.enumerate_hypergraphs.classes"] == 0),
        ],
        "factorize": [
            ("one cli.run per command", m["cli.run.calls"] == len(job.FACTORIZE)),
            ("factor layer is used", m["factor.verify_factorisation.calls"] > 0),
        ],
        "enumerate": [
            ("generate and canonical_key hold most of the time",
             m["share.generate"] + self_share("core.canonical_key") > 0.5),
            ("no embed_induced", m["core.embed_induced.calls"] == 0),
            ("no partition_solve", m["props.partition_solve.calls"] == 0),
            ("no join", m["decomp.join_subset_of.exact.calls"]
             + m["decomp.join_subset_of.bounded.calls"] == 0),
        ],
    }
    return [text for text, ok in rules[workload] if not ok]


def trace(workload: str, seed: int) -> tuple:
    """Per-layer metrics: one untraced round, two traced rounds."""
    runner = Runner(workload, seed)
    out_dir = os.path.join(ROOT, ".perfbench-out", "spans", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    untraced = runner.round(0)
    plan = job.plan(workload, seed, 0)
    passes, traced = [], []
    for p in (1, 2):
        paths = [os.path.join(out_dir, f"pass{p}-job{j}.tsv") for j in range(len(plan))]
        recs = [runner.spawn(dict(spec, round=0, spans=path))
                for spec, path in zip(plan, paths)]
        traced.extend(recs)
        passes.append(spans.layer_metrics(
            [(spans.read_spans(path), refclock.REF_S / rec["loop_s"])
             for path, rec in zip(paths, recs)]))
    m = passes[0]
    notes = []
    drift = [k for k in m if k.endswith(spans.COUNT_SUFFIXES) and m[k] != passes[1][k]]
    if drift:
        notes.append("counts differ between two traced rounds of one seed: "
                     + ", ".join(drift))
    missed = _layer_check(workload, m)
    notes.extend(f"layer check failed: {text}" for text in missed)
    speedup, agree = _speedup_w2(runner) if workload == "factorize" else (0.0, True)
    records = untraced + traced
    attempted, failed, errors = _tally(records)
    if not agree:
        errors.append("factor_search reports differ between 1 and 2 workers")
    metrics = {name: m[name] for name, _, _ in spans.SPAN_METRICS}
    metrics.update({
        "factor.factor_search.speedup_w2": speedup,
        "trace.overhead_ratio": _ops_per_s(untraced) / _ops_per_s(traced),
        "trace.counts_repeat": 0 if drift else 1,
        "trace.layer_check": 0 if missed else 1,
    })
    top = sorted(((v, k[len("self_share."):]) for k, v in m.items()
                  if k.startswith("self_share.")), reverse=True)[:6]
    summary = "self-time shares: " + ", ".join(f"{k} {v:.1%}" for v, k in top)
    return metrics, (attempted, failed, errors), summary, notes


def _check_catalogue():
    """The metric names must match BENCHMARK.json, when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if theirs != list(ours):
            raise BenchError(f"{key} in BENCHMARK.json does not match run.py")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hgfactor", "__init__.py")):
        print(f"error: no hgfactor sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        _check_catalogue()
        for w in chosen:
            metrics, (attempted, failed, errors), summary, notes = (
                trace(w, args.seed) if args.trace else measure(w, args.seed, args.seconds))
            print(f"[{w}] {summary}; failed_ratio {failed / attempted:.6f} "
                  f"({failed} of {attempted})")
            for text in errors + notes:
                print(f"[{w}] WARNING: {text}", file=sys.stderr)
            for name, value in metrics.items():
                print(f"[{w}] {name} = {value:.6g} {units[name]}")
                key = name if len(chosen) == 1 else f"{w}.{name}"
                result["metrics"][key] = {"value": value, "unit": units[name]}
            result["correct"] = result["correct"] and failed == 0 and not errors
            result["attempted"] += attempted
            result["failed"] += failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
