"""Benchmark of the derandomized core: one command for every workload.

    python3 benchmark/run.py --workload mis-dense --seed 1 --seconds 24 --trace 0

Run from the repository root. The run builds its inputs from --seed,
makes one untimed warm-up call, then repeats the workload's public call
for --seconds seconds in this process and checks every output against
recomputed checks (checks.py). The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s and solve_s (medians),
work_units (WorkCounter total of one call) and peak_rss_mb; between calls
it rebuilds the inputs until set-up has taken SETUP_SHARE of the time
spent so far, so the set-up samples spread over the whole run. --trace 1
alternates untraced and traced calls and reports the per-layer metrics
(README.md lists them); its spans go to benchmark/out/ once, at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_SHARE = 0.1  # share of a --trace 0 run spent rebuilding the inputs
MIN_CALLS = 3  # timed calls per run, however short --seconds is


def layer_metrics(totals: dict, phases: dict, result, workload: str) -> dict[str, float]:
    """The per-layer metrics of one traced call (names as in BENCHMARK.json)."""

    def get(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0)

    iters = result.iterations if workload == "matching-sparse" else []
    return {
        "graph.compact_s": get("graph.compact_subgraph", "s"),
        "graph.compact_calls": get("graph.compact_subgraph", "calls"),
        "graph.slots_to_csr_s": get("graph.graph_from_directed_slots", "s"),
        "graph.edges_to_csr_s": get("graph.sort_edges_to_csr", "s"),
        "ntheory.tables_s": get("ntheory.precompute_tables", "s"),
        "ntheory.tables_calls": get("ntheory.precompute_tables", "calls"),
        "ntheory.sqrt_tables_s": get("ntheory.sqrt_table", "s"),
        "ntheory.sqrt_tables_units": get("ntheory.sqrt_table", "units"),
        "coloring.proper_s": get("coloring.color_delta_squared", "s"),
        "coloring.proper_calls": get("coloring.color_delta_squared", "calls"),
        "coloring.recolor_units": get("coloring.color_delta_squared", "units"),
        "coloring.defective_s": get("coloring.defective_coloring", "s"),
        "coloring.defective_calls": get("coloring.defective_coloring", "calls"),
        "coloring.defective_units": get("coloring.defective_coloring", "units"),
        "rounding.local_round_s": get("rounding.local_round", "self_s"),
        "rounding.local_round_calls": get("rounding.local_round", "calls"),
        "rounding.cost_pairs": get("rounding.local_round", "cost_pairs"),
        "rounding.classes": get("rounding.local_round", "classes"),
        "rounding.local_round_units": get("rounding.local_round", "self_units"),
        "hitting.hitting_set_s": get("hitting.hitting_set", "s"),
        "hitting.run_half_s": get("hitting.run_half", "self_s"),
        "hitting.halvings": get("hitting.run_half", "calls"),
        "hitting.halvings_skipped": phases.get("high_regime_skip", 0) + phases.get("mis_high_skip", 0),
        "hitting.half_sample_units": get("hitting.run_half", "self_units"),
        "hitting.hit_constant": get("hitting.hitting_set", "hit_constant"),
        "mis.instance_check_s": get("mis.MisAuxInstance.check", "s"),
        "mis.instance_builds": get("mis.MisAuxInstance.check", "calls"),
        "mis.edge_buckets_s": get("mis.edge_buckets", "s"),
        "mis.core_s": get("mis.core_mis_hitting", "s"),
        "mis.sweeps": get("mis.independentish_set", "calls"),
        "matching.sweeps": len(iters),
        "matching.conflict_pairs": phases.get("match_conflicts", 0),
        "matching.incident_edges": sum(it["incident_edges"] for it in iters),
        "matching.selected_edges": sum(it["selected_edges"] for it in iters),
    }


class Runner:
    """Attempts calls of one workload and keeps what the result line needs."""

    def __init__(self, wl, inputs, new_work) -> None:
        self.wl = wl
        self.inputs = inputs
        self.new_work = new_work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: tuple[bytes, int] | None = None

    def attempt(self, timed: list[float] | None, tracer=None):
        """One checked call; returns (result or None when it raised, work)."""
        self.attempted += 1
        work = self.new_work()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.solve(self.inputs, work)
            else:
                with tracer.active(work):
                    result = self.wl.solve(self.inputs, work)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.failed += 1
            print(f"call {self.attempted} failed: {exc!r}", file=sys.stderr)
            return None, work
        if timed is not None:
            timed.append(time.perf_counter() - t0)
        self.errors += self.wl.check(self.inputs, result)
        seen = (self.wl.fingerprint(result), work.total)
        if self.reference is None:
            self.reference = seen
        elif seen[0] != self.reference[0]:
            self.errors.append("output differs from the first call on the same input")
        elif seen[1] != self.reference[1]:
            self.errors.append("work units differ from the first call on the same input")
        return result, work


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dpar" / "__init__.py").is_file():
        print(f"benchmark: program sources not found at {src / 'dpar'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dpar
    import workloads

    if Path(dpar.__file__).resolve().parent != (src / "dpar").resolve():
        print(f"benchmark: dpar was imported from {dpar.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end" if args.trace == 0 else "per_layer"]

    setup_times: list[float] = []

    def build():
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    inputs = build()
    run = Runner(wl, inputs, dpar.WorkCounter)
    run.attempt(None)  # warm-up
    start = time.perf_counter()
    deadline = start + args.seconds

    if args.trace == 0:
        times: list[float] = []
        works: list[int] = []
        while time.perf_counter() < deadline or (len(times) < MIN_CALLS and not run.failed):
            result, work = run.attempt(times)
            if result is not None:
                works.append(work.total)
            while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                build()
        values = {
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(times) if times else 0.0,
            "work_units": statistics.median(works) if works else 0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        trace_doc = None
    else:
        from tracing import Tracer

        tracer = Tracer()
        plain: list[float] = []
        traced: list[float] = []
        per_call: list[dict] = []
        phases: list[dict] = []
        while time.perf_counter() < deadline or (len(traced) < MIN_CALLS and not run.failed):
            run.attempt(plain)
            result, work = run.attempt(traced, tracer)
            if result is None:
                continue
            t0 = time.perf_counter()
            wl.oracle(inputs, result)
            oracle_s = time.perf_counter() - t0
            snap = work.snapshot()
            m = layer_metrics(tracer.totals(tracer.call), snap, result, wl.name)
            m["verify.oracle_s"] = oracle_s
            per_call.append(m)
            phases.append(snap)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if traced and plain else 0.0
        values = {name: statistics.median(c[name] for c in per_call) for name in per_call[0]} if per_call else {}
        values["trace.overhead"] = overhead
        trace_doc = {
            "workload": wl.name,
            "seed": args.seed,
            "untraced_solve_s": plain,
            "traced_solve_s": traced,
            "overhead": overhead,
            "per_call_metrics": per_call,
            "work_phases": phases,
            "span_fields": ["name", "call", "parent", "start", "end", "work_start", "work_end", "info"],
            "spans": tracer.dump(),
        }

    for err in dict.fromkeys(run.errors):
        print(f"check failed: {err}", file=sys.stderr)
    result_line = {
        "correct": not run.errors and run.attempted > run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if trace_doc is not None:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(trace_doc))
    line = json.dumps(result_line)
    (OUT_DIR / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
