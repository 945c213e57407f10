"""Run reports: one per CLI subcommand, plus the MIS scaling series.

Each run re-verifies every contract with the scanning oracles and
returns a versioned report, which write_json saves.

Every certificate in a report is recomputed from the raw outputs by the
verify module; internal per-round diagnostics are carried separately
under "rounds"/"iterations" and never stand in for a certificate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Any

import numpy as np

from . import verify
from .coloring import color_delta_squared, defective_coloring
from .generate import gnm_graph
from .graph import Graph
from .hitting import BipartiteInstance, ParamSet, hitting_set
from .matching import maximal_matching
from .mis import luby_mis_baseline, maximal_independent_set
from .rounding import max_cut_half
from .workcount import WorkCounter

REPORT_VERSION = "v2"


def _graph_input(g: Graph) -> dict:
    return {"nodes": int(g.n), "edges": int(g.m), "weighted": g.weights is not None}


def _report_shell(algorithm: str, inputs: dict, params: ParamSet) -> dict:
    return {
        "version": REPORT_VERSION,
        "algorithm": algorithm,
        "input": inputs,
        "params": dataclasses.asdict(params),
        "certificates": [],
        "oracles": {},
        "work": {},
        "work_total": 0,
        "wall_time": 0.0,
        "ok": False,
    }


def _cert(name: str, value: float, bound: float, ok: bool, sense: str) -> dict:
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "sense": sense,  # "<=" or ">="
        "slack": float(bound - value) if sense == "<=" else float(value - bound),
        "ok": bool(ok),
    }


def _finish(report: dict, work: WorkCounter, t0: float) -> dict:
    report["work"] = work.snapshot()
    report["work_total"] = work.total
    report["wall_time"] = time.perf_counter() - t0
    report["ok"] = all(c["ok"] for c in report["certificates"]) and all(
        v.get("ok", True) for v in report["oracles"].values()
    )
    return report


def run_color(g: Graph, params: ParamSet) -> dict:
    rep = _report_shell("color", _graph_input(g), params)
    work = WorkCounter()
    t0 = time.perf_counter()
    col = color_delta_squared(g, work=work)
    ok, d = verify.check_proper_coloring(g, col.colors)
    rep["oracles"]["proper"] = {"ok": ok, **d}
    rep["certificates"].append(_cert("monochromatic_edges", d["monochromatic_edges"], 0, ok, "<="))
    rep["palette"] = d["palette"]
    rep["point_steps"] = col.point_steps
    rep["rounds"] = col.rounds
    rep["discarded_rounds"] = col.discarded_rounds
    rep["colors"] = col.colors.tolist() if g.n <= 4096 else None
    return _finish(rep, work, t0)


def run_defective(g: Graph, eps: float, params: ParamSet) -> dict:
    rep = _report_shell("defective", _graph_input(g), params)
    rep["eps"] = eps
    work = WorkCounter()
    t0 = time.perf_counter()
    col = defective_coloring(g, eps, work=work)
    cap = 3 * math.ceil(1.0 / eps)
    ok, d = verify.check_defect_bound(g, col.colors, eps, palette_cap=cap)
    rep["oracles"]["defect"] = {"ok": ok, **d}
    rep["certificates"].append(
        _cert("monochromatic_weight", d["mono_weight"], d["bound"], d["mono_weight"] <= d["bound"] + 1e-9 * max(d["total_weight"], 1.0), "<=")
    )
    rep["certificates"].append(_cert("palette", d["palette"], cap, d["palette"] <= cap, "<="))
    rep["phase1_rounds"] = col.phase1_rounds
    rep["point_steps"] = col.point_steps
    rep["steps"] = col.steps
    return _finish(rep, work, t0)


def run_maxcut(g: Graph, eps: float, params: ParamSet) -> dict:
    rep = _report_shell("maxcut", _graph_input(g), params)
    rep["eps"] = eps
    work = WorkCounter()
    t0 = time.perf_counter()
    cut = max_cut_half(g, eps, work=work)
    ok, d = verify.check_cut_bound(g, cut.side, eps)
    rep["oracles"]["cut"] = {"ok": ok, **d}
    rep["certificates"].append(_cert("cut_weight", d["cut_weight"], d["bound"], ok, ">="))
    rep["num_classes"] = cut.num_classes
    rep["sweep_steps"] = cut.sweep_steps
    return _finish(rep, work, t0)


def run_hitting(inst: BipartiteInstance, params: ParamSet, window_share: float) -> dict:
    inputs = {"left": int(inst.n_left), "right": int(inst.n_right), "edges": len(inst.edge_u)}
    rep = _report_shell("hitting-set", inputs, params)
    work = WorkCounter()
    t0 = time.perf_counter()
    res = hitting_set(inst, params, work=work)
    ok, d = verify.check_hitting_window(
        inst.imp, inst.levels, inst.edge_u, inst.edge_v, res.selected, floor=params.high_floor_hitting
    )
    rep["oracles"]["window"] = {"ok": ok, **d}
    rep["certificates"].append(
        _cert("window_importance_fraction", d["window_importance_fraction"], window_share,
              d["window_importance_fraction"] >= window_share, ">=")
    )
    rep["certificates"].append(
        _cert(
            "hit_constant",
            d["hit_constant"],
            d["hit_constant_bound"],
            d["hit_constant"] <= d["hit_constant_bound"],
            "<=",
        )
    )
    rep["rounds"] = res.rounds
    rep["selected"] = int(res.selected.sum())
    return _finish(rep, work, t0)


def run_matching(g: Graph, params: ParamSet) -> dict:
    rep = _report_shell("matching", _graph_input(g), params)
    work = WorkCounter()
    t0 = time.perf_counter()
    res = maximal_matching(g, params, work=work)
    ok, d = verify.check_maximal_matching(g, res.match_with)
    rep["oracles"]["maximal_matching"] = {"ok": ok, **d}
    rep["certificates"].append(_cert("free_edges", d.get("free_edges", 0), 0, ok, "<="))
    rep["iterations"] = res.iterations
    rep["matched_pairs"] = int(len(res.matched_edges))
    return _finish(rep, work, t0)


def _mis_report(algorithm: str, g: Graph, params: ParamSet, solve, **fields) -> dict:
    """The report of an MIS run: solve(work) returns its MisResult, and
    fields go in right after the report shell's keys."""
    rep = _report_shell(algorithm, _graph_input(g), params)
    rep.update(fields)
    work = WorkCounter()
    t0 = time.perf_counter()
    res = solve(work)
    ok, d = verify.check_maximal_independent(g, res.in_set)
    rep["oracles"]["maximal_independent"] = {"ok": ok, **d}
    rep["certificates"].append(_cert("conflict_edges", d["conflict_edges"], 0, d["conflict_edges"] == 0, "<="))
    rep["certificates"].append(_cert("uncovered_nodes", d["uncovered_nodes"], 0, d["uncovered_nodes"] == 0, "<="))
    rep["iterations"] = res.iterations
    rep["set_size"] = int(res.in_set.sum())
    return _finish(rep, work, t0)


def run_mis(g: Graph, params: ParamSet) -> dict:
    return _mis_report("mis", g, params, lambda work: maximal_independent_set(g, params, work=work))


def run_luby(g: Graph, params: ParamSet, seed: int = 0) -> dict:
    return _mis_report("luby", g, params, lambda work: luby_mis_baseline(g, seed, work=work), seed=seed)


def scaling_series(
    exponents: list[int], deg_factor: int = 8, params: ParamSet | None = None
) -> list[dict]:
    """Work-per-size rows for the deterministic MIS and the Luby baseline
    on a doubling gnm family with m = deg_factor * n (graph seed 1 + e and
    Luby seed 2 + e at n = 2^e)."""
    params = params or ParamSet.desk()
    rows = []
    for e in exponents:
        n = 1 << e
        g = gnm_graph(n, deg_factor * n, seed=1 + e)
        det = run_mis(g, params)
        lub = run_luby(g, params, seed=2 + e)
        rows.append(
            {
                "n": n,
                "m": int(g.m),
                "det_work": det["work_total"],
                "det_ratio": det["work_total"] / (g.m + g.n),
                "det_ok": det["ok"],
                "det_wall": det["wall_time"],
                "luby_work": lub["work_total"],
                "luby_ratio": lub["work_total"] / (g.m + g.n),
                "luby_ok": lub["ok"],
                "luby_wall": lub["wall_time"],
            }
        )
    return rows


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str, obj: Any) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=_jsonable)
