import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

from dpar.bench import (
    REPORT_VERSION,
    run_color,
    run_defective,
    run_hitting,
    run_luby,
    run_matching,
    run_maxcut,
    run_mis,
    scaling_series,
)
from dpar.cli import _load_params, main
from dpar.coloring import defective_coloring
from dpar.generate import (
    complete_graph,
    generate_graph,
    gnm_graph,
    grid_graph,
    powerlaw_graph,
    star_graph,
)
from dpar.graph import read_edgelist, sort_edges_to_csr, write_csr
from dpar.hitting import BipartiteInstance, ParamSet, hitting_set
from dpar.matching import maximal_matching
from dpar.mis import MisAuxInstance, core_mis_hitting, maximal_independent_set
from dpar.verify import (
    check_defect_bound,
    check_hitting_window,
    check_maximal_independent,
    check_matching,
    check_maximal_matching,
    cut_weight,
)

# --- generators ------------------------------------------------------------------


def test_gnm_exact_edges_and_seeded():
    g = gnm_graph(100, 500, seed=4)
    assert g.n == 100 and g.m == 500
    h = gnm_graph(100, 500, seed=4)
    assert np.array_equal(g.offsets, h.offsets) and np.array_equal(g.nbrs, h.nbrs)
    assert g.m != gnm_graph(100, 500, seed=5).m or not np.array_equal(
        g.nbrs, gnm_graph(100, 500, seed=5).nbrs
    )


def test_gnm_dense_and_infeasible():
    g = gnm_graph(20, 180, seed=1)  # over half of the 190 possible edges
    assert g.m == 180
    with pytest.raises(ValueError):
        gnm_graph(10, 46, seed=1)


def test_fixed_families():
    assert complete_graph(6).m == 15
    assert star_graph(9).m == 8
    assert grid_graph(3, 4).m == 17
    g = powerlaw_graph(200, 800, seed=2)
    assert g.m == 800
    assert generate_graph("grid", rows=2, cols=2).n == 4
    with pytest.raises(ValueError):
        generate_graph("nosuch", n=3)


# --- oracles reject corrupted outputs ----------------------------------------------


def test_oracles_catch_bad_outputs():
    g = complete_graph(4)
    two = np.array([True, True, False, False])
    ok, d = check_maximal_independent(g, two)
    assert not ok and d["conflict_edges"] == 1
    none = np.zeros(4, dtype=bool)
    ok, d = check_maximal_independent(g, none)
    assert not ok and d["uncovered_nodes"] == 4

    mw = np.array([1, 0, -1, -1])  # leaves edge (2,3) free
    ok, d = check_maximal_matching(g, mw)
    assert not ok and d["free_edges"] > 0
    asym = np.array([1, 2, 1, -1])
    assert not check_maximal_matching(g, asym)[0]
    path = sort_edges_to_csr([(0, 1), (1, 2), (2, 3)], 4)
    ok, d = check_matching(path, np.array([3, -1, -1, 0]))  # symmetric, but 0-3 is no edge
    assert not ok and d["pairs_are_edges"] is False

    colors = np.zeros(4, dtype=np.int64)  # K4 all one color: every edge is bad
    ok, d = check_defect_bound(g, colors, eps=0.1, palette_cap=30)
    assert not ok and d["mono_weight"] == 6.0

    assert cut_weight(g, np.array([True, True, False, False])) == (4.0, 6.0)


def test_hitting_window_oracle():
    imp = np.ones(3)
    levels = np.zeros(6, dtype=np.int64)
    eu = np.repeat(np.arange(3), 2)
    ev = np.arange(6)
    ok, d = check_hitting_window(imp, levels, eu, ev, np.ones(6, dtype=bool))
    assert ok and d["window_importance_fraction"] == 1.0
    ok, d = check_hitting_window(imp, levels, eu, ev, np.zeros(6, dtype=bool))
    assert not ok and d["window_importance_fraction"] == 0.0


def test_hitting_window_upper_side_uses_the_declared_constant():
    # one watcher, 1000 selected level-10 candidates: E = 1000/1024, 1000 hits
    levels = np.full(1000, 10, dtype=np.int64)
    eu, ev = np.zeros(1000, dtype=np.int64), np.arange(1000)
    selected = np.ones(1000, dtype=bool)
    ok, d = check_hitting_window(np.ones(1), levels, eu, ev, selected)
    assert not ok and d["window_importance_fraction"] == 0.0
    assert d["hit_constant_bound"] == 4.0 * 2**4
    assert d["hit_constant"] == pytest.approx(1000 / (1000 / 1024 + 1))
    # sampling that stops at level 10 may keep every candidate
    assert check_hitting_window(np.ones(1), levels, eu, ev, selected, floor=10)[0]


def test_hitting_report_certifies_the_declared_hit_bound():
    inst = BipartiteInstance(
        imp=np.ones(2),
        levels=np.full(400, 6, dtype=np.int64),
        edge_u=np.repeat(np.arange(2), 200),
        edge_v=np.arange(400),
        size_param=1 << 16,
    )
    rep = run_hitting(inst, ParamSet.desk())
    cert = {c["name"]: c for c in rep["certificates"]}["hit_constant"]
    assert rep["ok"] and cert["ok"]
    assert cert["bound"] == rep["oracles"]["window"]["hit_constant_bound"] == 4.0 * 2**4


# --- report schema -----------------------------------------------------------------


REPORT_BUILDERS = {
    "color": run_color,
    "defective": lambda g, params: run_defective(g, 0.25, params),
    "maxcut": lambda g, params: run_maxcut(g, 0.25, params),
    "matching": run_matching,
    "mis": run_mis,
    "luby": lambda g, params: run_luby(g, params, seed=3),
}


@pytest.mark.parametrize("algorithm", list(REPORT_BUILDERS))
def test_report_schema(algorithm):
    g = gnm_graph(200, 900, seed=6)
    rep = REPORT_BUILDERS[algorithm](g, ParamSet.desk())
    assert rep["version"] == REPORT_VERSION
    assert rep["algorithm"] == algorithm
    assert rep["input"] == {"nodes": 200, "edges": 900, "weighted": False}
    assert rep["ok"] is True
    assert rep["work_total"] > 0 and rep["wall_time"] >= 0
    for cert in rep["certificates"]:
        assert {"name", "value", "bound", "sense", "slack", "ok"} <= set(cert)
        assert cert["ok"]
    assert all(rep["oracles"].values())
    json.dumps(rep, default=str)  # report must be serializable


def test_scaling_series_shape():
    rows = scaling_series([7, 8], deg_factor=4)
    assert [r["n"] for r in rows] == [128, 256]
    for r in rows:
        assert r["det_ok"] and r["luby_ok"]
        assert r["det_ratio"] > 0 and r["luby_ratio"] > 0


# --- command line -------------------------------------------------------------------


def edgelist_file(tmp_path, g, name="g.txt"):
    owners = g.slot_owners()
    fwd = owners < g.nbrs
    path = tmp_path / name
    with open(path, "w") as f:
        for u, v in zip(owners[fwd], g.nbrs[fwd]):
            f.write(f"{u} {v}\n")
    return str(path)


@pytest.mark.parametrize("argv_tail", [[], ["--mode", "paper"]])
def test_cli_mis_runs(tmp_path, argv_tail):
    path = edgelist_file(tmp_path, gnm_graph(120, 480, seed=8))
    rep = tmp_path / "out.json"
    rc = main(["mis", "--input", path, "--report", str(rep)] + argv_tail)
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["algorithm"] == "mis" and data["ok"]


def test_cli_csr_roundtrip(tmp_path):
    g = gnm_graph(60, 200, seed=9)
    path = tmp_path / "g.csr"
    write_csr(str(path), g)
    assert main(["matching", "--input", str(path), "--format", "csr"]) == 0


def test_cli_defective_and_maxcut(tmp_path):
    path = edgelist_file(tmp_path, gnm_graph(80, 320, seed=10))
    assert main(["defective", "--input", path, "--eps", "0.5"]) == 0
    assert main(["maxcut", "--input", path, "--eps", "0.1"]) == 0


def test_cli_defective_reports_phase1_rounds_and_steps(tmp_path):
    # 2 000 nodes exceed the phase-1 field at eps 0.25 (p < 400), so
    # phase 1 runs at least one round
    path = edgelist_file(tmp_path, gnm_graph(2000, 8000, seed=10))
    rep = tmp_path / "out.json"
    assert main(["defective", "--input", path, "--eps", "0.25", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    edges, weights, n = read_edgelist(path)
    col = defective_coloring(sort_edges_to_csr(edges, n, weights=weights), 0.25)
    assert data["phase1_rounds"] == col.phase1_rounds >= 1
    assert data["steps"] == col.steps >= 1


def test_cli_rejects_unknown_param_override(tmp_path):
    path = edgelist_file(tmp_path, complete_graph(6))
    pfile = tmp_path / "p.json"
    # drift_exp is a module constant, not a ParamSet field
    for key, value in (("nonsense_knob", 3), ("drift_exp", 0.5)):
        pfile.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit, match=f"unknown parameter: {key}"):
            main(["mis", "--input", path, "--params", str(pfile)])


def test_cli_applies_param_overrides(tmp_path):
    path = edgelist_file(tmp_path, complete_graph(6))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"outdeg_cap": 8}))
    assert main(["mis", "--input", path, "--params", str(pfile)]) == 0

    pfile.write_text(json.dumps({"outdeg_cap": 6.0, "gamma_high": 1, "k_factor": 2}))
    params = _load_params(argparse.Namespace(mode="desk", params=str(pfile)))
    assert params == replace(ParamSet.desk(), outdeg_cap=6, gamma_high=1.0, k_factor=2.0)
    assert type(params.outdeg_cap) is int and type(params.gamma_high) is float

    pfile.write_text(json.dumps({"outdeg_cap": 6.5}))
    with pytest.raises(SystemExit):
        main(["mis", "--input", path, "--params", str(pfile)])


@pytest.mark.parametrize("weight", ["nan", "-1", "inf"])
def test_cli_rejects_bad_edge_weights(tmp_path, weight):
    # a NaN weight used to print a cut of nan, a negative one to certify a negative bound
    path = tmp_path / "w.txt"
    path.write_text(f"0 1 {weight}\n")
    with pytest.raises(ValueError, match="edge weights must be finite and nonnegative"):
        main(["maxcut", "--input", str(path)])


def test_entry_points_reject_threads_other_than_one(tmp_path):
    g = complete_graph(4)
    hit = dict(imp=np.ones(1), levels=np.zeros(1, dtype=np.int64), edge_u=[0], edge_v=[0], size_param=4)
    calls = [
        lambda t: maximal_independent_set(g, threads=t),
        lambda t: maximal_matching(g, threads=t),
        lambda t: hitting_set(BipartiteInstance(**hit), threads=t),
        lambda t: core_mis_hitting(
            MisAuxInstance(**hit, aux_i=[], aux_j=[], aux_w=[], vert_w=[0.0]), threads=t
        ),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="dpar runs sequentially; threads must be 1"):
            call(2)
    with pytest.raises(SystemExit):
        main(["mis", "--input", edgelist_file(tmp_path, g), "--threads", "2"])
