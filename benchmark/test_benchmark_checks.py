"""The benchmark's checks accept real outputs and reject corrupted ones; its
tracer restores the program and nests spans; and the runner refuses to
run without the program's sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dpar  # noqa: E402
from checks import check_core, check_hitting, check_matching, check_mis  # noqa: E402
from tracing import TRACE_POINTS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CORE_FLOOR,
    PARAMS,
    core_arrays,
    hitting_arrays,
    make_core_instance,
    make_hitting_instance,
    random_edges,
)


def _graph(seed, n=60, m=400):
    edges = random_edges(np.random.default_rng(seed), n, m)
    return n, edges, dpar.sort_edges_to_csr(edges, n)


def test_random_edges_are_distinct_pairs_and_repeat_per_seed():
    n, edges, _ = _graph(3)
    assert edges.shape == (400, 2)
    assert np.all(edges[:, 0] < edges[:, 1]) and edges.min() >= 0 and edges.max() < n
    assert len(np.unique(edges[:, 0] * n + edges[:, 1])) == 400
    assert np.array_equal(edges, _graph(3)[1])
    full = random_edges(np.random.default_rng(0), 5, 10)
    assert len(np.unique(full[:, 0] * 5 + full[:, 1])) == 10


def test_mis_check():
    n, edges, g = _graph(1)
    s = dpar.maximal_independent_set(g, PARAMS).in_set
    assert check_mis(n, edges, s) == []
    v = int(np.flatnonzero(s)[0])
    dropped = s.copy()
    dropped[v] = False  # v's neighbors are all outside, so v is undominated
    assert any("no neighbor" in e for e in check_mis(n, edges, dropped))
    nbr = edges[edges[:, 0] == v, 1]
    nbr = nbr if len(nbr) else edges[edges[:, 1] == v, 0]
    added = s.copy()
    added[nbr[0]] = True
    assert any("join two set nodes" in e for e in check_mis(n, edges, added))
    assert check_mis(n, edges, s[:-1]) != []


def test_matching_check():
    n, edges, g = _graph(2, m=300)
    mate = dpar.maximal_matching(g, PARAMS).match_with
    assert check_matching(n, edges, mate) == []
    a = int(np.flatnonzero(mate >= 0)[0])
    b = int(mate[a])
    one_sided = mate.copy()
    one_sided[a] = -1
    assert any("point back" in e for e in check_matching(n, edges, one_sided))
    unmatched = mate.copy()
    unmatched[[a, b]] = -1
    assert any("two free endpoints" in e for e in check_matching(n, edges, unmatched))
    itself = mate.copy()
    itself[a] = a
    assert any("itself" in e for e in check_matching(n, edges, itself))
    path = np.array([[0, 1], [1, 2], [2, 3]])
    assert check_matching(4, path, np.array([1, 0, 3, 2])) == []
    errs = check_matching(4, path, np.array([2, -1, 0, -1]))
    assert errs and all("not an edge" in e for e in errs)


def _small_hitting():
    # levels at most K = 11 for size 3000: the high regime alone, floor 4
    a = hitting_arrays(np.random.default_rng(5), watchers=4, candidates=3000, level=8, size_param=3000)
    return a, dpar.hitting_set(make_hitting_instance(a), PARAMS, floor=4)


def test_hitting_check():
    a, res = _small_hitting()
    args = (a.imp, a.levels, a.edge_u, a.edge_v, 4)
    assert check_hitting(*args, res.selected) == []
    everyone = np.ones(len(a.levels), dtype=bool)
    assert any("upper window" in e for e in check_hitting(*args, everyone))
    nobody = np.zeros(len(a.levels), dtype=bool)
    assert any("lower window" in e for e in check_hitting(*args, nobody))


def test_hitting_check_uses_the_declared_constant_not_the_measured_one():
    # one watcher, E ~ 0.98: 1000 hits exceed 4 * 2^4 * (E + 1)
    levels = np.full(1000, 10, dtype=np.int64)
    edge_u = np.zeros(1000, dtype=np.int64)
    edge_v = np.arange(1000, dtype=np.int64)
    errs = check_hitting(np.ones(1), levels, edge_u, edge_v, 4, np.ones(1000, dtype=bool))
    assert any("upper window" in e for e in errs)


def test_core_check():
    a = core_arrays(np.random.default_rng(7))
    res = dpar.core_mis_hitting(make_core_instance(a), PARAMS)
    args = (a.imp, a.levels, a.edge_u, a.edge_v, a.aux_i, a.aux_j, a.aux_w, CORE_FLOOR)
    assert check_core(*args, res.selected, res.u_good) == []
    # the most important watcher marked good after losing its candidates
    u = int(np.argmax(a.imp))
    stripped = res.selected.copy()
    stripped[a.edge_v[a.edge_u == u]] = False
    marked = res.u_good.copy()
    marked[u] = True
    assert any("without a selected" in e for e in check_core(*args, stripped, marked))
    # only the least important watcher keeps a candidate; none marked good
    thin = res.selected.copy()
    thin[a.edge_v[a.edge_u != np.argmin(a.imp)]] = False
    errs = check_core(*args, thin, np.zeros_like(res.u_good))
    assert errs and all("importance share" in e for e in errs)
    # every candidate selected: hits everyone but holds all the aux weight
    errs = check_core(*args, np.ones_like(res.selected), res.u_good)
    assert errs and all("aux weight" in e for e in errs)


def test_tracer_nests_spans_and_restores_the_program():
    a = hitting_arrays(np.random.default_rng(5), watchers=4, candidates=3000, level=8, size_param=3000)
    inst = make_hitting_instance(a)
    originals = {(id(o), attr): getattr(o, attr) for o, attr, _, _ in TRACE_POINTS}
    tracer = Tracer()
    work = dpar.WorkCounter()
    with tracer.active(work):
        res = dpar.hitting_set(inst, PARAMS, floor=4, work=work)
    for o, attr, _, _ in TRACE_POINTS:
        assert getattr(o, attr) is originals[(id(o), attr)]
    top = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in top] == ["hitting.hitting_set"]
    assert top[0].units == work.total and top[0].info["hit_constant"] == res.hit_constant
    by_name = {s.name: s for s in tracer.spans}
    assert tracer.spans[by_name["rounding.local_round"].parent].name == "hitting.run_half"
    totals = tracer.totals(0)
    assert totals["hitting.run_half"]["calls"] >= 1
    for t in totals.values():
        assert 0.0 <= t["self_s"] <= t["s"] + 1e-12 and 0 <= t["self_units"] <= t["units"]


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mis-dense", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
