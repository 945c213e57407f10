"""The benchmark's workloads: seeded inputs, one operation, output checks.

Every input array is drawn here from the workload seed with numpy; the
program receives only the graphs and instances built from those arrays,
and the checks read the same arrays. Every call passes threads=1 and the
desk parameter set. The program is looked up through the dpar package at
call time, so the traced run can wrap it.

Sizes are chosen so that each workload engages a different part of the
stack (README.md explains the choice and the measured engagement).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import dpar
import dpar.verify
from checks import check_core, check_hitting, check_matching, check_mis

PARAMS = dpar.ParamSet.desk()

# mis-dense: average degree 600 > 512, the lowest degree at which the MIS
# core runs a halving round with the desk parameters.
MIS_N, MIS_M = 1200, 360_000
# matching-sparse: m = 8n.
MATCH_N, MATCH_M = 8192, 8 * 8192
# core-tall, hitting part: every candidate sits at level HIT_LEVEL, above
# K = 13 for the size parameter 2^17, so the low regime runs before the
# high regime halves down to HIT_FLOOR.
HIT_WATCHERS, HIT_CANDIDATES, HIT_LEVEL, HIT_SIZE, HIT_FLOOR = 2, 30_000, 14, 1 << 17, 4
# core-tall, core part: base candidates at level 5 and a thin tall layer at
# level 19, above K = 18 for the size parameter 2^64, so both regimes run.
# One low round only: from the second on, whether a single aux edge
# survives decides the rounding eps and so the prime-table size, which
# made the work of a call swing by half between seeds.
CORE_WATCHERS, CORE_BASE, CORE_TALL_COUNT = 16, 1200, 600
CORE_TALL_LEVEL, CORE_TALL_PER_WATCHER = 19, 40
CORE_FLOOR = PARAMS.high_floor_mis  # where the core's high regime stops halving


@dataclass
class Workload:
    name: str
    setup: Callable[[int], Any]  # seed -> inputs
    solve: Callable[[Any, Any], Any]  # (inputs, WorkCounter) -> program result
    check: Callable[[Any, Any], list[str]]  # (inputs, result) -> failures
    fingerprint: Callable[[Any], bytes]  # result -> bytes that must repeat
    oracle: Callable[[Any, Any], Any]  # the program's own verify oracle


def _digest(*arrays: np.ndarray) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def random_edges(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """m distinct undirected pairs of [0, n), drawn uniformly, as (m, 2)."""
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (n - 1) - rows * (rows - 1) // 2  # index of pair (i, i+1)
    codes = rng.choice(n * (n - 1) // 2, size=m, replace=False).astype(np.int64)
    i = np.searchsorted(starts, codes, side="right") - 1
    j = codes - starts[i] + i + 1
    return np.stack([i, j], axis=1)


@dataclass
class GraphInputs:
    n: int
    edges: np.ndarray
    graph: Any


def _graph_setup(n: int, m: int) -> Callable[[int], GraphInputs]:
    def setup(seed: int) -> GraphInputs:
        edges = random_edges(np.random.default_rng(seed), n, m)
        return GraphInputs(n=n, edges=edges, graph=dpar.sort_edges_to_csr(edges, n))

    return setup


MIS_DENSE = Workload(
    name="mis-dense",
    setup=_graph_setup(MIS_N, MIS_M),
    solve=lambda x, work: dpar.maximal_independent_set(x.graph, PARAMS, work=work, threads=1),
    check=lambda x, r: check_mis(x.n, x.edges, r.in_set),
    fingerprint=lambda r: _digest(r.in_set),
    oracle=lambda x, r: dpar.verify.check_maximal_independent(x.graph, r.in_set),
)

MATCHING_SPARSE = Workload(
    name="matching-sparse",
    setup=_graph_setup(MATCH_N, MATCH_M),
    solve=lambda x, work: dpar.maximal_matching(x.graph, PARAMS, work=work, threads=1),
    check=lambda x, r: check_matching(x.n, x.edges, r.match_with),
    fingerprint=lambda r: _digest(r.match_with),
    oracle=lambda x, r: dpar.verify.check_maximal_matching(x.graph, r.match_with),
)


@dataclass
class HittingArrays:
    imp: np.ndarray
    levels: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    size_param: int


@dataclass
class CoreArrays(HittingArrays):
    aux_i: np.ndarray
    aux_j: np.ndarray
    aux_w: np.ndarray


def hitting_arrays(
    rng: np.random.Generator,
    watchers: int = HIT_WATCHERS,
    candidates: int = HIT_CANDIDATES,
    level: int = HIT_LEVEL,
    size_param: int = HIT_SIZE,
) -> HittingArrays:
    """All candidates at one level; watcher u's expected hits E_u spread
    evenly over (1, 1.8), as in the tall acceptance fixture."""
    spread = 1.0 + 0.8 * (np.arange(watchers) + 0.5) / watchers
    deg = np.round(spread * 2.0**level).astype(np.int64)
    return HittingArrays(
        imp=rng.random(watchers) + 0.2,
        levels=np.full(candidates, level, dtype=np.int64),
        edge_u=np.repeat(np.arange(watchers, dtype=np.int64), deg),
        edge_v=np.concatenate([rng.choice(candidates, size=d, replace=False) for d in deg]).astype(np.int64),
        size_param=size_param,
    )


def core_arrays(rng: np.random.Generator) -> CoreArrays:
    """Watcher mass sum 2^-level spread evenly over [5.5, 9.3] at level 5,
    plus CORE_TALL_PER_WATCHER candidates each from a tall layer, and about
    3 random weighted aux edges per candidate, as in the tall core fixture."""
    deg0 = np.round(32.0 * (5.5 + 3.8 * (np.arange(CORE_WATCHERS) + 0.5) / CORE_WATCHERS)).astype(np.int64)
    w_ids = np.arange(CORE_WATCHERS, dtype=np.int64)
    edge_u = np.concatenate([np.repeat(w_ids, deg0), np.repeat(w_ids, CORE_TALL_PER_WATCHER)])
    edge_v = np.concatenate(
        [rng.choice(CORE_BASE, size=d, replace=False) for d in deg0]
        + [CORE_BASE + rng.choice(CORE_TALL_COUNT, size=CORE_TALL_PER_WATCHER, replace=False) for _ in w_ids]
    ).astype(np.int64)
    n_v = CORE_BASE + CORE_TALL_COUNT
    ai, aj = rng.integers(0, n_v, size=(2, 3 * n_v))
    keep = ai < aj
    code = np.unique(ai[keep] * np.int64(n_v) + aj[keep])
    return CoreArrays(
        imp=rng.random(CORE_WATCHERS) + 0.2,
        levels=np.concatenate([np.full(CORE_BASE, 5), np.full(CORE_TALL_COUNT, CORE_TALL_LEVEL)]).astype(np.int64),
        edge_u=edge_u,
        edge_v=edge_v,
        size_param=1 << 64,
        aux_i=code // n_v,
        aux_j=code % n_v,
        aux_w=rng.random(len(code)),
    )


@dataclass
class TallInputs:
    hit: HittingArrays
    hit_inst: Any
    core: CoreArrays
    core_inst: Any


def make_hitting_instance(a: HittingArrays):
    return dpar.BipartiteInstance(
        imp=a.imp, levels=a.levels, edge_u=a.edge_u, edge_v=a.edge_v, size_param=a.size_param
    )


def make_core_instance(a: CoreArrays):
    return dpar.MisAuxInstance(
        imp=a.imp,
        levels=a.levels,
        edge_u=a.edge_u,
        edge_v=a.edge_v,
        aux_i=a.aux_i,
        aux_j=a.aux_j,
        aux_w=a.aux_w,
        vert_w=np.zeros(len(a.levels)),
        size_param=a.size_param,
    )


def _tall_setup(seed: int) -> TallInputs:
    rng = np.random.default_rng(seed)
    hit = hitting_arrays(rng)
    core = core_arrays(rng)
    return TallInputs(hit=hit, hit_inst=make_hitting_instance(hit), core=core, core_inst=make_core_instance(core))


def _tall_solve(x: TallInputs, work):
    h = dpar.hitting_set(x.hit_inst, PARAMS, floor=HIT_FLOOR, work=work, threads=1)
    return h, dpar.core_mis_hitting(x.core_inst, PARAMS, work=work, threads=1)


def _tall_check(x: TallInputs, r) -> list[str]:
    h, core = r
    a, c = x.hit, x.core
    return check_hitting(a.imp, a.levels, a.edge_u, a.edge_v, HIT_FLOOR, h.selected) + check_core(
        c.imp, c.levels, c.edge_u, c.edge_v, c.aux_i, c.aux_j, c.aux_w, CORE_FLOOR, core.selected, core.u_good
    )


CORE_TALL = Workload(
    name="core-tall",
    setup=_tall_setup,
    solve=_tall_solve,
    check=_tall_check,
    fingerprint=lambda r: _digest(r[0].selected, r[1].selected, r[1].u_good),
    oracle=lambda x, r: dpar.verify.check_hitting_window(
        x.hit.imp, x.hit.levels, x.hit.edge_u, x.hit.edge_v, r[0].selected
    ),
)

WORKLOADS = {w.name: w for w in (MIS_DENSE, MATCHING_SPARSE, CORE_TALL)}
