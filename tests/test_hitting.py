import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.hitting
from dpar.hitting import (
    HIT_UPPER_C,
    LOW_POTENTIAL_BOUND,
    BipartiteInstance,
    ParamSet,
    QuadPotential,
    RegimeDriver,
    _group_full_buckets,
    build_low_potentials,
    hitting_set,
    read_hset,
    run_half,
    write_hset,
)
from dpar.mis import MisAuxInstance, core_mis_hitting
from dpar.workcount import WorkCounter

BIG_N = 1 << 64  # size parameter that opens the low regime at desk scale
DESK = ParamSet.desk()
DRIVER = RegimeDriver(DESK, DESK.high_floor_hitting)


def crafted_instance(rng, n_u, n_v, deg, levels, size_param=BIG_N, imp=None):
    eu = np.repeat(np.arange(n_u), deg)
    ev = np.concatenate([rng.choice(n_v, size=deg, replace=False) for _ in range(n_u)])
    return BipartiteInstance(
        imp=np.ones(n_u) if imp is None else imp,
        levels=np.asarray(levels, dtype=np.int64),
        edge_u=eu,
        edge_v=ev,
        size_param=size_param,
    )


# --- parameters -------------------------------------------------------------

def test_desk_parameter_values():
    p = ParamSet.desk()
    assert p.level_cap(1 << 16) == 12
    assert p.level_cap(BIG_N) == 18
    assert p.bucket_high(p.gamma_high_for(5)) == 45
    assert p.bucket_low(p.gamma_low(0, BIG_N), BIG_N) == 20


def test_paper_parameter_shapes():
    p = ParamSet.paper()
    assert p.gamma_high is None and p.degree_floor is None
    assert p.gamma_high_for(50) == pytest.approx(1.0 / (100 * 2500))
    assert p.degree_floor_for(1 << 20) == math.ceil(10.0 * 20.0**25)
    # the formula belongs to the None value, not to the preset
    assert replace(DESK, degree_floor=None).degree_floor_for(1 << 20) == p.degree_floor_for(1 << 20)
    assert replace(p, degree_floor=0).degree_floor_for(1 << 20) == 0
    # gamma decays but never below gamma0/log2(N)
    lo = p.gamma_low(10_000, 1 << 16)
    assert lo == pytest.approx(p.gamma0_low / 16)


def test_low_bucket_below_two_sends_the_candidates_straight_to_high():
    # the star at levels 5 to 9 (size 5, K = 4), which used to raise "low-regime
    # bucket size below 2", is tests/test_cli_fuzz.py's
    p = ParamSet.desk()
    assert p.bucket_low(p.gamma_low(0, 1 << 16), 1 << 16) == 1
    assert p.level_cap(5) == 4 and p.bucket_low(p.gamma_low(0, 5), 5) == 0
    # at N = 2^17 the bucket starts at 2 and falls below it in round 18,
    # as gamma decays; the rounds before it halve as they did
    inst = crafted_instance(np.random.default_rng(1), 4, 400, 100, np.full(400, 40), 1 << 17)
    res = hitting_set(inst, p)
    low = [r for r in res.rounds if r["regime"] == "low"]
    assert [r["b"] for r in low] == [2] * 18 + [1]
    assert "phi_total" not in low[-1] and low[-1]["straight_to_high"] >= 1
    assert res.window_ok.all()


# --- instance container and file format --------------------------------------

def test_instance_validation():
    ok = dict(imp=[1.0], levels=[3], edge_u=[0], edge_v=[0], size_param=16)
    BipartiteInstance(**ok)
    # NaN passed the old imp.min() < 0 check and certified a NaN window as ok
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="importances must be finite and nonnegative"):
            BipartiteInstance(**{**ok, "imp": [bad]})
    with pytest.raises(ValueError):
        BipartiteInstance(**{**ok, "levels": [-2]})
    with pytest.raises(ValueError):
        BipartiteInstance(**{**ok, "edge_v": [5]})
    with pytest.raises(ValueError):
        BipartiteInstance(**{**ok, "size_param": 1})


@pytest.mark.parametrize(
    "field, value",
    [
        ("outdeg_cap", -1),
        ("degree_floor", -1),
        ("high_floor_hitting", -3),
        ("high_floor_mis", -1),
        ("k_factor", 0.0),
        ("beta", -2.0),
        ("gamma0_low", math.nan),
        ("gamma_high", 0.0),
        ("gamma_high", math.inf),
    ],
)
def test_param_set_rejects_out_of_domain_values(field, value):
    with pytest.raises(ValueError, match=f"parameter {field} must be"):
        replace(DESK, **{field: value})


@pytest.mark.parametrize("k_factor", [1e308, 1e18, 400.0])
def test_level_cap_rejects_a_k_beyond_float_range(k_factor):
    # 2^(K-1) overflows a float once K passes 1024; a K past int64 crashed numpy
    params = replace(DESK, k_factor=k_factor)
    with pytest.raises(ValueError, match="parameter k_factor="):
        params.level_cap(1 << 20)
    inst = crafted_instance(np.random.default_rng(0), 2, 6, 3, np.full(6, 2), size_param=1 << 20)
    with pytest.raises(ValueError, match="parameter k_factor="):
        hitting_set(inst, params)
    assert replace(DESK, k_factor=100.0).level_cap(BIG_N) == 600


def test_hset_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    inst = crafted_instance(rng, 3, 40, 10, rng.integers(0, 9, size=40), size_param=1 << 20)
    inst.imp[:] = rng.random(3) * 2
    path = tmp_path / "inst.hset"
    write_hset(path, inst)
    back = read_hset(path)
    assert np.array_equal(back.imp, inst.imp)
    assert np.array_equal(back.levels, inst.levels)
    assert np.array_equal(back.edge_u, inst.edge_u)
    assert np.array_equal(back.edge_v, inst.edge_v)
    assert back.size_param == inst.size_param


@pytest.mark.parametrize("section", ["header", "left", "right", "edge"])
def test_hset_cut_inside_a_section_names_it(tmp_path, section):
    rng = np.random.default_rng(2)
    inst = crafted_instance(rng, 3, 40, 10, rng.integers(0, 9, size=40), size_param=1 << 20)
    path = tmp_path / "inst.hset"
    write_hset(path, inst)
    lines = path.read_text().splitlines(keepends=True)
    # magic, header, left, right and edge lines; keep one character of the
    # section's last line
    last = {"header": 1, "left": 1 + 3, "right": 1 + 3 + 40, "edge": len(lines) - 1}[section]
    path.write_text("".join(lines[:last]) + lines[last][:1])
    with pytest.raises(ValueError, match=f"truncated HSET file: {section} section"):
        read_hset(path)
    # the format has no edge count: a cut between edge lines loses edges
    path.write_text("".join(lines[:-5]))
    assert len(read_hset(path).edge_u) == len(inst.edge_u) - 5


def test_hset_rejects_garbage(tmp_path):
    p = tmp_path / "bad.hset"
    p.write_text("NOPE\n1 1 4\n0 1.0\n0 2\n")
    with pytest.raises(ValueError):
        read_hset(p)


# --- quadratic potentials -----------------------------------------------------

def test_quad_potential_frozen():
    pot = QuadPotential(
        members=np.array([0, 1, 2, 3]), coefs=np.array([1.0, 2.0]), b=2, name="t"
    )
    in_set = np.array([True, False, False, False])
    assert pot.counts(in_set).tolist() == [1, 0]
    assert pot.value(in_set) == pytest.approx(2.0)
    assert pot.expectation() == pytest.approx(1.5)
    assert pot.utils(4).tolist() == [1.0, 1.0, 2.0, 2.0]
    # pair terms 2 coef_B: 2.0 for (0, 1), 4.0 for (2, 3)
    assert pot.total_cost() == 6.0


def test_group_full_buckets_frozen():
    primary = np.zeros(5, dtype=np.int64)
    secondary = np.zeros(5, dtype=np.int64)
    items = np.array([4, 2, 7, 5, 1], dtype=np.int64)
    members, bp, bs = _group_full_buckets(primary, secondary, items, 2)
    assert members.tolist() == [1, 2, 4, 5]  # sorted, leftover 7 dropped
    assert bp.tolist() == [0, 0]
    assert bs.tolist() == [0, 0]
    # without a secondary key: runs of primary alone, no secondary tags
    primary = np.array([3, 1, 3, 1, 3, 1, 1], dtype=np.int64)
    items = np.array([9, 8, 2, 6, 5, 1, 4], dtype=np.int64)
    members, bp, bs = _group_full_buckets(primary, None, items, 2)
    assert members.tolist() == [1, 4, 6, 8, 2, 5]  # 9 is primary 3's leftover
    assert bp.tolist() == [1, 1, 3]
    assert bs is None
    # items the caller sorted already: chunking only, in the given order
    primary = np.array([1, 1, 1, 1, 3, 3, 3], dtype=np.int64)
    items = np.array([8, 6, 1, 4, 9, 2, 5], dtype=np.int64)
    first = np.array([True, False, False, False, True, False, False])
    members, bp, _ = _group_full_buckets(primary, None, items, 2, first=first)
    assert members.tolist() == [8, 6, 1, 4, 9, 2]
    assert bp.tolist() == [1, 1, 3]


def test_monte_carlo_potential_mean():
    rng = np.random.default_rng(7)
    n = 80
    members = rng.permutation(n)[:60]
    pot = QuadPotential(members=members, coefs=rng.random(6) + 0.2, b=10, name="mc")
    samples = 3000
    vals = np.empty(samples)
    for s in range(samples):
        vals[s] = pot.value(rng.random(n) < 0.5)
    se = vals.std(ddof=1) / np.sqrt(samples)
    assert abs(vals.mean() - pot.expectation()) <= 4 * se


def test_run_half_keeps_potential_under_bound():
    pot = QuadPotential(
        members=np.arange(40), coefs=np.full(4, 0.1), b=10, name="t"
    )
    res = run_half(40, [pot], eps=1.0 / (4 * 9), phi_bound=10.0)
    assert res.phi_total <= 10.0
    assert res.phi_values["t"] == pytest.approx(pot.value(res.selected))


def test_halving_with_no_full_bucket_keeps_every_candidate(monkeypatch):
    """2 watchers of 30 candidates at level 5 fill no high bucket of 45: the
    halving has nothing to round and keeps every candidate untouched."""

    def forbidden(*args, **kwargs):
        raise AssertionError("local_round ran on a halving with nothing to round")

    monkeypatch.setattr(dpar.hitting, "local_round", forbidden)
    inst = BipartiteInstance(
        imp=np.ones(2), levels=np.full(60, 5), edge_u=np.repeat([0, 1], 30),
        edge_v=np.arange(60), size_param=1 << 16,
    )
    work = WorkCounter()
    res = hitting_set(inst, DESK, work=work)
    assert res.selected.all()
    (rnd,) = res.rounds
    assert rnd["buckets"] == 0 and rnd["sweep_steps"] == 0
    assert rnd["selected"] == rnd["candidates"] == 60
    assert "local_round" not in work.snapshot() and "half_sample" not in work.snapshot()


# --- low regime ---------------------------------------------------------------

def test_low_regime_freezes_everyone_or_kills():
    rng = np.random.default_rng(1)
    inst = crafted_instance(rng, 8, 1200, 300, np.full(1200, 20))
    frozen, good, reports = DRIVER.low(inst)
    assert frozen.sum() > 0
    assert len(reports) == 2  # levels 20 -> 18
    for r in reports:
        assert r["phi_total"] <= LOW_POTENTIAL_BOUND
        assert r["shrink_lhs"] <= r["shrink_rhs"]
        if r["tracked_importance"] > 0:
            good_frac = 1.0 - r["bad_importance"] / r["tracked_importance"]
            assert good_frac >= r["good_importance_bound"]


def test_low_regime_rejects_low_levels():
    rng = np.random.default_rng(3)
    inst = crafted_instance(rng, 2, 50, 10, np.full(50, 5))
    with pytest.raises(ValueError):
        DRIVER.low(inst)


# --- high regime ----------------------------------------------------------------

def test_high_regime_respects_floor():
    # level-2 nodes sit below the floor: never sampled, all selected
    rng = np.random.default_rng(4)
    inst = crafted_instance(rng, 3, 60, 20, np.full(60, 2), size_param=1 << 16)
    selected, good, reports = DRIVER.high(inst)
    assert selected.all()
    assert reports == []
    assert good.all()


def test_high_regime_halves_level_six():
    rng = np.random.default_rng(5)
    inst = crafted_instance(rng, 10, 1000, 250, np.full(1000, 6), size_param=1 << 16)
    selected, good, reports = DRIVER.high(inst)
    assert len(reports) == 2  # 6 -> 5 -> 4
    # roughly a quarter survives two halvings
    assert 150 <= selected.sum() <= 350
    for r in reports:
        assert r["phi_total"] <= r["phi_bound"]
        tracked = float(np.sum(inst.imp))
        good_frac = 1.0 - r["bad_importance"] / tracked
        assert good_frac >= r["good_importance_bound"]


def test_high_regime_rejects_high_levels():
    rng = np.random.default_rng(6)
    inst = crafted_instance(rng, 2, 50, 10, np.full(50, 40), size_param=1 << 16)
    with pytest.raises(ValueError):
        DRIVER.high(inst)


# --- full pipeline ----------------------------------------------------------------

def test_hitting_set_mixed_levels():
    rng = np.random.default_rng(8)
    n_u, n_v = 10, 3000
    levels = np.where(np.arange(n_v) < 1500, 20, 7)
    inst = crafted_instance(rng, n_u, n_v, 700, levels, imp=rng.random(n_u) + 0.5)
    work = WorkCounter()
    res = hitting_set(inst, ParamSet.desk(), work=work)
    assert res.selected.any()
    assert res.hit_constant <= HIT_UPPER_C * 2.0**DESK.high_floor_hitting
    assert res.good_importance_fraction >= 0.75
    assert np.all(res.hits[res.window_ok] >= 0.5 * res.expected[res.window_ok] - 0.5)
    assert work.total > 0
    assert len(res.rounds) > 0


def test_hitting_set_zero_level_always_selected():
    inst = BipartiteInstance(
        imp=np.ones(2),
        levels=np.zeros(5, dtype=np.int64),
        edge_u=np.array([0, 1]),
        edge_v=np.array([0, 4]),
        size_param=1 << 16,
    )
    res = hitting_set(inst, ParamSet.desk())
    assert res.selected.all()
    assert res.hits.tolist() == [1, 1]


def add_at(n, index, values):
    """The reference tally: values added into zeros by np.add.at, in index
    order."""
    out = np.zeros(n, dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), lev=st.integers(0, 9))
def test_property_pipeline_small(seed, lev):
    rng = np.random.default_rng(seed)
    n_u = int(rng.integers(1, 6))
    n_v = int(rng.integers(10, 120))
    deg = int(rng.integers(1, min(n_v, 30)))
    inst = crafted_instance(rng, n_u, n_v, deg, rng.integers(0, lev + 1, size=n_v), size_param=1 << 16)
    res = hitting_set(inst, ParamSet.desk())
    # the selection is a subset and hit counts match it, bit for bit
    assert_same_bits(res.hits, add_at(n_u, inst.edge_u, res.selected[inst.edge_v].astype(np.int64)))
    assert np.all(res.hits <= res.hit_constant * res.expected + res.hit_constant + 1e-9)


# --- tallies: np.bincount adds as np.add.at does ---------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), b=st.integers(2, 6))
def test_bincount_tallies_have_the_bits_of_add_at(seed, b):
    """expected_hits, QuadPotential.utils and build_low_potentials' den
    tally by np.bincount, bit for bit as np.add.at would: with and without
    a right mask and levels, over shuffled edges, and for a potential with
    no bucket. Levels are 0-2 or 52-54, so that a watcher's sum of powers
    of two rounds and its bits depend on the order of its terms."""
    rng = np.random.default_rng(seed)
    n_u, n_v = int(rng.integers(1, 8)), int(rng.integers(1, 80))

    def draw_levels():
        return rng.integers(0, 3, size=n_v) + 52 * (rng.random(n_v) < 0.7)

    inst = crafted_instance(rng, n_u, n_v, int(rng.integers(0, n_v + 1)), draw_levels())
    order = rng.permutation(len(inst.edge_u))
    inst = replace(inst, edge_u=inst.edge_u[order], edge_v=inst.edge_v[order])
    eu, ev = inst.edge_u, inst.edge_v
    v_mask = rng.random(n_v) < 0.6
    levels = draw_levels()
    for mask, lev in ((None, None), (v_mask, None), (None, levels), (v_mask, levels)):
        keep = np.ones(len(eu), dtype=bool) if mask is None else mask[ev]
        use = inst.levels if lev is None else lev
        want = add_at(n_u, eu[keep], np.exp2(-use[ev[keep]].astype(np.float64)))
        assert_same_bits(inst.expected_hits(mask, lev), want)

    for n_buckets in (0, int(rng.integers(1, 20))):
        members = rng.integers(0, n_v, size=n_buckets * b)
        pot = QuadPotential(members=members, coefs=rng.random(n_buckets), b=b, name="q")
        want = add_at(n_v, members, np.repeat(pot.coefs * (b - 1), b))
        assert_same_bits(pot.utils(n_v), want)

    lp = build_low_potentials(inst.imp, inst.levels, eu, ev, b, n_v)
    assert_same_bits(lp.den, add_at(n_u, eu, np.exp2(-inst.levels[ev].astype(np.float64))))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_core_hits_have_the_bits_of_add_at(seed):
    """core_mis_hitting's hits count each watcher's selected candidates by
    np.bincount: int64, bit for bit the np.add.at tally, over shuffled
    watch edges (test_property_pipeline_small checks hitting_set's). Three
    watchers of 192 of 250 candidates at level 5 (mass 6) and 500 aux
    edges: the core halves them once."""
    rng = np.random.default_rng(seed)
    n_v = 250
    eu = np.repeat(np.arange(3), 192)
    ev = np.concatenate([rng.choice(n_v, 192, replace=False) for _ in range(3)])
    order = rng.permutation(len(eu))
    iu, ju = np.triu_indices(n_v, k=1)
    pick = rng.choice(len(iu), 500, replace=False)
    core = MisAuxInstance(
        imp=np.ones(3), levels=np.full(n_v, 5), edge_u=eu[order], edge_v=ev[order],
        aux_i=iu[pick], aux_j=ju[pick], aux_w=rng.random(500), vert_w=np.zeros(n_v),
        size_param=n_v,
    )
    res = core_mis_hitting(core)
    want = add_at(core.n_left, core.edge_u, res.selected[core.edge_v].astype(np.int64))
    assert_same_bits(res.hits, want)
