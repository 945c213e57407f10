"""Core layer: prefix sums, small-key sort, tables, loss bounds, CSR, IO."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.graph import (
    Graph,
    compact_subgraph,
    read_csr,
    read_edgelist,
    sort_edges_to_csr,
    write_csr,
)
from dpar.losses import LossSchedule, iterative_loss_bound
from dpar.ntheory import precompute_tables, prime_in_range
from dpar.sorting import max_small_key, prefix_sum, radix_sort_small_keys
from dpar.workcount import WorkCounter


def test_prefix_sum_frozen():
    assert prefix_sum([1, 0, 1]).tolist() == [1, 1, 2]


def test_prefix_sum_empty_and_types():
    assert prefix_sum([]).tolist() == []
    with pytest.raises(TypeError):
        prefix_sum([0.5, 1.0])


def test_prefix_sum_overflow_signals():
    big = np.array([np.iinfo(np.int64).max // 2] * 3, dtype=np.int64)
    with pytest.raises(OverflowError):
        prefix_sum(big)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
def test_prefix_sum_matches_fold(xs):
    out = prefix_sum(np.array(xs, dtype=np.int64)).tolist()
    acc, ref = 0, []
    for x in xs:
        acc += x
        ref.append(acc)
    assert out == ref


def test_radix_sort_stability_and_bounds():
    n_bound = 1 << 16
    keys = np.array([3, 1, 3, 2, 1, 16], dtype=np.int64)
    payload = np.arange(6, dtype=np.int64)
    sk, sp = radix_sort_small_keys(keys, payload, n_bound)
    assert sk.tolist() == [1, 1, 2, 3, 3, 16]
    # stability: equal keys keep payload order
    assert sp.tolist() == [1, 4, 3, 0, 2, 5]
    with pytest.raises(ValueError):
        radix_sort_small_keys([0], [0], n_bound)
    with pytest.raises(ValueError):
        radix_sort_small_keys([max_small_key(n_bound) + 1], [0], n_bound)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=10), max_size=300))
def test_radix_sort_matches_stable_reference(keys):
    keys = np.array(keys, dtype=np.int64)
    payload = np.arange(len(keys), dtype=np.int64)
    sk, sp = radix_sort_small_keys(keys, payload, 1 << 10)
    ref = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    assert sp.tolist() == ref
    assert sk.tolist() == sorted(keys.tolist())


def test_radix_sort_charges_work():
    w = WorkCounter()
    radix_sort_small_keys([1, 2, 3, 4], np.arange(4), 1 << 8, work=w)
    assert w.per_phase.get("radix_sort", 0) > 0


def test_sieve_frozen_values():
    t = precompute_tables(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    t4 = precompute_tables(10**4)
    assert len(t4.primes) == 1229


def test_sqrt_table_frozen_p7():
    t = precompute_tables(10)
    tab = t.sqrt_table(7)
    residues = {i for i in range(7) if tab[i] >= 0}
    assert residues == {0, 1, 2, 4}
    assert tab[2] == 3  # smallest root: 3*3=9=2 mod 7
    assert tab[4] == 2


@given(st.integers(min_value=2, max_value=97))
def test_sqrt_table_property(x):
    t = precompute_tables(200)
    for p in t.primes[t.primes <= x]:
        tab = t.sqrt_table(int(p))
        for r in range(int(p)):
            s = int(tab[r])
            if s >= 0:
                assert (s * s) % int(p) == r


def test_prime_in_range_frozen():
    t = precompute_tables(100)
    assert prime_in_range(t, 2) == 2
    assert prime_in_range(t, 10) == 11
    assert prime_in_range(t, 24) == 29
    with pytest.raises(ValueError):
        prime_in_range(t, 80)  # exceeds table limit


def test_loss_bound_frozen_single_round():
    s = LossSchedule((0.1,))
    f, g, fp, gp = iterative_loss_bound(s, 1.0)
    assert math.isclose(f, 1.2)
    assert math.isclose(g, 1.4)
    assert math.isclose(fp, 0.8)
    assert math.isclose(gp, 0.6)


def test_loss_schedule_rejects_large_sum():
    with pytest.raises(ValueError):
        LossSchedule((0.3, 0.3))


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=0, max_value=0.05, allow_nan=False), max_size=10),
    st.floats(min_value=0, max_value=5, allow_nan=False),
)
def test_loss_envelopes_hold(gammas, z):
    s = LossSchedule(tuple(gammas))
    f, g, fp, gp = iterative_loss_bound(s, z)
    assert f <= g
    assert fp >= gp


def test_csr_frozen_single_edge():
    g = sort_edges_to_csr([(0, 1)], 2)
    assert g.offsets.tolist() == [0, 1, 2]
    assert g.nbrs.tolist() == [1, 0]
    assert g.m == 1


def test_csr_dedupes_and_validates():
    g = sort_edges_to_csr([(0, 1), (1, 0), (2, 0)], 3)
    assert g.m == 2
    g.validate()
    with pytest.raises(ValueError):
        sort_edges_to_csr([(0, 0)], 2)
    with pytest.raises(ValueError):
        sort_edges_to_csr([(0, 5)], 2)


def test_csr_roundtrip_random_setequal():
    rng = np.random.default_rng(0)
    n = 40
    e = rng.integers(0, n, size=(120, 2))
    e = e[e[:, 0] != e[:, 1]]
    g = sort_edges_to_csr(e, n)
    g.validate()
    want = {(min(a, b), max(a, b)) for a, b in e.tolist()}
    owners = g.slot_owners()
    got = {(min(a, b), max(a, b)) for a, b in zip(owners.tolist(), g.nbrs.tolist())}
    assert got == want


def test_compact_subgraph_roundtrip_and_errors():
    g = sort_edges_to_csr([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    keep_node = np.array([True, True, True, False])
    owners = g.slot_owners()
    keep_edge = keep_node[owners] & keep_node[g.nbrs]
    sub, old2new, new2old = compact_subgraph(g, keep_node, keep_edge)
    sub.validate()
    assert sub.n == 3 and sub.m == 2
    assert new2old.tolist() == [0, 1, 2]
    assert old2new[new2old].tolist() == [0, 1, 2]
    bad = keep_edge.copy()
    bad[:] = True
    with pytest.raises(ValueError):
        compact_subgraph(g, keep_node, bad)
    asym = keep_edge.copy()
    asym[np.flatnonzero(asym)[0]] = False
    with pytest.raises(ValueError):
        compact_subgraph(g, keep_node, asym)


def test_weighted_dedupe_sums():
    g = sort_edges_to_csr([(0, 1), (1, 0)], 2, weights=[1.5, 2.5])
    assert g.m == 1
    assert g.weights is not None
    assert np.allclose(g.weights, [4.0, 4.0])


def test_csr_file_roundtrip(tmp_path):
    g = sort_edges_to_csr([(0, 1), (1, 2)], 3, weights=[1.0, 2.0])
    p = str(tmp_path / "g.dpar")
    write_csr(p, g)
    h = read_csr(p)
    assert h.n == g.n and h.m == g.m
    assert np.array_equal(h.offsets, g.offsets)
    assert np.array_equal(h.nbrs, g.nbrs)
    assert np.allclose(h.weights, g.weights)


@pytest.mark.parametrize("section", ["header", "offsets", "nbrs", "weights"])
def test_csr_file_cut_inside_a_section_names_it(tmp_path, section):
    g = sort_edges_to_csr([(0, 1), (1, 2), (0, 3)], 4, weights=[1.0, 2.0, 3.0])
    p = tmp_path / "g.dpar"
    write_csr(str(p), g)
    data = p.read_bytes()
    # magic, then header, offsets, nbrs and weights
    bounds = np.cumsum([5, 16, 8 * (g.n + 1), 16 * g.m, 16 * g.m])
    assert bounds[-1] == len(data)
    i = ["header", "offsets", "nbrs", "weights"].index(section)
    p.write_bytes(data[: (bounds[i] + bounds[i + 1]) // 2])  # cut mid-section
    with pytest.raises(ValueError, match=f"truncated CSR file: {section} section"):
        read_csr(str(p))


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bad_edge_weights_are_rejected(tmp_path, bad):
    with pytest.raises(ValueError, match="edge weights must be finite and nonnegative"):
        sort_edges_to_csr([(0, 1), (1, 2)], 3, weights=[1.0, bad])
    g = sort_edges_to_csr([(0, 1), (1, 2)], 3, weights=[1.0, 2.0])
    g.weights[:] = bad
    p = str(tmp_path / "g.dpar")
    write_csr(p, g)
    with pytest.raises(ValueError, match="edge weights must be finite and nonnegative"):
        read_csr(p)


def test_edgelist_roundtrip(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 1\n1 2 2.5\n# comment\n")
    edges, weights, n = read_edgelist(str(p))
    assert n == 3
    assert edges.tolist() == [[0, 1], [1, 2]]
    assert weights is not None and weights.tolist() == [1.0, 2.5]
