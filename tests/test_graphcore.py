"""Core layer: radix order, tables, loss bounds, CSR, IO."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpar.graph
from dpar.generate import gnm_graph
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
from dpar.sorting import radix_lexorder, radix_order, radix_passes
from dpar.workcount import WorkCounter


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


def test_field_tables_match_brute_force():
    """Every prime below 2 000 and a few near 10^5 and 10^6: the square-root
    table holds the smallest root of each residue (-1 for non-residues),
    and building it charges sqrt_tables exactly p units, once per prime."""
    t = precompute_tables(1_000_040)
    primes = [int(p) for p in t.primes if p < 2000 or 99_980 < p < 100_020 or 999_970 < p]
    work = WorkCounter()
    for p in primes:
        before = work.snapshot().get("sqrt_tables", 0)
        sqrt = t.sqrt_table(p, work)
        assert work.snapshot()["sqrt_tables"] == before + p
        z = np.arange(p, dtype=np.int64)
        brute = np.full(p, p, dtype=np.int64)
        np.minimum.at(brute, z * z % p, z)
        brute[brute == p] = -1
        assert sqrt.dtype == brute.dtype and sqrt.tobytes() == brute.tobytes()
        t.sqrt_table(p, work)
    assert work.snapshot() == {"sqrt_tables": sum(primes)}


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


@pytest.mark.parametrize(
    "n, offsets, nbrs, message",
    [
        (3, [0, 1, 1, 1], [1], "not symmetric"),
        (2, [0, 1, 2], [1, 5], "out of range"),
        (2, [0, 2, 4], [0, 1, 0, 1], "self-loop"),
    ],
)
def test_graph_built_by_hand_checks_itself(n, offsets, nbrs, message):
    with pytest.raises(ValueError, match=message):
        Graph(n=n, offsets=np.array(offsets, dtype=np.int64), nbrs=np.array(nbrs, dtype=np.int64))


def test_csr_build_sorts_once(monkeypatch):
    """One radix sort of the directed slot codes both merges repeated
    edges and orders the CSR."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return radix_order(*args, **kwargs)

    monkeypatch.setattr(dpar.graph, "radix_order", counted)
    g = sort_edges_to_csr([(0, 1), (1, 0), (2, 0), (0, 1)], 3, weights=[0.5, 0.25, 1.0, 2.0])
    assert calls == [8]
    assert g.m == 2
    assert g.weights.tolist() == [2.75, 1.0, 2.75, 1.0]


def test_unweighted_csr_build_sorts_in_place(monkeypatch):
    """Equal unweighted slot codes are the same slot, so the codes are
    sorted in place and no stable radix order is made."""

    def refuse(*args, **kwargs):
        raise AssertionError("an unweighted build made a radix order")

    monkeypatch.setattr(dpar.graph, "radix_order", refuse)
    g = sort_edges_to_csr([(0, 1), (1, 0), (2, 0), (0, 1)], 3)
    assert g.offsets.tolist() == [0, 2, 3, 4]
    assert g.nbrs.tolist() == [1, 2, 0, 0]
    assert g.weights is None


def test_unweighted_csr_build_peaks_under_three_and_a_half_slot_arrays():
    # one slot-sized array is 2m int64 entries, as many as the (m, 2) input holds
    rng = np.random.default_rng(5)
    n = 2_000
    e = rng.integers(0, n, size=(150_000, 2))
    e = e[e[:, 0] != e[:, 1]]
    tracemalloc.start()
    try:
        g = sort_edges_to_csr(e, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(e) >= 100_000 and g.m > 0
    assert peak <= 3.5 * e.nbytes


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
    sub, old2new, new2old = compact_subgraph(g, keep_node)
    sub.validate()
    assert sub.n == 3 and sub.m == 2
    assert new2old.tolist() == [0, 1, 2]
    assert old2new[new2old].tolist() == [0, 1, 2]
    # exactly the edges with both endpoints kept survive
    slots = sorted(zip(sub.slot_owners().tolist(), sub.nbrs.tolist()))
    assert slots == [(0, 1), (1, 0), (1, 2), (2, 1)]
    with pytest.raises(ValueError, match="mask length"):
        compact_subgraph(g, keep_node[:3])


def _full_scan_compact(g, kn):
    """compact_subgraph as it was when it read every slot of its input:
    the reference the output-sensitive version must match bit for bit."""
    owners = g.slot_owners()
    ke = kn[owners] & kn[g.nbrs]
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    new_to_old = np.flatnonzero(kn).astype(np.int64)
    old_to_new[new_to_old] = np.arange(len(new_to_old), dtype=np.int64)
    n2 = len(new_to_old)
    counts = np.bincount(owners[ke], minlength=g.n).astype(np.int64)[new_to_old]
    offsets = np.zeros(n2 + 1, dtype=np.int64)
    if n2:
        np.cumsum(counts, out=offsets[1:])
    nbrs = old_to_new[g.nbrs[ke]]
    weights = g.weights[ke] if g.weights is not None else None
    return Graph(n=n2, offsets=offsets, nbrs=nbrs, weights=weights), old_to_new, new_to_old


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    keep=st.sampled_from(["none", "all", "random", "isolated"]),
    weighted=st.booleans(),
)
def test_compact_subgraph_matches_the_full_scan(seed, n, density, keep, weighted):
    rng = np.random.default_rng(seed)
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    pairs = pairs[rng.random(len(pairs)) < density]
    w = rng.random(len(pairs)) if weighted else None
    g = sort_edges_to_csr(pairs, n, weights=w)
    if keep == "none":
        kn = np.zeros(n, dtype=bool)
    elif keep == "all":
        kn = np.ones(n, dtype=bool)
    else:
        kn = rng.random(n) < 0.5
        # every kept node isolated in the subgraph: some of the graph's
        # isolated nodes, and the nodes that are only ever an edge's lower end
        if keep == "isolated":
            kn &= g.degrees() == 0
            kn[pairs[:, 0]] = True
            kn[pairs[:, 1]] = False
    sub, old2new, new2old = compact_subgraph(g, kn)
    ref, ref_old2new, ref_new2old = _full_scan_compact(g, kn)
    for got, want in [
        (sub.offsets, ref.offsets),
        (sub.nbrs, ref.nbrs),
        (old2new, ref_old2new),
        (new2old, ref_new2old),
    ]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert sub.n == ref.n
    if weighted:
        assert sub.weights.dtype == np.float64
        assert sub.weights.tobytes() == ref.weights.tobytes()
    else:
        assert sub.weights is None


def test_compact_subgraph_charges_only_what_it_keeps():
    """Keeping one node of a dense graph charges its slots and itself, not
    the 40 000 slots of the input; keeping none charges nothing."""
    g = gnm_graph(300, 20_000, seed=4)
    deg = g.degrees()
    v = int(np.argmax(deg))
    one = np.zeros(g.n, dtype=bool)
    one[v] = True
    work = WorkCounter()
    sub, _, new2old = compact_subgraph(g, one, work)
    assert (sub.n, sub.m, new2old.tolist()) == (1, 0, [v])
    assert work.per_phase["compact"] <= deg[v] + 1
    work = WorkCounter()
    sub, _, _ = compact_subgraph(g, np.zeros(g.n, dtype=bool), work)
    assert sub.n == 0 and work.per_phase.get("compact", 0) == 0


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


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    size=st.integers(0, 300),
    bound=st.sampled_from([1, 2, 1000, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 40]),
)
def test_radix_order_is_the_stable_order(seed, size, bound):
    # one 16-bit pass up to 2^16, then one more per 16 bits of the bound
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, bound, size=size)
    keys[: size // 3] = keys[0] if size else 0  # runs of equal keys show stability
    assert np.array_equal(radix_order(keys, bound), np.argsort(keys, kind="stable"))


KEY_BOUNDS = [1, 2, 1000, 1 << 16, (1 << 16) + 1, 1 << 32, (1 << 32) + 1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    size=st.integers(0, 200),
    bounds=st.lists(st.sampled_from(KEY_BOUNDS), min_size=1, max_size=3),
    at_top=st.booleans(),
)
def test_radix_lexorder_is_lexsort(seed, size, bounds, at_top):
    """One stable radix order per key, least significant first, gives
    np.lexsort's order: empty keys, bound 1, runs of equal keys, and keys
    at 2^16 and 2^32, the first values that take another 16-bit pass."""
    rng = np.random.default_rng(seed)
    keys = []
    for bound in bounds:
        key = rng.integers(0, bound, size=size)
        key[: size // 2] = key[0] if size else 0  # long runs of equal keys
        if at_top:
            key[::3] = bound - 1
        keys.append(key)
    assert np.array_equal(radix_lexorder(keys, bounds), np.lexsort(keys))


def test_radix_order_charges_one_unit_per_key_and_pass():
    assert [radix_passes(b) for b in (0, 1, 2, 1 << 16)] == [1, 1, 1, 1]
    assert [radix_passes(b) for b in ((1 << 16) + 1, 1 << 32, (1 << 32) + 1)] == [2, 2, 3]
    assert radix_passes(1 << 64) == 4
    work = WorkCounter()
    radix_order(np.arange(10), (1 << 32) + 1, work)
    radix_order(np.arange(7), 5, work)
    assert work.snapshot() == {"word_sort": 3 * 10 + 7}


# Patterns that may not appear in src/dpar, each with the reason it is banned.
LIBRARY_BANS = [
    (
        r"\blexsort\s*\(|\bstable_order_u64\b",
        "the multi-key sorts are sorting.radix_lexorder and the word-key sorts "
        "sorting.radix_order, not np.lexsort or the removed stable_order_u64",
    ),
    (
        r"\bnp\.(dot|vdot|inner|matmul|tensordot)\b|\.dot\(",
        "a BLAS product sums in an order set by the BLAS thread count, so the "
        "float sums of reports would change their last bits with it; the "
        "library totals floats with np.sum and tallies with np.bincount, "
        "which call no BLAS",
    ),
]


def test_no_lexsort_or_stable_order_u64_in_the_library():
    """No line of src/dpar matches a pattern of LIBRARY_BANS."""
    src = Path(__file__).resolve().parent.parent / "src" / "dpar"
    lines = [
        (f"{path.name}:{number}", line)
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
    ]
    for pattern, reason in LIBRARY_BANS:
        banned = re.compile(pattern)
        found = [where for where, line in lines if banned.search(line)]
        assert not found, f"{found}: banned since {reason}"
