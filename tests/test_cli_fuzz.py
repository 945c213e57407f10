"""Fuzz pass over every CLI subcommand, and over the CSR builder.

Inputs are empty, one-edge, star and clique edge lists, as edge-list text,
as CSR files and (for hitting-set) as HSET files, whole or cut inside one
of their sections, plus hand-written garbage files and --params files.
Every run must either exit 0 with every certificate ok or raise a
ValueError or SystemExit that carries a message; a whole HSET file must
certify, at levels up to 9, above the level cap K = 4 of the small
instances, whose low-regime bucket falls below 2. sort_edges_to_csr, on
sparse and on crowded pair lists, is compared byte for byte with a
plain-Python reference. core_mis_hitting, called directly on
small core instances with candidates above K, must certify or raise a
ValueError with a message.
"""

import itertools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpar.cli import main
from dpar.graph import sort_edges_to_csr, write_csr
from dpar.hitting import BipartiteInstance, ParamSet, write_hset
from dpar.mis import MisAuxInstance, core_mis_hitting

FAMILIES = {
    "empty": lambda k: [],
    "one-edge": lambda k: [(0, 1)],
    "star": lambda k: [(0, i) for i in range(1, k)],
    "clique": lambda k: list(itertools.combinations(range(k), 2)),
}
COMMANDS = [
    ["color"],
    ["defective"],
    ["maxcut"],
    ["matching"],
    ["mis"],
    ["mis", "--baseline"],
    ["hitting-set"],
]


def _csr_file(path: Path, edges, weights) -> list[tuple[str, int, int]]:
    """Write the graph as CSR; (section, first byte, end byte) per section."""
    n = max((max(e) for e in edges), default=0) + 1
    g = sort_edges_to_csr(edges, n, weights=weights)
    write_csr(str(path), g)
    names = ["header", "offsets", "nbrs"] + (["weights"] if weights is not None else [])
    sizes = [16, 8 * (n + 1), 16 * g.m, 16 * g.m][: len(names)]
    ends = np.cumsum([5] + sizes).tolist()
    return list(zip(names, ends[:-1], ends[1:]))


def _hset_file(path: Path, edges, level: int) -> list[tuple[str, int, int]]:
    """Write a watcher per node and a candidate per edge, watched by both
    endpoints; (section, first line, end line) per section."""
    n = max((max(e) for e in edges), default=0) + 1
    inst = BipartiteInstance(
        imp=np.ones(n),
        levels=np.full(len(edges), level, dtype=np.int64),
        edge_u=[u for e in edges for u in e],
        edge_v=[i for i in range(len(edges)) for _ in range(2)],
        size_param=max(n, 4),
    )
    write_hset(path, inst)
    ends = np.cumsum([1, 1, n, len(edges), 2 * len(edges)]).tolist()
    return list(zip(["header", "left", "right", "edge"], ends[:-1], ends[1:]))


def _cut_inside(data: st.DataObject, text: bytes, bounds, by_line: bool) -> bytes:
    """Cut text inside one non-empty section, chosen by the strategy."""
    sections = [(lo, hi) for _, lo, hi in bounds if hi > lo]
    if not sections:
        return text
    lo, hi = data.draw(st.sampled_from(sections))
    if not by_line:
        return text[: data.draw(st.integers(lo, hi - 1))]
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(lo, hi - 1))
    return b"".join(lines[:i]) + lines[i][: data.draw(st.integers(0, len(lines[i]) - 1))]


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    family=st.sampled_from(sorted(FAMILIES)),
    k=st.integers(2, 9),
    weight=st.none() | st.sampled_from([0.0, 0.5, 1.0, 7.25]),
    encoding=st.sampled_from(["edgelist", "csr"]),
    cut=st.booleans(),
    level=st.integers(0, 9),
    eps=st.sampled_from([0.1, 0.25, 1.0]),
    data=st.data(),
)
def test_cli_certifies_or_rejects_with_a_message(
    command, family, k, weight, encoding, cut, level, eps, data
):
    edges = FAMILIES[family](k)
    weights = None if weight is None else [weight + i % 3 for i in range(len(edges))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if command[0] == "hitting-set":
            encoding = "hset"
            bounds = _hset_file(path, edges, level)
        elif encoding == "csr":
            bounds = _csr_file(path, edges, weights)
        else:
            ws = [""] * len(edges) if weights is None else weights
            path.write_text("".join(f"{u} {v} {w}\n" for (u, v), w in zip(edges, ws)))
            bounds = [("edges", 0, len(path.read_bytes()))]
        if cut:
            text = path.read_bytes()
            path.write_bytes(_cut_inside(data, text, bounds, by_line=encoding == "hset"))
        argv = command + ["--input", str(path), "--format", encoding]
        if command[0] in ("defective", "maxcut"):
            argv += ["--eps", str(eps)]
        report = Path(tmp) / "report.json"
        try:
            rc = main(argv + ["--report", str(report)])
        except (ValueError, SystemExit) as exc:
            assert str(exc), f"{type(exc).__name__} without a message"
            assert cut or encoding != "hset", f"whole HSET file rejected: {exc}"
            return
        certificates = json.loads(report.read_text())["certificates"]
        assert rc == 0 and certificates and all(c["ok"] for c in certificates)


HSET_GARBAGE = {
    "bad magic": ("HSET2\n1 1 4\n0 1.0\n0 2\n0 0\n", "not an HSET1 file"),
    "left id out of range": ("HSET1\n2 1 4\n0 1.0\n5 1.0\n0 2\n0 0\n", "left ids"),
    "right id out of range": ("HSET1\n1 1 4\n0 1.0\n3 2\n0 0\n", "right ids"),
    "edge left id out of range": ("HSET1\n1 1 4\n0 1.0\n0 2\n4 0\n", "out of range on the left"),
    "edge right id out of range": ("HSET1\n1 1 4\n0 1.0\n0 2\n0 -1\n", "out of range on the right"),
    # counts are checked before allocating: 10**15 used to fail as a 7 PiB np.zeros
    "huge left count": ("HSET1\n1000000000000000 1 4\n0 1.0\n0 2\n0 0\n", "left section has 3 of"),
    "huge right count": ("HSET1\n1 1000000000000000 4\n0 1.0\n0 2\n", "right section has 1 of"),
    "negative left count": ("HSET1\n-1 1 4\n0 2\n0 0\n", "left section has a negative"),
    "negative right count": ("HSET1\n1 -1 4\n0 1.0\n0 2\n0 0\n", "right section has a negative"),
    "nan importance": ("HSET1\n2 1 4\n0 0\n1 nan\n0 2\n0 0\n1 0\n", "importances must be finite"),
    "inf importance": ("HSET1\n2 1 4\n0 0\n1 inf\n0 2\n0 0\n1 0\n", "importances must be finite"),
}
CSR_GARBAGE = {
    "bad magic": (b"DPAR9" + struct.pack("<QQ", 1, 0) + bytes(16), "bad magic"),
    "huge count": (b"DPAR1" + struct.pack("<QQ", 10**15, 0) + bytes(16), "offsets section"),
    "neighbor out of range": (
        b"DPAR1" + struct.pack("<QQQQQQQ", 2, 1, 0, 1, 2, 1, 9),
        "neighbor id out of range",
    ),
}


@pytest.mark.parametrize("mode", ["desk", "paper"])
@pytest.mark.parametrize("level", [5, 6, 7, 8, 9])
def test_cli_star_hset_certifies_above_the_level_cap(tmp_path, level, mode):
    """A 4-leaf star: size 5, so K = 4 at desk, and levels 5 to 9 used to
    raise "low-regime bucket size below 2". Its candidates now go straight
    to the high regime at K, and the report says so."""
    path, report = tmp_path / "star.hset", tmp_path / "report.json"
    _hset_file(path, FAMILIES["star"](5), level)
    argv = ["hitting-set", "--input", str(path), "--format", "hset", "--mode", mode]
    assert main(argv + ["--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert all(c["ok"] for c in data["certificates"]) and data["oracles"]["window"]["ok"]
    straight = [r["straight_to_high"] for r in data["rounds"] if "straight_to_high" in r]
    assert straight == ([4] if mode == "desk" else [])


@pytest.mark.parametrize("case", sorted(HSET_GARBAGE))
def test_cli_rejects_hand_written_hset_garbage(tmp_path, case):
    text, message = HSET_GARBAGE[case]
    path = tmp_path / "garbage.hset"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        main(["hitting-set", "--input", str(path), "--format", "hset"])


@pytest.mark.parametrize("case", sorted(CSR_GARBAGE))
def test_cli_rejects_hand_written_csr_garbage(tmp_path, case):
    data, message = CSR_GARBAGE[case]
    path = tmp_path / "garbage.csr"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        main(["mis", "--input", str(path), "--format", "csr"])


@pytest.mark.parametrize(
    "overrides, error, message",
    [
        ({"no_such_knob": 1}, SystemExit, "unknown parameter: no_such_knob"),
        ({"outdeg_cap": "eight"}, SystemExit, "parameter outdeg_cap: expected int"),
        ({"outdeg_cap": -1}, ValueError, "parameter outdeg_cap must be >= 0"),
        ({"beta": 0}, ValueError, "parameter beta must be finite and > 0"),
        ({"outdeg_cap": 4, "gamma_high": None}, None, None),
        ({"mode": "bogus"}, SystemExit, "unknown parameter: mode"),
        ({"k_factor": 1e308}, ValueError, "parameter k_factor=1e\\+308 puts the level cap"),
        ({"mode": "paper"}, SystemExit, "unknown parameter: mode"),
    ],
)
def test_cli_params_files(tmp_path, overrides, error, message):
    graph = tmp_path / "path.txt"
    graph.write_text("0 1\n1 2\n2 3\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps(overrides))
    report = tmp_path / "report.json"
    argv = ["mis", "--input", str(graph), "--params", str(params), "--report", str(report)]
    if error is not None:
        with pytest.raises(error, match=message):
            main(argv)
        return
    assert main(argv) == 0
    assert all(c["ok"] for c in json.loads(report.read_text())["certificates"])


def reference_pairs(edges, weights):
    """{(lo, hi): summed weight} in plain Python, each pair's weights added
    in input order (1.0 per edge without weights), keys in ascending order."""
    pair_w: dict[tuple[int, int], float] = {}
    for k, (u, v) in enumerate(edges):
        key = (min(u, v), max(u, v))
        pair_w[key] = pair_w.get(key, 0.0) + (1.0 if weights is None else weights[k])
    return dict(sorted(pair_w.items()))


def reference_csr(edges, n, weights):
    """(offsets, nbrs, weights) in plain Python: reference_pairs' sums,
    adjacency sorted by (owner, neighbour)."""
    pair_w = reference_pairs(edges, weights)
    slots = sorted(s for (u, v), w in pair_w.items() for s in ((u, v, w), (v, u, w)))
    offsets = [0] * (n + 1)
    for u, _, _ in slots:
        offsets[u + 1] += 1
    for u in range(n):
        offsets[u + 1] += offsets[u]
    return offsets, [v for _, v, _ in slots], [w for _, _, w in slots]


def assert_same_array(a, values, dtype):
    assert a.dtype == dtype and a.tobytes() == np.array(values, dtype=dtype).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    data=st.data(),
    weighted=st.booleans(),
    crowded=st.booleans(),
    top=st.booleans(),
)
def test_sort_edges_to_csr_matches_a_plain_python_reference(n, data, weighted, crowded, top):
    """sort_edges_to_csr against the plain-Python merge. With crowded,
    n <= 5 and there are at least n * n edges, so most pairs repeat and
    the builder sums long runs of equal slot codes. With top, the edges
    lie on the top ids of a graph of n + 70 000 nodes, whose slot codes
    exceed 2^32."""
    if crowded:
        n = min(n, 5)
    shift = 70_000 if top else 0
    # an offset in [1, n) from u gives every ordered pair u != v
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))).map(
        lambda e: (e[0], (e[0] + e[1]) % n)
    )
    min_size = n * n if crowded else 0
    edges = []
    if n > 1:
        edges = data.draw(st.lists(pairs, min_size=min_size, max_size=max(40, min_size)))
    # weights of very different size, so the summation order shows in the bytes;
    # 0.0 gives pairs whose weights sum to 0
    weight = st.sampled_from([0.0, 0.1, 0.3, 1.0, 1e-17, 1e17, 2.5e-300])
    weights = None
    if weighted:
        weights = data.draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    edges = [(u + shift, v + shift) for u, v in edges]
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)

    g = sort_edges_to_csr(e, n + shift, weights=weights)
    offsets, nbrs, ws = reference_csr(edges, n + shift, weights)
    assert_same_array(g.offsets, offsets, np.int64)
    assert_same_array(g.nbrs, nbrs, np.int64)
    if weighted:
        assert_same_array(g.weights, ws, np.float64)
    else:
        assert g.weights is None


@settings(max_examples=40, deadline=None)
@given(
    exponent=st.integers(2, 17),
    size_share=st.floats(0.0, 1.0),
    n_u=st.integers(0, 4),
    base_level=st.integers(0, 7),
    tall_above=st.integers(1, 3),
    tall_share=st.sampled_from([0.0, 0.5, 1.0]),
    aux=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# N = 4: watchers of the level-6 layer would reach K = 3 with 8 times their mass
@example(2, 1.0, 2, 0, 3, 1.0, False, 0)
# N = 16: aux edges among candidates one level above K = 6
@example(4, 1.0, 4, 7, 1, 1.0, True, 0)
def test_core_certifies_or_rejects_with_a_message(
    exponent, size_share, n_u, base_level, tall_above, tall_share, aux, seed
):
    """Core instances at N from 4 to 2^17 with a layer of candidates one to
    three levels above K, watched for a share of each watcher's mass in
    [5, 9] (and partly unwatched), the rest at a base level; with or
    without about 3 random aux edges per candidate. At most of these N a
    low-regime bucket falls below 2, and the call must then certify or
    raise a ValueError that says why."""
    params = ParamSet.desk()
    size = max(4, 2 ** (exponent - 1) + round(size_share * 2 ** (exponent - 1)))
    k_cap = params.level_cap(size)
    base_level, tall_level = min(base_level, k_cap), k_cap + tall_above
    rng = np.random.default_rng(seed)
    mass = rng.uniform(5.0, 9.0, size=n_u)
    n_tall = np.minimum(np.round(tall_share * mass * 2.0**tall_level), 600).astype(np.int64)
    n_base = np.ceil((mass - n_tall * 2.0**-tall_level) * 2.0**base_level).astype(np.int64)
    pool_base, pool_tall = 2 * int(n_base.max(initial=1)), 2 * int(n_tall.max(initial=0)) + 20
    n_v = pool_base + pool_tall
    edge_v = [rng.choice(pool_base, size=d, replace=False) for d in n_base]
    edge_v += [pool_base + rng.choice(pool_tall, size=d, replace=False) for d in n_tall]
    ai, aj = rng.integers(0, n_v, size=(2, 3 * n_v if aux else 0))
    code = np.unique(ai[ai < aj] * np.int64(n_v) + aj[ai < aj])
    inst = MisAuxInstance(
        imp=rng.random(n_u) + 0.2,
        levels=np.repeat([base_level, tall_level], [pool_base, pool_tall]),
        edge_u=np.repeat(np.tile(np.arange(n_u), 2), np.concatenate([n_base, n_tall])),
        edge_v=np.concatenate(edge_v + [np.empty(0, np.int64)]),
        aux_i=code // n_v,
        aux_j=code % n_v,
        aux_w=rng.random(len(code)),
        vert_w=np.zeros(n_v),
        size_param=size,
    )
    try:
        res = core_mis_hitting(inst, params)
    except ValueError as exc:
        assert str(exc), "ValueError without a message"
        return
    assert len(res.selected) == n_v and not np.any(res.u_good & (res.hits == 0))
