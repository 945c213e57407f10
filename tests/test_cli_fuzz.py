"""Fuzz pass over every CLI subcommand.

Inputs are empty, one-edge, star and clique edge lists, as edge-list text,
as CSR files and (for hitting-set) as HSET files, whole or cut inside one
of their sections. Every run must either exit 0 with every certificate ok
or raise a ValueError or SystemExit that carries a message.
"""

import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpar.cli import main
from dpar.graph import sort_edges_to_csr, write_csr
from dpar.hitting import BipartiteInstance, write_hset

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
    level=st.integers(0, 8),
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
            return
        certificates = json.loads(report.read_text())["certificates"]
        assert rc == 0 and certificates and all(c["ok"] for c in certificates)
