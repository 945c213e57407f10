"""Command-line harness.

Subcommands: color, defective, maxcut, hitting-set, matching, mis.
Every run re-verifies its output with the scanning oracles and exits 0
only when all of them pass; --report writes the full JSON report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing

from . import bench
from .graph import Graph, read_csr, read_edgelist, sort_edges_to_csr
from .hitting import ParamSet, read_hset


def _coerce_param(name: str, kind, value):
    """value as the type the ParamSet field declares (None where allowed)."""
    kinds = typing.get_args(kind) or (kind,)
    if value is None and type(None) in kinds:
        return None
    base = next(k for k in kinds if k is not type(None))
    try:
        out = base(value)
    except (TypeError, ValueError):
        out = None
    # bool would pass as an int, and int() would silently truncate 6.5
    if out is None or isinstance(value, bool) or (base is int and out != value):
        raise SystemExit(f"parameter {name}: expected {base.__name__}, got {value!r}")
    return out


def _load_params(args) -> ParamSet:
    params = ParamSet.paper() if args.mode == "paper" else ParamSet.desk()
    if getattr(args, "params", None):
        with open(args.params) as f:
            overrides = json.load(f)
        kinds = typing.get_type_hints(ParamSet)
        for key in overrides:
            if key not in kinds:
                raise SystemExit(f"unknown parameter: {key}")
        params = dataclasses.replace(
            params, **{key: _coerce_param(key, kinds[key], v) for key, v in overrides.items()}
        )
    return params


def _load_graph(args) -> Graph:
    if args.format == "csr":
        return read_csr(args.input)
    if args.format == "edgelist":
        edges, weights, n = read_edgelist(args.input)
        return sort_edges_to_csr(edges, n, weights=weights)
    raise SystemExit(f"format {args.format} does not describe a graph")


def _emit(report: dict, args) -> int:
    if args.report:
        bench.write_json(args.report, report)
    ok = bool(report.get("ok"))
    cert_lines = [
        f"  {c['name']}: value={c['value']:.6g} bound={c['bound']:.6g} "
        f"({c['sense']}) {'ok' if c['ok'] else 'FAIL'}"
        for c in report.get("certificates", [])
    ]
    print(f"{report['algorithm']}: {'ok' if ok else 'FAIL'}")
    for line in cert_lines:
        print(line)
    return 0 if ok else 1


def _add_common(sp):
    sp.add_argument("--input", required=True, help="input file")
    sp.add_argument(
        "--format",
        default="edgelist",
        choices=["edgelist", "csr", "hset"],
        help="input encoding",
    )
    sp.add_argument("--params", help="JSON file with parameter overrides")
    sp.add_argument("--mode", default="desk", choices=["paper", "desk"])
    sp.add_argument("--seed", type=int, default=0, help="baseline RNG seed")
    sp.add_argument("--report", help="write the JSON report here")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="dpar")
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("color", "matching", "mis"):
        sp = sub.add_parser(name)
        _add_common(sp)
        if name == "mis":
            sp.add_argument("--baseline", action="store_true", help="run the seeded Luby baseline")

    for name in ("defective", "maxcut"):
        sp = sub.add_parser(name)
        _add_common(sp)
        sp.add_argument("--eps", type=float, default=0.25)

    sp = sub.add_parser("hitting-set")
    _add_common(sp)

    args = ap.parse_args(argv)

    params = _load_params(args)

    if args.command == "hitting-set":
        if args.format != "hset":
            raise SystemExit("hitting-set expects --format hset")
        inst = read_hset(args.input)
        report = bench.run_hitting(inst, params)
        return _emit(report, args)

    g = _load_graph(args)
    if args.command == "color":
        report = bench.run_color(g, params)
    elif args.command == "defective":
        report = bench.run_defective(g, args.eps, params)
    elif args.command == "maxcut":
        report = bench.run_maxcut(g, args.eps, params)
    elif args.command == "matching":
        report = bench.run_matching(g, params)
    elif args.command == "mis":
        if args.baseline:
            report = bench.run_luby(g, params, seed=args.seed)
        else:
            report = bench.run_mis(g, params)
    else:  # pragma: no cover
        raise SystemExit(f"unknown command {args.command}")
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
