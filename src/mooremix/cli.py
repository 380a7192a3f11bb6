"""Command-line interface.

Subcommands: bound, table, search, verify, spectrum, iso, converse,
construct.  Exit codes: 0 success, 1 negative iso answer, 2 bad flags or
values, 3 degenerate closed-form parameters, 4 search cap exceeded, 5 bad
or unreadable MGF file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions, mgf, spectral
from .bounds import (
    DegreePair,
    improved_bound,
    moore_bound,
    moore_bound_closed_form,
    moore_table,
)
from .errors import CapExceededError, DegenerateParametersError, MgfFormatError, MooremixError
from .graph import is_isomorphic
from .search import DiameterMode, SearchSpec, enumerate_classes


def _cmd_bound(args) -> int:
    dp = DegreePair(args.r, args.z)
    m = moore_bound(dp, args.k)
    out = {"M": m}
    parts = [f"M={m}"]
    if args.closed_form:
        cf = moore_bound_closed_form(dp, args.k)
        out["closed_form"] = cf
        parts.append(f"closed_form={cf!r}")
    if args.improved:
        rep = improved_bound(dp, args.k)
        out["improved"] = rep.improved
        out["rules"] = list(rep.rule_trace)
        parts.append(f"improved={rep.improved} rules=[{','.join(rep.rule_trace)}]")
    print(json.dumps(out) if args.json else " ".join(parts))
    return 0


def _cmd_table(args) -> int:
    table = moore_table(args.dmax, args.kmax)
    if args.format == "csv":
        print("d,z,r,k,M")
        for d in range(1, args.dmax + 1):
            for z in range(d + 1):
                for k in range(1, args.kmax + 1):
                    print(f"{d},{z},{d - z},{k},{table[(d, z, k)]}")
    else:
        header = "d  z | " + " ".join(f"k={k}" for k in range(1, args.kmax + 1))
        print(header)
        print("-" * len(header))
        for d in range(1, args.dmax + 1):
            for z in range(d + 1):
                row = " ".join(str(table[(d, z, k)]) for k in range(1, args.kmax + 1))
                print(f"{d}  {z} | {row}")
    return 0


def _cmd_search(args) -> int:
    dp = DegreePair(args.r, args.z)
    mode = DiameterMode.AT_MOST if args.mode == "at-most" else DiameterMode.EXACT
    spec = SearchSpec(dp=dp, k=args.k, n=args.n, diameter_mode=mode)
    out_dir = None if args.out is None else Path(args.out)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)  # fail before the search, not after
    res = enumerate_classes(spec)
    print(f"classes={len(res.graphs)}")
    if res.infeasible_reason:
        print(f"infeasible: {res.infeasible_reason}")
    if out_dir is None:
        return 0
    for i, g in enumerate(res.graphs):
        path = out_dir / f"{args.r}_{args.z}_k{args.k}_n{args.n}_{i}.mgf"
        mgf.dump(g, path, comments=[f"class {i} of {len(res.graphs)}"])
    log = {
        "classes": len(res.graphs),
        "nodes_explored": res.nodes_explored,
        "pruned": res.pruned,
        "wall_time": res.wall_time,
    }
    with open(out_dir / "search_run_log.jsonl", "a") as f:
        f.write(json.dumps(log) + "\n")
    return 0


def _cmd_verify(args) -> int:
    g = _load(args.file)
    dp = g.total_regularity()
    diam = g.diameter()
    diam_s = "unreachable" if diam is None else str(diam)
    reps = [g.repeat_multiset(u, args.k).total for u in range(g.n)]
    min_rep = min(reps) if reps else 0
    if dp is None:
        print(f"regular=none diameter={diam_s} min_rep={min_rep} slack=NA")
        return 0
    m = moore_bound(dp, args.k)
    slack = m - min_rep - g.n
    print(f"regular=({dp.r},{dp.z}) diameter={diam_s} min_rep={min_rep} slack={slack}")
    return 0


def _load(path):
    try:
        return mgf.load(path)
    except OSError as exc:
        raise MgfFormatError(str(exc)) from exc


def _cmd_spectrum(args) -> int:
    g = _load(args.file)
    print(spectral.char_poly(g))
    return 0


def _cmd_iso(args) -> int:
    a, b = _load(args.file_a), _load(args.file_b)
    if is_isomorphic(a, b):
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _cmd_converse(args) -> int:
    g = _load(args.file)
    sys.stdout.write(mgf.dumps(g.converse()))
    return 0


def _cmd_construct(args) -> int:
    if args.name == "cycle":
        g = constructions.cycle(args.n, directed=args.directed)
    elif args.name == "line-digraph":
        g = constructions.line_digraph_of_cycle_digons(args.n)
    elif args.name == "cayley-dihedral":
        g = constructions.cayley_dihedral(args.n)
    else:  # pragma: no cover - argparse choices guard this
        return 2
    sys.stdout.write(mgf.dumps(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mooremix", description="Moore-like bounds and extremal mixed graphs")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="Moore bound for (r, z, k)")
    b.add_argument("-r", type=int, required=True)
    b.add_argument("-z", type=int, required=True)
    b.add_argument("-k", type=int, required=True)
    b.add_argument("--improved", action="store_true")
    b.add_argument("--closed-form", action="store_true")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bound)

    t = sub.add_parser("table", help="table of Moore bounds")
    t.add_argument("--dmax", type=int, default=5)
    t.add_argument("--kmax", type=int, default=5)
    t.add_argument("--format", choices=("text", "csv"), default="text")
    t.set_defaults(func=_cmd_table)

    s = sub.add_parser("search", help="enumerate regular mixed graphs up to isomorphism")
    s.add_argument("-r", type=int, required=True)
    s.add_argument("-z", type=int, required=True)
    s.add_argument("-k", type=int, required=True)
    s.add_argument("-n", type=int, required=True)
    s.add_argument("--mode", choices=("exact", "at-most"), default="exact")
    s.add_argument("--out", help="directory for the MGF files and search_run_log.jsonl")
    s.set_defaults(func=_cmd_search)

    v = sub.add_parser("verify", help="check regularity, diameter and repeats of an MGF file")
    v.add_argument("file")
    v.add_argument("-k", type=int, required=True)
    v.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("spectrum", help="exact characteristic polynomial")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_spectrum)

    i = sub.add_parser("iso", help="isomorphism test for two MGF files")
    i.add_argument("file_a")
    i.add_argument("file_b")
    i.set_defaults(func=_cmd_iso)

    c = sub.add_parser("converse", help="reverse all arcs")
    c.add_argument("file")
    c.set_defaults(func=_cmd_converse)

    ct = sub.add_parser("construct", help="named constructions")
    ct.add_argument("name", choices=("cycle", "line-digraph", "cayley-dihedral"))
    ct.add_argument("n", type=int)
    ct.add_argument("--directed", action="store_true", help="cycle only")
    ct.set_defaults(func=_cmd_construct)

    return p


# exit code per error type (see the module docstring); any other
# MooremixError, ValueError or OSError means a bad argument value: exit 2
_EXIT_CODES = {DegenerateParametersError: 3, CapExceededError: 4, MgfFormatError: 5}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MooremixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
