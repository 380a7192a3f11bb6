"""MGF: a tiny line-based file format for mixed graphs.

    mgf 1
    n <N>
    e <u> <v>   (u < v, edges sorted lexicographically)
    a <u> <v>   (arcs sorted lexicographically)

Lines starting with `#` are comments; fields are separated by single spaces.
"""

from __future__ import annotations

from .errors import MgfFormatError
from .graph import MixedGraph

__all__ = ["dumps", "loads", "dump", "load"]


def dumps(g: MixedGraph, comments: list[str] | None = None) -> str:
    lines = ["mgf 1"]
    for c in comments or []:
        lines.append(f"# {c}")
    lines.append(f"n {g.n}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    for u, v in sorted(g.arcs):
        lines.append(f"a {u} {v}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> MixedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "mgf 1":
        raise MgfFormatError("missing or bad header (expected 'mgf 1')")
    if len(lines) < 2 or not lines[1].startswith("n "):
        raise MgfFormatError("missing vertex-count line")
    try:
        n = int(lines[1].split(" ")[1])
    except (IndexError, ValueError) as exc:
        raise MgfFormatError("bad vertex-count line") from exc
    edges, arcs = [], []
    for ln in lines[2:]:
        parts = ln.split(" ")
        if len(parts) != 3 or parts[0] not in ("e", "a"):
            raise MgfFormatError(f"bad line: {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise MgfFormatError(f"bad line: {ln!r}") from exc
        if parts[0] == "e":
            if u >= v:
                raise MgfFormatError(f"edge must have u < v: {ln!r}")
            edges.append((u, v))
        else:
            arcs.append((u, v))
    try:
        return MixedGraph.build(n, edges, arcs)
    except Exception as exc:
        raise MgfFormatError(f"invalid graph: {exc}") from exc


def dump(g: MixedGraph, path, comments: list[str] | None = None) -> None:
    with open(path, "w") as f:
        f.write(dumps(g, comments=comments))


def load(path) -> MixedGraph:
    with open(path) as f:
        return loads(f.read())
