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
        # `loads` splits with str.splitlines, so each piece gets its own "# "
        lines += [f"# {piece}" for piece in c.splitlines()]
    lines.append(f"n {g.n}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    for u, v in sorted(g.arcs):
        lines.append(f"a {u} {v}")
    return "\n".join(lines) + "\n"


def _natural(field: str, error: str) -> int:
    # int() would also accept signs, underscores and non-ASCII digits
    if not (field.isascii() and field.isdigit()):
        raise MgfFormatError(error)
    return int(field)


def loads(text: str) -> MixedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != "mgf 1":
        raise MgfFormatError("missing or bad header (expected 'mgf 1')")
    head = lines[1].split(" ") if len(lines) > 1 else []
    if len(head) != 2 or head[0] != "n":
        raise MgfFormatError("missing or bad vertex-count line (expected 'n <N>')")
    n = _natural(head[1], f"bad vertex-count line: {lines[1]!r}")
    edges, arcs = [], []
    for ln in lines[2:]:
        parts = ln.split(" ")
        if len(parts) != 3 or parts[0] not in ("e", "a"):
            raise MgfFormatError(f"bad line: {ln!r}")
        u, v = (_natural(field, f"bad line: {ln!r}") for field in parts[1:])
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
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(g, comments=comments))


def load(path) -> MixedGraph:
    try:
        with open(path, encoding="utf-8") as f:
            return loads(f.read())
    except UnicodeDecodeError as exc:
        raise MgfFormatError(f"not UTF-8 text: {exc}") from exc
