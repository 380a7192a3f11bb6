"""Named mixed-graph constructions used as independent witnesses against
the exhaustive search output."""

from __future__ import annotations

from importlib import resources

from .graph import MixedGraph
from . import mgf

__all__ = [
    "cycle",
    "line_digraph_of_cycle_digons",
    "cayley_dihedral",
    "golden_path",
    "golden_graph",
    "golden_graphs",
]


def cycle(n: int, directed: bool) -> MixedGraph:
    """Undirected n-cycle (edges) or directed n-cycle (arcs)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    pairs = [(i, (i + 1) % n) for i in range(n)]
    if directed:
        return MixedGraph.build(n, [], pairs)
    return MixedGraph.build(n, pairs, [])


def line_digraph_of_cycle_digons(n: int) -> MixedGraph:
    """Line digraph of the n-cycle viewed as a digraph of digons.

    Vertices are the 2n arcs of the digon cycle: i is (i, i+1) and n + i is
    (i+1, i), indices mod n.  Consecutive arcs (u, v), (v, w) are joined.
    Where w = u the pair is joined both ways, and that digon is an edge,
    giving a (1, 1)-regular mixed graph on 2n vertices.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    darcs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    index = {a: i for i, a in enumerate(darcs)}
    edges = [(i, n + i) for i in range(n)]
    arcs = [(index[(u, v)], index[(v, w)]) for (u, v) in darcs for (x, w) in darcs if x == v and w != u]
    return MixedGraph.build(2 * n, edges, arcs)


def cayley_dihedral(n: int) -> MixedGraph:
    """Cayley graph of the dihedral group of order 2n with a rotation
    generator (arcs) and a reflection generator (edges).

    Element rho^i sigma^s is vertex 2i + s.  Right-multiplying by the
    rotation gives an arc, by the reflection an edge.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    edges, arcs = [], []
    for i in range(n):
        for s in (0, 1):
            v = 2 * i + s
            # x * rho = rho^(i + (-1)^s) sigma^s
            j = (i + (1 if s == 0 else -1)) % n
            arcs.append((v, 2 * j + s))
            # x * sigma = rho^i sigma^(1 - s); record each edge once
            if s == 0:
                edges.append((v, v + 1))
    return MixedGraph.build(2 * n, edges, arcs)


def golden_path(index: int):
    """Path to the shipped extremal (1,1)-regular diameter-3 graph files."""
    if index not in (0, 1, 2):
        raise ValueError("golden index must be 0, 1 or 2")
    return resources.files("mooremix") / "golden" / f"extremal_1_1_k3_n10_{index}.mgf"


def golden_graph(index: int) -> MixedGraph:
    return mgf.loads(golden_path(index).read_text())


def golden_graphs() -> list[MixedGraph]:
    return [golden_graph(i) for i in range(3)]
