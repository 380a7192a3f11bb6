"""Canonical labeling of mixed graphs by partition refinement plus
individualization.

The refinement colors vertices by (edge degree, out-degree, in-degree) and
iterates on neighborhood color multisets (edge / out-arc / in-arc kept
separate).  Non-singleton cells are resolved by branching on the vertices of
the first such cell, one per class of twins (vertices that a transposition
automorphism swaps).  The least relabeled (edges, arcs) over all leaves is
the canonical graph, and the number of leaves attaining it is the
automorphism group order; `canonicalize` returns both in one
`CanonicalForm`.  The canonical graph is the isomorphism-class key: a
frozen `MixedGraph` is hashable and compares by (n, edges, arcs).
Exponential in the worst case; for n up to ~24.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeLimitExceededError
from .graph import MixedGraph

__all__ = ["CanonicalForm", "canonicalize"]

SIZE_CAP = 24


@dataclass(frozen=True)
class CanonicalForm:
    """The canonically labeled graph and |Aut|.

    Isomorphic mixed graphs have equal canonical graphs, and only they do."""

    graph: MixedGraph
    automorphisms: int


def _refine(g, colors):
    """Iterate neighborhood-multiset refinement until stable."""
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            sigs.append(
                (
                    colors[v],
                    tuple(sorted(colors[w] for w in g.edge_neighbors[v])),
                    tuple(sorted(colors[w] for w in g.out_neighbors[v])),
                    tuple(sorted(colors[w] for w in g.in_neighbors[v])),
                )
            )
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        new = tuple(rank[s] for s in sigs)
        if new == colors:
            return new
        colors = new


def _relabeled(g, label):
    """Edge/arc tuples of the graph relabeled by `label` (old -> new)."""
    edges = tuple(
        sorted((label[u], label[v]) if label[u] < label[v] else (label[v], label[u]) for u, v in g.edges)
    )
    arcs = tuple(sorted((label[u], label[v]) for u, v in g.arcs))
    return edges, arcs


def _first_nonsingleton_cell(colors, n):
    cells = {}
    for v in range(n):
        cells.setdefault(colors[v], []).append(v)
    for c in sorted(cells):
        if len(cells[c]) > 1:
            return cells[c]
    return None


def canonicalize(g) -> CanonicalForm:
    n = g.n
    if n > SIZE_CAP:
        raise SizeLimitExceededError(f"n={n} exceeds canonical-labeling cap {SIZE_CAP}")

    # twin[v]: the least u such that swapping u and v is an automorphism
    nbrs = [(set(g.edge_neighbors[v]), g.out_neighbors[v], g.in_neighbors[v]) for v in range(n)]
    twin = list(range(n))
    for u, v in itertools.combinations(range(n), 2):
        (eu, ou, iu), (ev, ov, iv) = nbrs[u], nbrs[v]
        if twin[v] == v and ou == ov and iu == iv and eu - {v} == ev - {u}:
            twin[v] = u

    def descend(colors):
        """(least leaf key, leaves attaining it) over the subtree below
        `colors`."""
        colors = _refine(g, colors)
        cell = _first_nonsingleton_cell(colors, n)
        if cell is None:
            return _relabeled(g, colors), 1  # color index is the new label
        done = {}
        for v in cell:
            # twins in one cell are swapped by an automorphism that fixes
            # this node, so their subtrees hold the same leaf keys
            if twin[v] not in done:
                # individualize v: give it a color just below the rest of its cell
                sigs = [(colors[u], 0 if u == v else 1) for u in range(n)]
                rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
                done[twin[v]] = descend(tuple(rank[s] for s in sigs))
        subs = [done[twin[v]] for v in cell]
        key = min(key for key, _ in subs)
        return key, sum(count for k, count in subs if k == key)

    # one refinement round splits uniform colors by (edge, out, in) degree
    (edges, arcs), count = descend((0,) * n)
    # the least leaf key is g's sorted edges and arcs under that leaf's labeling
    return CanonicalForm(graph=MixedGraph(n=n, edges=edges, arcs=arcs), automorphisms=count)
