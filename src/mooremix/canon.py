"""Canonical labeling of mixed graphs by partition refinement plus
individualization, pruned by automorphisms.

The refinement colors vertices by (edge degree, out-degree, in-degree) and
iterates on neighborhood color multisets (edge / out-arc / in-arc kept
separate).  Non-singleton cells are resolved by branching on the vertices of
the first such cell, each in turn split off just below the rest of its cell.
At a leaf every color is a new label, and the leaf key is the graph's sorted
(edges, arcs) under it (`graph._relabeled`, which `MixedGraph.relabel` uses
too).  The least leaf key is the canonical graph, and the number of leaves
attaining it is |Aut|;
`canonicalize` returns both in one `CanonicalForm`, whose graph is the
isomorphism-class key (a frozen `MixedGraph` compares by (n, edges, arcs)).

Two leaves with one key give an automorphism; the transpositions of twins
seed the set.  A child that a known automorphism fixing the path maps onto
an explored sibling reuses the sibling's (key, count), and a leaf that
repeats an earlier leaf's key sends the search back to where their paths
part, to do the same there.  Counts are summed over all children, reused
ones included, so the canonical graph and |Aut| are those of the whole
tree.  Exponential in the worst case; for n up to ~24.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitExceededError
from .graph import MixedGraph, _relabeled

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

    # automorphisms found so far (vertex -> image), seeded with a chain of
    # transpositions through each class of twins (vertices whose swap is one)
    nbrs = [(set(g.edge_neighbors[v]), g.out_neighbors[v], g.in_neighbors[v]) for v in range(n)]
    gens = []
    for v in range(n):
        for u in reversed(range(v)):
            (eu, ou, iu), (ev, ov, iv) = nbrs[u], nbrs[v]
            if ou == ov and iu == iv and eu - {v} == ev - {u}:
                gens.append(tuple(u if w == v else v if w == u else w for w in range(n)))
                break
    first = {}  # leaf key -> its first leaf, as new label -> vertex
    path = []  # the vertices individualized above the current node

    def descend(colors):
        """(least leaf key, leaves attaining it) over the subtree below
        `colors`; or (None, i) when a leaf found an automorphism that fixes
        path[:i] and maps path[i]'s subtree onto an explored sibling's."""
        colors = _refine(g, colors)
        cell = _first_nonsingleton_cell(colors, n)
        if cell is None:
            key = _relabeled(g, colors)  # color index is the new label
            if key not in first:
                first[key] = sorted(range(n), key=colors.__getitem__)
                return key, 1
            # gamma maps this leaf, and the path to it, onto the first leaf
            # with the same key
            gamma = tuple(map(first[key].__getitem__, colors))
            gens.append(gamma)
            return None, next(i for i, v in enumerate(path) if gamma[v] != v)
        done = {}
        for v in cell:
            # an automorphism that fixes the path maps the subtree of v onto
            # that of its image
            fixing = [gen for gen in gens if all(gen[u] == u for u in path)]
            orbit = [v]
            for u in orbit:
                orbit += {gen[u] for gen in fixing}.difference(orbit)
            sibling = next((u for u in orbit if u in done), None)
            if sibling is None:
                # individualize v: the colors are dense ranks, so v keeps its
                # color c, the rest of its cell moves to c + 1 and higher
                # colors move up one
                c = colors[v]
                path.append(v)
                key, count = descend(tuple(x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)))
                path.pop()
                if key is not None:
                    done[v] = key, count
                    continue
                if count < len(path):
                    return None, count
                sibling = gens[-1][v]
            done[v] = done[sibling]
        key = min(key for key, _ in done.values())
        return key, sum(count for k, count in done.values() if k == key)

    # one refinement round splits uniform colors by (edge, out, in) degree
    (edges, arcs), count = descend((0,) * n)
    descend = None  # free the closure now: it refers to itself through its cell
    # the least leaf key is g's sorted edges and arcs under that leaf's labeling
    return CanonicalForm(graph=MixedGraph(n=n, edges=edges, arcs=arcs), automorphisms=count)
