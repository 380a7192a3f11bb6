"""Mixed graphs: undirected edges plus directed arcs on vertices 0..n-1.

The strict representation forbids self-loops, duplicates, digons (a pair of
opposite arcs must be stored as an edge) and arcs parallel to an edge.  All
graph objects are immutable; derived data is cached per instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DigonConflictError,
    DuplicateError,
    LabelOutOfRangeError,
    ParallelArcEdgeError,
    SelfLoopError,
)

__all__ = [
    "MixedGraph",
    "DegreeProfile",
    "RepeatMultiset",
    "build",
    "is_isomorphic",
]

UNREACHABLE = None


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex (edge degree, out-degree, in-degree)."""

    r: tuple[int, ...]
    z_out: tuple[int, ...]
    z_in: tuple[int, ...]


@dataclass(frozen=True)
class RepeatMultiset:
    """Excess walk counts nu(v) - 1 from a root within a given radius,
    restricted to vertices with nu(v) >= 2."""

    root: int
    radius: int
    excess: dict[int, int]
    total: int


@dataclass(frozen=True)
class MixedGraph:
    n: int
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, sorted
    arcs: tuple[tuple[int, int], ...]  # sorted

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(n, edges, arcs) -> "MixedGraph":
        """Validate and normalize."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise LabelOutOfRangeError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(f"self-loop edge at {u}")
            e = (min(u, v), max(u, v))
            if e in edge_set:
                raise DuplicateError(f"duplicate edge {e}")
            edge_set.add(e)
        arc_set = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise LabelOutOfRangeError(f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise SelfLoopError(f"self-loop arc at {u}")
            if (u, v) in arc_set:
                raise DuplicateError(f"duplicate arc ({u}, {v})")
            arc_set.add((u, v))
        digons = {(u, v) for (u, v) in arc_set if u < v and (v, u) in arc_set}
        if digons:
            raise DigonConflictError(f"digons present: {sorted(digons)}")
        for u, v in arc_set:
            if (min(u, v), max(u, v)) in edge_set:
                raise ParallelArcEdgeError(f"arc ({u}, {v}) parallel to an edge")
        return MixedGraph(n=n, edges=tuple(sorted(edge_set)), arcs=tuple(sorted(arc_set)))

    # -- adjacency --------------------------------------------------------

    @cached_property
    def edge_neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbrs)

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            nbrs[u].append(v)
        return tuple(tuple(sorted(x)) for x in nbrs)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            nbrs[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbrs)

    def successors(self, u: int) -> tuple[int, ...]:
        """Vertices reachable from u in one step (edges + outgoing arcs)."""
        return self.edge_neighbors[u] + self.out_neighbors[u]

    # -- degrees ----------------------------------------------------------

    def degrees(self) -> DegreeProfile:
        return DegreeProfile(
            r=tuple(len(x) for x in self.edge_neighbors),
            z_out=tuple(len(x) for x in self.out_neighbors),
            z_in=tuple(len(x) for x in self.in_neighbors),
        )

    def total_regularity(self):
        """The (r, z) pair if the graph is totally regular, else None."""
        from .bounds import DegreePair

        prof = self.degrees()
        if self.n == 0:
            return None
        r0, zo0, zi0 = prof.r[0], prof.z_out[0], prof.z_in[0]
        if zo0 != zi0:
            return None
        for u in range(1, self.n):
            if prof.r[u] != r0 or prof.z_out[u] != zo0 or prof.z_in[u] != zo0:
                return None
        if r0 + zo0 < 1:
            return None
        return DegreePair(r0, zo0)

    # -- distances --------------------------------------------------------

    def distances_from(self, u: int) -> list:
        """BFS distances from u; UNREACHABLE (None) where no path exists."""
        dist = [UNREACHABLE] * self.n
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            for y in self.successors(x):
                if dist[y] is UNREACHABLE:
                    dist[y] = dist[x] + 1
                    q.append(y)
        return dist

    def distances(self) -> list[list]:
        return [self.distances_from(u) for u in range(self.n)]

    def diameter(self, limit: int | None = None):
        """Max distance over ordered pairs; UNREACHABLE if disconnected or,
        given `limit`, as soon as some distance exceeds it."""
        bound = self.n if limit is None else limit
        diam = 0
        for u in range(self.n):
            for d in self.distances_from(u):
                if d is UNREACHABLE or d > bound:
                    return UNREACHABLE
                if d > diam:
                    diam = d
        return diam

    def layers(self, u: int) -> list[list[int]]:
        """Reachable vertices partitioned by distance from u."""
        dist = self.distances_from(u)
        reach = [d for d in dist if d is not UNREACHABLE]
        out = [[] for _ in range(max(reach) + 1)]
        for v, d in enumerate(dist):
            if d is not UNREACHABLE:
                out[d].append(v)
        return out

    # -- walk counting ----------------------------------------------------

    def tree_walk_counts(self, u: int, k: int) -> dict[int, int]:
        """nu(v): number of non-backtracking walks of length <= k from u to v.

        A walk may not immediately re-traverse the edge it just used; arcs
        impose no constraint.  State = (vertex, edge used on the last step or
        None).  nu(u) includes the empty walk.
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        # state keyed by (vertex, last-edge) where last-edge is a sorted pair or None
        current = {(u, None): 1}
        counts = {u: 1}
        for _ in range(k):
            nxt = {}
            for (v, last), c in current.items():
                for w in self.edge_neighbors[v]:
                    e = (min(v, w), max(v, w))
                    if e == last:
                        continue
                    key = (w, e)
                    nxt[key] = nxt.get(key, 0) + c
                for w in self.out_neighbors[v]:
                    key = (w, None)
                    nxt[key] = nxt.get(key, 0) + c
            for (v, _), c in nxt.items():
                counts[v] = counts.get(v, 0) + c
            current = nxt
        return counts

    def repeat_multiset(self, u: int, k: int) -> RepeatMultiset:
        """Vertices revisited within radius k from u, with multiplicities."""
        counts = self.tree_walk_counts(u, k)
        excess = {v: c - 1 for v, c in counts.items() if c >= 2}
        return RepeatMultiset(root=u, radius=k, excess=excess, total=sum(excess.values()))

    # -- transforms -------------------------------------------------------

    def converse(self) -> "MixedGraph":
        """Reverse every arc; edges unchanged."""
        return MixedGraph(
            n=self.n,
            edges=self.edges,
            arcs=tuple(sorted((v, u) for u, v in self.arcs)),
        )

    def relabel(self, perm) -> "MixedGraph":
        """Apply vertex relabeling v -> perm[v]; perm must be a permutation
        of range(n)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"relabeling is not a permutation of range({self.n}): {list(perm)}")
        edges = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in self.edges)
        )
        arcs = tuple(sorted((perm[u], perm[v]) for u, v in self.arcs))
        return MixedGraph(n=self.n, edges=edges, arcs=arcs)

    # -- isomorphism (implemented in canon.py) ----------------------------

    @cached_property
    def _canon(self):
        from .canon import canonicalize

        return canonicalize(self)

    def canonical_form(self):
        return self._canon.form

    def automorphism_count(self) -> int:
        return self._canon.automorphisms


def build(n, edges, arcs) -> MixedGraph:
    return MixedGraph.build(n, edges, arcs)


def is_isomorphic(g: MixedGraph, h: MixedGraph) -> bool:
    if g.n != h.n:
        return False
    return g.canonical_form().encoding == h.canonical_form().encoding
