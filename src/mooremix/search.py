"""Exhaustive isomorph-free enumeration of (r, z)-regular mixed graphs of a
given order and diameter.

Strategy: generate the non-isomorphic r-regular undirected skeletons, then
assign out-arcs vertex by vertex with one backtracker (no digons, no arc
parallel to an edge) whose bitset k-balls alone decide the diameter, and
keep the set of canonically labeled completed graphs, one per isomorphism
class.  On reaching vertex 2, and each vertex v where no skeleton edge joins
{0..v-1} to {v..n-1} (every even v on a matching, every v with no edges),
it goes on only from the first partial graph (skeleton plus the out-arcs
of vertices 0..v-1) of each isomorphism class.  The skeleton generator
treats the vertices that no edge touches yet as interchangeable and offers
only the first few of them, so for r = 0 it yields the edgeless graph and
for r = 1 only the matching {2i, 2i+1}.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .bounds import DegreePair, improved_bound
from .errors import CapExceededError
from .graph import MixedGraph

__all__ = [
    "DiameterMode",
    "SearchSpec",
    "SearchResult",
    "enumerate_classes",
    "max_order",
    "regular_skeletons",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 16


class DiameterMode(Enum):
    EXACT = "exact"
    AT_MOST = "at-most"


@dataclass(frozen=True)
class SearchSpec:
    dp: DegreePair
    k: int
    n: int
    diameter_mode: DiameterMode = DiameterMode.EXACT
    # the search runs in one process; kept only while bench/workloads.py
    # passes jobs=1
    jobs: int = 1

    def __post_init__(self):
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1, got {self.jobs}")


@dataclass
class SearchResult:
    graphs: list  # canonically labeled graph per class, sorted by (edges, arcs)
    nodes_explored: int = 0
    pruned: dict = field(default_factory=dict)
    wall_time: float = 0.0
    infeasible_reason: str | None = None


def order_cap() -> int:
    """Configured order cap; MOORE_SEARCH_CAP overrides the default."""
    raw = os.environ.get("MOORE_SEARCH_CAP")
    try:
        return int(raw) if raw else DEFAULT_ORDER_CAP
    except ValueError:
        raise ValueError(f"MOORE_SEARCH_CAP must be an integer, got {raw!r}") from None


# -- stage 1: undirected skeletons ----------------------------------------


def regular_skeletons(n: int, r: int) -> list[MixedGraph]:
    """Non-isomorphic r-regular undirected graphs on n vertices."""
    if r and (r >= n or (r * n) % 2):
        return []
    labeled = []

    def extend(v, deg, edges):
        if v == n:
            labeled.append(MixedGraph(n=n, edges=tuple(sorted(edges)), arcs=()))
            return
        need = r - deg[v]
        # vertices above v with no edge yet are interchangeable: offer `need`
        fresh = [w for w in range(v + 1, n) if deg[w] == 0][:need]
        candidates = sorted(fresh + [w for w in range(v + 1, n) if 0 < deg[w] < r])
        for combo in itertools.combinations(candidates, need):
            for w in combo:
                deg[w] += 1
            deg[v] = r
            extend(v + 1, deg, edges + [(v, w) for w in combo])
            deg[v] = r - need
            for w in combo:
                deg[w] -= 1

    extend(0, [0] * n, [])
    extend = None  # free the closure now: it refers to itself through its cell
    seen = {}
    for g in labeled:
        seen.setdefault(g.canonical_form().graph, g)
    return list(seen.values())


# -- stage 2/3: arc extension with pruning --------------------------------


def _graph(skeleton, out):
    """The mixed graph of `skeleton` plus the arcs v -> w for w in out[v]."""
    arcs = tuple((v, w) for v, targets in enumerate(out) for w in targets)
    return MixedGraph(n=skeleton.n, edges=skeleton.edges, arcs=arcs)


def _arc_backtrack(skeleton, z, k, mode, found, counters):
    """Give each vertex of `skeleton` z out-arcs, vertex by vertex, in all
    feasible ways: at most z in-arcs per vertex (so exactly z at the end),
    no digon, no arc along an edge.  Add the canonically labeled graph of
    each completed graph whose diameter suits `mode` to the set `found`;
    count nodes, prunes and diameter rejections in `counters`.

    Vertex sets are int bitmasks: step[v] holds the vertices one step from
    v known so far (its edge neighbours, plus its out-arcs once v is
    settled, i.e. has its arcs) and into[w] the settled vertices with an
    arc to w.  After each vertex is settled, the k-ball of every settled
    vertex is grown by OR-ing step masks; a ball with no open vertex within
    distance k - 1 of its centre is final, and if it misses a vertex the
    branch is pruned, since diameter <= k needs every k-ball to hold all n
    vertices.  So a completed graph has diameter <= k; exact mode keeps it
    only if some (k - 1)-ball misses a vertex, and no BFS runs."""
    n = skeleton.n
    full = (1 << n) - 1
    step = [sum(1 << w for w in nbrs) for nbrs in skeleton.edge_neighbors]
    into = [0] * n
    out = []
    indeg = [0] * n
    prefixes = set()
    # depths where no edge joins settled and open vertices (z = 0: one completion)
    joined = {v for a, b in skeleton.edges for v in range(a + 1, b + 1)}
    dedup = {v for v in range(1, n) if v == 2 or v not in joined} if z else set()

    def ball_prune(settled, radius):
        for u in range(settled):
            ball = frontier = 1 << u
            for _ in range(radius):
                if ball == full or frontier >> settled:
                    break  # full, or an open vertex inside: nothing to prune
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= step[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~ball
                ball |= reach
            else:
                if ball != full:
                    return True
        return False

    def rec(v):
        if v in dedup:
            # extend only the first prefix (the out-arcs of vertices 0..v-1)
            # of each isomorphism class of prefix graphs (the skeleton plus
            # those arcs).  For z >= 1 exactly the vertices 0..v-1 have
            # out-arcs, so an isomorphism of prefix graphs maps {0..v-1} onto
            # itself and the skeleton onto itself, and maps each completion of
            # one prefix onto one of the other.  The ball and deficit prunes
            # drop only graphs that cannot qualify.  This holds at any depth;
            # labeling pays where it merges many prefixes: at vertex 2, and
            # where the settled vertices are a union of skeleton components.
            prefix = _graph(skeleton, out).canonical_form().graph
            if prefix in prefixes:
                return
            prefixes.add(prefix)
        if v == n:
            # the last ball prune found every k-ball full: diameter <= k.
            # Exact mode also needs diameter > k - 1 (always so for k = 0)
            if mode is DiameterMode.EXACT and k and not ball_prune(n, k - 1):
                counters["reject_diameter"] += 1
                return
            found.add(_graph(skeleton, out).canonical_form().graph)
            return
        counters["nodes"] += 1
        # each missing in-arc of w must come from a vertex in v..n-1 that is
        # not w, not an edge neighbour of w and not an out-neighbour of w
        sources = full >> v << v
        for w in range(n):
            miss = z - indeg[w]
            if miss > 0 and miss > (sources & ~(step[w] | 1 << w)).bit_count():
                counters["prune_deficit"] += 1
                return
        edges, bit = step[v], 1 << v
        free = full & ~(edges | bit | into[v])
        candidates = [w for w in range(n) if free >> w & 1 and indeg[w] < z]
        for combo in itertools.combinations(candidates, z):
            out.append(combo)
            arcs = 0
            for w in combo:
                arcs |= 1 << w
                indeg[w] += 1
                into[w] |= bit
            step[v] = edges | arcs
            if ball_prune(v + 1, k):
                counters["prune_ball"] += 1
            else:
                rec(v + 1)
            out.pop()
            for w in combo:
                indeg[w] -= 1
                into[w] ^= bit
        step[v] = edges

    rec(0)
    rec = None  # free the closure now: it refers to itself through its cell


def enumerate_classes(spec: SearchSpec, cap: int | None = None) -> SearchResult:
    """All isomorphism classes of strict (r, z)-regular mixed graphs with
    the requested order and diameter."""
    start = time.monotonic()
    if spec.n < 1 or spec.k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    cap = order_cap() if cap is None else cap
    if spec.n > cap:
        raise CapExceededError(f"n={spec.n} exceeds order cap {cap}")
    r, z, n, k = spec.dp.r, spec.dp.z, spec.n, spec.k

    found, counters, reason = set(), Counter(), None
    if (r * n) % 2 == 1:
        reason = f"parity: r={r} odd requires even order, got n={n}"
    elif r >= n or z > n - 1 - r:
        reason = f"degree obstruction: (r, z)=({r}, {z}) impossible at n={n}"
    else:
        for sk in regular_skeletons(n, r):
            _arc_backtrack(sk, z, k, spec.diameter_mode, found, counters)
    return SearchResult(
        graphs=sorted(found, key=lambda g: (g.edges, g.arcs)),
        nodes_explored=counters.pop("nodes", 0),
        pruned=dict(counters),
        wall_time=time.monotonic() - start,
        infeasible_reason=reason,
    )


def max_order(dp: DegreePair, k: int, n_hi: int | None = None) -> tuple[int, SearchResult]:
    """Largest order in [1, n_hi] admitting an (r, z)-regular mixed graph
    of diameter <= k, with the enumeration at that order."""
    if n_hi is None:
        n_hi = improved_bound(dp, k).improved
    for n in range(n_hi, 0, -1):
        res = enumerate_classes(SearchSpec(dp=dp, k=k, n=n, diameter_mode=DiameterMode.AT_MOST))
        if res.graphs:
            return n, res
    return 0, SearchResult(graphs=[], infeasible_reason="no order admits a graph")
