"""Exhaustive isomorph-free enumeration of (r, z)-regular mixed graphs of a
given order and diameter.

Strategy: generate the non-isomorphic r-regular undirected skeletons, then
assign out-arcs vertex by vertex with one backtracker (no digons, no arc
parallel to an edge), filter by diameter, and keep the canonically labeled
graph of each new canonical encoding.  On reaching vertex 2 the backtracker
goes on only from the first partial graph (skeleton plus the out-arcs of
vertices 0 and 1) of each isomorphism class.  The skeleton generator treats
the vertices that no edge touches yet as interchangeable and offers only the
first few of them, so for r = 0 it yields the edgeless graph and for r = 1
only the perfect matching {2i, 2i+1}.
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
from .graph import UNREACHABLE, MixedGraph

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
    encodings: list  # canonical encoding per isomorphism class, sorted
    graphs: list  # canonically labeled graph per class (parallel to encodings)
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
    # a single labeled graph (always so for r <= 1) needs no canonical
    # labeling, which would cost (n/2)! leaves on a perfect matching
    if len(labeled) <= 1:
        return labeled
    seen = {}
    for g in labeled:
        seen.setdefault(g.canonical_form().encoding, g)
    return [seen[k] for k in sorted(seen)]


# -- stage 2/3: arc extension with pruning --------------------------------


def _graph(skeleton, out):
    """The mixed graph of `skeleton` plus the arcs v -> w for w in out[v]."""
    arcs = tuple((v, w) for v, targets in enumerate(out) for w in targets)
    return MixedGraph(n=skeleton.n, edges=skeleton.edges, arcs=arcs)


def _arc_backtrack(skeleton, z, k, mode, found, counters):
    """Give each vertex of `skeleton` z out-arcs, vertex by vertex, in all
    feasible ways: at most z in-arcs per vertex (so exactly z at the end),
    no digon, no arc along an edge.  Store each completed graph whose
    diameter suits `mode` as found[encoding] = canonically labeled graph,
    unless the encoding is already there; count nodes, prunes and diameter
    rejections in `counters`."""
    n = skeleton.n
    edge_nbrs = [set(x) for x in skeleton.edge_neighbors]
    out = []
    indeg = [0] * n
    prefixes = set()
    prefix_end = min(2, n)

    def ball_prune(settled):
        # optimistic reach of vertex 0: prune only when its k-ball is fully
        # settled (no unknown out-arcs inside at depth < k) yet misses vertices
        frontier = [0]
        depth = {0: 0}
        for d in range(k):
            nxt = []
            for v in frontier:
                if v >= settled:
                    return False  # open vertex inside the ball: inconclusive
                for w in itertools.chain(edge_nbrs[v], out[v]):
                    if w not in depth:
                        depth[w] = d + 1
                        nxt.append(w)
            frontier = nxt
            if not frontier:
                break
        return len(depth) < n

    def rec(v):
        if v == prefix_end:
            # extend only the first prefix (the out-arcs of vertices 0 and 1)
            # of each isomorphism class of prefix graphs (the skeleton plus
            # those arcs).  For z >= 1 only vertices 0 and 1 have out-arcs
            # there, so an isomorphism of prefix graphs fixes {0, 1} and the
            # skeleton and maps each completion of one prefix onto one of the
            # other; for z = 0 the one prefix is empty.  The ball and deficit
            # prunes drop only graphs that cannot qualify.
            encoding = _graph(skeleton, out).canonical_form().encoding
            if encoding in prefixes:
                return
            prefixes.add(encoding)
        if v == n:
            g = _graph(skeleton, out)
            diam = g.diameter(limit=k)
            if diam is UNREACHABLE or (mode is DiameterMode.EXACT and diam != k):
                counters["reject_diameter"] += 1
                return
            form = g.canonical_form()
            found.setdefault(form.encoding, form.graph)
            return
        counters["nodes"] += 1
        # each missing in-arc of w must come from an eligible source in v..n-1
        for w in range(n):
            miss = z - indeg[w]
            if miss <= 0:
                continue
            avail = 0
            for u in range(v, n):
                if u == w or u in edge_nbrs[w]:
                    continue
                if w < v and u in out[w]:
                    continue  # would close a digon
                avail += 1
            if miss > avail:
                counters["prune_deficit"] += 1
                return
        candidates = [
            w
            for w in range(n)
            if w != v
            and indeg[w] < z
            and w not in edge_nbrs[v]
            and (w > v or v not in out[w])
        ]
        for combo in itertools.combinations(candidates, z):
            out.append(combo)
            for w in combo:
                indeg[w] += 1
            if ball_prune(v + 1):
                counters["prune_ball"] += 1
            else:
                rec(v + 1)
            out.pop()
            for w in combo:
                indeg[w] -= 1

    rec(0)


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

    found, counters, reason = {}, Counter(), None
    if (r * n) % 2 == 1:
        reason = f"parity: r={r} odd requires even order, got n={n}"
    elif r >= n or z > n - 1 - r:
        reason = f"degree obstruction: (r, z)=({r}, {z}) impossible at n={n}"
    else:
        for sk in regular_skeletons(n, r):
            _arc_backtrack(sk, z, k, spec.diameter_mode, found, counters)
    encodings = sorted(found)
    return SearchResult(
        encodings=encodings,
        graphs=[found[enc] for enc in encodings],
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
    return 0, SearchResult(encodings=[], graphs=[], infeasible_reason="no order admits a graph")
