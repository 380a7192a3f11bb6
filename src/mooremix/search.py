"""Exhaustive isomorph-free enumeration of (r, z)-regular mixed graphs of a
given order and diameter.

Strategy: generate the non-isomorphic r-regular undirected skeletons, then
assign out-arcs vertex by vertex with one backtracker (no digons, no arc
parallel to an edge), filter by diameter, and reject isomorphs through the
canonical form.  The same backtracker splits the search into tasks: run with
a stop depth, it hands over each feasible out-assignment of the first
vertices, and each task completes one of them.  The skeleton generator
treats the vertices that no edge touches yet as interchangeable and offers
only the first few of them, so for r = 0 it yields the edgeless graph and
for r = 1 only the perfect matching {2i, 2i+1}; with (r, z) = (1, 1) the
matching's automorphism group is additionally quotiented by pinning vertex
0's out-arc to one orbit representative.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from multiprocessing import Pool

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
    jobs: int = 1


@dataclass
class SearchResult:
    classes: list  # CanonicalForm per isomorphism class, sorted by encoding
    graphs: list  # canonical representatives (parallel to classes)
    nodes_explored: int = 0
    pruned: dict = field(default_factory=dict)
    wall_time: float = 0.0
    infeasible_reason: str | None = None

    @property
    def encodings(self) -> list[bytes]:
        return [c.encoding for c in self.classes]


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


def _arc_backtrack(n, z, k, edge_nbrs, prefix, counters, emit, stop=None):
    """Extend the partial out-assignment `prefix` (out-tuples of vertices
    0..len(prefix)-1) in all feasible ways.  On reaching vertex `stop`, call
    emit(out-tuples of vertices 0..stop-1) instead of going deeper; on
    completing all n vertices, call emit(sorted arc tuple)."""
    out = list(prefix)
    indeg = [0] * n
    for v, targets in enumerate(out):
        for w in targets:
            indeg[w] += 1

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
        if v == stop:
            emit(tuple(out))
            return
        if v == n:
            if all(x == z for x in indeg):
                emit(tuple(sorted((a, b) for a, targets in enumerate(out) for b in targets)))
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
            and (w >= len(out) or v not in out[w])
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

    rec(len(out))


def _run_task(args):
    n, z, k, edges, prefix, mode_value = args
    skeleton = MixedGraph(n=n, edges=edges, arcs=())
    edge_nbrs = [set(x) for x in skeleton.edge_neighbors]
    counters = Counter()
    found = {}
    exact = mode_value == DiameterMode.EXACT.value

    def emit(arcs):
        g = MixedGraph(n=n, edges=edges, arcs=arcs)
        diam = g.diameter(limit=k)
        if diam is UNREACHABLE or (exact and diam != k):
            counters["reject_diameter"] += 1
            return
        form = g.canonical_form()
        if form.encoding not in found:
            found[form.encoding] = g.relabel(form.permutation)

    _arc_backtrack(n, z, k, edge_nbrs, prefix, counters, emit)
    return {enc: (g.n, g.edges, g.arcs) for enc, g in found.items()}, dict(counters)


def enumerate_classes(spec: SearchSpec, cap: int | None = None) -> SearchResult:
    """All isomorphism classes of strict (r, z)-regular mixed graphs with
    the requested order and diameter."""
    start = time.monotonic()
    cap = order_cap() if cap is None else cap
    if spec.n > cap:
        raise CapExceededError(f"n={spec.n} exceeds order cap {cap}")
    if spec.n < 1 or spec.k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    r, z, n, k = spec.dp.r, spec.dp.z, spec.n, spec.k

    result = SearchResult(classes=[], graphs=[])
    if (r * n) % 2 == 1:
        result.infeasible_reason = f"parity: r={r} odd requires even order, got n={n}"
        result.wall_time = time.monotonic() - start
        return result
    if r >= n or z > n - 1 - r:
        result.infeasible_reason = f"degree obstruction: (r, z)=({r}, {z}) impossible at n={n}"
        result.wall_time = time.monotonic() - start
        return result

    # with r = 1 and z = 1 (so n >= 4), the matching's automorphisms act
    # transitively on (vertex 0, non-partner target): pin vertex 0's arc to 2
    pin = [(2,)] if (r, z) == (1, 1) else []
    counters = Counter()
    tasks = []
    for sk in regular_skeletons(n, r):
        # one task per feasible out-assignment of vertices 0 and 1 (the
        # checks above leave n >= 2)
        edge_nbrs = [set(x) for x in sk.edge_neighbors]
        prefixes = []
        _arc_backtrack(n, z, k, edge_nbrs, pin, counters, prefixes.append, stop=2)
        tasks += [(n, z, k, sk.edges, p, spec.diameter_mode.value) for p in prefixes]

    merged = {}
    if spec.jobs > 1 and len(tasks) > 1:
        with Pool(spec.jobs) as pool:
            outputs = pool.map(_run_task, tasks)
    else:
        outputs = [_run_task(t) for t in tasks]
    for found, cnt in outputs:
        counters.update(cnt)
        for enc, (gn, ge, ga) in found.items():
            merged.setdefault(enc, MixedGraph(n=gn, edges=ge, arcs=ga))

    graphs = [merged[enc] for enc in sorted(merged)]
    result.classes = [g.canonical_form() for g in graphs]
    result.graphs = graphs
    result.nodes_explored = counters.pop("nodes", 0)
    result.pruned = dict(counters)
    result.wall_time = time.monotonic() - start
    return result


def max_order(
    dp: DegreePair, k: int, n_hi: int | None = None, n_lo: int = 1, cap: int | None = None
) -> tuple[int, SearchResult]:
    """Largest order in [n_lo, n_hi] admitting an (r, z)-regular mixed graph
    of diameter <= k, with the enumeration at that order."""
    if n_hi is None:
        n_hi = improved_bound(dp, k).improved
    for n in range(n_hi, n_lo - 1, -1):
        res = enumerate_classes(
            SearchSpec(dp=dp, k=k, n=n, diameter_mode=DiameterMode.AT_MOST), cap=cap
        )
        if res.classes:
            return n, res
    return 0, SearchResult(classes=[], graphs=[], infeasible_reason="no order admits a graph")
