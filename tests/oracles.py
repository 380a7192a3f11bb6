"""Independent brute-force oracles used to check the library's fast paths.

Everything here favors directness over speed: explicit walk enumeration,
generate-and-filter graph generation, permutation scans.
"""

from __future__ import annotations

import itertools

from mooremix.canon import _first_nonsingleton_cell, _refine
from mooremix.graph import MixedGraph, _relabeled


def count_walks_brute(g: MixedGraph, u: int, k: int) -> dict[int, int]:
    """Walk counts by explicit enumeration of every non-backtracking walk of
    length <= k from u (the empty walk included)."""
    counts = {}

    def visit(v, last_edge, length):
        counts[v] = counts.get(v, 0) + 1
        if length == k:
            return
        for w in g.edge_neighbors[v]:
            e = (min(v, w), max(v, w))
            if e != last_edge:
                visit(w, e, length + 1)
        for w in g.out_neighbors[v]:
            visit(w, None, length + 1)

    visit(u, None, 0)
    return counts


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of integer polynomials, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def automorphisms_brute(g: MixedGraph, perms=None) -> int:
    """Count label permutations fixing the edge and arc sets.

    `perms` restricts the candidate permutations (default: all n!)."""
    edges = set(g.edges)
    arcs = set(g.arcs)
    count = 0
    for p in perms if perms is not None else itertools.permutations(range(g.n)):
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges) and all(
            (p[u], p[v]) in arcs for u, v in arcs
        ):
            count += 1
    return count


def canonicalize_all_leaves(g: MixedGraph) -> tuple[MixedGraph, int]:
    """(canonical graph, |Aut|) from the labeling tree of `mooremix.canon`
    with every leaf visited: no automorphism pruning beyond twin
    transpositions, so the least leaf key and the number of leaves reaching
    it are counted directly."""
    n = g.n
    # twin[v]: the least u such that swapping u and v is an automorphism
    nbrs = [(set(g.edge_neighbors[v]), g.out_neighbors[v], g.in_neighbors[v]) for v in range(n)]
    twin = list(range(n))
    for u, v in itertools.combinations(range(n), 2):
        (eu, ou, iu), (ev, ov, iv) = nbrs[u], nbrs[v]
        if twin[v] == v and ou == ov and iu == iv and eu - {v} == ev - {u}:
            twin[v] = u

    def descend(colors):
        colors = _refine(g, colors)
        cell = _first_nonsingleton_cell(colors, n)
        if cell is None:
            return _relabeled(g, colors), 1
        done = {}
        for v in cell:
            # twins in one cell are swapped by an automorphism that fixes
            # this node, so their subtrees hold the same leaf keys
            if twin[v] not in done:
                sigs = [(colors[u], 0 if u == v else 1) for u in range(n)]
                rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
                done[twin[v]] = descend(tuple(rank[s] for s in sigs))
        subs = [done[twin[v]] for v in cell]
        key = min(key for key, _ in subs)
        return key, sum(count for k, count in subs if k == key)

    (edges, arcs), count = descend((0,) * n)
    return MixedGraph(n=n, edges=edges, arcs=arcs), count


def matching_permutations(n: int):
    """Permutations preserving the perfect matching {2i, 2i+1} as a set of
    pairs (pair permutations composed with within-pair swaps)."""
    half = n // 2
    for pair_perm in itertools.permutations(range(half)):
        for swaps in itertools.product((0, 1), repeat=half):
            p = [0] * n
            for i in range(half):
                j, s = pair_perm[i], swaps[i]
                p[2 * i] = 2 * j + s
                p[2 * i + 1] = 2 * j + 1 - s
            yield tuple(p)


def all_perfect_matchings(n: int):
    """Every perfect matching of {0..n-1} as a sorted edge tuple."""
    if n % 2:
        return
    if n == 0:
        yield ()
        return
    rest = list(range(1, n))
    for i, v in enumerate(rest):
        others = rest[:i] + rest[i + 1 :]
        remap = {w: x for w, x in zip(others, range(len(others)))}
        inv = {x: w for w, x in remap.items()}
        for sub in all_perfect_matchings(n - 2):
            yield tuple(sorted([(0, v)] + [(min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in sub]))


def adjacency_matrix(g: MixedGraph) -> list[list[int]]:
    """0/1 matrix of the graph seen as a digraph (edges become digons)."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    for u, v in g.arcs:
        a[u][v] = 1
    return a


def _valid_permutation_arcs(perm, nbrs):
    """The arcs v -> perm[v] have no loop, no digon and none along an edge."""
    return all(
        perm[v] != v and perm[perm[v]] != v and perm[v] not in nbrs[v] for v in range(len(perm))
    )


def _out_assignments(n, z, nbrs):
    """Every arc set giving each vertex z out- and z in-arcs, with no digon
    and no arc along an edge of the skeleton (nbrs[v]: v's edge neighbours).
    For z = 1 the out-targets form a permutation, which is scanned directly."""
    if z == 1:
        for perm in itertools.permutations(range(n)):
            if _valid_permutation_arcs(perm, nbrs):
                yield tuple(sorted((v, perm[v]) for v in range(n)))
        return
    choices = [
        list(itertools.combinations([w for w in range(n) if w != v and w not in nbrs[v]], z))
        for v in range(n)
    ]
    every_vertex_z_times = sorted(list(range(n)) * z)  # the in-degree filter
    for outs in itertools.product(*choices):
        if sorted(itertools.chain.from_iterable(outs)) != every_vertex_z_times:
            continue
        if not any(v in outs[w] for v in range(n) for w in outs[v]):
            yield tuple(sorted((v, w) for v in range(n) for w in outs[v]))


def kautz(d: int) -> MixedGraph:
    """The Kautz digraph K(d, 2) as a mixed graph: its vertices are the words
    ab over the letters 0..d with a != b, ab -> bc for every letter c != b,
    and each digon ab <-> ba is read as an edge."""
    words = [(a, b) for a in range(d + 1) for b in range(d + 1) if a != b]
    index = {w: i for i, w in enumerate(words)}
    edges = [(index[(a, b)], index[(b, a)]) for a, b in words if a < b]
    arcs = [(index[(a, b)], index[(b, c)]) for a, b in words for c in range(d + 1) if c not in (a, b)]
    return MixedGraph.build(len(words), edges, arcs)


def partitions(n: int, smallest: int):
    """Partitions of n into parts >= smallest, as non-decreasing lists."""
    if n == 0:
        yield []
        return
    for p in range(smallest, n + 1):
        for rest in partitions(n - p, p):
            yield [p] + rest


def cycle_covers(n: int, one_per_partition: bool = False):
    """Edge sets of the 2-regular graphs on n vertices: every labeled one,
    once, read off the permutations with no fixed point and no 2-cycle
    (edges v -- perm[v]); with `one_per_partition`, one per partition of n
    into parts >= 3 (cycles on consecutive labels)."""
    if one_per_partition:
        for parts in partitions(n, 3):
            edges, start = [], 0
            for p in parts:
                edges += [(start + i, start + i + 1) for i in range(p - 1)] + [(start, start + p - 1)]
                start += p
            yield tuple(sorted(edges))
        return
    seen = set()
    no_edges = [()] * n
    for perm in itertools.permutations(range(n)):
        if _valid_permutation_arcs(perm, no_edges):
            edges = tuple(sorted((min(v, perm[v]), max(v, perm[v])) for v in range(n)))
            if edges not in seen:
                seen.add(edges)
                yield edges


def brute_force_labeled_graphs(r: int, z: int, n: int, fixed_matching: bool = False):
    """All labeled strict (r, z)-regular mixed graphs on n vertices for
    r in {0, 1, 2} and any z, by generate-and-filter.  With
    `fixed_matching` the skeleton is one labeled graph per isomorphism class
    (the matching {2i, 2i+1} for r = 1, one cycle cover per partition of n
    for r = 2), which loses no class: relabel any graph so that its skeleton
    is the chosen one."""
    if r == 0:
        skeletons = [()]
    elif r == 1:
        if n % 2:
            return
        if fixed_matching:
            skeletons = [tuple((2 * i, 2 * i + 1) for i in range(n // 2))]
        else:
            skeletons = list(all_perfect_matchings(n))
    elif r == 2:
        skeletons = list(cycle_covers(n, one_per_partition=fixed_matching))
    else:
        raise ValueError(f"no oracle for (r, z) = ({r}, {z})")
    for edges in skeletons:
        nbrs = [set() for _ in range(n)]
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        for arcs in _out_assignments(n, z, nbrs):
            yield MixedGraph(n=n, edges=edges, arcs=arcs)


def brute_force_class_counts(r: int, z: int, n: int, k_max: int, fixed_matching: bool = False):
    """Isomorphism-class counts {(k, mode): count} for mode in {'exact',
    'at-most'}, k = 0..k_max, over all strict (r, z)-regular graphs on n
    vertices with diameter <= k_max."""
    by_diam = {}
    for g in brute_force_labeled_graphs(r, z, n, fixed_matching=fixed_matching):
        diam = g.diameter()
        if diam is None or diam > k_max:
            continue
        by_diam.setdefault(diam, set()).add(g.canonical_form().graph)
    counts = {}
    for k in range(k_max + 1):
        counts[(k, "exact")] = len(by_diam.get(k, ()))
        at_most = set()
        for d, classes in by_diam.items():
            if d <= k:
                at_most |= classes
        counts[(k, "at-most")] = len(at_most)
    return counts
