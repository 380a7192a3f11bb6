"""Correctness checks that share no code with mooremix.

Every graph reaches this module as plain data, a tuple ``(n, edges, arcs)``,
and every property is recomputed here with networkx, sympy or brute force.
Each ``check_*`` function takes a round's output and the workload's inputs
and returns a list of failure messages; an empty list means the program's
output passed.  They run after the timed rounds, and
after the peak RSS is read, because importing networkx and sympy costs
memory that is not the program's.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque

import networkx as nx
import sympy
from networkx.algorithms.isomorphism import DiGraphMatcher

# Seven known automorphism group orders (canon_symmetric).
KNOWN_AUT = {
    "K8": 40320,  # 8!
    "E8": 40320,  # 8!, the edgeless graph
    "K44": 2 * 24 * 24,  # swap the sides, permute each side
    "Q3": 48,
    "C8": 16,  # dihedral group of order 16
    "dC8": 8,  # rotations only
    "Petersen": 120,  # S_5
}

# x^10 - 5x^8 + 5x^6 - 2x^5, highest degree first.
PROP3_CHARPOLY = (1, 0, -5, 0, 5, -2, 0, 0, 0, 0, 0)


def to_nx(g) -> nx.DiGraph:
    """An edge becomes two opposite arcs of kind "e"; an arc has kind "a"."""
    n, edges, arcs = g
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    for u, v in edges:
        d.add_edge(u, v, kind="e")
        d.add_edge(v, u, kind="e")
    for u, v in arcs:
        d.add_edge(u, v, kind="a")
    return d


def _same_kind(a, b):
    return a["kind"] == b["kind"]


def isomorphic(g, h) -> bool:
    return g[0] == h[0] and DiGraphMatcher(to_nx(g), to_nx(h), edge_match=_same_kind).is_isomorphic()


def automorphism_count(g) -> int:
    d = to_nx(g)
    return sum(1 for _ in DiGraphMatcher(d, d, edge_match=_same_kind).isomorphisms_iter())


def diameter(g):
    """Largest shortest-path length over ordered pairs; None if some vertex
    cannot reach another."""
    n = g[0]
    lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
    if any(len(lengths[u]) != n for u in range(n)):
        return None
    return max(max(row.values()) for row in lengths.values())


def degree_pair(g):
    """(r, z) if every vertex has r edges, z out-arcs and z in-arcs."""
    n, edges, arcs = g
    r = [0] * n
    out = [0] * n
    inn = [0] * n
    for u, v in edges:
        r[u] += 1
        r[v] += 1
    for u, v in arcs:
        out[u] += 1
        inn[v] += 1
    if len(set(r)) != 1 or len(set(out)) != 1 or out != inn:
        return None
    return r[0], out[0]


def charpoly(g) -> tuple[int, ...]:
    """Characteristic polynomial of the 0/1 adjacency matrix, highest degree
    first, by sympy."""
    n, edges, arcs = g
    a = sympy.zeros(n, n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    for u, v in arcs:
        a[u, v] = 1
    return tuple(int(c) for c in a.charpoly().all_coeffs())


def fibonacci(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def moore_order_1_1(k: int) -> int:
    """Moore bound M(1, 1, k) = F_{k+4} - 2."""
    return fibonacci(k + 4) - 2


def cayley_dihedral(m: int):
    """Cayley graph of the dihedral group of order 2m, built from the group
    law (i, s)(j, t) = (i + (-1)^s j, s + t): right multiplication by the
    rotation (1, 0) gives an arc, by the reflection (0, 1) an edge."""
    elements = [(i, s) for i in range(m) for s in (0, 1)]
    index = {x: v for v, x in enumerate(elements)}

    def mul(x, y):
        (i, s), (j, t) = x, y
        return ((i + (-j if s else j)) % m, (s + t) % 2)

    edges = {tuple(sorted((index[x], index[mul(x, (0, 1))]))) for x in elements}
    arcs = {(index[x], index[mul(x, (1, 0))]) for x in elements}
    return (2 * m, tuple(sorted(edges)), tuple(sorted(arcs)))


def _bfs_diameter(n, succ):
    diam = 0
    for s in range(n):
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in succ[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        if len(dist) < n:
            return None
        diam = max(diam, max(dist.values()))
    return diam


def _partitions(n, least):
    if n == 0:
        yield ()
        return
    for p in range(least, n + 1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def brute_force_2_1(n: int, k: int) -> list:
    """Isomorphism classes of (2,1)-regular mixed graphs of order n and
    diameter exactly k.

    The skeleton is a disjoint union of cycles, one per partition of n into
    parts >= 3.  The arcs form a permutation with no fixed point, no 2-cycle
    (a digon) and no arc along an edge; every such permutation is tried.
    """
    found = []
    for parts in _partitions(n, 3):
        edges, start = [], 0
        for p in parts:
            edges += [tuple(sorted((start + i, start + (i + 1) % p))) for i in range(p)]
            start += p
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for sigma in itertools.permutations(range(n)):
            if any(sigma[v] == v or sigma[v] in nbrs[v] or sigma[sigma[v]] == v for v in range(n)):
                continue
            succ = [list(nbrs[v]) + [sigma[v]] for v in range(n)]
            if _bfs_diameter(n, succ) == k:
                found.append((n, tuple(sorted(edges)), tuple((v, sigma[v]) for v in range(n))))
    return dedupe(found)


def dedupe(graphs) -> list:
    """One representative per isomorphism class, by networkx."""
    buckets = {}
    for g in graphs:
        with warnings.catch_warnings():
            # networkx 3.5 changed the directed hashes; only equality matters here
            warnings.simplefilter("ignore", UserWarning)
            key = nx.weisfeiler_lehman_graph_hash(to_nx(g), edge_attr="kind")
        reps = buckets.setdefault(key, [])
        if not any(isomorphic(g, h) for h in reps):
            reps.append(g)
    return [g for reps in buckets.values() for g in reps]


def _pairwise_distinct(classes):
    return [
        f"classes {i} and {j} are isomorphic"
        for i, j in itertools.combinations(range(len(classes)), 2)
        if isomorphic(classes[i], classes[j])
    ]


def check_classes(classes, dp, k, expected_count) -> list[str]:
    """Count, regularity, exact diameter and pairwise non-isomorphism."""
    errors = []
    if len(classes) != expected_count:
        errors.append(f"{len(classes)} classes, expected {expected_count}")
    for i, g in enumerate(classes):
        if degree_pair(g) != dp:
            errors.append(f"class {i} is not {dp}-regular")
        d = diameter(g)
        if d != k:
            errors.append(f"class {i} has diameter {d}, expected {k}")
    return errors + _pairwise_distinct(classes)


def check_prop3(out, inputs) -> list[str]:
    """Proposition 3: three (1,1)-regular classes of order 10 and diameter
    3, one of them the dihedral Cayley graph, all with the same spectrum."""
    classes = out["classes"]
    errors = check_classes(classes, (1, 1), 3, 3)
    cayley = cayley_dihedral(5)
    hits = sum(isomorphic(g, cayley) for g in classes)
    if hits != 1:
        errors.append(f"{hits} classes are isomorphic to Cay(D_5), expected 1")
    excess = moore_order_1_1(3) - 10
    if out["bound"] != 10:
        errors.append(f"improved bound {out['bound']}, expected 10")
    if len(out["certify"]) != len(classes):
        errors.append(f"{len(out['certify'])} certificates for {len(classes)} classes")
    for i, (g, cert) in enumerate(zip(classes, out["certify"])):
        if charpoly(g) != PROP3_CHARPOLY:
            errors.append(f"class {i}: sympy characteristic polynomial is {charpoly(g)}")
        if cert["charpoly"] != PROP3_CHARPOLY:
            errors.append(f"class {i}: char_poly gave {cert['charpoly']}")
        if not cert["roundtrip"]:
            errors.append(f"class {i}: MGF round trip changed the graph")
        if any(t != excess for t in cert["repeats"]):
            errors.append(f"class {i}: repeat totals {cert['repeats']}, expected {excess} at every vertex")
        converse = (g[0], g[1], tuple(sorted((v, u) for u, v in g[2])))
        if cert["self_converse"] != isomorphic(g, converse):
            errors.append(f"class {i}: converse isomorphism answer disagrees with networkx")
    return errors


def check_exhaust(out, inputs) -> list[str]:
    """No (1,1)-regular graph of order 12 > M(1,1,3) has diameter <= 3."""
    if 12 <= moore_order_1_1(3):
        return ["order 12 does not exceed the Moore bound"]
    return check_classes(out["classes"], (1, 1), 3, 0)


def check_skeleton(out, inputs) -> list[str]:
    """(2,1)-regular, diameter 2, order 8: the count and the classes match
    the brute force, class for class."""
    classes = out["classes"]
    truth = brute_force_2_1(8, 2)
    errors = check_classes(classes, (2, 1), 2, len(truth))
    for i, g in enumerate(classes):
        if not any(isomorphic(g, h) for h in truth):
            errors.append(f"class {i} is not among the brute-force classes")
    return errors


def check_canon(out, inputs) -> list[str]:
    """|Aut| against known orders (or networkx where none is tabled), seeded
    relabelings isomorphic, equal-degree look-alikes non-isomorphic."""
    errors = []
    for name, g in inputs["graphs"].items():
        want = KNOWN_AUT.get(name) or automorphism_count(g)
        got = out["aut"][name]
        if got != want:
            errors.append(f"{name}: |Aut| = {got}, expected {want}")
        if out["relabel_iso"][name] is not True:
            errors.append(f"{name}: seeded relabeling reported non-isomorphic")
    for pair, answer in out["lookalike_iso"].items():
        if isomorphic(*inputs["lookalikes"][pair]):
            errors.append(f"{pair}: the input pair is isomorphic, so it tests nothing")
        elif answer is not False:
            errors.append(f"{pair}: reported isomorphic")
    return errors
