"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, and `round` runs
one whole round of its timed operations on them and returns the outputs as
plain data.  Every round repeats the same work: `round` makes fresh graph
objects, because `MixedGraph` caches its canonical form per instance and a
second call on the same object would cost nothing.  Searches run in this
process (`jobs=1`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from mooremix import bounds, canon, constructions, graph, mgf, search, spectral
from mooremix.bounds import DegreePair
from mooremix.graph import MixedGraph
from mooremix.search import DiameterMode, SearchSpec

# Public functions timed in a traced round: span name -> (owner, attribute).
TRACE_TARGETS = {
    "search.enumerate_classes": (search, "enumerate_classes"),
    "search.regular_skeletons": (search, "regular_skeletons"),
    "canon.canonicalize": (canon, "canonicalize"),
    "graph.distances_from": (MixedGraph, "distances_from"),
    "graph.tree_walk_counts": (MixedGraph, "tree_walk_counts"),
    "spectral.char_poly": (spectral, "char_poly"),
    "mgf.dumps": (mgf, "dumps"),
    "mgf.loads": (mgf, "loads"),
    "bounds.improved_bound": (bounds, "improved_bound"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], dict]
    round: Callable[[dict], dict]
    # name of the function in checks.py that judges a round's output; that
    # module imports networkx and sympy, so it is loaded only after the peak
    # RSS has been read
    check: str


def as_tuple(g: MixedGraph):
    return (g.n, g.edges, g.arcs)


def _search(r, z, k, n, mode):
    spec = SearchSpec(dp=DegreePair(r, z), k=k, n=n, diameter_mode=mode, jobs=1)
    # cap=n: the order cap must not depend on MOORE_SEARCH_CAP in the caller's environment
    res = search.enumerate_classes(spec, cap=n)
    return {
        "ops": 1,
        "classes": [as_tuple(g) for g in res.graphs],
        "nodes": res.nodes_explored,
        "pruned": dict(res.pruned),
    }


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


# -- prop3_n10: the paper's Proposition 3 search, then certify each class --


def prop3_setup(seed):
    # each class found is certified under its own seeded relabeling
    rng = random.Random(seed)
    return {"perms": [_permutation(rng, 10) for _ in range(3)]}


def prop3_round(inputs):
    out = _search(1, 1, 3, 10, DiameterMode.EXACT)
    out["bound"] = bounds.improved_bound(DegreePair(1, 1), 3).improved
    out["certify"] = []
    perms = inputs["perms"]
    for i, cls in enumerate(out["classes"]):
        h = MixedGraph(*cls).relabel(perms[i % len(perms)])
        back = mgf.loads(mgf.dumps(h))
        out["certify"].append(
            {
                "roundtrip": back == h,
                "charpoly": spectral.char_poly(back).highest_first(),
                "repeats": [back.repeat_multiset(v, 3).total for v in range(back.n)],
                "self_converse": graph.is_isomorphic(back, back.converse()),
            }
        )
    out["ops"] += 1 + len(out["classes"])
    return out


# -- exhaust_n12 and skeleton_2_1_n8: one search each ----------------------


def exhaust_round(inputs):
    return _search(1, 1, 3, 12, DiameterMode.AT_MOST)


def skeleton_round(inputs):
    return _search(2, 1, 2, 8, DiameterMode.EXACT)


# -- canon_symmetric: automorphism counts and isomorphism tests -----------


def _cycle_edges(vertices):
    return [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]


def symmetric_graphs():
    """Graphs with |Aut| from 8 to 8!, plus the dihedral Cayley graph and the
    Proposition 3 graphs (|Aut| 10 or 2)."""
    r8 = range(8)
    specs = {
        "K8": (8, list(itertools.combinations(r8, 2)), []),
        "E8": (8, [], []),
        "K44": (8, [(i, 4 + j) for i in range(4) for j in range(4)], []),
        "Q3": (8, [(u, u ^ b) for u in r8 for b in (1, 2, 4) if u < u ^ b], []),
        "C8": (8, _cycle_edges(list(r8)), []),
        "dC8": (8, [], _cycle_edges(list(r8))),
        "Petersen": (
            10,
            _cycle_edges(list(range(5))) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)],
            [],
        ),
    }
    graphs = {name: as_tuple(MixedGraph.build(*spec)) for name, spec in specs.items()}
    graphs["CayD5"] = as_tuple(constructions.cayley_dihedral(5))
    for i, g in enumerate(constructions.golden_graphs()):
        graphs[f"golden{i}"] = as_tuple(g)
    return graphs


def lookalike_pairs():
    """Pairs with equal degree sequences that are not isomorphic."""
    c8 = (8, _cycle_edges(list(range(8))), [])
    two_c4 = (8, _cycle_edges([0, 1, 2, 3]) + _cycle_edges([4, 5, 6, 7]), [])
    k33 = (6, [(i, 3 + j) for i in range(3) for j in range(3)], [])
    prism = (6, _cycle_edges([0, 1, 2]) + _cycle_edges([3, 4, 5]) + [(i, i + 3) for i in range(3)], [])
    pairs = {"C8~2C4": (c8, two_c4), "K33~prism": (k33, prism)}
    return {name: tuple(as_tuple(MixedGraph.build(*g)) for g in pair) for name, pair in pairs.items()}


def canon_setup(seed):
    rng = random.Random(seed)
    graphs = symmetric_graphs()
    relabeled = {
        name: as_tuple(MixedGraph(*g).relabel(_permutation(rng, g[0]))) for name, g in graphs.items()
    }
    return {"graphs": graphs, "relabeled": relabeled, "lookalikes": lookalike_pairs()}


def canon_round(inputs):
    out = {"aut": {}, "relabel_iso": {}, "lookalike_iso": {}}
    for name, g in inputs["graphs"].items():
        fresh = MixedGraph(*g)
        out["aut"][name] = fresh.automorphism_count()
        out["relabel_iso"][name] = graph.is_isomorphic(fresh, MixedGraph(*inputs["relabeled"][name]))
    for name, (a, b) in inputs["lookalikes"].items():
        out["lookalike_iso"][name] = graph.is_isomorphic(MixedGraph(*a), MixedGraph(*b))
    out["ops"] = 2 * len(inputs["graphs"]) + len(inputs["lookalikes"])
    return out


def _no_inputs(seed):
    # the search spec is the whole input; the seed changes nothing here
    return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prop3_n10", prop3_setup, prop3_round, "check_prop3"),
        Workload("exhaust_n12", _no_inputs, exhaust_round, "check_exhaust"),
        Workload("skeleton_2_1_n8", _no_inputs, skeleton_round, "check_skeleton"),
        Workload("canon_symmetric", canon_setup, canon_round, "check_canon"),
    )
}
