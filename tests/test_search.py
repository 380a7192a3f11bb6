import functools
import gc
import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

import mooremix
from mooremix.bounds import DegreePair
from mooremix.canon import canonicalize
from mooremix.errors import CapExceededError
from mooremix.graph import build, is_isomorphic
from mooremix.search import (
    DiameterMode,
    SearchSpec,
    _arc_backtrack,
    enumerate_classes,
    max_order,
    regular_skeletons,
)

from oracles import brute_force_class_counts, brute_force_labeled_graphs, kautz, partitions


def run(r, z, k, n, mode=DiameterMode.EXACT):
    return enumerate_classes(SearchSpec(dp=DegreePair(r, z), k=k, n=n, diameter_mode=mode))


cached_run = functools.cache(run)


def undirected_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def assert_regular_and_distinct(skeletons, n, r):
    """Every skeleton is r-regular on n vertices, and networkx finds no two
    of them isomorphic."""
    for g in skeletons:
        assert g.n == n and g.arcs == ()
        assert all(len(nbrs) == r for nbrs in g.edge_neighbors)
    hs = [undirected_networkx(g) for g in skeletons]
    for a, b in itertools.combinations(hs, 2):
        assert not nx.is_isomorphic(a, b), (n, r)


class TestSkeletons:
    def test_r0(self):
        (g,) = regular_skeletons(5, 0)
        assert g.edges == () and g.n == 5
        (g,) = regular_skeletons(0, 0)
        assert g.n == 0

    def test_r1_is_matching(self):
        (g,) = regular_skeletons(6, 1)
        assert g.edges == ((0, 1), (2, 3), (4, 5))
        assert regular_skeletons(5, 1) == []

    def test_r2_cycle_covers(self):
        # 2-regular graphs on n vertices = partitions of n into parts >= 3
        assert len(regular_skeletons(6, 2)) == 2  # 6 and 3+3
        assert len(regular_skeletons(7, 2)) == 2  # 7 and 3+4
        assert len(regular_skeletons(9, 2)) == 4  # 9, 3+6, 4+5, 3+3+3
        for n in range(1, 11):
            assert len(regular_skeletons(n, 2)) == len(list(partitions(n, 3))), n

    def test_r3_cubic_counts(self):
        assert len(regular_skeletons(4, 3)) == 1  # K4
        assert len(regular_skeletons(6, 3)) == 2  # K_{3,3} and the prism
        # cubic graphs, not necessarily connected: 1, 2, 6, 21 (OEIS A005638)
        assert len(regular_skeletons(8, 3)) == 6
        cubic10 = regular_skeletons(10, 3)
        assert len(cubic10) == 21
        assert_regular_and_distinct(cubic10, 10, 3)
        assert [len(regular_skeletons(n, 3)) for n in (5, 7, 9)] == [0, 0, 0]

    def test_counts_match_graph_atlas(self):
        # the atlas lists every graph on at most 7 vertices once
        atlas = Counter()
        for h in nx.graph_atlas_g():
            degrees = {d for _, d in h.degree()}
            if len(degrees) == 1:
                atlas[(h.number_of_nodes(), degrees.pop())] += 1
        for n in range(1, 8):
            for r in range(n):
                assert len(regular_skeletons(n, r)) == atlas[(n, r)], (n, r)

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(n)])
    def test_regular_and_pairwise_non_isomorphic(self, n, r):
        assert_regular_and_distinct(regular_skeletons(n, r), n, r)


class TestEnumerate:
    def test_three_extremal_classes(self):
        res = run(1, 1, 3, 10)
        assert len(res.graphs) == 3
        for g in res.graphs:
            assert g.total_regularity() == DegreePair(1, 1)
            assert g.diameter() == 3

    def test_order_11_empty(self):
        res = run(1, 1, 3, 11, mode=DiameterMode.AT_MOST)
        assert res.graphs == []
        assert res.infeasible_reason is not None

    def test_n6_k2_unique(self):
        res = run(1, 1, 2, 6, mode=DiameterMode.AT_MOST)
        assert len(res.graphs) == 1
        assert is_isomorphic(res.graphs[0], kautz(2))

    def test_undirected_5_cycle(self):
        res = run(2, 0, 2, 5)
        assert len(res.graphs) == 1
        assert res.graphs[0].edges == ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4))

    def test_soundness(self):
        for g in run(1, 1, 3, 8, mode=DiameterMode.AT_MOST).graphs:
            assert g.total_regularity() == DegreePair(1, 1)
            d = g.diameter()
            assert d is not None and d <= 3

    def test_jobs_other_than_1_rejected(self):
        with pytest.raises(ValueError):
            SearchSpec(dp=DegreePair(1, 1), k=3, n=10, jobs=2)

    def test_import_leaves_out_multiprocessing(self):
        # nor, even after a search, numpy, networkx and sympy, which only tests use
        src = str(Path(mooremix.__file__).parents[1])
        code = (
            "import sys, mooremix\n"
            "mooremix.enumerate_classes(mooremix.SearchSpec(mooremix.DegreePair(1, 1), 2, 6))\n"
            "mods = ('multiprocessing', 'numpy', 'networkx', 'sympy')\n"
            "print(sorted(m for m in mods if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("r,z,k,n", [(1, 1, 3, 10), (2, 1, 2, 8), (1, 2, 2, 6)])
    def test_graphs_are_canonical(self, r, z, k, n):
        res = run(r, z, k, n)
        assert res.graphs and len(set(res.graphs)) == len(res.graphs)
        assert res.graphs == sorted(res.graphs, key=lambda g: (g.edges, g.arcs))
        for g in res.graphs:
            assert g.canonical_form().graph == g

    def test_cap(self):
        with pytest.raises(CapExceededError):
            run(1, 1, 3, 17)

    @pytest.mark.parametrize("r,z,k,n,budget", [(1, 1, 3, 12, 1_000), (2, 1, 2, 11, 10_000)])
    def test_empty_search_node_budget(self, r, z, k, n, budget):
        # with every settled vertex's k-ball closed and prefixes deduplicated
        # at every skeleton-component boundary these searches take 106 and
        # 4,635 nodes (19,662 and 4,990 with the dedup at vertex 2 alone);
        # the budget guards that gain without pinning the count
        res = run(r, z, k, n, mode=DiameterMode.AT_MOST)
        assert res.graphs == []
        assert res.nodes_explored < budget

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run(1, 1, 3, 10),
            lambda: canonicalize(build(8, [(2 * i, 2 * i + 1) for i in range(4)], [])),
            lambda: regular_skeletons(8, 2),
        ],
        ids=["search", "canonicalize", "skeletons"],
    )
    def test_leaves_no_reference_cycle(self, call):
        # the recursive closures are freed by reference counting, so a long
        # run does not hold them until a full garbage collection
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_theorem1_invariant_on_emitted(self):
        for n in (8, 10):
            for g in run(1, 1, 3, n, mode=DiameterMode.AT_MOST).graphs:
                assert min(g.repeat_multiset(u, 3).total for u in range(g.n)) >= 1


class TestBruteForceAgreement:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matching_wlog_is_harmless(self, n):
        # fixing the skeleton matching does not change the class counts
        full = brute_force_class_counts(1, 1, n, 4, fixed_matching=False)
        fixed = brute_force_class_counts(1, 1, n, 4, fixed_matching=True)
        assert full == fixed

    @pytest.mark.parametrize("n", [5, 6])
    def test_cycle_cover_wlog_is_harmless(self, n):
        # one cycle cover per partition of n loses no class either
        full = brute_force_class_counts(2, 1, n, 4, fixed_matching=False)
        fixed = brute_force_class_counts(2, 1, n, 4, fixed_matching=True)
        assert full == fixed

    @pytest.mark.parametrize(
        "k,n,mode,labeled",
        [
            (2, 6, DiameterMode.EXACT, 8),
            (3, 8, DiameterMode.EXACT, 1104),
            (4, 8, DiameterMode.AT_MOST, 2448),
        ],
    )
    def test_orbit_counting_identity(self, k, n, mode, labeled):
        # Aut(S) of the matching S = {2i, 2i+1} acts on the labeled (1,1)
        # graphs with edge set S; its orbits are the classes, and the orbit
        # of G has |Aut(S)| / |Aut(G)| members, with |Aut(S)| = (n/2)! 2^(n/2)
        diameters = [g.diameter() for g in brute_force_labeled_graphs(1, 1, n, fixed_matching=True)]
        if mode is DiameterMode.EXACT:
            count = diameters.count(k)
        else:
            count = sum(1 for d in diameters if d is not None and d <= k)
        aut_s = math.factorial(n // 2) * 2 ** (n // 2)
        orbits = run(1, 1, k, n, mode=mode).graphs
        assert sum(Fraction(aut_s, g.automorphism_count()) for g in orbits) == count == labeled

    @pytest.mark.parametrize("r,z", [(1, 1), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_counts_match_oracle(self, r, z, n):
        oracle = brute_force_class_counts(r, z, n, 4, fixed_matching=True)
        for k in range(5):
            for mode in (DiameterMode.EXACT, DiameterMode.AT_MOST):
                got = len(run(r, z, k, n, mode=mode).graphs)
                assert got == oracle[(k, mode.value)], (r, z, n, k, mode)


class TestBallPrune:
    """The search decides the diameter with its own bitset balls; the BFS
    `diameter()` is the independent reference for that filter."""

    PAIRS = [(1, 1), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1), (3, 0), (0, 3), (2, 2), (3, 1)]

    @pytest.mark.parametrize("r,z", PAIRS)
    def test_no_leaf_fails_the_diameter_filter_in_at_most_mode(self, r, z):
        for n in range(1, 8):
            for k in range(5):
                for g in cached_run(r, z, k, n, DiameterMode.AT_MOST).graphs:
                    d = g.diameter()
                    assert d is not None and d <= k, (r, z, k, n)

    @pytest.mark.parametrize("r,z", PAIRS)
    def test_exact_mode_keeps_the_classes_of_diameter_k(self, r, z):
        # and at-most mode at k finds the exact classes at j = 0..k
        for n in range(1, 8):
            upto_k = set()
            for k in range(5):
                exact = cached_run(r, z, k, n, DiameterMode.EXACT)
                assert all(g.diameter() == k for g in exact.graphs), (r, z, k, n)
                upto_k |= set(exact.graphs)
                at_most = cached_run(r, z, k, n, DiameterMode.AT_MOST).graphs
                assert set(at_most) == upto_k, (r, z, k, n)


class TestDiameterTwo:
    """Diameter 2, where the Moore bound is 11 for (r, z) = (2, 1) and 12
    for (1, 2)."""

    def test_no_mixed_moore_graph(self):
        # Bosak (1979): a mixed Moore graph of diameter 2 with z = 1 needs
        # r in {1, 3, 21}
        assert run(2, 1, 2, 11, mode=DiameterMode.AT_MOST).graphs == []

    @staticmethod
    def assert_diameter_and_automorphisms(g, aut):
        """networkx, on g as a digraph with each edge a digon, finds
        diameter 2 and `aut` kind-preserving automorphisms, as g does."""
        h = nx.DiGraph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges, kind="edge")
        h.add_edges_from(((v, u) for u, v in g.edges), kind="edge")
        h.add_edges_from(g.arcs, kind="arc")
        assert nx.diameter(h) == 2
        iso = nx.algorithms.isomorphism
        matcher = iso.DiGraphMatcher(h, h, edge_match=iso.categorical_edge_match("kind", None))
        assert sum(1 for _ in matcher.isomorphisms_iter()) == g.automorphism_count() == aut

    def test_unique_almost_moore_graph(self):
        # Buset, Lopez & Miret (2017): exactly one graph of order 10
        (g,) = run(2, 1, 2, 10).graphs
        self.assert_diameter_and_automorphisms(g, 5)

    def test_unique_mixed_moore_graph_1_2(self):
        # Nguyen, Miller & Gimbert (2007): the (1,2) mixed Moore graph of
        # diameter 2 and order 12 is unique, the Kautz digraph K(3, 2)
        (g,) = run(1, 2, 2, 12).graphs
        assert is_isomorphic(g, kautz(3))
        self.assert_diameter_and_automorphisms(g, 24)


class TestRelabelingInvariance:
    """The prefix rule keeps the first prefix of each class in the
    backtracker's order, and dedups where the skeleton's labels put a
    component boundary (at every depth for the edgeless skeleton); relabeling
    the skeletons must not change the classes found."""

    @pytest.mark.parametrize(
        "r,z,k,n,mode",
        [
            (1, 1, 3, 10, DiameterMode.EXACT),
            (2, 1, 2, 8, DiameterMode.EXACT),
            (2, 1, 2, 10, DiameterMode.EXACT),
            (1, 2, 2, 6, DiameterMode.EXACT),
            (1, 1, 3, 8, DiameterMode.AT_MOST),
            (0, 2, 2, 6, DiameterMode.AT_MOST),
            (1, 1, 4, 10, DiameterMode.AT_MOST),
        ],
    )
    def test_same_classes_on_relabeled_skeletons(self, r, z, k, n, mode):
        expected = set(run(r, z, k, n, mode=mode).graphs)
        assert expected
        rng = random.Random(f"{r},{z},{k},{n}")
        # a random labeling of the (1,1,4,10) matching leaves almost no
        # component boundary, so that search takes 10-35 s: relabel it once
        for _ in range(1 if (r, z, k, n) == (1, 1, 4, 10) else 3):
            found = set()
            for sk in regular_skeletons(n, r):
                perm = list(range(n))
                rng.shuffle(perm)
                _arc_backtrack(sk.relabel(perm), z, k, mode, found, Counter())
            assert found == expected


class TestMaxOrder:
    def test_known_maxima(self):
        assert max_order(DegreePair(1, 1), 3)[0] == 10
        assert max_order(DegreePair(1, 1), 2)[0] == 6
        assert max_order(DegreePair(2, 0), 1)[0] == 3
        assert max_order(DegreePair(2, 0), 3)[0] == 7  # C_7, from the default n_hi

    def test_petersen_witness(self):
        # the Moore bound M(3,0,2) = 10 is attained by the Petersen graph alone
        n, res = max_order(DegreePair(3, 0), 2)
        assert n == 10 and len(res.graphs) == 1
        (g,) = res.graphs
        assert nx.is_isomorphic(undirected_networkx(g), nx.petersen_graph())
        assert g.automorphism_count() == 120

    def test_result_attached(self):
        n, res = max_order(DegreePair(1, 1), 2)
        assert n == 6 and len(res.graphs) == 1
