import itertools
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

import mooremix
from mooremix.bounds import DegreePair
from mooremix.errors import CapExceededError
from mooremix.graph import is_isomorphic
from mooremix.search import (
    DiameterMode,
    SearchSpec,
    _arc_backtrack,
    enumerate_classes,
    max_order,
    regular_skeletons,
)

from oracles import brute_force_class_counts, partitions


def run(r, z, k, n, mode=DiameterMode.EXACT):
    return enumerate_classes(SearchSpec(dp=DegreePair(r, z), k=k, n=n, diameter_mode=mode))


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
        src = str(Path(mooremix.__file__).parents[1])
        code = "import sys, mooremix; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, check=True
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("r,z,k,n", [(1, 1, 3, 10), (2, 1, 2, 8), (1, 2, 2, 6)])
    def test_graphs_are_canonical(self, r, z, k, n):
        res = run(r, z, k, n)
        assert res.graphs and len(res.graphs) == len(res.encodings)
        for g, enc in zip(res.graphs, res.encodings):
            assert g.canonical_form().graph == g
            assert g.canonical_form().encoding == enc

    def test_cap(self):
        with pytest.raises(CapExceededError):
            run(1, 1, 3, 17)

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

    @pytest.mark.parametrize("r,z", [(1, 1), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_counts_match_oracle(self, r, z, n):
        oracle = brute_force_class_counts(r, z, n, 4, fixed_matching=True)
        for k in range(5):
            for mode in (DiameterMode.EXACT, DiameterMode.AT_MOST):
                got = len(run(r, z, k, n, mode=mode).graphs)
                assert got == oracle[(k, mode.value)], (r, z, n, k, mode)


class TestRelabelingInvariance:
    """The prefix rule keeps the first prefix of each class in the
    backtracker's order, which depends on the skeleton's labels; relabeling
    the skeletons must not change the classes found."""

    @pytest.mark.parametrize(
        "r,z,k,n,mode",
        [
            (1, 1, 3, 10, DiameterMode.EXACT),
            (2, 1, 2, 8, DiameterMode.EXACT),
            (1, 2, 2, 6, DiameterMode.EXACT),
            (1, 1, 3, 8, DiameterMode.AT_MOST),
        ],
    )
    def test_same_classes_on_relabeled_skeletons(self, r, z, k, n, mode):
        expected = run(r, z, k, n, mode=mode).encodings
        assert expected
        rng = random.Random(f"{r},{z},{k},{n}")
        for _ in range(3):
            found = {}
            for sk in regular_skeletons(n, r):
                perm = list(range(n))
                rng.shuffle(perm)
                _arc_backtrack(sk.relabel(perm), z, k, mode, found, Counter())
            assert sorted(found) == expected


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
