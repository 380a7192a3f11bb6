import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mooremix.bounds import DegreePair, moore_bound
from mooremix.constructions import cayley_dihedral, cycle, golden_graphs
from mooremix.errors import (
    DigonConflictError,
    DuplicateError,
    LabelOutOfRangeError,
    MgfFormatError,
    ParallelArcEdgeError,
    SelfLoopError,
    SizeLimitExceededError,
)
from mooremix.graph import MixedGraph, build, is_isomorphic
from mooremix import mgf

from oracles import (
    adjacency_matrix,
    automorphisms_brute,
    canonicalize_all_leaves,
    count_walks_brute,
    matching_permutations,
)


@st.composite
def mixed_graphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    edge_set = set(edges)
    arcs = []
    for u, v in pairs:
        if (u, v) in edge_set:
            continue
        pick = draw(st.integers(0, 3))
        if pick == 1:
            arcs.append((u, v))
        elif pick == 2:
            arcs.append((v, u))
    return build(n, edges, arcs)


class TestBuild:
    def test_digon_rejected_strict(self):
        with pytest.raises(DigonConflictError):
            build(2, [], [(0, 1), (1, 0)])

    def test_parallel_arc_edge_rejected(self):
        with pytest.raises(ParallelArcEdgeError):
            build(3, [(0, 1)], [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build(2, [], [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateError):
            build(3, [(0, 1), (1, 0)], [])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            build(2, [(0, 2)], [])

    def test_relabel_rejects_non_permutation(self):
        # a repeated label would merge vertices 0 and 1 into the loop (0, 0)
        g = build(3, [(0, 1)], [(1, 2)])
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])
        with pytest.raises(ValueError):
            g.relabel([0, 1])

    def test_golden_file_is_valid(self):
        g = golden_graphs()[0]
        assert g.n == 10
        assert g.total_regularity() == DegreePair(1, 1)


class TestDegrees:
    def test_golden_regularity(self):
        for g in golden_graphs():
            assert g.total_regularity() == DegreePair(1, 1)

    def test_directed_cycle(self):
        assert cycle(4, directed=True).total_regularity() == DegreePair(0, 1)

    def test_path_not_regular(self):
        g = build(3, [(0, 1), (1, 2)], [])
        assert g.total_regularity() is None

    @given(mixed_graphs())
    def test_handshake(self, g):
        prof = g.degrees()
        assert sum(prof.z_out) == sum(prof.z_in) == len(g.arcs)
        assert sum(prof.r) == 2 * len(g.edges)


class TestDistances:
    def test_golden_diameter(self):
        for g in golden_graphs():
            assert g.diameter() == 3

    def test_cycle_diameters(self):
        assert cycle(5, directed=False).diameter() == 2
        assert cycle(5, directed=True).diameter() == 4

    def test_disconnected_unreachable(self):
        g = build(4, [(0, 1), (2, 3)], [])
        assert g.diameter() is None

    def test_asymmetric_distances_exist(self):
        g = golden_graphs()[0]
        dist = g.distances()
        assert any(dist[u][v] != dist[v][u] for u in range(g.n) for v in range(g.n))

    def test_layers_golden(self):
        for g in golden_graphs():
            for u in range(g.n):
                assert [len(x) for x in g.layers(u)] == [1, 2, 3, 4]

    def test_layers_directed_triangle(self):
        g = cycle(3, directed=True)
        assert [len(x) for x in g.layers(0)] == [1, 1, 1]


class TestWalkCounts:
    def test_golden_totals(self):
        for g in golden_graphs():
            for u in range(g.n):
                counts = g.tree_walk_counts(u, 3)
                assert sum(counts.values()) == 11
                assert sorted(counts.values()).count(2) == 1

    def test_undirected_cycle(self):
        g = cycle(5, directed=False)
        counts = g.tree_walk_counts(0, 2)
        assert all(v == 1 for v in counts.values()) and sum(counts.values()) == 5

    def test_directed_cycle(self):
        g = cycle(5, directed=True)
        counts = g.tree_walk_counts(0, 3)
        assert sum(counts.values()) == 4

    @given(mixed_graphs(max_n=6), st.integers(0, 4))
    @settings(max_examples=40)
    def test_matches_explicit_enumeration(self, g, k):
        u = 0
        assert g.tree_walk_counts(u, k) == count_walks_brute(g, u, k)

    def test_regular_graph_walk_total_is_moore_tree(self):
        # for an (r, z)-regular graph the non-backtracking walk tree has
        # exactly M(r, z, k) nodes
        for g in [cycle(7, False), cycle(7, True), cayley_dihedral(4)]:
            dp = g.total_regularity()
            for k in range(4):
                for u in range(g.n):
                    assert sum(g.tree_walk_counts(u, k).values()) == moore_bound(dp, k)


class TestRepeats:
    def test_golden_repeat_totals(self):
        for g in golden_graphs():
            for u in range(g.n):
                rm = g.repeat_multiset(u, 3)
                assert rm.total == 1
                assert all(v >= 1 for v in rm.excess.values())

    def test_moore_graph_has_no_repeats(self):
        g = cycle(5, directed=False)
        assert g.repeat_multiset(0, 2).total == 0

    def test_total_equals_moore_deficit(self):
        for g in golden_graphs():
            m = moore_bound(DegreePair(1, 1), 3)
            for u in range(g.n):
                assert g.repeat_multiset(u, 3).total == m - g.n


class TestConverse:
    @given(mixed_graphs())
    def test_involution(self, g):
        assert g.converse().converse() == g

    def test_edges_kept_arcs_reversed(self):
        g = cycle(3, directed=True)
        h = g.converse()
        assert h.arcs == ((0, 2), (1, 0), (2, 1))
        assert h != g and is_isomorphic(g, h)

    def test_golden_self_converse(self):
        for g in golden_graphs():
            assert is_isomorphic(g, g.converse())

    def test_preserves_regularity(self):
        for g in golden_graphs():
            assert g.converse().total_regularity() == g.total_regularity()


class TestAdjacencyMatrix:
    def test_single_edge(self):
        assert adjacency_matrix(build(2, [(0, 1)], [])) == [[0, 1], [1, 0]]

    def test_single_arc(self):
        assert adjacency_matrix(build(2, [], [(0, 1)])) == [[0, 1], [0, 0]]

    def test_golden_row_sums(self):
        a = adjacency_matrix(golden_graphs()[0])
        assert [sum(row) for row in a] == [2] * 10


class TestCanonicalForm:
    @given(mixed_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_invariant_under_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = g.relabel(perm)
        assert g.canonical_form().graph == h.canonical_form().graph
        assert is_isomorphic(g, h)

    @given(mixed_graphs(max_n=6))
    @settings(max_examples=40)
    def test_canonical_graph_is_a_fixed_relabeling(self, g):
        form = g.canonical_form()
        h = form.graph
        assert h.canonical_form().graph == h
        assert h.canonical_form() == form
        assert h.automorphism_count() == g.automorphism_count()
        assert any(g.relabel(p) == h for p in itertools.permutations(range(g.n)))

    def test_distinguishes_golden_classes(self):
        a, b, c = golden_graphs()
        assert not is_isomorphic(a, b)
        assert not is_isomorphic(a, c)
        assert not is_isomorphic(b, c)

    def test_different_degree_multisets_differ(self):
        g = build(3, [(0, 1)], [])
        h = build(3, [(1, 2), (0, 1)], [])
        assert g.canonical_form().graph != h.canonical_form().graph

    def test_automorphism_counts_small(self):
        assert cycle(5, directed=False).automorphism_count() == 10  # dihedral
        assert cycle(5, directed=True).automorphism_count() == 5  # rotations only

    def test_automorphism_count_matches_brute_force(self):
        g = build(4, [(0, 1)], [(1, 2), (2, 3), (3, 0)])
        assert g.automorphism_count() == automorphisms_brute(g)
        # graphs with twins, whose transpositions seed the pruning automorphisms
        twinned = [
            build(6, [], []),
            build(5, list(itertools.combinations(range(5), 2)), []),
            build(5, [(u, v) for u in range(2) for v in range(2, 5)], []),
            build(6, [(0, 1), (2, 3)], [(0, 4), (1, 4), (2, 5), (3, 5)]),
            build(6, [(0, 1)], [(2, 0), (2, 1), (3, 0), (3, 1), (4, 5)]),
        ]
        for h in twinned:
            assert h.automorphism_count() == automorphisms_brute(h), h

    @given(mixed_graphs())
    def test_pruned_labeling_agrees_with_every_leaf(self, g):
        form = g.canonical_form()
        assert (form.graph, form.automorphisms) == canonicalize_all_leaves(g)

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_perfect_matching_automorphisms(self, n):
        g = build(n, [(2 * i, 2 * i + 1) for i in range(n // 2)], [])
        start = time.perf_counter()
        count = g.automorphism_count()
        # the labeling tree has (n/2)! 2^(n/2) leaves of the least key;
        # automorphism pruning visits O(n^2) of them
        assert time.perf_counter() - start < 1.0
        assert count == math.factorial(n // 2) * 2 ** (n // 2)

    def test_symmetric_automorphism_counts(self):
        triangles = [(3 * t + i, 3 * t + (i + 1) % 3) for t in range(4) for i in range(3)]
        assert build(12, [], triangles).automorphism_count() == math.factorial(4) * 3**4 == 1944
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        assert build(10, outer + inner + spokes, []).automorphism_count() == 120  # Petersen

    def test_cayley_graph_automorphisms(self):
        # edge-preserving maps must respect the matching, so the brute scan
        # only needs matching-preserving permutations
        g = cayley_dihedral(5)
        assert g.automorphism_count() == 10
        assert automorphisms_brute(g, perms=matching_permutations_for(g)) == 10

    def test_size_cap(self):
        g = build(25, [(i, i + 1) for i in range(24)], [])
        with pytest.raises(SizeLimitExceededError):
            g.canonical_form()


def matching_permutations_for(g):
    # reorder vertices so the matching is {2i, 2i+1}, scan, and map back
    pairs = sorted(g.edges)
    order = [v for pair in pairs for v in pair]
    assert sorted(order) == list(range(g.n))
    inv = {v: i for i, v in enumerate(order)}
    for p in matching_permutations(g.n):
        yield tuple(order[p[inv[v]]] for v in range(g.n))


class TestMgf:
    def test_roundtrip(self):
        g = cayley_dihedral(5)
        assert mgf.loads(mgf.dumps(g)) == g

    @given(mixed_graphs(max_n=5), st.lists(st.text(), max_size=3))
    def test_roundtrip_with_any_comments(self, g, comments):
        # a line break inside a comment must not end the comment line
        assert mgf.loads(mgf.dumps(g, comments=comments)) == g

    def test_comments_ignored(self):
        g = mgf.loads("mgf 1\n# hello\nn 2\ne 0 1\n")
        assert g.edges == ((0, 1),)

    def test_bad_header(self):
        with pytest.raises(MgfFormatError):
            mgf.loads("nope\n")

    @pytest.mark.parametrize("text", ["mgf 1\nn 3 junk\ne 0 1\n", "mgf 1\nn\n", "mgf 1\nm 3\n"])
    def test_bad_vertex_count_line(self, text):
        with pytest.raises(MgfFormatError):
            mgf.loads(text)

    @pytest.mark.parametrize(
        "text",
        [
            "mgf 1\nn 1_0\ne 0 +1\na \u0663 4\n",
            "mgf 1\nn -0\n",
            "mgf 1\nn +3\n",
            "mgf 1\nn 3\ne 0 +1\n",
            "mgf 1\nn 3\ne 0 1_0\n",
            "mgf 1\nn 5\na \u0663 4\n",
        ],
    )
    def test_numbers_are_ascii_digits(self, text):
        with pytest.raises(MgfFormatError):
            mgf.loads(text)

    def test_files_are_utf8(self, tmp_path):
        path = tmp_path / "g.mgf"
        mgf.dump(cycle(3, directed=True), path, comments=["caf\u00e9"])
        assert "# caf\u00e9\n".encode("utf-8") in path.read_bytes()
        assert mgf.load(path) == cycle(3, directed=True)
        path.write_bytes(b"mgf 1\nn \xff\n")
        with pytest.raises(MgfFormatError):
            mgf.load(path)

    def test_bad_edge_order(self):
        with pytest.raises(MgfFormatError):
            mgf.loads("mgf 1\nn 2\ne 1 0\n")

    def test_invalid_graph_rejected(self):
        with pytest.raises(MgfFormatError):
            mgf.loads("mgf 1\nn 2\na 0 1\na 1 0\n")
