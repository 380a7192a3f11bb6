import random

import pytest

from mooremix.constructions import (
    cayley_dihedral,
    cycle,
    golden_graphs,
    line_digraph_of_cycle_digons,
)
from mooremix.graph import MixedGraph
from mooremix.spectral import CharPoly, char_poly, cospectral

from oracles import adjacency_matrix, poly_mul

# eigenvalues of the undirected 5-cycle are 2 and the roots of (x^2 + x - 1)^2,
# so its characteristic polynomial is (x - 2)(x^2 + x - 1)^2
C5_POLY = poly_mul(poly_mul([-2, 1], [-1, 1, 1]), [-1, 1, 1])


class TestCharPoly:
    def test_c5(self):
        assert list(char_poly(cycle(5, False)).coefficients) == C5_POLY
        assert char_poly(cycle(5, False)).highest_first() == (1, 0, -5, 0, 5, -2)

    def test_golden_graphs(self):
        expected = tuple(poly_mul([0, 0, 0, 0, 0, 1], C5_POLY))
        for g in golden_graphs():
            assert char_poly(g).coefficients == expected

    def test_single_arc_nilpotent(self):
        assert char_poly(MixedGraph.build(2, [], [(0, 1)])).coefficients == (0, 0, 1)

    def test_monic_and_traceless(self):
        for g in golden_graphs():
            p = char_poly(g)
            assert p.degree == g.n
            assert p.coefficients[-1] == 1
            assert p.coefficients[-2] == 0  # -trace

    def test_second_coefficient_counts_edges(self):
        # trace of A^2 is 2|E| for strict graphs, so c_{n-2} = -|E|
        for g in [cycle(6, False), cayley_dihedral(4), golden_graphs()[1]]:
            assert char_poly(g).coefficients[g.n - 2] == -len(g.edges)

    def test_invariant_under_relabeling(self):
        g = golden_graphs()[0]
        rnd = random.Random(7)
        for _ in range(5):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert char_poly(g.relabel(perm)) == char_poly(g)

    def test_line_digraph_adds_zeros(self):
        lhs = char_poly(line_digraph_of_cycle_digons(5)).coefficients
        rhs = tuple(poly_mul([0, 0, 0, 0, 0, 1], list(char_poly(cycle(5, False)).coefficients)))
        assert lhs == rhs

    def test_matches_numpy_eigenvalues(self):
        import numpy as np

        for g in [cycle(6, False), cayley_dihedral(5)]:
            approx = np.poly(np.linalg.eigvals(np.array(adjacency_matrix(g), dtype=float)))
            exact = char_poly(g).highest_first()
            assert np.allclose(approx.real, exact, atol=1e-8)


class TestCospectral:
    def test_golden_pairwise(self):
        a, b, c = golden_graphs()
        assert cospectral(a, b) and cospectral(a, c) and cospectral(b, c)

    def test_different_orders(self):
        assert not cospectral(golden_graphs()[0], cycle(5, False))

    def test_relabeling(self):
        g = golden_graphs()[2]
        perm = list(reversed(range(g.n)))
        assert cospectral(g, g.relabel(perm))

    def test_distinguishes(self):
        assert not cospectral(cycle(5, False), cycle(5, True))
