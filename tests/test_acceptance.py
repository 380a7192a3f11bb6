"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured result.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from mooremix.bounds import (
    DegreePair,
    fibonacci_identity_check,
    improved_bound,
    moore_bound,
    moore_bound_closed_form,
    moore_bound_matrix,
)
from mooremix.constructions import (
    cayley_dihedral,
    golden_graphs,
    line_digraph_of_cycle_digons,
)
from mooremix.graph import is_isomorphic
from mooremix.search import DiameterMode, SearchSpec, enumerate_classes
from mooremix.spectral import char_poly, cospectral

from oracles import brute_force_class_counts, poly_mul

# Table 1 entries as quadratic polynomials in z: {(d, k): (c2, c1, c0)}
TABLE1 = {
    (1, 1): (0, 0, 2), (1, 2): (0, 1, 2), (1, 3): (0, 2, 2), (1, 4): (1, 2, 2), (1, 5): (2, 2, 2),
    (2, 1): (0, 0, 3), (2, 2): (0, 1, 5), (2, 3): (0, 4, 7), (2, 4): (1, 9, 9), (2, 5): (5, 16, 11),
    (3, 1): (0, 0, 4), (3, 2): (0, 1, 10), (3, 3): (0, 6, 22), (3, 4): (1, 22, 46), (3, 5): (8, 66, 94),
    (4, 1): (0, 0, 5), (4, 2): (0, 1, 17), (4, 3): (0, 8, 53), (4, 4): (1, 41, 161), (4, 5): (11, 176, 485),
    (5, 1): (0, 0, 6), (5, 2): (0, 1, 26), (5, 3): (0, 10, 106), (5, 4): (1, 66, 426), (5, 5): (14, 370, 1706),
}


def test_criterion_01_table_reproduction():
    start = time.monotonic()
    checks = 0
    for (d, k), (c2, c1, c0) in TABLE1.items():
        for z in range(d + 1):
            expected = c2 * z * z + c1 * z + c0
            assert moore_bound(DegreePair(d - z, z), k) == expected, (d, z, k)
            checks += 1
    elapsed = time.monotonic() - start
    assert checks == 100
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 100 Table-1 entries exact in {elapsed:.3f}s")


def test_criterion_02_route_agreement():
    worst = 0.0
    for d in range(1, 7):
        for z in range(d + 1):
            r = d - z
            dp = DegreePair(r, z)
            for k in range(13):
                exact = moore_bound(dp, k)
                if (r, z) not in ((0, 1), (2, 0)):
                    rel = abs(moore_bound_closed_form(dp, k) - exact) / exact
                    worst = max(worst, rel)
                    assert rel < 1e-9, (r, z, k)
                if r + 2 * z != 2:
                    assert moore_bound_matrix(dp, k) == exact, (r, z, k)
    print(f"ACCEPTANCE 2 PASS: closed form within {worst:.2e} relative; matrix route exact")


def test_criterion_03_fibonacci_identity():
    for k in range(41):
        lhs, rhs = fibonacci_identity_check(k)
        assert lhs == rhs, k
    print("ACCEPTANCE 3 PASS: M(1,1,k) = F(k+4) - 2 for k = 0..40")


def test_criterion_04_improved_bounds():
    assert improved_bound(DegreePair(1, 1), 3).improved == 10
    rep = improved_bound(DegreePair(1, 1), 5)
    assert rep.improved == 30 and rep.parity_applied
    for d in range(1, 7):
        for z in range(d + 1):
            dp = DegreePair(d - z, z)
            for k in range(3, 9):
                rep = improved_bound(dp, k)
                if dp.z == 0:
                    # undirected graphs: no Theorem 1, and M is even for odd r
                    assert rep.improved == rep.moore, (dp, k)
                    continue
                # Theorem 1, then odd r forces an even order
                expected = rep.moore - dp.r
                if dp.r % 2 == 1 and expected % 2 == 1:
                    expected -= 1
                assert rep.improved == expected, (dp, k)
                if dp.r % 2 == 1 and dp.z % 2 == 1 and k % 3 == 2:
                    assert rep.parity_applied, (dp, k)
    print("ACCEPTANCE 4 PASS: improved bounds correct on the d<=6, k<=8 grid")


def test_criterion_05_proposition_3():
    start = time.monotonic()
    one = enumerate_classes(SearchSpec(dp=DegreePair(1, 1), k=3, n=10, jobs=1))
    single_time = time.monotonic() - start
    four = enumerate_classes(SearchSpec(dp=DegreePair(1, 1), k=3, n=10, jobs=4))
    assert len(one.graphs) == 3
    assert one.encodings == four.encodings
    assert single_time <= 300.0
    print(f"ACCEPTANCE 5 PASS: 3 classes at (1,1,k=3,n=10) in {single_time:.1f}s; jobs 1 == jobs 4")


def test_criterion_06_bound_sharpness():
    res = enumerate_classes(
        SearchSpec(dp=DegreePair(1, 1), k=3, n=11, diameter_mode=DiameterMode.AT_MOST)
    )
    assert res.graphs == []
    print("ACCEPTANCE 6 PASS: no (1,1)-regular graph of order 11 with diameter <= 3")


def test_criterion_07_golden_structure():
    m = moore_bound(DegreePair(1, 1), 3)
    for g in golden_graphs():
        assert g.total_regularity() == DegreePair(1, 1)
        assert g.diameter() == 3
        for u in range(g.n):
            counts = g.tree_walk_counts(u, 3)
            assert sum(counts.values()) == m == 11
            assert g.repeat_multiset(u, 3).total == 1
        assert is_isomorphic(g, g.converse())
    print("ACCEPTANCE 7 PASS: all 3 golden graphs (1,1)-regular, diameter 3, repeat 1, self-converse")


def test_criterion_08_witness_agreement():
    ld = line_digraph_of_cycle_digons(5)
    cay = cayley_dihedral(5)
    hits = [i for i, g in enumerate(golden_graphs()) if is_isomorphic(g, ld) and is_isomorphic(g, cay)]
    assert len(hits) == 1
    print(f"ACCEPTANCE 8 PASS: golden class {hits[0]} matches both independent constructions")


def test_criterion_09_spectra():
    # (x - 2)(x^2 + x - 1)^2 x^5, expanded by plain polynomial multiplication
    expected = poly_mul(poly_mul(poly_mul([-2, 1], [-1, 1, 1]), [-1, 1, 1]), [0, 0, 0, 0, 0, 1])
    gs = golden_graphs()
    for g in gs:
        assert list(char_poly(g).coefficients) == expected
        assert char_poly(g).highest_first() == (1, 0, -5, 0, 5, -2, 0, 0, 0, 0, 0)
    assert cospectral(gs[0], gs[1]) and cospectral(gs[0], gs[2]) and cospectral(gs[1], gs[2])
    print("ACCEPTANCE 9 PASS: all golden graphs share char poly x^10 - 5x^8 + 5x^6 - 2x^5")


def test_criterion_10_completeness_oracle():
    checks = 0
    for r, z in ((1, 1), (2, 0), (0, 1)):
        for n in range(2, 9):
            oracle = brute_force_class_counts(r, z, n, 4, fixed_matching=True)
            for k in range(5):
                res = enumerate_classes(
                    SearchSpec(dp=DegreePair(r, z), k=k, n=n, diameter_mode=DiameterMode.AT_MOST)
                )
                assert len(res.graphs) == oracle[(k, "at-most")], (r, z, n, k)
                checks += 1
    print(f"ACCEPTANCE 10 PASS: {checks} enumerations match the unpruned brute force")


def test_criterion_11_property_suite():
    # Theorem 1 as an invariant on everything the search emits at k >= 3
    emitted = 0
    for n in (6, 8, 10):
        res = enumerate_classes(
            SearchSpec(dp=DegreePair(1, 1), k=3, n=n, diameter_mode=DiameterMode.AT_MOST)
        )
        for g in res.graphs:
            emitted += 1
            assert min(g.repeat_multiset(u, 3).total for u in range(g.n)) >= 1
    assert emitted > 0
    # odd undirected degree forces even order
    for n in (6, 8, 10):
        for g in enumerate_classes(
            SearchSpec(dp=DegreePair(1, 1), k=3, n=n, diameter_mode=DiameterMode.AT_MOST)
        ).graphs:
            dp = g.total_regularity()
            if dp is not None and dp.r % 2 == 1:
                assert g.n % 2 == 0
    print(f"ACCEPTANCE 11 PASS: repeat >= r and parity hold on {emitted} emitted graphs")
