import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mooremix.bounds import (
    ClosedFormParams,
    DegreePair,
    fibonacci,
    fibonacci_identity_check,
    improved_bound,
    layer_counts,
    moore_bound,
    moore_bound_closed_form,
    moore_bound_matrix,
    moore_table,
)
from mooremix.constructions import cayley_dihedral, cycle, line_digraph_of_cycle_digons
from mooremix.errors import DegenerateParametersError
from mooremix.search import max_order

DEGENERATE = {(0, 1), (2, 0)}


def degree_pairs(d_max=6):
    return [DegreePair(d - z, z) for d in range(1, d_max + 1) for z in range(d + 1)]


class TestLayerCounts:
    def test_fibonacci_layers(self):
        assert layer_counts(DegreePair(1, 1), 5).n_values == (1, 2, 3, 5, 8, 13)

    def test_undirected_cycle_layers(self):
        assert layer_counts(DegreePair(2, 0), 4).n_values == (1, 2, 2, 2, 2)

    def test_pure_digraph_layers(self):
        assert layer_counts(DegreePair(0, 2), 3).n_values == (1, 2, 4, 8)

    @pytest.mark.parametrize("dp", degree_pairs())
    def test_invariants(self, dp):
        lc = layer_counts(dp, 8)
        r, z = dp.r, dp.z
        assert lc.entries[0] == (0, 1, 1)
        ns = lc.n_values
        for i, (ri, zi, ni) in enumerate(lc.entries):
            assert ni == ri + zi
            if i >= 1:
                assert zi == z * ns[i - 1]
            if i >= 2:
                assert ni == (r + z - 1) * ns[i - 1] + z * ns[i - 2]

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            layer_counts(DegreePair(1, 1), -1)


class TestMooreBound:
    @pytest.mark.parametrize(
        "r,z,k,expected",
        [(1, 1, 3, 11), (3, 0, 2, 10), (2, 2, 3, 69), (0, 1, 4, 5), (2, 0, 6, 13)],
    )
    def test_pinned_values(self, r, z, k, expected):
        assert moore_bound(DegreePair(r, z), k) == expected

    def test_k_zero_is_one(self):
        for dp in degree_pairs():
            assert moore_bound(dp, 0) == 1

    @pytest.mark.parametrize("dp", degree_pairs())
    def test_specializations(self, dp):
        r, z = dp.r, dp.z
        for k in range(8):
            m = moore_bound(dp, k)
            if z == 0:
                assert m == 1 + r * sum((r - 1) ** i for i in range(k))
            if r == 0:
                assert m == sum(z**i for i in range(k + 1))

    def test_monotone_in_k(self):
        for dp in degree_pairs():
            vals = [moore_bound(dp, k) for k in range(10)]
            if dp.d >= 2:
                assert all(b > a for a, b in zip(vals, vals[1:]))
            else:
                assert all(b >= a for a, b in zip(vals, vals[1:]))

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 10))
    def test_monotone_in_degrees(self, r, z, k):
        if r + z < 1:
            r = 1
        m = moore_bound(DegreePair(r, z), k)
        assert moore_bound(DegreePair(r + 1, z), k) >= m
        assert moore_bound(DegreePair(r, z + 1), k) >= m


class TestMatrixRoute:
    def test_agrees_with_recurrence(self):
        for dp in degree_pairs():
            if dp.r + 2 * dp.z == 2:
                continue
            for k in range(13):
                assert moore_bound_matrix(dp, k) == moore_bound(dp, k)

    def test_degenerate_rejected(self):
        for r, z in DEGENERATE:
            with pytest.raises(DegenerateParametersError):
                moore_bound_matrix(DegreePair(r, z), 3)


class TestClosedForm:
    def test_params_satisfy_root_relations(self):
        for dp in degree_pairs():
            if (dp.r, dp.z) in DEGENERATE or (dp.r, dp.z) == (1, 0):
                continue
            p = ClosedFormParams.from_degrees(dp)
            assert p.u1 <= p.u2
            assert p.A + p.B == pytest.approx(1.0, abs=1e-12)
            assert p.u1 * p.u2 == pytest.approx(-dp.z, abs=1e-9)
            assert p.u1 + p.u2 == pytest.approx(dp.d - 1, abs=1e-9)

    @pytest.mark.parametrize("r,z,k,expected", [(1, 1, 3, 11.0), (3, 0, 3, 22.0), (0, 2, 2, 7.0)])
    def test_pinned_values(self, r, z, k, expected):
        assert moore_bound_closed_form(DegreePair(r, z), k) == pytest.approx(expected, abs=1e-9)

    def test_agrees_with_recurrence(self):
        for dp in degree_pairs():
            if (dp.r, dp.z) in DEGENERATE:
                continue
            for k in range(13):
                exact = moore_bound(dp, k)
                cf = moore_bound_closed_form(dp, k)
                assert abs(cf - exact) / exact < 1e-9

    def test_degenerate_rejected(self):
        for r, z in DEGENERATE:
            with pytest.raises(DegenerateParametersError):
                moore_bound_closed_form(DegreePair(r, z), 2)

    @pytest.mark.parametrize("r,z,k", [(1, 1, 2000), (1, 1, 1473), (5, 5, 1000)])
    def test_overflow_rejected(self, r, z, k):
        # (1, 1, 1473) overflows to inf in a product, the others in a power
        with pytest.raises(ValueError, match=f"k={k}"):
            moore_bound_closed_form(DegreePair(r, z), k)


class TestImprovedBound:
    def test_k3(self):
        rep = improved_bound(DegreePair(1, 1), 3)
        assert (rep.moore, rep.improved, rep.parity_applied) == (11, 10, False)
        assert rep.rule_trace == ("thm1",)

    def test_parity_case(self):
        rep = improved_bound(DegreePair(1, 1), 5)
        assert (rep.improved, rep.parity_applied) == (30, True)
        assert rep.rule_trace == ("thm1", "prop2")
        # odd r with even z: M - r = 33 is odd, but the order must be even
        assert improved_bound(DegreePair(1, 2), 3).improved == 32

    def test_no_theorem_without_arcs(self):
        # C_7 is (2,0)-regular with diameter 3 and order M(2,0,3) = 7
        rep = improved_bound(DegreePair(2, 0), 3)
        assert (rep.moore, rep.improved, rep.rule_trace) == (7, 7, ())

    def test_theorem_only(self):
        assert improved_bound(DegreePair(2, 1), 3).improved == 26

    def test_small_diameter_unchanged(self):
        rep = improved_bound(DegreePair(1, 1), 2)
        assert rep.improved == rep.moore == 6
        assert rep.rule_trace == ()

    def test_improved_never_exceeds_moore(self):
        for dp in degree_pairs():
            for k in range(9):
                rep = improved_bound(dp, k)
                assert rep.improved <= rep.moore
                if k >= 3 and dp.r % 2 == 1:
                    assert rep.improved % 2 == 0  # odd r forces even order
                if rep.parity_applied:
                    assert dp.r % 2 == 1 and rep.rule_trace[-1] == "prop2"

    def test_parity_of_layer_sums(self):
        # N_i parities cycle 1,0,1 when r and z are odd, making the sum even
        # exactly when k = 2 (mod 3)
        for dp in [DegreePair(1, 1), DegreePair(1, 3), DegreePair(3, 1), DegreePair(3, 3)]:
            ns = layer_counts(dp, 12).n_values
            assert [n % 2 for n in ns] == [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1]
            for k in range(13):
                if k % 3 == 2:
                    assert sum(ns[: k + 1]) % 2 == 0


class TestWitnesses:
    """A bound is never below the order of a graph the library builds or finds."""

    def test_constructions(self):
        graphs = [cycle(length, directed) for length in range(3, 31) for directed in (False, True)]
        graphs += [cayley_dihedral(m) for m in range(3, 21)]
        graphs += [line_digraph_of_cycle_digons(m) for m in range(3, 21)]
        for g in graphs:
            dp, k = g.total_regularity(), g.diameter()
            assert g.n <= improved_bound(dp, k).improved, (g.n, dp, k)
        # m = 5 gives order 10 at diameter 3, where the bound is tight
        for g in (cayley_dihedral(5), line_digraph_of_cycle_digons(5)):
            assert g.n == improved_bound(g.total_regularity(), g.diameter()).improved == 10

    @pytest.mark.parametrize(
        "r,z,k,expected",
        [(1, 1, 2, 6), (1, 1, 3, 10), (2, 0, 2, 5), (2, 0, 3, 7), (0, 1, 3, 4), (0, 2, 2, 6)],
    )
    def test_search_maxima(self, r, z, k, expected):
        dp = DegreePair(r, z)
        n, _ = max_order(dp, k, n_hi=moore_bound(dp, k))
        assert n == expected
        assert n <= improved_bound(dp, k).improved


class TestFibonacciIdentity:
    @pytest.mark.parametrize("k,expected", [(3, (11, 11)), (0, (1, 1)), (10, (375, 375))])
    def test_pinned(self, k, expected):
        assert fibonacci_identity_check(k) == expected

    def test_identity_up_to_40(self):
        for k in range(41):
            a, b = fibonacci_identity_check(k)
            assert a == b

    def test_fibonacci_numbering(self):
        assert [fibonacci(i) for i in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]


class TestMooreTable:
    def test_shape(self):
        t = moore_table(5, 5)
        assert len(t) == sum(d + 1 for d in range(1, 6)) * 5

    @pytest.mark.parametrize(
        "d,z,k,expected",
        [(5, 0, 5, 1706), (1, 0, 1, 2), (1, 1, 1, 2), (4, 4, 4, 341), (3, 1, 4, 69), (1, 1, 5, 6)],
    )
    def test_pinned_entries(self, d, z, k, expected):
        assert moore_table(5, 5)[(d, z, k)] == expected
