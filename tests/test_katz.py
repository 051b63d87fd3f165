"""Eigenrings, stability checks, commutants, annihilation of invariants."""

from fractions import Fraction

import pytest

from redform import (
    Base,
    DimensionMismatch,
    END_CONSTRUCTION,
    EndBasis,
    InvalidArity,
    LieBasis,
    Mat,
    QQ,
    RF,
    RatFn,
    annihilates_invariants,
    check_nabla_stable_span,
    commutant,
    eigenring,
    eigenring_matrices,
    gauge,
    stabilizer_of_invariant,
    system,
    vec_row_major,
    wei_norman,
)

from helpers import (
    const_vec,
    demo_system,
    diag_basis,
    generator_stable,
    nabla_stable,
    oracle_end_action,
    reduced_demo,
    rf,
    same_constant_span,
    time_limit,
    weighted_swap,
)


class TestEigenring:
    def test_zero_system_full(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        space = eigenring(zero, num_deg_cap=2)
        assert space.dim == 4 and space.complete

    def test_demo_is_scalar(self):
        space = eigenring(demo_system(), num_deg_cap=8)
        mats = eigenring_matrices(space, 2)
        assert len(mats) == 1 and mats[0] == Mat.identity(RF, 2)

    def test_distinct_diagonal_constants(self):
        space = eigenring(system("x", [["0", "0"], ["0", "1"]]), num_deg_cap=4)
        mats = eigenring_matrices(space, 2)
        assert len(mats) == 2
        assert all(m.data[0][1].is_zero and m.data[1][0].is_zero for m in mats)

    def test_contains_identity_and_closed_under_product(self):
        sys_ = reduced_demo()
        space = eigenring(sys_, num_deg_cap=4)
        mats = eigenring_matrices(space, 2)
        assert any(m == Mat.identity(RF, 2) for m in mats) or space.dim > 0
        # identity solves the equation and lies in the span
        assert oracle_end_action(sys_, Mat.identity(RF, 2)).is_zero
        for a in mats:
            for b in mats:
                assert oracle_end_action(sys_, a * b).is_zero

    def test_gauge_equivariance(self):
        sys_ = system("x", [["0", "0"], ["0", "1"]])
        p = Mat(RF, [[rf("1"), rf("x")], [rf("0"), rf("1")]])
        moved = gauge(sys_, p)
        space = eigenring(moved, num_deg_cap=6)
        original = eigenring(sys_, num_deg_cap=6)
        pinv = p.inv()
        conjugated = [
            vec_row_major(pinv * m * p)
            for m in eigenring_matrices(original, 2)
        ]
        assert same_constant_span([v for v in space.basis], conjugated)

    def test_past_the_solve_bound(self):
        # diag(1/x) at n = 20: the End system takes 64,161,200 solve units,
        # so construction_system refuses it before building its matrix
        n = 20
        diag = system("x", [["1/x" if i == j else "0" for j in range(n)] for i in range(n)])
        with time_limit(5), pytest.raises(InvalidArity) as refused:
            eigenring(diag)
        assert str(refused.value) == (
            "solving tensor(base,dual(base)) on a 20-dimensional system takes 64,161,200 work units,"
            " over the budget of 50,000,000"
        )


class TestNablaStableSpan:
    def test_weighted_swap_is_stable(self):
        report = check_nabla_stable_span(demo_system(), EndBasis((weighted_swap(),)))
        assert report.stable
        assert report.entries[0].coordinates == (rf("-1/(2*x)"),)

    def test_identity_is_stable_with_zero_coordinate(self):
        report = check_nabla_stable_span(demo_system(), EndBasis((Mat.identity(RF, 2),)))
        assert report.stable and report.entries[0].coordinates == (RatFn.ZERO,)

    def test_single_nilpotent_not_stable(self):
        e12 = Mat(RF, [[rf("0"), rf("1")], [rf("0"), rf("0")]])
        report = check_nabla_stable_span(demo_system(), EndBasis((e12,)))
        assert not report.stable
        assert report.entries[0].residual is not None

    def test_weighted_swap_and_identity_are_stable(self):
        basis = EndBasis((weighted_swap(), Mat.identity(RF, 2)))
        report = check_nabla_stable_span(demo_system(), basis)
        assert report.stable and len(report.entries) == 2
        assert all(e.residual is None for e in report.entries)

    def test_repeated_element_is_dependent(self):
        with pytest.raises(DimensionMismatch, match="dependent"):
            check_nabla_stable_span(demo_system(), EndBasis((weighted_swap(), weighted_swap())))


class TestAnnihilation:
    def test_diagonal_generator_kills_identity(self):
        invs = [(END_CONSTRUCTION, const_vec((1, 0, 0, 1)))]
        report = annihilates_invariants(list(diag_basis().generators), invs)
        assert report.all_annihilated

    def test_weighted_swap_kills_identity(self):
        invs = [(END_CONSTRUCTION, const_vec((1, 0, 0, 1)))]
        report = annihilates_invariants([weighted_swap()], invs)
        assert report.all_annihilated

    def test_nilpotent_moves_a_vector(self):
        e12 = Mat(QQ, [[0, 1], [0, 0]])
        report = annihilates_invariants([e12], [(Base(), const_vec((0, 1)))])
        assert not report.all_annihilated
        assert report.entries[0].residual == const_vec((1, 0))


class TestCommutant:
    def test_diagonal_generator(self):
        mats = commutant(diag_basis())
        assert len(mats) == 2
        assert all(m.data[0][1] == 0 and m.data[1][0] == 0 for m in mats)

    def test_empty_basis_full_space(self):
        mats = commutant(LieBasis(2, ()))
        assert len(mats) == 4

    def test_constant_swap(self):
        swap = Mat(QQ, [[0, 1], [1, 0]])
        mats = commutant(LieBasis(2, (swap,)))
        assert len(mats) == 2
        for m in mats:
            assert m * swap == swap * m


class TestStableSubspaceCriterion:
    # Katz's criterion: on a system reduced with respect to a basis, a
    # constant subspace is stable under the generators exactly when it is
    # stable under the connection
    def test_zero_system_any_constant_subspace(self):
        zero = system("x", [["0", "0"], ["0", "0"]])
        w = [(Fraction(1), Fraction(1))]
        assert wei_norman(zero, LieBasis(2, ())) is not None
        assert generator_stable(LieBasis(2, ()), Base(), w) and nabla_stable(zero, Base(), w)

    def test_eigenvector_is_stable(self):
        w = [(Fraction(1), Fraction(0))]
        assert wei_norman(reduced_demo(), diag_basis()) is not None
        assert generator_stable(diag_basis(), Base(), w) and nabla_stable(reduced_demo(), Base(), w)

    def test_mixed_vector_is_not_stable_both_ways(self):
        w = [(Fraction(1), Fraction(1))]
        assert not generator_stable(diag_basis(), Base(), w)
        assert not nabla_stable(reduced_demo(), Base(), w)

    def test_not_reduced_rejected(self):
        # the README system is not in the span of diag(1, -1), and there the
        # two sides disagree on the first axis
        w = [(Fraction(1), Fraction(0))]
        assert wei_norman(demo_system(), diag_basis()) is None
        assert generator_stable(diag_basis(), Base(), w) and not nabla_stable(demo_system(), Base(), w)


class TestStabilizer:
    def test_identity_invariant_recovers_commutant_shape(self):
        # h with [h, Id] = 0 in the End construction: all of gl_2
        mats = stabilizer_of_invariant(END_CONSTRUCTION, const_vec((1, 0, 0, 1)), 2)
        assert len(mats) == 4

    def test_base_vector_stabilizer(self):
        # h * e1 = 0 forces the first column to vanish
        mats = stabilizer_of_invariant(Base(), const_vec((1, 0)), 2)
        assert len(mats) == 2
        for m in mats:
            assert m.data[0][0].is_zero and m.data[1][0].is_zero
