"""Dense linear algebra kernel: minors, M-matrix classification, spectral radius."""

import math

import numpy as np
import pytest

from delaystab import (
    LinalgInputError,
    is_m_matrix,
    spectral_radius,
)

from delaystab.linalg import witness_test

from oracles import leading_principal_minors


def test_leading_minors_of_triangular_matrix():
    a = np.array([[2.0, 0.0, 0.0], [5.0, 3.0, 0.0], [-1.0, 7.0, 0.5]])
    minors = leading_principal_minors(a)
    assert np.allclose(minors, [2.0, 6.0, 3.0], atol=1e-13)


def test_leading_minors_match_numpy_dets():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.normal(0.0, 1.0, (n, n))
        minors = leading_principal_minors(a)
        for k in range(1, n + 1):
            ref = np.linalg.det(a[:k, :k])
            assert abs(minors[k - 1] - ref) < 1e-9 * max(1.0, abs(ref))


def test_non_square_input_rejected():
    with pytest.raises(LinalgInputError):
        leading_principal_minors(np.ones((2, 3)))
    with pytest.raises(LinalgInputError):
        is_m_matrix(np.ones((1, 2)))


def test_known_m_matrix_with_witness():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    rep = is_m_matrix(a)
    assert rep.is_m_matrix
    assert rep.off_diagonal_ok
    assert np.allclose(leading_principal_minors(a), [2.0, 3.0], atol=1e-13)
    # witness solves A xi = 1 and must be strictly positive
    assert np.max(np.abs(a @ rep.witness_xi - 1.0)) < 1e-12
    assert (rep.witness_xi > 0).all()


def test_subnormal_row_keeps_its_verdict_and_a_witness_without_nan():
    # 1 / r overflows for a row below about 5.6e-309; the suite turns the
    # RuntimeWarning that would show it into an error
    rep = is_m_matrix(np.diag([1e-310, 1.0]))
    assert rep.is_m_matrix and rep.margin == is_m_matrix(np.eye(2)).margin
    assert rep.witness_xi.tolist() == [np.inf, 1.0]
    # the verdict reads only b = a / r, so scaling the row into range moves nothing
    a = np.array([[1e-310, -4e-311], [-0.5, 1.0]])
    rep, scaled = is_m_matrix(a), is_m_matrix(np.vstack([np.ldexp(a[0], 1030), a[1]]))
    assert rep.is_m_matrix and rep.margin == scaled.margin
    assert not np.isnan(rep.witness_xi).any()


def test_positive_off_diagonal_disqualifies():
    rep = is_m_matrix(np.array([[2.0, 0.5], [-1.0, 2.0]]))
    assert not rep.is_m_matrix
    assert not rep.off_diagonal_ok


def test_boundary_minor_zero_is_not_m_matrix():
    # det = 0: nonsingularity fails even though the sign pattern holds
    rep = is_m_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not rep.is_m_matrix
    assert rep.off_diagonal_ok


def test_m_matrix_agrees_with_inverse_positivity():
    rng = np.random.default_rng(42)
    seen_pos = seen_neg = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        a = -rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(a, rng.uniform(0.0, 4.0, n))
        rep = is_m_matrix(a)
        if np.min(np.abs(leading_principal_minors(a))) <= 1e-8:
            continue
        try:
            inv_ok = bool((np.linalg.inv(a) >= -1e-9).all())
        except np.linalg.LinAlgError:
            inv_ok = False
        assert rep.is_m_matrix == inv_ok
        if rep.is_m_matrix:
            seen_pos += 1
        else:
            seen_neg += 1
    assert seen_pos > 20 and seen_neg > 20


def test_m_property_invariant_under_symmetric_permutation():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = -rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(a, rng.uniform(0.5, 3.0, n))
        perm = rng.permutation(n)
        b = a[np.ix_(perm, perm)]
        assert is_m_matrix(a).is_m_matrix == is_m_matrix(b).is_m_matrix


def test_row_dominance_screen():
    a = np.array([[3.0, -1.0, -1.0], [-0.5, 2.0, -0.5], [0.0, -1.0, 4.0]])
    assert is_m_matrix(a).screen_passed == "row-dominance"


def test_column_dominance_screen():
    # row sums fail in row 0 but every column is dominant
    a = np.array([[1.0, -0.6, -0.6], [-0.2, 2.0, -0.5], [-0.2, -0.5, 2.0]])
    assert is_m_matrix(a).screen_passed == "column-dominance"


def test_weighted_screen_from_inverse_witness():
    # row 0 is not dominant and column 1 is not, yet the matrix is an
    # M-matrix (det 0.76); the inverse-derived weights have to settle it
    a = np.array([[1.0, -1.5, 0.0], [0.0, 1.0, -0.4], [-0.4, 0.0, 1.0]])
    rep = is_m_matrix(a)
    assert rep.is_m_matrix and rep.screen_passed == "weighted-row"


def test_screen_pass_implies_m_matrix():
    rng = np.random.default_rng(4242)
    passes = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        a = -rng.uniform(0.0, 2.0, (n, n))
        np.fill_diagonal(a, rng.uniform(0.0, 3.0, n))
        rep = is_m_matrix(a)
        if rep.screen_passed not in (None, "none"):
            passes += 1
            assert rep.is_m_matrix
    assert passes > 30


def test_screen_rejects_positive_off_diagonal():
    rep = is_m_matrix(np.array([[1.0, 0.1], [0.0, 1.0]]))
    assert rep.screen_passed is None and not rep.is_m_matrix


@pytest.mark.parametrize("entry", [-np.inf, np.inf, np.nan])
@pytest.mark.parametrize("at", [(0, 0), (0, 1)])
def test_non_finite_entry_fails_with_nan_margin(entry, at):
    # an entry that overflowed leaves no witness to check: the test fails,
    # steering a bracket search nowhere, and the report gives -tol; off the
    # diagonal, +inf and NaN are not <= 0, so the sign pattern fails too
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    a[at] = entry
    off_ok, ok, margin, witness = witness_test(a)
    assert off_ok == (entry == -np.inf or at == (0, 0)) and not ok and witness is None
    assert math.isnan(margin) or not off_ok
    rep = is_m_matrix(a)
    assert not rep.is_m_matrix and rep.margin == -1e-12 and rep.witness_xi is None
    assert rep.screen_passed == ("none" if off_ok else None)


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(88)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.0, 1.0, (n, n))
        r = spectral_radius(a)
        ref = np.max(np.abs(np.linalg.eigvals(a)))
        assert abs(r - ref) < 1e-8 * max(1.0, ref)


def test_spectral_radius_antidiagonal_pair():
    # eigenvalues +-sqrt(6): plain power iteration two-cycles on this one
    a = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert abs(spectral_radius(a) - np.sqrt(6.0)) < 1e-8


def test_spectral_radius_zero_matrix():
    assert spectral_radius(np.zeros((3, 3))) < 1e-9


def test_spectral_radius_rejects_negative_entries():
    with pytest.raises(LinalgInputError):
        spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]))

