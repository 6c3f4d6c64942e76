"""Dense linear algebra for small stability test matrices.

The M-matrix classifier is the workhorse.  A Z-matrix (off-diagonal entries
<= 0) is a nonsingular M-matrix exactly when Gaussian elimination without
row exchanges produces only positive pivots, and its leading principal minors
are the running products of those pivots (Fiedler & Ptak, 1962; Berman &
Plemmons, ch. 6).  One elimination therefore decides the property and yields
the minors; a positive witness vector C^-1 1 is attached when it succeeds.

All functions are pure and hold no global state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-12

SCREEN_ROW = "row-dominance"
SCREEN_COLUMN = "column-dominance"
SCREEN_WEIGHTED_ROW = "weighted-row"
SCREEN_WEIGHTED_COLUMN = "weighted-column"
SCREEN_NONE = "none"


class LinalgInputError(ValueError):
    """Raised for inputs that violate a precondition (shape, finiteness, sign)."""


@dataclass(frozen=True)
class MMatrixReport:
    """Outcome of the nonsingular M-matrix classification.

    pivots_ok records whether every elimination pivot exceeds tol times the
    largest magnitude in its row; is_m_matrix additionally needs the sign
    pattern.  margin is the smallest leading principal minor; witness_xi is
    C^-1 1 (a positive vector whenever the classification succeeds) and None
    otherwise.  screen_passed records which sufficient dominance screen
    fired, or None when the sign pattern already failed.
    """

    is_m_matrix: bool
    off_diagonal_ok: bool
    pivots_ok: bool
    minors: np.ndarray
    margin: float
    witness_xi: np.ndarray | None
    screen_passed: str | None


def as_square(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise LinalgInputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise LinalgInputError("matrix dimension must be positive")
    if not np.isfinite(arr).all():
        raise LinalgInputError("matrix has a non-finite entry")
    return arr


def leading_principal_minors(a) -> np.ndarray:
    """Determinants of the k-by-k top-left submatrices, k = 1..n."""
    arr = as_square(a)
    return np.array([np.linalg.det(arr[:k, :k]) for k in range(1, arr.shape[0] + 1)])


def _pivots(arr: np.ndarray) -> np.ndarray:
    """Pivots of Gaussian elimination without row exchanges.

    Elimination cannot pass a zero pivot, so the result stops at the first
    one and is then shorter than the dimension.
    """
    n = arr.shape[0]
    u = arr.copy()
    pivots = np.empty(n)
    for k in range(n):
        p = pivots[k] = u[k, k]
        if p == 0.0:
            return pivots[:k + 1]
        u[k + 1:, k + 1:] -= np.outer(u[k + 1:, k] / p, u[k, k + 1:])
    return pivots


def dominance_sums(arr: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column sums of off-diagonal magnitudes, and their bound.

    Strict dominance is bound - sums > 0.  With weights xi the sums are
    |off| xi and |off|^T xi and the bound is xi * diag, else the diagonal."""
    diag = np.diag(arr)
    absoff = np.abs(arr - np.diag(diag))
    if weights is None:
        return absoff.sum(axis=1), absoff.sum(axis=0), diag
    return absoff @ weights, absoff.T @ weights, weights * diag


def _passed_screen(arr: np.ndarray, tol: float, weights=None,
                   tags=(SCREEN_ROW, SCREEN_COLUMN)) -> str | None:
    row, column, bound = dominance_sums(arr, weights)
    for sums, tag in zip((row, column), tags):
        if (bound - sums > tol).all():
            return tag
    return None


def dominance_screen(a, weights=None, tol: float = DEFAULT_TOL) -> str:
    """Cheap sufficient screens for the M-matrix property.

    Checks, in order: strict row diagonal dominance, strict column dominance,
    then the same two with positive weights.  When no weights are supplied
    they are taken as xi = a^-1 1, provided that vector exists and is
    positive (for a Z-matrix: exactly when it is a nonsingular M-matrix);
    otherwise the weighted checks are skipped.  Returns the tag of the first
    screen that passes, or "none".

    Off-diagonal entries must be nonpositive.
    """
    arr = as_square(a)
    n = arr.shape[0]
    if (arr - np.diag(np.diag(arr)) > 0).any():
        raise LinalgInputError("dominance screens require nonpositive off-diagonal entries")
    plain = _passed_screen(arr, tol)
    if plain is not None:
        return plain
    if weights is not None:
        xi = np.asarray(weights, dtype=float)
        if xi.shape != (n,) or not np.isfinite(xi).all() or (xi <= 0).any():
            raise LinalgInputError("weights must be a positive vector matching the dimension")
    else:
        try:
            xi = np.linalg.solve(arr, np.ones(n))
        except np.linalg.LinAlgError:
            return SCREEN_NONE
        if not (xi > 0).all():
            return SCREEN_NONE
    return _passed_screen(arr, tol, xi, (SCREEN_WEIGHTED_ROW, SCREEN_WEIGHTED_COLUMN)) \
        or SCREEN_NONE


def sign_and_pivot_test(a, tol: float = DEFAULT_TOL) -> tuple[bool, bool, np.ndarray]:
    """The nonsingular M-matrix test: (off_diagonal_ok, pivots_ok, pivots).

    a qualifies iff both flags hold.  Each pivot of elimination without row
    exchanges must exceed tol times the largest magnitude in its row of a,
    so the test is invariant under positive row scaling."""
    arr = as_square(a)
    off_ok = bool((arr - np.diag(np.diag(arr)) <= 0).all())
    pivots = _pivots(arr)
    pivots_ok = pivots.size == arr.shape[0] \
        and bool((pivots > tol * np.abs(arr).max(axis=1)).all())
    return off_ok, pivots_ok, pivots


def is_m_matrix(a, tol: float = DEFAULT_TOL) -> MMatrixReport:
    """Classify a as a nonsingular M-matrix by one elimination.

    The verdict is `sign_and_pivot_test`; the minors (running pivot
    products) may be far below tol on a matrix that qualifies.  Matrices
    sitting exactly on the boundary (a zero pivot) are classified negative,
    with the margin left for the caller to inspect.

    screen_passed is row or column dominance when one holds, else
    "weighted-row" for a qualifying matrix (the weights C^-1 1 give
    C xi = 1) and "none" otherwise.
    """
    arr = as_square(a)
    n = arr.shape[0]
    off_ok, pivots_ok, pivots = sign_and_pivot_test(arr, tol)
    if pivots.size == n:
        with np.errstate(over="ignore", under="ignore"):
            minors = np.cumprod(pivots)
    else:
        minors = leading_principal_minors(arr)
    verdict = off_ok and pivots_ok
    witness = np.linalg.solve(arr, np.ones(n)) if verdict else None
    screen = None
    if off_ok:
        screen = _passed_screen(arr, tol) or (SCREEN_WEIGHTED_ROW if verdict else SCREEN_NONE)
    return MMatrixReport(
        is_m_matrix=verdict,
        off_diagonal_ok=off_ok,
        pivots_ok=pivots_ok,
        minors=minors,
        margin=float(minors.min()),
        witness_xi=witness,
        screen_passed=screen,
    )


def spectral_radius(a) -> float:
    """Spectral radius of an entrywise nonnegative matrix."""
    arr = as_square(a)
    if (arr < 0).any():
        raise LinalgInputError("spectral radius expects nonnegative entries")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))
