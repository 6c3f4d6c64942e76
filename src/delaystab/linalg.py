"""Dense linear algebra for small stability test matrices.

The M-matrix classifier is the workhorse.  A Z-matrix C (off-diagonal
entries <= 0) is a nonsingular M-matrix exactly when some xi > 0 has
C xi > 0 (Berman & Plemmons, ch. 6).  `witness_test`, the package's only
M-matrix decision, solves once for such a xi, checks C xi > 0 against the
rounding of the product that checks it (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 3), and reads its margin off the same solve.

All functions are pure and hold no global state.
"""

from __future__ import annotations

from math import nan
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-12

SCREEN_ROW = "row-dominance"
SCREEN_COLUMN = "column-dominance"
SCREEN_WEIGHTED_ROW = "weighted-row"
SCREEN_NONE = "none"


class LinalgInputError(ValueError):
    """Raised for inputs that violate a precondition (shape, finiteness, sign)."""


class MMatrixReport(NamedTuple):
    """Outcome of the nonsingular M-matrix classification.

    is_m_matrix records whether `witness_test` accepted its checked witness,
    which needs the sign pattern too.  margin is that test's s - tol;
    witness_xi is C^-1 1 (a positive vector whenever the classification
    succeeds) and None otherwise.  screen_passed records which sufficient
    dominance screen fired, or None when the sign pattern already failed.
    """

    is_m_matrix: bool
    off_diagonal_ok: bool
    margin: float
    witness_xi: np.ndarray | None
    screen_passed: str | None


def as_square(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise LinalgInputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise LinalgInputError("matrix dimension must be positive")
    return arr


def dominance_sums(arr: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column sums of off-diagonal magnitudes, and their bound.

    Strict dominance is bound - sums > 0.  With weights xi the sums are
    |off| xi and |off|^T xi and the bound is xi * diag, else the diagonal."""
    diag = np.diag(arr)
    absoff = np.abs(arr)    # its diagonal zeroed, which an infinite entry also allows
    np.fill_diagonal(absoff, 0.0)
    if weights is None:
        return absoff.sum(axis=1), absoff.sum(axis=0), diag
    return absoff @ weights, absoff.T @ weights, weights * diag


def _passed_screen(arr: np.ndarray, tol: float) -> str | None:
    row, column, bound = dominance_sums(arr)
    for sums, tag in ((row, SCREEN_ROW), (column, SCREEN_COLUMN)):
        if (bound - sums > tol).all():
            return tag
    return None


def witness_test(a, tol: float = DEFAULT_TOL) -> tuple[bool, bool, float, np.ndarray | None]:
    """The nonsingular M-matrix test: (off_diagonal_ok, witness_ok, margin, witness).

    The rows are scaled to b = a / r, r_i the largest |a_ij| (a zero row
    fails), which is exact under a 2^k scaling of a row, so the answer does
    not move under one.  One solve of b [xi, w] = [1, 1/r] gives the trial
    witness xi and w = a^-1 1, the `witness` of a pass; below r_i = 2^-1022,
    where 1/r_i may overflow, the solve takes 2^-64/r and w = 2^64 times its
    second column, infinite where it leaves float range.  a passes iff its
    off-diagonal entries are <= 0, the solve gives a finite xi > 0,
    fl(b xi) > g fl(|b| xi), and margin = s - tol > 0, where s = 1 / (d_k xi_k)
    for d = diag(b) and the largest |d_k xi_k|.  On a pass s is the
    Collatz-Wielandt bound min_i 1 / (d_i xi_i) <= 1 - rho(D^-1 N), b = D - N;
    unlike that minimum it crosses zero smoothly at the switch, so it steers
    a bracket search.  A singular b or a non-finite xi sits at the switch,
    s = 0.  A fail far from the switch can have s > 0, which only steers.
    An entry that overflowed to +-inf, or to NaN, leaves nothing to check:
    such an a fails with margin NaN, which steers a bracket search nowhere,
    and a NaN off the diagonal, which is not <= 0, fails the sign pattern too.

    A pass proves the exact R^-1 C xi > 0, for C before any rounding and
    R = diag(r), barring underflow; with u = 2^-53 and g_j = j u / (1 - j u)
    (Higham, ch. 3), g covers three roundings:
    - building C: `criteria._rate_matrix` rounds each entry K = 16 times
      (exp counts twice, for its own rounding and its argument's), so
      |C - a| <= g_K |a|.  A diagonal 1 - x carries that error relative to
      1 + x instead, which s > tol covers while the diagonal of a exceeds
      about 2 g_K / s;
    - dividing the rows: |R^-1 C - b| <= g_(K+1) |b|;
    - the products: |fl(b xi) - b xi| <= g_m |b| xi in any summation order,
      fl(|b| xi) >= (1 - g_m) |b| xi, and fl(g q) >= (1 - u) g q.
    So R^-1 C xi > [g (1 - u)(1 - g_m) - g_(m+K+1)] |b| xi, and
    g = g_(2m+K+3) makes the bracket nonnegative for every m below 10^7.
    """
    arr = as_square(a)
    m = arr.shape[0]
    if np.count_nonzero(arr > 0.0) > np.count_nonzero(arr.diagonal() > 0.0):
        return False, False, -tol, None     # a positive off-diagonal entry
    if not np.isfinite(arr).all():
        nan_off = np.count_nonzero(np.isnan(arr)) > np.count_nonzero(np.isnan(arr.diagonal()))
        return not nan_off, False, nan, None
    at_switch = True, False, -tol, None     # s = 0
    rows = np.abs(arr).max(axis=1)
    low = rows.min()
    if not low:
        return at_switch
    b = arr / rows[:, None]
    scale = 1.0 if low >= 2.0 ** -1022 else 2.0 ** -64      # else 1 / r may overflow
    try:
        x = np.linalg.solve(b, np.array((np.ones(m), scale / rows)).T)
    except np.linalg.LinAlgError:
        return at_switch
    xi = x[:, 0]
    if not np.isfinite(xi).all():
        return at_switch
    dx = b.diagonal() * xi
    top = float(dx[np.abs(dx).argmax()])
    s = 1.0 / top if top else 0.0
    j = (2 * m + 16 + 3) * 2.0 ** -53       # (2m + K + 3) u: g = j / (1 - j)
    ok = s - tol > 0.0 and (xi > 0.0).all() and (b @ xi > j / (1.0 - j) * (np.abs(b) @ xi)).all()
    if ok and scale != 1.0:
        with np.errstate(over="ignore"):
            x[:, 1] /= scale
    return True, bool(ok), s - tol, x[:, 1] if ok else None


def is_m_matrix(a, tol: float = DEFAULT_TOL) -> MMatrixReport:
    """Classify a as a nonsingular M-matrix by `witness_test`.

    A failed matrix reports a margin of at most -tol, a singular one or one
    with a non-finite entry -tol.  screen_passed is row or column dominance
    when one holds, else "weighted-row" for a qualifying matrix (the weights
    C^-1 1 give C xi = 1) and "none" otherwise.
    """
    arr = as_square(a)
    off_ok, ok, margin, witness = witness_test(arr, tol)
    screen = None
    if off_ok:  # a NaN margin, of a non-finite entry, passes no screen
        plain = _passed_screen(arr, tol) if margin == margin else None
        screen = plain or (SCREEN_WEIGHTED_ROW if ok else SCREEN_NONE)
    return MMatrixReport(ok, off_ok, margin if ok else min(-tol, margin), witness, screen)


def spectral_radius(a) -> float:
    """Spectral radius of an entrywise nonnegative matrix."""
    arr = as_square(a)
    if not np.isfinite(arr).all():
        raise LinalgInputError("matrix has a non-finite entry")
    if (arr < 0).any():
        raise LinalgInputError("spectral radius expects nonnegative entries")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))
