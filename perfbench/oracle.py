"""Independent numpy oracle for the nonsingular M-matrix property.

A Z-matrix C (off-diagonal entries <= 0) is a nonsingular M-matrix exactly
when its inverse exists and is entrywise nonnegative, equivalently when every
eigenvalue has a positive real part (Berman & Plemmons, *Nonnegative Matrices
in the Mathematical Sciences*, 1994, ch. 6).  The oracle checks both
characterisations with dense LAPACK routines, so it shares no code with the
program's leading-minor classifier.

Floating point cannot decide matrices that sit on the boundary, so the oracle
answers in three ways: ``CERTIFIED`` (an M-matrix with margin), ``REJECTED``
(clearly not one) and ``BOUNDARY`` (too close to call).  A program verdict is
scored unsound only against ``REJECTED`` and a missed certificate only against
``CERTIFIED``.
"""

from __future__ import annotations

import numpy as np

CERTIFIED = "certified"
REJECTED = "rejected"
BOUNDARY = "boundary"

# smallest eigenvalue real part, relative to the largest diagonal entry, that
# counts as a clear margin either way
EIG_MARGIN = 1e-6
# negative inverse entries, relative to the largest inverse entry, tolerated
# as rounding noise in a certified matrix
INV_NOISE = 1e-9


def classify(c) -> str:
    """Three-way M-matrix classification of a square matrix."""
    if c is None:
        return REJECTED
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not np.all(np.isfinite(c)):
        return REJECTED
    off = c - np.diag(np.diag(c))
    if np.any(off > 0.0):
        return REJECTED
    scale = max(1.0, float(np.max(np.abs(np.diag(c)))))
    min_re = float(np.min(np.linalg.eigvals(c).real))
    if min_re < -EIG_MARGIN * scale:
        return REJECTED
    if min_re <= EIG_MARGIN * scale:
        return BOUNDARY
    inv = np.linalg.inv(c)
    if float(np.min(inv)) < -INV_NOISE * float(np.max(np.abs(inv))):
        return BOUNDARY
    return CERTIFIED


def comparison_matrix(kind: str, spec: dict) -> np.ndarray:
    """Rate-zero comparison matrix of a bounds-only document without self-coupling.

    Written from the published formulas, not from the program's builders:
    c_ii = 1 - A_i^2 tau_i / alpha_i and c_ij = -(A_i tau_i + 1) L_ij / alpha_i
    for a general spec, and the same entries on the merged state (x, y) for a
    two-layer spec, whose cross-layer growth constants are
    |a_conn| r_hi Lf and |b_conn| p_hi Lg.
    """
    if kind == "general":
        alpha = np.asarray(spec["alpha"], dtype=float)
        upper = np.asarray(spec["A"], dtype=float)
        tau = np.asarray(spec["tau"], dtype=float)
        growth = np.asarray(spec["L"], dtype=float)
    else:
        def vec(key):
            return np.atleast_1d(np.asarray(spec[key], dtype=float))

        def mat(key, scalar_key):
            if key in spec:
                return np.asarray(spec[key], dtype=float)
            return np.asarray([[spec[scalar_key]]], dtype=float)

        a, b = vec("a"), vec("b")
        n = a.shape[0]
        alpha = np.concatenate([vec("r_lo") * a, vec("p_lo") * b])
        upper = np.concatenate([vec("r_hi") * a, vec("p_hi") * b])
        tau = np.concatenate([vec("tau_x"), vec("tau_y")])
        growth = np.zeros((2 * n, 2 * n))
        growth[:n, n:] = np.abs(mat("a_conn", "coupling_xy")) * vec("r_hi")[:, None] * vec("Lf")[None, :]
        growth[n:, :n] = np.abs(mat("b_conn", "coupling_yx")) * vec("p_hi")[:, None] * vec("Lg")[None, :]
    if np.any(np.diag(growth) != 0.0):
        raise ValueError("comparison_matrix covers specs without self-coupling only")
    c = -((upper * tau + 1.0)[:, None] * growth) / alpha[:, None]
    np.fill_diagonal(c, 1.0 - upper * upper * tau / alpha)
    return c


def critical_value(build, lo: float = 0.0, hi: float = 1.0) -> float:
    """Largest k for which build(k) is an M-matrix, by bisection on the oracle.

    build(k) must lose the M-matrix property monotonically as k grows, and
    build(lo) must have it.  The bracket is widened until it holds the switch.
    """
    def m_matrix(k):
        c = build(k)
        return float(np.min(np.linalg.eigvals(c).real)) > 0.0

    if not m_matrix(lo):
        raise ValueError("build(lo) is not an M-matrix")
    while m_matrix(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if m_matrix(mid):
            lo = mid
        else:
            hi = mid
    return lo
