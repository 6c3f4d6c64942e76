"""Properties of the single-elimination M-matrix test.

The verdict is compared with an independent numpy oracle (a Z-matrix is a
nonsingular M-matrix iff its inverse is nonnegative and every eigenvalue has
a positive real part) and must not depend on row scale, symmetric
relabelling or dimension.  Matrices are drawn as C = s D - B with B >= 0
and D a positive diagonal, so C is an M-matrix exactly when s exceeds the
spectral radius of D^-1 B; `shift` places s on either side of it.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from delaystab import (
    DEFAULT_TOL,
    GeneralSystemSpec,
    certify_decay_rate,
    is_m_matrix,
    leading_principal_minors,
    stability_verdict,
)
from delaystab.criteria import test_matrix_at_rate as build_at_rate

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 128)
shifts = st.floats(0.5, 1.5)
scales = st.floats(-6.0, 3.0)


def z_matrix(seed: int, m: int, shift: float, log_scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 1.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.5)
    np.fill_diagonal(b, 0.0)
    d = rng.uniform(0.2, 2.0, m)
    critical = float(np.max(np.abs(np.linalg.eigvals(b / d[:, None]))))
    s = shift * critical if critical > 0.0 else shift - 1.0
    return 10.0 ** log_scale * (s * np.diag(d) - b)


def oracle(c: np.ndarray):
    """True / False where numpy decides clearly, None near the boundary."""
    size = float(np.abs(c).max())
    low = float(np.min(np.linalg.eigvals(c).real))
    if low < -1e-6 * size:
        return False
    if low <= 1e-6 * size:
        return None
    inv = np.linalg.inv(c)
    if float(inv.min()) < -1e-9 * float(np.abs(inv).max()):
        return None
    return True


@PROPERTY
@given(seeds, dims, shifts, scales)
def test_verdict_agrees_with_numpy_oracle(seed, m, shift, log_scale):
    c = z_matrix(seed, m, shift, log_scale)
    expected = oracle(c)
    assume(expected is not None)
    report = is_m_matrix(c)
    assert report.is_m_matrix == expected
    if expected:
        assert (report.witness_xi > 0).all()
        assert report.screen_passed != "none"
    else:
        assert report.witness_xi is None


@PROPERTY
@given(seeds, dims, shifts, scales, seeds)
def test_verdict_invariant_under_row_scaling(seed, m, shift, log_scale, scale_seed):
    c = z_matrix(seed, m, shift, log_scale)
    assume(oracle(c) is not None)
    d = 10.0 ** np.random.default_rng(scale_seed).uniform(-6.0, 6.0, m)
    assert is_m_matrix(d[:, None] * c).is_m_matrix == is_m_matrix(c).is_m_matrix


@PROPERTY
@given(seeds, dims, shifts, scales, seeds)
def test_verdict_invariant_under_symmetric_permutation(seed, m, shift, log_scale, perm_seed):
    c = z_matrix(seed, m, shift, log_scale)
    assume(oracle(c) is not None)
    perm = np.random.default_rng(perm_seed).permutation(m)
    assert is_m_matrix(c[np.ix_(perm, perm)]).is_m_matrix == is_m_matrix(c).is_m_matrix


def test_small_diagonal_identity_is_m_matrix():
    # the leading minors 0.1**k of 0.1 I(20) fall below 1e-12 from k = 13 on
    # (and to 0.0 in floats at 0.1 I(400)); every scaled pivot slack is 1 - tol
    assert leading_principal_minors(0.1 * np.eye(20)).min() < 1e-12
    for m in (20, 400):
        report = is_m_matrix(0.1 * np.eye(m))
        assert report.is_m_matrix
        assert report.screen_passed == "row-dominance"
        assert 0.1 < report.margin <= 1.0


def test_zero_pivot_keeps_true_minors():
    # elimination stops at the zero pivot, whose scaled slack is -tol
    report = is_m_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert not report.is_m_matrix and not report.pivots_ok
    assert report.margin == -DEFAULT_TOL


def test_45_unit_spec_is_certified():
    m = 45
    spec = GeneralSystemSpec(alpha=np.ones(m), A=np.ones(m), tau=np.full(m, 0.5),
                             sigma=np.zeros((m, m)), L=np.full((m, m), 0.001))
    verdict = stability_verdict(spec)
    assert verdict.status == "stable_certified"
    # the listed checks must agree with the verdict, minors far below tol or not
    assert all(c.satisfied for c in verdict.checks)
    assert leading_principal_minors(verdict.test_matrix).min() < 1e-12
    assert 0.1 < verdict.report.margin <= 1.0

    cert = certify_decay_rate(spec)
    assert cert.lambda0 > 0.0 and cert.upper_failed
    assert oracle(build_at_rate(spec, cert.lambda0)) is not False
    assert not is_m_matrix(build_at_rate(spec, cert.lambda0 + cert.bracket_width)).is_m_matrix
