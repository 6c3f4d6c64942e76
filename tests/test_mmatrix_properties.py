"""Properties of the checked-witness M-matrix test.

The verdict is compared with an independent numpy oracle (a Z-matrix is a
nonsingular M-matrix iff its inverse is nonnegative and every eigenvalue has
a positive real part) and must not depend on row scale, symmetric
relabelling or dimension.  Matrices are drawn as C = s D - B with B >= 0
and D a positive diagonal, so C is an M-matrix exactly when s exceeds the
spectral radius of D^-1 B; `shift` places s on either side of it.
"""

from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from delaystab import (
    DEFAULT_TOL,
    FamilyError,
    GeneralSystemSpec,
    LinearSystemSpec,
    NotCertifiedError,
    certify_decay_rate,
    is_m_matrix,
    stability_verdict,
)
from delaystab import criteria
from delaystab.criteria import ALL_TAGS
from delaystab.criteria import test_matrix_at_rate as build_at_rate
from delaystab.linalg import witness_test

from conftest import random_bam, random_general
from oracles import leading_principal_minors

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


def checked(c, tol=DEFAULT_TOL):
    """(`witness_test(c, tol)`, b, xi): the test's answer with the scaled
    matrix b and trial witness xi of its solve, None when it did not solve."""
    solved = []
    real = np.linalg.solve

    def solve(b, rhs):
        x = real(b, rhs)
        solved.append((b, x[:, 0]))
        return x

    with mock.patch.object(np.linalg, "solve", solve):
        answer = witness_test(c, tol)
    return (answer, *solved[0]) if solved else (answer, None, None)


def exactly_positive(a: np.ndarray, xi: np.ndarray) -> bool:
    """a xi > 0 componentwise, in exact rational arithmetic on the floats."""
    x = [Fraction(v) for v in xi]
    return all(sum(Fraction(v) * w for v, w in zip(row, x)) > 0 for row in a)


def assert_exactly_checked(c: np.ndarray, b: np.ndarray, xi: np.ndarray):
    # the float witness proves the float matrix: no rounding in the product
    # nor in the row scaling can have made a failing c pass
    assert (xi > 0).all()
    assert exactly_positive(b, xi) and exactly_positive(c, xi)


@PROPERTY
@given(seeds, st.integers(1, 8), st.floats(0.9, 1.1), scales)
def test_a_passing_witness_is_positive_in_exact_arithmetic(seed, m, shift, log_scale):
    # shifts near 1 put the matrices close to singular, where rounding matters
    c = z_matrix(seed, m, shift, log_scale)
    for tol in (DEFAULT_TOL, 0.0):
        answer, b, xi = checked(c, tol)
        if answer[1]:
            assert_exactly_checked(c, b, xi)


@st.composite
def certified_specs(draw):
    """General specs (m up to 12, either decay family, time rescaled by
    1e-6..1e3) and two-layer specs."""
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        return random_bam(rng, n=draw(st.integers(1, 4)))
    spec = random_general(rng, draw(st.integers(1, 12)),
                          coupling_scale=draw(st.floats(0.1, 1.5)))
    s = 10.0 ** draw(scales)
    return GeneralSystemSpec(alpha=spec.alpha * s, A=spec.A * s, tau=spec.tau / s,
                             sigma=spec.sigma / s, L=spec.L * s,
                             diagonal_delay_free=draw(st.booleans()))


@PROPERTY
@given(certified_specs())
def test_every_certified_rate_is_positive_in_exact_arithmetic(spec):
    # every trial rate that passes, lambda0 among them, is checked exactly
    passed = []

    def recording(c, tol):
        answer, b, xi = checked(c, tol)
        if answer[1]:
            passed.append((c, b, xi))
        return answer

    with mock.patch.object(criteria, "witness_test", recording):
        try:
            certify_decay_rate(spec)
        except NotCertifiedError:
            assert not passed
    for c, b, xi in passed:
        assert_exactly_checked(c, b, xi)


@PROPERTY
@given(seeds, st.integers(1, 8), shifts, scales, seeds)
def test_witness_test_is_bit_invariant_under_power_of_two_row_scaling(
        seed, m, shift, log_scale, scale_seed):
    c = z_matrix(seed, m, shift, log_scale)
    k = np.random.default_rng(scale_seed).integers(-40, 41, m)
    off_ok, ok, margin, _ = witness_test(c)
    scaled = witness_test(np.ldexp(c, k[:, None]))
    assert scaled[:2] == (off_ok, ok) and scaled[2].hex() == margin.hex()


def test_small_diagonal_identity_is_m_matrix():
    # the leading minors 0.1**k of 0.1 I(20) fall below 1e-12 from k = 13 on
    # (and to 0.0 in floats at 0.1 I(400)); the witness margin is 1 - tol
    assert leading_principal_minors(0.1 * np.eye(20)).min() < 1e-12
    for m in (20, 400):
        report = is_m_matrix(0.1 * np.eye(m))
        assert report.is_m_matrix
        assert report.screen_passed == "row-dominance"
        assert 0.1 < report.margin <= 1.0


def test_zero_pivot_keeps_true_minors():
    # a zero diagonal: the witness xi = -(1, 1) gives diag(b) xi = 0, so the
    # test sits at the switch, s = 0, and reports the margin -tol
    c = np.array([[0.0, -1.0], [-1.0, 0.0]])
    assert list(leading_principal_minors(c)) == [0.0, -1.0]
    report = is_m_matrix(c)
    assert not report.is_m_matrix
    assert report.margin == -DEFAULT_TOL and report.witness_xi is None


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


FAMILIES = ("delayed_decay", "undelayed_decay", "delayed_linear", "undelayed_linear",
            "two_layer")


def small_spec(family: str, seed: int):
    """A random 2-component spec of one family, or a one-unit two-layer spec."""
    rng = np.random.default_rng(seed)
    if family == "two_layer":
        bam = random_bam(rng, n=1)
        if rng.random() < 0.3:     # fits cor10
            bam = replace(bam, tau_x=np.zeros(1), tau_y=np.zeros(1))
        if rng.random() < 0.3:     # fits gopalsamy17 and criterion18
            bam = replace(bam, r_lo=np.ones(1), r_hi=np.ones(1), p_lo=np.ones(1),
                          p_hi=np.ones(1))
        return bam
    alpha = rng.uniform(0.5, 2.0, 2)
    delay_free = family.startswith("undelayed")
    sigma = rng.uniform(0.0, 0.5, (2, 2))
    if family.endswith("decay"):
        coupling = rng.uniform(0.0, rng.uniform(0.25, 2.0), (2, 2))
        if rng.random() < 0.3:     # fits cor0
            np.fill_diagonal(coupling, 0.0)
        return GeneralSystemSpec(alpha=alpha, A=alpha + rng.uniform(0.0, 1.0, 2),
                                 tau=rng.uniform(0.0, 0.3, 2) * (not delay_free),
                                 sigma=sigma, L=coupling, diagonal_delay_free=delay_free)
    off = rng.uniform(0.0, 2.0, (2, 2))
    np.fill_diagonal(off, 0.0)
    return LinearSystemSpec(alpha=alpha, A=alpha + rng.uniform(0.0, 0.5, 2), A_off=off,
                            sigma=sigma, diagonal_delay_free=delay_free)


def in_time_unit(spec, k: int):
    """The same spec with time measured in units of 2**-k: rates and couplings
    times 2**k, delays over 2**k, every product exact in floats."""
    f = 2.0 ** k
    if isinstance(spec, GeneralSystemSpec):
        return replace(spec, alpha=spec.alpha * f, A=spec.A * f, tau=spec.tau / f,
                       sigma=spec.sigma / f, L=spec.L * f)
    if isinstance(spec, LinearSystemSpec):
        return replace(spec, alpha=spec.alpha * f, A=spec.A * f, A_off=spec.A_off * f,
                       sigma=spec.sigma / f)
    return replace(spec, a=spec.a * f, b=spec.b * f, a_conn=spec.a_conn * f,
                   b_conn=spec.b_conn * f, tau_x=spec.tau_x / f, tau_y=spec.tau_y / f,
                   sigma_x=spec.sigma_x / f, sigma_y=spec.sigma_y / f)


def statuses(spec) -> dict:
    out = {}
    for tag in ALL_TAGS:
        try:
            out[tag] = stability_verdict(spec, criterion=tag).status
        except FamilyError:
            pass
    return out


@PROPERTY
@given(st.sampled_from(FAMILIES), seeds, st.integers(-40, 40))
def test_every_verdict_is_invariant_under_the_time_unit(family, seed, k):
    spec = small_spec(family, seed)
    assert statuses(in_time_unit(spec, k)) == statuses(spec)
