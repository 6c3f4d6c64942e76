"""Comparison matrices, verdicts, decay-rate certification, closed forms."""

import json
from dataclasses import asdict, replace
from math import inf, nan, nextafter, ulp
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delaystab import criteria
from delaystab.linalg import witness_test
from delaystab import (
    ALL_TAGS,
    BamSpec,
    DecayCertificate,
    FamilyError,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearSystemSpec,
    NotCertifiedError,
    bam_to_general,
    certify_decay_rate,
    comparison_matrix,
    is_m_matrix,
    parse_file,
    stability_verdict,
    two_neuron_comparison,
)
from delaystab.cli import main
# aliased so pytest does not mistake the builders for test functions
from delaystab import test_matrix_at_rate as build_at_rate
from delaystab.systems import merged_bounds

from conftest import random_bam, random_general
from oracles import leading_principal_minors, two_neuron


# frozen with exact rational arithmetic, independently of this package
GENERAL_2X2_C = np.array([[0.575, -0.244], [-0.092, 0.774]])
GENERAL_2X2_DET = 0.422602
LINEAR_2X2_C = np.array([[0.712, -0.372], [-0.2775, 0.879]])


def test_general_matrix_frozen_values(general_2x2):
    c = comparison_matrix(general_2x2, "theorem1")
    assert np.max(np.abs(c - GENERAL_2X2_C)) < 1e-15
    minors = leading_principal_minors(c)
    assert abs(minors[0] - 0.575) < 1e-15
    assert abs(minors[1] - GENERAL_2X2_DET) < 1e-12


def test_undelayed_decay_matrix_frozen_values(general_2x2):
    flat = GeneralSystemSpec(alpha=general_2x2.alpha, A=general_2x2.A,
                             tau=np.zeros(2), sigma=general_2x2.sigma,
                             L=general_2x2.L, diagonal_delay_free=True)
    c = comparison_matrix(flat, "cor1")
    assert np.max(np.abs(c - np.array([[0.85, -0.2], [-0.08, 0.96]]))) < 1e-15


def test_linear_matrix_frozen_values(linear_2x2):
    c = comparison_matrix(linear_2x2, "cor2")
    assert np.max(np.abs(c - LINEAR_2X2_C)) < 1e-15


def test_linear_undelayed_matrix():
    spec = LinearSystemSpec(alpha=[1.0, 2.0], A=[1.0, 2.0],
                            A_off=[[0.0, 0.5], [0.8, 0.0]],
                            sigma=[[0.0, 0.1], [0.1, 0.0]],
                            diagonal_delay_free=True)
    c = comparison_matrix(spec, "cor3")
    assert np.max(np.abs(c - np.array([[1.0, -0.5], [-0.4, 1.0]]))) < 1e-15


@st.composite
def bound_arrays(draw):
    """alpha, A, a vector and two matrices of random bounds (m = 1..12).

    Each field has its own scale, from 1e-6 to 1e3, and its own share of
    zero entries, diagonals included.
    """
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field(shape, low=0.0):
        values = rng.uniform(low, 1.0, shape) * 10.0 ** draw(st.integers(-6, 3))
        values[rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
        return values

    alpha = np.maximum(field(m, low=0.1), 1e-7)
    return alpha, alpha + field(m), field(m), field((m, m)), field((m, m))


def certificate_rate_zero_matrix(spec) -> np.ndarray:
    """The matrix that `certify_decay_rate` decides first, at rate 0."""
    decided = []

    def fail(c, tol):
        decided.append(c)
        return False, nan, nan

    with mock.patch.object(criteria, "witness_trial", fail), pytest.raises(NotCertifiedError):
        certify_decay_rate(spec)
    return decided[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(bound_arrays(), st.integers(0, 2**32 - 1))
def test_shared_builder_bodies_equal_the_separate_formulas(bounds, seed):
    alpha, upper, tau, sigma, coupling = bounds
    general = GeneralSystemSpec(alpha=alpha, A=upper, tau=tau, sigma=sigma, L=coupling,
                                diagonal_delay_free=True)
    linear = LinearSystemSpec(alpha=alpha, A=upper, A_off=coupling, sigma=sigma)
    flat = LinearSystemSpec(alpha=alpha, A=upper, A_off=coupling, sigma=sigma,
                            diagonal_delay_free=True)
    # each family's matrix written out on its own: Theorem 1's entries with
    # the bounds the family sets to zero dropped
    undelayed = -(general.L / general.alpha[:, None])
    np.fill_diagonal(undelayed, 1.0 - general.L.diagonal() / general.alpha)
    sd = linear.sigma.diagonal()
    delayed = -(linear.A_off * (linear.A * sd + 1.0)[:, None]) / linear.alpha[:, None]
    np.fill_diagonal(delayed, 1.0 - linear.A * linear.A * sd / linear.alpha)
    unit = -(flat.A_off / flat.alpha[:, None])
    np.fill_diagonal(unit, 1.0)
    for got, want in ((comparison_matrix(general, "cor1"), undelayed),
                      (comparison_matrix(linear, "cor2"), delayed),
                      (comparison_matrix(flat, "cor3"), unit)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # a verdict and the certificate that follows it decide on one matrix (the
    # certificate is probed first: after the verdict it keeps its outcome)
    no_self = coupling - np.diag(coupling.diagonal())
    specs = [GeneralSystemSpec(alpha=alpha, A=upper, tau=tau, sigma=sigma, L=L,
                               diagonal_delay_free=free)
             for L in (coupling, no_self) for free in (False, True)]
    for spec in specs + [random_bam(np.random.default_rng(seed), n=len(alpha))]:
        assert np.array_equal(certificate_rate_zero_matrix(spec),
                              stability_verdict(spec).test_matrix)


def test_no_self_coupling_requires_zero_diagonal(general_2x2):
    with pytest.raises(FamilyError):
        comparison_matrix(general_2x2, "cor0")


def test_rate_zero_shift_is_identical():
    # one builder for every family: its rate-0 matrix is the verdict's
    # matrix and, where a certificate applies, the certificate's first trial
    rng = np.random.default_rng(7521)
    for _ in range(100):
        base = random_general(rng)
        m = base.m
        coupling = rng.uniform(0.0, 1.0 / m, (m, m))
        for spec in (base, replace(base, diagonal_delay_free=True),
                     replace(base, L=base.L - np.diag(base.L.diagonal())),
                     LinearSystemSpec(alpha=base.alpha, A=base.A, A_off=coupling,
                                      sigma=base.sigma),
                     LinearSystemSpec(alpha=base.alpha, A=base.A, A_off=coupling,
                                      sigma=base.sigma, diagonal_delay_free=True),
                     random_bam(rng)):
            at_rate = build_at_rate(spec, 0.0).tobytes()
            assert comparison_matrix(spec).tobytes() == at_rate
            if not isinstance(spec, LinearSystemSpec):
                assert certificate_rate_zero_matrix(spec).tobytes() == at_rate


def test_rate_matrix_degrades_monotonically():
    # growing the rate can only shrink the diagonal and deepen the
    # off-diagonal entries, so the minors shrink as well
    rng = np.random.default_rng(55)
    for _ in range(50):
        spec = random_general(rng, coupling_scale=0.3)
        rates = np.linspace(0.0, 0.8 * float(np.min(spec.alpha)), 5)
        prev_min = None
        for lam in rates:
            c = build_at_rate(spec, lam)
            margin = float(leading_principal_minors(c).min())
            if prev_min is not None:
                assert margin <= prev_min + 1e-9
            prev_min = margin


def test_bam_matrix_equals_reduction_exactly():
    rng = np.random.default_rng(911)
    for _ in range(300):
        bam = random_bam(rng)
        direct = comparison_matrix(bam, "thm3")
        via = comparison_matrix(bam_to_general(bam), "cor0")
        assert np.array_equal(direct, via)


def test_bam_matrix_frozen_modulated_pair():
    s = two_neuron(a=1.0, b=1.0, coupling_xy=1.0 / 720.0,
                   coupling_yx=1.0 / 200.0, Lf=1.0, Lg=1.0,
                   tau_x=0.001, tau_y=0.001, sigma_x=2.0, sigma_y=3.0,
                   r_lo=20.0, r_hi=20.0, p_lo=40.0, p_hi=40.0,
                   I=10000.0, J=20000.0)
    c = comparison_matrix(s, "thm3")
    want = np.array([[0.98, -0.0014166666666666668], [-0.0052, 0.96]])
    assert np.max(np.abs(c - want)) < 1e-15
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    assert abs(det - 0.9407926333333333) < 1e-12


def test_auto_dispatch_tags(general_2x2, linear_2x2):
    assert stability_verdict(general_2x2).criterion_used == "theorem1"
    nos = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.1, 0.1],
                            sigma=[[0.0, 0.1], [0.1, 0.0]],
                            L=[[0.0, 0.2], [0.2, 0.0]])
    assert stability_verdict(nos).criterion_used == "cor0"
    flat = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]],
                             L=[[0.5]], diagonal_delay_free=True)
    assert stability_verdict(flat).criterion_used == "cor1"
    assert stability_verdict(linear_2x2).criterion_used == "cor2"
    lin0 = LinearSystemSpec(alpha=[1.0], A=[1.0], A_off=[[0.0]],
                            sigma=[[0.0]], diagonal_delay_free=True)
    assert stability_verdict(lin0).criterion_used == "cor3"
    rng = np.random.default_rng(1)
    assert stability_verdict(random_bam(rng)).criterion_used == "thm3"


def test_forced_tag_family_mismatch(general_2x2):
    with pytest.raises(FamilyError):
        stability_verdict(general_2x2, criterion="cor2")
    with pytest.raises(FamilyError):
        stability_verdict(general_2x2, criterion="no-such-tag")


# one unit per layer at unit rates: every two-layer tag fits it but cor10-k
SCALAR_PAIR = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                         Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                         sigma_x=0.4, sigma_y=0.5)


def fitting_specs(general_2x2, linear_2x2) -> dict:
    """A spec that each criterion tag fits."""
    general_free = replace(general_2x2, diagonal_delay_free=True)
    linear_free = LinearSystemSpec(alpha=[1.0, 2.0], A=[1.0, 2.0],
                                   A_off=[[0.0, 0.5], [0.8, 0.0]],
                                   sigma=[[0.0, 0.1], [0.1, 0.0]],
                                   diagonal_delay_free=True)
    by_tag = {
        "theorem1": general_2x2, "cor4": general_2x2,
        "cor0": replace(general_2x2, L=general_2x2.L - np.diag(general_2x2.L.diagonal())),
        "cor1": general_free, "cor5": general_free,
        "cor2": linear_2x2, "cor6": linear_2x2,
        "cor3": linear_free, "cor7": linear_free,
    }
    unlagged = replace(SCALAR_PAIR, tau_x=[0.0], tau_y=[0.0])
    return {tag: by_tag.get(tag, unlagged if tag.startswith("cor10-") else SCALAR_PAIR)
            for tag in ALL_TAGS}


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_every_tag_is_decided_by_stability_verdict(tag, general_2x2, linear_2x2):
    spec = fitting_specs(general_2x2, linear_2x2)[tag]
    assert stability_verdict(spec, criterion=tag).criterion_used == tag


@pytest.mark.parametrize("tag, misfit, message", [
    ("cor4", lambda fits: random_general(np.random.default_rng(2), m=3),
     "dimension must be 2, got 3"),
    ("cor7", lambda fits: fits["cor4"],
     "closed form 7 does not match this spec (expected 4)"),
    ("cor10-1", lambda fits: fits["cor9-1"],
     "this test needs zero leakage delays (tau_x = tau_y = 0)"),
    ("cor11", lambda fits: random_bam(np.random.default_rng(5), n=2),
     "closed form needs one unit per layer, got n=2"),
    ("cor9-5", lambda fits: fits["cor9-1"], "unknown criterion tag 'cor9-5'"),
    ("theorem1", lambda fits: fits["cor2"], "expected a general spec, got LinearSystemSpec"),
    ("theorem1", lambda fits: fits["cor1"], "this test needs the delayed-decay family; "
     "use tau = 0 instead of diagonal_delay_free"),
    ("cor0", lambda fits: fits["theorem1"], "self-coupling constants must be zero for this test"),
    ("cor1", lambda fits: fits["theorem1"], "this test is for the delay-free-decay family"),
    ("cor1", lambda fits: fits["thm3"], "expected a general spec, got BamSpec"),
    ("cor2", lambda fits: fits["theorem1"], "expected a linear spec, got GeneralSystemSpec"),
    ("cor2", lambda fits: fits["cor3"], "this test needs the delayed linear family"),
    ("cor3", lambda fits: fits["cor2"], "this test is for the delay-free linear family"),
    ("thm3", lambda fits: fits["theorem1"], "this criterion needs a two-layer network spec"),
    ("certify-rate", lambda fits: fits["cor2"],
     "decay-rate certification needs a general or two-layer spec"),
], ids=["cor4-m3", "cor7-on-cor4-spec", "cor10-1-leak-delays", "cor11-n2", "cor9-5-unknown",
        "theorem1-linear", "theorem1-delay-free", "cor0-self-coupling", "cor1-delayed",
        "cor1-two-layer", "cor2-general", "cor2-delay-free", "cor3-delayed", "thm3-general",
        "certify-rate-linear"])
def test_forced_tag_misfit_raises_family_error(tag, misfit, message, general_2x2, linear_2x2):
    # "certify-rate" stands for `certify_decay_rate`, which takes no tag
    spec = misfit(fitting_specs(general_2x2, linear_2x2))
    with pytest.raises(FamilyError) as exc:
        if tag == "certify-rate":
            certify_decay_rate(spec)
        else:
            stability_verdict(spec, criterion=tag)
    assert str(exc.value) == message


def test_bam_spec_can_run_reduced_criteria():
    rng = np.random.default_rng(13)
    bam = random_bam(rng)
    v_direct = stability_verdict(bam, criterion="thm3")
    v_reduced = stability_verdict(bam, criterion="cor0")
    assert np.array_equal(v_direct.test_matrix, v_reduced.test_matrix)
    assert v_direct.stable == v_reduced.stable


def test_verdict_invariant_stable_means_positive_margins():
    rng = np.random.default_rng(461)
    for _ in range(200):
        spec = random_general(rng, coupling_scale=2.0)
        v = stability_verdict(spec)
        if v.stable:
            assert v.report is not None and v.report.is_m_matrix
            assert v.report.margin > 0
        else:
            assert v.report is None or not v.report.is_m_matrix


# --- decay-rate certification ----------------------------------------------

def test_certified_rate_brackets(general_2x2):
    cert = certify_decay_rate(general_2x2)
    assert cert.lambda0 > 0
    assert is_m_matrix(build_at_rate(general_2x2, cert.lambda0)).is_m_matrix
    if cert.upper_failed:
        shifted = build_at_rate(general_2x2, cert.lambda0 + cert.bracket_width)
        assert not is_m_matrix(shifted).is_m_matrix
        assert cert.bracket_width < 1e-12
    assert cert.lambda0 < float(np.min(general_2x2.alpha))


def test_certificate_builds_full_reports_only_at_zero_and_lambda0(monkeypatch, general_2x2):
    # every rate, 0 included, is decided by the witness test alone; no full
    # report (screens) is built, and iterations counts the tests
    calls = []

    def counting(a, tol=criteria.DEFAULT_TOL):
        calls.append(len(a))
        return is_m_matrix(a, tol=tol)

    monkeypatch.setattr(criteria, "is_m_matrix", counting)
    cert, trials = counted_certificate(general_2x2)
    assert cert.upper_failed and cert.iterations == trials <= 63
    assert not calls


def test_certify_requires_stable_base():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]],
                             L=[[2.0]])
    with pytest.raises(NotCertifiedError):
        certify_decay_rate(spec)


@pytest.mark.parametrize("k", [1.0, nextafter(1.0, inf)])
def test_singular_boundary_and_one_ulp_past_it_are_inconclusive(k):
    # the rate-0 matrix is [[1, -1], [-k, 1]]: exactly singular at k = 1, one
    # ulp past the boundary above; neither raises, both are refused
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.0, 0.0],
                             sigma=[[0.0, 0.0], [0.0, 0.0]], L=[[0.0, 1.0], [k, 0.0]])
    verdict = stability_verdict(spec)
    assert verdict.test_matrix.tolist() == [[1.0, -1.0], [-k, 1.0]]
    assert verdict.status == "inconclusive"
    assert verdict.report.margin <= -criteria.DEFAULT_TOL
    assert verdict.report.witness_xi is None
    assert not witness_test(verdict.test_matrix, 0.0)[1]
    with pytest.raises(NotCertifiedError):
        certify_decay_rate(spec)


def test_a_singular_trial_matrix_inside_the_search_is_a_failure(monkeypatch, general_2x2):
    # above half the top every trial matrix is made exactly singular, the
    # top's included; each is a failure, and the search still certifies
    real = criteria._rate_matrix
    top = float(np.min(general_2x2.alpha)) - criteria.DEFAULT_TOL

    def singular_above_half(alpha, A, tau, L, sigma=None, rate=0.0):
        if rate > 0.5 * top:
            return np.array([[1.0, -1.0], [-1.0, 1.0]])
        return real(alpha, A, tau, L, sigma, rate)

    monkeypatch.setattr(criteria, "_rate_matrix", singular_above_half)
    cert = certify_decay_rate(general_2x2)
    assert cert.upper_failed and 0.0 < cert.lambda0 <= 0.5 * top


@pytest.mark.parametrize("name", ["general_sample", "two_neuron_sample", "bam_modulated"])
def test_certificate_at_zero_tolerance_stays_below_the_pole(inputs_dir, name):
    # min(alpha) - 0 is the pole of the rate matrix, so the top trial rate is
    # one ulp below it; the certificate is still found, and lies below the pole
    spec = parse_file(str(inputs_dir / f"{name}.json")).spec
    alpha = merged_bounds(spec)[0] if isinstance(spec, BamSpec) else spec.alpha
    cert = certify_decay_rate(spec, tol=0.0)
    assert cert.upper_failed
    assert 0.0 < cert.lambda0 < float(np.min(alpha))
    assert cert.lambda0 == pytest.approx(certify_decay_rate(spec).lambda0, rel=1e-9)


def test_certify_rejects_linear_family(linear_2x2):
    with pytest.raises(FamilyError):
        certify_decay_rate(linear_2x2)


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
@pytest.mark.parametrize("family", ["delayed", "delay_free", "two_layer"])
def test_certificate_validates_its_spec(general_2x2, bad, family):
    # a spec with a bound outside its rules is refused when rebuilt, so it
    # never reaches a certificate's trial rates
    message = "must be > 0 (got -1.0)" if bad < 0 else "must be finite (got nan)"
    if family == "two_layer":
        valid = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                           Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                           sigma_x=0.4, sigma_y=0.5)
        with pytest.raises(InvalidSpecError) as exc:
            replace(valid, a=[bad])
        assert exc.value.violations == [f"a[0] {message}"]
    else:
        with pytest.raises(InvalidSpecError) as exc:
            replace(general_2x2, alpha=[general_2x2.alpha[0], bad],
                    diagonal_delay_free=family == "delay_free")
        # NaN breaks both of alpha's rules, > 0 and <= A, and is named once
        assert exc.value.violations == [f"alpha[1] {message}"]


def test_isolated_decay_hits_search_top():
    # no couplings at all: the test passes for every rate below the decay
    # bracket, so the certificate returns the top of the search range
    spec = GeneralSystemSpec(alpha=[1.0, 2.0], A=[1.0, 2.0], tau=[0.0, 0.0],
                             sigma=[[0.0, 0.0], [0.0, 0.0]],
                             L=[[0.0, 0.0], [0.0, 0.0]])
    cert = certify_decay_rate(spec)
    assert not cert.upper_failed
    assert abs(cert.lambda0 - 1.0) < 1e-9


def test_certificate_monotone_in_coupling_strength():
    base = dict(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.05, 0.05],
                sigma=[[0.1, 0.1], [0.1, 0.1]])
    rates = []
    for L01 in (0.05, 0.2, 0.4):
        spec = GeneralSystemSpec(L=[[0.0, L01], [L01, 0.0]], **base)
        rates.append(certify_decay_rate(spec).lambda0)
    assert rates[0] > rates[1] > rates[2]


def rate_family(spec) -> GeneralSystemSpec:
    """The delayed-decay general spec whose rates a certificate searches."""
    if isinstance(spec, BamSpec):
        spec = bam_to_general(spec)
    if spec.diagonal_delay_free:
        spec = GeneralSystemSpec(alpha=spec.alpha, A=spec.A, tau=np.zeros(spec.m),
                                 sigma=spec.sigma, L=spec.L)
    return spec


def rate_matrix(spec, rate):
    """The matrix that a certificate's trial at this rate decides."""
    return criteria._rate_matrix(spec.alpha, spec.A, spec.tau, spec.L, spec.sigma, rate)


def passes_at(spec, rate, tol=criteria.DEFAULT_TOL) -> bool:
    return witness_test(rate_matrix(spec, rate), tol)[1]


def halvings(passes, lo: float, hi: float) -> tuple[float, float]:
    """The oracle bracket: 60 halvings of [lo, hi] for a monotone test that
    passes at lo and fails at hi; returns (last pass, first fail)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def sixty_halvings(spec, tol=criteria.DEFAULT_TOL) -> DecayCertificate:
    """The certificate as it was computed before the bracketing search: every
    one of the 60 halvings runs its own test."""
    spec = rate_family(spec)
    if not is_m_matrix(comparison_matrix(spec, "theorem1"), tol=tol).is_m_matrix:
        raise NotCertifiedError("rate zero does not pass")

    def passes(rate):
        return passes_at(spec, rate, tol)

    top = float(np.min(spec.alpha)) - tol
    if passes(top):
        lo, hi, iterations = top, top, 0
    else:
        (lo, hi), iterations = halvings(passes, 0.0, top), 60
    boundary = is_m_matrix(rate_matrix(spec, lo), tol=tol)
    return DecayCertificate(lo, float(boundary.margin), iterations, hi - lo, iterations > 0)


def bits(cert: DecayCertificate) -> list:
    # every field but iterations, which the halvings fixed at 60 (0 when the
    # top passes) and the search sets to its tests
    return [(type(v), v.hex() if isinstance(v, float) else v)
            for name, v in asdict(cert).items() if name != "iterations"]


def counted_certificate(spec):
    """(certificate or the exception class it raised, trial tests)."""
    calls = []

    def counting(a, tol=criteria.DEFAULT_TOL):
        calls.append(len(a))
        return witness_test(a, tol)

    with mock.patch.object(criteria, "witness_test", counting):
        try:
            cert = certify_decay_rate(spec)
        except NotCertifiedError:
            cert = NotCertifiedError
    return cert, len(calls)


@st.composite
def rate_specs(draw):
    """General specs (m up to 64, rescaled in time by 1e-6..1e3, with either
    decay family) and two-layer specs; about two thirds certify at rate 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_bam(rng, n=draw(st.integers(1, 8)))
    spec = random_general(rng, draw(st.integers(1, 64)),
                          coupling_scale=draw(st.floats(0.1, 1.5)))
    s = 10.0 ** draw(st.floats(-6.0, 3.0))
    return GeneralSystemSpec(alpha=spec.alpha * s, A=spec.A * s, tau=spec.tau / s,
                             sigma=spec.sigma / s, L=spec.L * s,
                             diagonal_delay_free=draw(st.booleans()))


def certificate_against_sixty_halvings(spec):
    """(certificate or NotCertifiedError, trial tests), checked against
    the 60 halvings.  Where those end on adjacent floats the bracket around
    the switch is unique, and the certificate equals theirs bit for bit.
    Elsewhere it must still be a sound bracket no wider than theirs could
    be: lambda0 passes, lambda0 + bracket_width fails, and the width is at
    most max(top / 2**60, ulp(lambda0))."""
    try:
        want = sixty_halvings(spec)
    except NotCertifiedError:
        want = NotCertifiedError
    cert, trials = counted_certificate(spec)
    # the halvings took 61 tests; the search never needs more than 63
    assert trials <= 63
    if want is NotCertifiedError or cert is NotCertifiedError:
        assert cert is want
        return cert, trials
    assert cert.iterations == trials
    lo, width = want.lambda0, want.bracket_width
    if lo + width <= nextafter(lo, inf):
        assert bits(cert) == bits(want)
    else:
        family = rate_family(spec)
        top = float(np.min(family.alpha)) - criteria.DEFAULT_TOL
        lam, width = cert.lambda0, cert.bracket_width
        assert cert.upper_failed and want.upper_failed
        assert passes_at(family, lam) and not passes_at(family, lam + width)
        assert 0.0 < width <= max(top * 0.5 ** 60, ulp(lam))
        assert cert.boundary_margin == witness_test(rate_matrix(family, lam))[2]
    return cert, trials


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rate_specs())
def test_certificate_equals_sixty_halvings_bit_for_bit(spec):
    certificate_against_sixty_halvings(spec)


@pytest.mark.parametrize("k", [0.818, 0.81818])
def test_certificate_far_below_the_top_is_a_sound_bracket(k):
    # the rate-0 matrix is singular at k = 0.9 / 1.1, so lambda0 lies far
    # below the top, where the halvings' last width top / 2**60 spans several
    # floats and their bracket is one of many
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.1, 0.1],
                             sigma=[[0.1, 0.1], [0.1, 0.1]], L=[[0.0, k], [k, 0.0]])
    want = sixty_halvings(spec)
    assert want.lambda0 + want.bracket_width > nextafter(want.lambda0, inf)
    cert, _ = certificate_against_sixty_halvings(spec)
    assert 0.0 < cert.lambda0 < 1e-3


def general_sample(changes=()) -> GeneralSystemSpec:
    """inputs/general_sample.json's bounds, with `changes` ((field, *index) -> value) applied."""
    fields = dict(alpha=np.ones(3), A=np.ones(3), tau=np.full(3, 0.1),
                  sigma=np.full((3, 3), 0.2), L=np.full((3, 3), 0.15))
    np.fill_diagonal(fields["L"], 0.1)
    for (name, *at), value in dict(changes).items():
        fields[name][tuple(at)] = value
    return GeneralSystemSpec(**fields)


@pytest.mark.parametrize("L01, lambda0", [(0.15, 0.003534767583244392),
                                          (0.0, 0.4330059295049292)])
def test_rate_trials_that_overflow_fail_and_the_search_certifies(L01, lambda0):
    # sigma[0][1] = 800: exp(800 rate) overflows below the top of the rate
    # range.  An absent coupling (L01 = 0) adds 0 at every rate, and a trial
    # whose matrix overflows fails, without a warning (an error in this suite)
    spec = general_sample({("sigma", 0, 1): 800.0, ("L", 0, 1): L01})
    cert = certify_decay_rate(spec)
    assert cert.lambda0 == lambda0 and cert.upper_failed
    # numpy's eigenvalues confirm an M-matrix at lambda0, and the bracket is tight
    c = rate_matrix(spec, cert.lambda0)
    assert (c - np.diag(c.diagonal()) <= 0.0).all() and np.linalg.eigvals(c).real.min() > 0.0
    assert passes_at(spec, cert.lambda0)
    assert not passes_at(spec, cert.lambda0 + cert.bracket_width)
    with np.errstate(over="ignore"):
        assert build_at_rate(spec, 0.99)[0, 1] == (-np.inf if L01 else 0.0)
    unchanged = certify_decay_rate(general_sample())
    assert (unchanged.lambda0, unchanged.iterations) == (0.37692199281888905, 13)


@pytest.mark.parametrize("tag", ["thm3", "cor9-1", "cor9-2", "cor9-3", "cor9-4", "cor11"])
def test_two_layer_test_matrix_that_overflows_is_inconclusive(tag):
    # a = 1e200: A^2 tau overflows the diagonal to -inf, which numpy reports
    # once; the dominance sums of that matrix raise no warning of their own
    spec = two_neuron(a=1e200, b=0.7, coupling_xy=0.5, coupling_yx=0.3, Lf=0.5, Lg=0.6,
                      tau_x=0.1, tau_y=0.2, sigma_x=0.3, sigma_y=0.4)
    with np.errstate(over="ignore"):
        verdict = stability_verdict(spec, criterion=tag)
    assert verdict.status == "inconclusive" and verdict.test_matrix[0, 0] == -np.inf


def test_test_matrix_that_overflows_is_inconclusive():
    # A[0] = 1e200 keeps alpha <= A, but A^2 tau overflows the diagonal to
    # -inf, with numpy's warning: no witness can be checked, so the verdict
    # is inconclusive
    spec = general_sample({("A", 0): 1e200})
    with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
        verdict = stability_verdict(spec)
    assert verdict.status == "inconclusive" and verdict.test_matrix[0, 0] == -np.inf
    assert verdict.report.margin == -criteria.DEFAULT_TOL and verdict.report.screen_passed == "none"
    assert [c.satisfied for c in verdict.checks] == [True, False]
    with pytest.raises(NotCertifiedError, match=r"\(margin -1\.000e-12\)$"):
        certify_decay_rate(spec)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 6.0), st.floats(-6.0, 3.0),
       st.floats(0.0, 1.0, exclude_max=True),
       st.sampled_from(["sign", "distance", "toward_pass", "toward_fail", "noise"]),
       st.booleans(), st.integers(0, 2**32 - 1))
# a slack that pulls every estimate to the passing end spends the projection's
# whole allowance; rounding the projected step then cost a last halving
@example(1.0, 0.1, 2.2, 0.9999999999999999, "toward_pass", False, 0)
@example(1.0, -6.4, -5.3, 0.9999999999999999, "toward_pass", False, 0)
def test_switch_search_is_never_slower_than_bisection_by_more_than_one_step(
        sign, log_lo, log_width, where, slack, nan_at_lo, seed):
    # a slack without information, or one that misleads, costs at most one
    # step more than bisection, on brackets below, above and across zero
    lo, width = sign * 10.0 ** log_lo, 10.0 ** log_width
    hi = lo + width
    switch = max(lo + where * width, nextafter(lo, inf))     # passes below
    rng = np.random.default_rng(seed)
    made = {"sign": lambda x, ok: 1.0 if ok else -1.0,
            "distance": lambda x, ok: switch - x,
            "toward_pass": lambda x, ok: 1e-300 if ok else -1e300,
            "toward_fail": lambda x, ok: 1e300 if ok else -1e-300,
            "noise": lambda x, ok: (1.0 if ok else -1.0) * 10.0 ** rng.uniform(-300, 300)}[slack]
    calls = []

    def trial(x):
        calls.append(x)
        return x < switch, made(x, x < switch)

    slack_lo = nan if nan_at_lo else made(lo, True)
    a, b = criteria.switch_bracket(trial, lo, hi, slack_lo, made(hi, False))
    assert len(calls) <= criteria.BISECT_STEPS + 1
    floor = (hi - lo) * 0.5 ** criteria.BISECT_STEPS
    if (lo > 0.0 and floor <= ulp(lo)) or (hi < 0.0 and floor <= ulp(hi)):
        # the halvings end on adjacent floats, the one bracket around the switch
        want = halvings(lambda x: x < switch, lo, hi)
        assert [a.hex(), b.hex()] == [want[0].hex(), want[1].hex()]
    else:
        # the floor lies between floats; the last steps round to them, as
        # the halvings' own do, so the width may pass it by a few spacings
        assert a < switch <= b
        assert b - a <= floor + 3.0 * max(ulp(a), ulp(b))


def test_one_component_search_interpolates_on_the_unscaled_slack():
    # with m = 1 the scaled slack p / |p| - tol carries only the sign; the
    # search took a median of 58 trials on these specs with it.  Unscaled,
    # p - tol |p| tends to -inf near the top of the range, which held the
    # 90th percentile at 62 until a failing |p| > 1 was scaled back to -1
    rng = np.random.default_rng(2024)
    counts = []
    for _ in range(200):
        spec = random_general(rng, 1, coupling_scale=rng.uniform(0.1, 1.5))
        s = 10.0 ** rng.uniform(-6.0, 3.0)
        spec = GeneralSystemSpec(alpha=spec.alpha * s, A=spec.A * s, tau=spec.tau / s,
                                 sigma=spec.sigma / s, L=spec.L * s,
                                 diagonal_delay_free=bool(rng.integers(2)))
        cert, trials = certificate_against_sixty_halvings(spec)
        if cert is not NotCertifiedError:
            counts.append(trials)
    assert len(counts) > 150
    assert np.median(counts) <= 20 and np.percentile(counts, 90) <= 25


# each took 61 trial tests when every halving ran its own; the
# counts include the one at rate 0
@pytest.mark.parametrize("name, trials", [
    ("bam_modulated", 16), ("general_sample", 13), ("two_neuron_sample", 18)])
def test_input_certificates_take_few_trials(inputs_dir, name, trials):
    spec = parse_file(str(inputs_dir / f"{name}.json")).spec
    cert, count = certificate_against_sixty_halvings(spec)
    assert cert.iterations == count == trials


# --- two-dimensional closed forms -------------------------------------------

def alpha_scaled_sides(v, alpha):
    """The sides of Corollaries 4-7 read off the verdict's test matrix C:
    x_i = alpha_i (1 - C_ii), the coupling product alpha_0 alpha_1 C_01 C_10
    and the decay product alpha_0 alpha_1 C_00 C_11."""
    c = v.test_matrix
    x = alpha * (1.0 - c.diagonal())
    scale = alpha[0] * alpha[1]
    return x[0], x[1], scale * c[0, 1] * c[1, 0], scale * c[0, 0] * c[1, 1]


def published_two_dim(spec, which) -> bool:
    """Corollaries 4-7 as published, in the spec's own bounds.

    4-6: x_i = A_i (A_i + s_i) d_i + s_i < alpha_i and
    (A_0 k_01 d_0 + k_01)(A_1 k_10 d_1 + k_10) < (alpha_0 - x_0)(alpha_1 - x_1),
    with (k, d, s) = (L, tau, diag L) for 4, (L, 0, diag L) for 5 and
    (A_off, diag sigma, 0) for 6; 7: A_off_01 A_off_10 < alpha_0 alpha_1.
    """
    al, up = spec.alpha, spec.A
    if which == 7:
        return spec.A_off[0, 1] * spec.A_off[1, 0] < al[0] * al[1]
    zero = np.zeros(2)
    k, d, s = ((spec.L, spec.tau, spec.L.diagonal()) if which == 4 else
               (spec.L, zero, spec.L.diagonal()) if which == 5 else
               (spec.A_off, spec.sigma.diagonal(), zero))
    x = up * (up + s) * d + s
    coupling = (up[0] * k[0, 1] * d[0] + k[0, 1]) * (up[1] * k[1, 0] * d[1] + k[1, 0])
    return bool(x[0] < al[0] and x[1] < al[1] and coupling < (al[0] - x[0]) * (al[1] - x[1]))


def test_two_dim_frozen_sides():
    # merged textbook pair: hand-checked determinant sides 0.168 < 0.192
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    spec = bam_to_general(s)
    v = stability_verdict(spec, criterion="cor4")
    x0, x1, coupling, decay = alpha_scaled_sides(v, spec.alpha)
    assert abs(x0 - 0.32) < 1e-15   # 0.8^2 * 0.5
    assert abs(x1 - 0.1) < 1e-15    # 0.5^2 * 0.4
    assert abs(coupling - 0.168) < 1e-15
    assert abs(decay - 0.192) < 1e-15
    assert v.criterion_used == "cor4"
    assert v.stable and v.report.is_m_matrix


def test_two_dim_agrees_with_published_corollaries():
    rng = np.random.default_rng(333)
    free_stable = 0
    for _ in range(1000):
        spec = random_general(rng, m=2, coupling_scale=rng.uniform(0.5, 4.0))
        closed = stability_verdict(spec, criterion="cor4")
        assert closed.criterion_used == "cor4"
        assert closed.stable == published_two_dim(spec, 4)
        # the delay-free copy is the undelayed-decay case, closed form 5
        free = replace(spec, diagonal_delay_free=True)
        closed_free = stability_verdict(free, criterion="cor5")
        assert closed_free.criterion_used == "cor5"
        assert closed_free.stable == published_two_dim(free, 5)
        free_stable += closed_free.stable
    assert 100 < free_stable < 900


def test_two_dim_linear_variants_agree():
    rng = np.random.default_rng(77)
    stable = 0
    for _ in range(300):
        alpha = rng.uniform(0.5, 2.0, 2)
        off = rng.uniform(0.0, 2.0, (2, 2))
        np.fill_diagonal(off, 0.0)
        spec = LinearSystemSpec(alpha=alpha, A=alpha + rng.uniform(0, 0.5, 2),
                                A_off=off, sigma=rng.uniform(0.0, 0.3, (2, 2)))
        assert stability_verdict(spec, criterion="cor6").stable == published_two_dim(spec, 6)
        flat = LinearSystemSpec(alpha=alpha, A=alpha, A_off=off,
                                sigma=np.zeros((2, 2)),
                                diagonal_delay_free=True)
        closed_flat = stability_verdict(flat, criterion="cor7")
        assert closed_flat.stable == published_two_dim(flat, 7)
        stable += closed_flat.stable
    assert 30 < stable < 270


# --- two-layer dominance families -------------------------------------------

def _bam_brute_dominance(c, which, weights=None):
    n = c.shape[0]
    absoff = np.abs(c - np.diag(c.diagonal()))
    d = c.diagonal()
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if which == 1:
        return bool(np.all(d > absoff.sum(axis=1)))
    if which == 2:
        return bool(np.all(d > absoff.sum(axis=0)))
    if which == 3:
        return bool(np.all(w * d > absoff @ w))
    return bool(np.all(w * d > absoff.T @ w))


def test_bam_dominance_brute_force_agreement():
    rng = np.random.default_rng(600)
    checked = weighted = 0
    for _ in range(300):
        bam = random_bam(rng)
        c = comparison_matrix(bam, "thm3")
        for which in (1, 2):
            v = stability_verdict(bam, criterion=f"cor9-{which}")
            assert v.stable == _bam_brute_dominance(c, which)
            assert v.criterion_used == f"cor9-{which}"
            checked += 1
        # the weighted variants weigh by the witness C^-1 1, which exists
        # exactly when C is an M-matrix
        m_matrix = is_m_matrix(c).is_m_matrix
        for which in (3, 4):
            v = stability_verdict(bam, criterion=f"cor9-{which}")
            if m_matrix:
                w = np.linalg.solve(c, np.ones(len(c)))
                assert v.stable == _bam_brute_dominance(c, which, w)
                weighted += 1
            else:
                assert not v.stable
    assert checked == 600
    assert weighted > 40


def test_bam_dominance_implies_matrix_verdict():
    rng = np.random.default_rng(601)
    hits = 0
    for _ in range(300):
        bam = random_bam(rng)
        for which in (1, 2, 3, 4):
            if stability_verdict(bam, criterion=f"cor9-{which}").stable:
                hits += 1
                assert stability_verdict(bam).stable
    assert hits > 20


def test_bam_undelayed_dominance_unit_diagonal():
    rng = np.random.default_rng(603)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        r_lo = rng.uniform(0.5, 1.5, n)
        p_lo = rng.uniform(0.5, 1.5, n)
        bam = BamSpec(
            a=rng.uniform(0.5, 2.0, n), b=rng.uniform(0.5, 2.0, n),
            a_conn=rng.normal(0.0, 0.5, (n, n)), b_conn=rng.normal(0.0, 0.5, (n, n)),
            Lf=rng.uniform(0.0, 1.0, n), Lg=rng.uniform(0.0, 1.0, n),
            r_lo=r_lo, r_hi=r_lo + rng.uniform(0.0, 0.5, n),
            p_lo=p_lo, p_hi=p_lo + rng.uniform(0.0, 0.5, n),
            tau_x=np.zeros(n), tau_y=np.zeros(n),
            sigma_x=rng.uniform(0.0, 0.5, n), sigma_y=rng.uniform(0.0, 0.5, n),
            I=np.zeros(n), J=np.zeros(n))
        c = comparison_matrix(bam, "thm3")
        assert np.max(np.abs(c.diagonal() - 1.0)) < 1e-15
        v = stability_verdict(bam, criterion="cor10-1")
        assert v.stable == _bam_brute_dominance(c, 1)


# --- scalar closed forms ----------------------------------------------------

def cor11_sides(v):
    """The sides of Corollary 11 read off the verdict's test matrix C.

    The corollary divides row i by alpha_i, so its sides are C's entries:
    a rh^2 tau_x / rl = 1 - C_00 and b ph^2 tau_y / pl = 1 - C_11 against 1,
    and the coupling product C_01 C_10 against C_00 C_11.
    """
    c = v.test_matrix
    return 1.0 - c[0, 0], 1.0 - c[1, 1], c[0, 1] * c[1, 0], c[0, 0] * c[1, 1]


def test_closed_form_textbook_pair():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    v = stability_verdict(s, criterion="cor11")
    x_decay, y_decay, coupling, decay = cor11_sides(v)
    assert abs(x_decay - 0.4) < 1e-15
    assert abs(y_decay - 0.2) < 1e-15
    assert abs(coupling - 0.42) < 1e-12
    assert abs(decay - 0.48) < 1e-12
    assert v.stable and v.report.is_m_matrix


def test_closed_form_modulated_pair_values():
    # frozen: coupling side 7.3666...e-06 against 0.9408 at the nominal
    # rates, 3.8201...e-04 against 0.23549... at the +-18 modulation
    for amp, lhs_want, rhs_want in (
            (0.0, 7.366666666666667e-06, 0.9408),
            (18.0, 0.00038201414393939395, 0.23549127272727272)):
        s = two_neuron(a=1.0, b=1.0, coupling_xy=1.0 / 720.0,
                       coupling_yx=1.0 / 200.0, Lf=1.0, Lg=1.0,
                       tau_x=0.001, tau_y=0.001, sigma_x=2.0, sigma_y=3.0,
                       r_lo=20.0 - amp, r_hi=20.0 + amp,
                       p_lo=40.0 - amp, p_hi=40.0 + amp,
                       I=10000.0, J=20000.0)
        v = stability_verdict(s, criterion="cor11")
        _, _, coupling, decay = cor11_sides(v)
        assert abs(coupling - lhs_want) < 1e-15
        assert abs(decay - rhs_want) < 1e-12
        assert v.stable


def test_comparison_pair_frozen_sides():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    per_unit, product = two_neuron_comparison(s)
    m1 = {c.name: c for c in per_unit.checks}
    assert abs(m1["unit_1_coupling"].lhs - 5.0 / 8.0) < 1e-12
    assert abs(m1["unit_1_coupling"].rhs - 3.0 / 7.0) < 1e-12
    assert not per_unit.stable
    m2 = {c.name: c for c in product.checks}
    assert abs(m2["coupling_product"].lhs - 1.0 / 4.0) < 1e-12
    assert abs(m2["coupling_product"].rhs - 2.0 / 7.0) < 1e-12
    assert product.stable


def test_per_unit_pass_implies_product_pass():
    rng = np.random.default_rng(700)
    passes = 0
    for _ in range(1000):
        a, b = rng.uniform(0.5, 2.0, 2)
        tau_x = rng.uniform(0.0, 0.9 / a)
        tau_y = rng.uniform(0.0, 0.9 / b)
        s = two_neuron(a=a, b=b,
                       coupling_xy=rng.normal(0.0, 1.0),
                       coupling_yx=rng.normal(0.0, 1.0),
                       Lf=rng.uniform(0.0, 1.0), Lg=rng.uniform(0.0, 1.0),
                       tau_x=tau_x, tau_y=tau_y,
                       sigma_x=rng.uniform(0.0, 1.0),
                       sigma_y=rng.uniform(0.0, 1.0))
        per_unit, product = two_neuron_comparison(s)
        if per_unit.stable:
            passes += 1
            assert product.stable
    assert passes > 100


@pytest.mark.parametrize("tau_x, tau_y", [(1.25, 0.4), (0.5, 2.5)], ids=["x-at-1", "y-above-1"])
def test_comparison_with_a_leak_delay_product_of_one_is_inconclusive(capsys, tmp_path,
                                                                      tau_x, tau_y):
    # 0.8 * 1.25 rounds to 1 and 0.5 * 2.5 is 1.25: the ratios (1 - a tau) /
    # (1 + a tau) are then not tried, so both forms are inconclusive on the two
    # leak-delay products alone
    scalars = dict(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0, Lf=0.5, Lg=0.2,
                   tau_x=tau_x, tau_y=tau_y, sigma_x=0.4, sigma_y=0.5,
                   r_lo=1.0, r_hi=1.0, p_lo=1.0, p_hi=1.0)
    for verdict, tag in zip(two_neuron_comparison(two_neuron(**scalars)),
                            ("gopalsamy17", "criterion18")):
        assert (verdict.status, verdict.criterion_used) == ("inconclusive", tag)
        assert [(c.name, c.satisfied) for c in verdict.checks] == [
            ("leak_delay_product_1", tau_x < 1.25), ("leak_delay_product_2", tau_y < 2.5)]
    path = tmp_path / "long_leak.json"
    path.write_text(json.dumps({"kind": "two_neuron", "spec": scalars}))
    assert main(["analyze", str(path), "--criterion", "gopalsamy17"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["status"] == "inconclusive"
    assert [c["name"] for c in report["verdict"]["checks"]] == [
        "leak_delay_product_1", "leak_delay_product_2"]


def test_comparison_requires_unit_rate_bounds():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5, r_hi=1.5)
    with pytest.raises(FamilyError):
        two_neuron_comparison(s)


def test_closed_form_coupling_antimonotone():
    # strengthening one cross coupling can only reduce the slack
    margins = []
    for k in (0.5, 1.0, 1.5):
        s = two_neuron(a=0.8, b=0.5, coupling_xy=k, coupling_yx=1.0,
                       Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                       sigma_x=0.4, sigma_y=0.5)
        _, _, coupling, decay = cor11_sides(stability_verdict(s, criterion="cor11"))
        margins.append(decay - coupling)
    assert margins[0] > margins[1] > margins[2]


def test_comparison_inconsistency_raises(monkeypatch):
    # a per-unit pass with a failing product form can only come from
    # rounding; it must surface as an error, not as two disagreeing verdicts
    real = criteria._check

    def skewed(name, lhs, rhs, tol):
        return real(name, rhs if name == "coupling_product" else lhs, rhs, tol)

    s = two_neuron(a=1.0, b=1.0, coupling_xy=0.1, coupling_yx=0.1,
                   Lf=0.5, Lg=0.5, tau_x=0.1, tau_y=0.1,
                   sigma_x=0.1, sigma_y=0.1)
    assert two_neuron_comparison(s)[0].stable
    monkeypatch.setattr(criteria, "_check", skewed)
    with pytest.raises(ValueError, match="rounding exceeds the tolerance"):
        two_neuron_comparison(s)
