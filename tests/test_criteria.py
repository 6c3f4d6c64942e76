"""Comparison matrices, verdicts, decay-rate certification, closed forms."""

import numpy as np
import pytest

from delaystab import criteria
from delaystab import (
    BamSpec,
    FamilyError,
    GeneralSystemSpec,
    LinearSystemSpec,
    NotCertifiedError,
    bam_dominance_verdict,
    bam_to_general,
    bam_undelayed_dominance_verdict,
    certify_decay_rate,
    is_m_matrix,
    stability_verdict,
    two_dim_verdict,
    two_neuron_closed_form,
    two_neuron_comparison,
    two_neuron_spec,
)
# aliased so pytest does not mistake the builders for test functions
from delaystab import test_matrix_at_rate as build_at_rate
from delaystab import test_matrix_bam as build_bam_matrix
from delaystab import test_matrix_general as build_general
from delaystab import test_matrix_linear as build_linear
from delaystab import test_matrix_linear_undelayed as build_linear_undelayed
from delaystab import test_matrix_no_self_coupling as build_no_self
from delaystab import test_matrix_undelayed_decay as build_undelayed

from conftest import random_bam, random_general


# frozen with exact rational arithmetic, independently of this package
GENERAL_2X2_C = np.array([[0.575, -0.244], [-0.092, 0.774]])
GENERAL_2X2_DET = 0.422602
LINEAR_2X2_C = np.array([[0.712, -0.372], [-0.2775, 0.879]])


def test_general_matrix_frozen_values(general_2x2):
    c = build_general(general_2x2)
    assert np.max(np.abs(c - GENERAL_2X2_C)) < 1e-15
    minors = is_m_matrix(c).minors
    assert abs(minors[0] - 0.575) < 1e-15
    assert abs(minors[1] - GENERAL_2X2_DET) < 1e-12


def test_undelayed_decay_matrix_frozen_values(general_2x2):
    flat = GeneralSystemSpec(alpha=general_2x2.alpha, A=general_2x2.A,
                             tau=np.zeros(2), sigma=general_2x2.sigma,
                             L=general_2x2.L, diagonal_delay_free=True)
    c = build_undelayed(flat)
    assert np.max(np.abs(c - np.array([[0.85, -0.2], [-0.08, 0.96]]))) < 1e-15


def test_linear_matrix_frozen_values(linear_2x2):
    c = build_linear(linear_2x2)
    assert np.max(np.abs(c - LINEAR_2X2_C)) < 1e-15


def test_linear_undelayed_matrix():
    spec = LinearSystemSpec(alpha=[1.0, 2.0], A=[1.0, 2.0],
                            A_off=[[0.0, 0.5], [0.8, 0.0]],
                            sigma=[[0.0, 0.1], [0.1, 0.0]],
                            diagonal_delay_free=True)
    c = build_linear_undelayed(spec)
    assert np.max(np.abs(c - np.array([[1.0, -0.5], [-0.4, 1.0]]))) < 1e-15


def test_no_self_coupling_requires_zero_diagonal(general_2x2):
    with pytest.raises(FamilyError):
        build_no_self(general_2x2)


def test_rate_zero_shift_is_identical():
    rng = np.random.default_rng(7521)
    for _ in range(100):
        spec = random_general(rng)
        assert np.array_equal(build_at_rate(spec, 0.0),
                              build_general(spec))


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
            margin = float(is_m_matrix(c).minors.min())
            if prev_min is not None:
                assert margin <= prev_min + 1e-9
            prev_min = margin


def test_bam_matrix_equals_reduction_exactly():
    rng = np.random.default_rng(911)
    for _ in range(300):
        bam = random_bam(rng)
        direct = build_bam_matrix(bam)
        via = build_no_self(bam_to_general(bam))
        assert np.array_equal(direct, via)


def test_bam_matrix_frozen_modulated_pair():
    s = two_neuron_spec(a=1.0, b=1.0, coupling_xy=1.0 / 720.0,
                        coupling_yx=1.0 / 200.0, Lf=1.0, Lg=1.0,
                        tau_x=0.001, tau_y=0.001, sigma_x=2.0, sigma_y=3.0,
                        r_lo=20.0, r_hi=20.0, p_lo=40.0, p_hi=40.0,
                        input_x=10000.0, input_y=20000.0)
    c = build_bam_matrix(s)
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
    # the trial rates are decided by the pivot test alone; the full report
    # (witness solve and screens) is built for the base and the boundary
    calls = []

    def counting(a, tol=criteria.DEFAULT_TOL):
        calls.append(len(a))
        return is_m_matrix(a, tol=tol)

    monkeypatch.setattr(criteria, "is_m_matrix", counting)
    cert = certify_decay_rate(general_2x2)
    assert cert.upper_failed and cert.iterations == 60
    assert len(calls) <= 2


def test_certify_requires_stable_base():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]],
                             L=[[2.0]])
    with pytest.raises(NotCertifiedError):
        certify_decay_rate(spec)


def test_certify_rejects_linear_family(linear_2x2):
    with pytest.raises(FamilyError):
        certify_decay_rate(linear_2x2)


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


# --- two-dimensional closed forms -------------------------------------------

def test_two_dim_frozen_sides():
    # merged textbook pair: hand-checked determinant sides 0.168 < 0.192
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5)
    spec = bam_to_general(s)
    v = two_dim_verdict(spec)
    m = {c.name: c for c in v.checks}
    assert abs(m["decay_margin_1"].lhs - 0.32) < 1e-15   # 0.8^2 * 0.5
    assert abs(m["decay_margin_2"].lhs - 0.1) < 1e-15    # 0.5^2 * 0.4
    assert abs(m["coupling_determinant"].lhs - 0.168) < 1e-15
    assert abs(m["coupling_determinant"].rhs - 0.192) < 1e-15
    assert v.criterion_used == "cor4"
    assert v.stable


def test_two_dim_agrees_with_matrix_test():
    rng = np.random.default_rng(333)
    agree = 0
    for _ in range(1000):
        spec = random_general(rng, m=2, coupling_scale=rng.uniform(0.5, 4.0))
        closed = two_dim_verdict(spec)
        matrix = stability_verdict(spec,
                                   criterion="theorem1"
                                   if not np.all(spec.L.diagonal() == 0.0)
                                   else "cor0")
        assert closed.stable == matrix.stable
        agree += 1
    assert agree == 1000


def test_two_dim_linear_variants_agree():
    rng = np.random.default_rng(77)
    for _ in range(300):
        alpha = rng.uniform(0.5, 2.0, 2)
        off = rng.uniform(0.0, 2.0, (2, 2))
        np.fill_diagonal(off, 0.0)
        spec = LinearSystemSpec(alpha=alpha, A=alpha + rng.uniform(0, 0.5, 2),
                                A_off=off, sigma=rng.uniform(0.0, 0.3, (2, 2)))
        assert two_dim_verdict(spec).stable == stability_verdict(
            spec, criterion="cor2").stable
        flat = LinearSystemSpec(alpha=alpha, A=alpha, A_off=off,
                                sigma=np.zeros((2, 2)),
                                diagonal_delay_free=True)
        assert two_dim_verdict(flat).stable == stability_verdict(
            flat, criterion="cor3").stable


def test_two_dim_wrong_dimension():
    rng = np.random.default_rng(2)
    with pytest.raises(FamilyError):
        two_dim_verdict(random_general(rng, m=3))


def test_two_dim_which_mismatch(general_2x2):
    with pytest.raises(FamilyError):
        two_dim_verdict(general_2x2, which=7)


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
    checked = 0
    for _ in range(300):
        bam = random_bam(rng)
        c = build_bam_matrix(bam)
        for which in (1, 2):
            v = bam_dominance_verdict(bam, which=which)
            assert v.stable == _bam_brute_dominance(c, which)
            assert v.criterion_used == f"cor9-{which}"
            checked += 1
        w = rng.uniform(0.5, 2.0, 2 * bam.n)
        for which in (3, 4):
            v = bam_dominance_verdict(bam, which=which, weights=w)
            assert v.stable == _bam_brute_dominance(c, which, w)
            checked += 1
    assert checked == 1200


def test_bam_dominance_implies_matrix_verdict():
    rng = np.random.default_rng(601)
    hits = 0
    for _ in range(300):
        bam = random_bam(rng)
        for which in (1, 2, 3, 4):
            if bam_dominance_verdict(bam, which=which).stable:
                hits += 1
                assert stability_verdict(bam).stable
    assert hits > 20


def test_bam_undelayed_dominance_needs_zero_leak_delays():
    rng = np.random.default_rng(602)
    bam = random_bam(rng)  # has nonzero tau_x almost surely
    if np.any(bam.tau_x > 0) or np.any(bam.tau_y > 0):
        with pytest.raises(FamilyError):
            bam_undelayed_dominance_verdict(bam, which=1)


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
        c = build_bam_matrix(bam)
        assert np.max(np.abs(c.diagonal() - 1.0)) < 1e-15
        v = bam_undelayed_dominance_verdict(bam, which=1)
        assert v.stable == _bam_brute_dominance(c, 1)


# --- scalar closed forms ----------------------------------------------------

def test_closed_form_textbook_pair():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5)
    v = two_neuron_closed_form(s)
    m = {c.name: c for c in v.checks}
    assert abs(m["x_decay"].lhs - 0.4) < 1e-15
    assert abs(m["y_decay"].lhs - 0.2) < 1e-15
    assert abs(m["coupling_determinant"].lhs - 0.42) < 1e-12
    assert abs(m["coupling_determinant"].rhs - 0.48) < 1e-12
    assert v.stable


def test_closed_form_modulated_pair_values():
    # frozen: coupling side 7.3666...e-06 against 0.9408 at the nominal
    # rates, 3.8201...e-04 against 0.23549... at the +-18 modulation
    for amp, lhs_want, rhs_want in (
            (0.0, 7.366666666666667e-06, 0.9408),
            (18.0, 0.00038201414393939395, 0.23549127272727272)):
        s = two_neuron_spec(a=1.0, b=1.0, coupling_xy=1.0 / 720.0,
                            coupling_yx=1.0 / 200.0, Lf=1.0, Lg=1.0,
                            tau_x=0.001, tau_y=0.001, sigma_x=2.0, sigma_y=3.0,
                            r_lo=20.0 - amp, r_hi=20.0 + amp,
                            p_lo=40.0 - amp, p_hi=40.0 + amp,
                            input_x=10000.0, input_y=20000.0)
        v = two_neuron_closed_form(s)
        m = {c.name: c for c in v.checks}
        assert abs(m["coupling_determinant"].lhs - lhs_want) < 1e-15
        assert abs(m["coupling_determinant"].rhs - rhs_want) < 1e-12
        assert v.stable


def test_closed_form_needs_scalar_network():
    rng = np.random.default_rng(5)
    with pytest.raises(FamilyError):
        two_neuron_closed_form(random_bam(rng, n=2))


def test_comparison_pair_frozen_sides():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
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
        s = two_neuron_spec(a=a, b=b,
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


def test_comparison_requires_unit_rate_bounds():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5, r_hi=1.5)
    with pytest.raises(FamilyError):
        two_neuron_comparison(s)


def test_closed_form_coupling_antimonotone():
    # strengthening one cross coupling can only reduce the slack
    margins = []
    for k in (0.5, 1.0, 1.5):
        s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=k, coupling_yx=1.0,
                            Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                            sigma_x=0.4, sigma_y=0.5)
        v = two_neuron_closed_form(s)
        margins.append(v.margins["coupling_determinant"])
    assert margins[0] > margins[1] > margins[2]


def test_comparison_inconsistency_raises(monkeypatch):
    # a per-unit pass with a failing product form can only come from
    # rounding; it must surface as an error, not as two disagreeing verdicts
    real = criteria._check

    def skewed(name, lhs, rhs, tol):
        return real(name, rhs if name == "coupling_product" else lhs, rhs, tol)

    s = two_neuron_spec(a=1.0, b=1.0, coupling_xy=0.1, coupling_yx=0.1,
                        Lf=0.5, Lg=0.5, tau_x=0.1, tau_y=0.1,
                        sigma_x=0.1, sigma_y=0.1)
    assert two_neuron_comparison(s)[0].stable
    monkeypatch.setattr(criteria, "_check", skewed)
    with pytest.raises(ArithmeticError):
        two_neuron_comparison(s)
