"""Spec containers, validation, the two-layer merge, concrete realizations."""

import math

import numpy as np
import pytest

from delaystab import (
    BamConcrete,
    BamSpec,
    DelayBoundError,
    GeneralConcrete,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearConcrete,
    LinearSystemSpec,
    bam_to_general,
    require_valid,
    two_neuron_spec,
    validate,
)
from delaystab.systems import (
    ConstantCoeff,
    ConstantLag,
    Cosinusoid,
    LinearActivation,
    LogisticActivation,
    ShiftedAbsCosLag,
    ShiftedAbsSinLag,
    SinActivation,
    SinSquaredLag,
    Sinusoid,
    TanhActivation,
)

from conftest import random_bam


# --- catalog functions ------------------------------------------------------

def test_sinusoid_range_and_values():
    f = Sinusoid(base=20.0, amp=5.0)
    assert abs(f.lower - 15.0) < 1e-15 and abs(f.upper - 25.0) < 1e-15
    assert abs(f(0.0) - 20.0) < 1e-15
    assert abs(f(math.pi / 2) - 25.0) < 1e-12
    g = Cosinusoid(base=40.0, amp=-3.0)  # negative amp, same envelope
    assert abs(g.lower - 37.0) < 1e-15 and abs(g.upper - 43.0) < 1e-15
    assert abs(g(0.0) - 37.0) < 1e-15


def test_lag_bounds_are_sharp():
    assert abs(SinSquaredLag(3.0).bound - 3.0) < 1e-15
    assert abs(ShiftedAbsSinLag(0.0005, 0.0005).bound - 0.001) < 1e-18
    assert abs(ShiftedAbsCosLag(0.0005, 0.0005)(0.0) - 0.001) < 1e-18
    lag = SinSquaredLag(2.0)
    ts = np.linspace(0.0, 20.0, 2000)
    vals = np.array([lag(t) for t in ts])
    assert (vals >= 0.0).all() and vals.max() <= 2.0 + 1e-12


def test_activation_lipschitz_constants():
    assert abs(LinearActivation(1.5).lipschitz - 1.5) < 1e-15
    assert abs(TanhActivation(-0.5).lipschitz - 0.5) < 1e-15
    assert abs(SinActivation(2.0).lipschitz - 2.0) < 1e-15
    assert abs(LogisticActivation(4.0).lipschitz - 1.0) < 1e-15


def test_activations_vanish_at_zero_and_obey_slope():
    rng = np.random.default_rng(3)
    fns = [TanhActivation(0.7), SinActivation(1.2), LogisticActivation(2.0),
           LinearActivation(0.9)]
    for f in fns:
        assert abs(f(0.0)) < 1e-15
        for _ in range(200):
            u, v = rng.normal(0.0, 3.0, 2)
            assert abs(f(u) - f(v)) <= f.lipschitz * abs(u - v) + 1e-12


def test_logistic_activation_no_overflow():
    f = LogisticActivation(1.0)
    assert abs(f(-1e4) - (-0.5)) < 1e-12
    assert abs(f(1e4) - 0.5) < 1e-12


# --- validation -------------------------------------------------------------

def test_validate_flags_each_problem(general_2x2):
    assert validate(general_2x2) == []
    bad = GeneralSystemSpec(alpha=[0.0, 1.0], A=[1.0, 0.5], tau=[-0.1, 0.0],
                            sigma=[[0.0, 0.0], [0.0, 0.0]],
                            L=[[0.0, -0.2], [0.0, 0.0]])
    problems = validate(bad)
    joined = " | ".join(problems)
    assert "alpha[1]" in joined        # nonpositive lower bracket
    assert "alpha[2]" in joined        # upper bracket below the lower one
    assert "tau[1]" in joined
    assert "L[1][2]" in joined
    with pytest.raises(InvalidSpecError):
        require_valid(bad)


def test_shape_mismatch_rejected_at_construction():
    with pytest.raises(InvalidSpecError):
        GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.1],
                          sigma=[[0.0]], L=[[0.0]])


def test_bam_validation():
    rng = np.random.default_rng(9)
    assert validate(random_bam(rng)) == []
    bad = BamSpec(a=[-1.0], b=[0.5], a_conn=[[1.0]], b_conn=[[1.0]],
                  Lf=[0.5], Lg=[0.2], r_lo=[1.0], r_hi=[1.0],
                  p_lo=[1.0], p_hi=[1.0], tau_x=[0.1], tau_y=[0.1],
                  sigma_x=[0.1], sigma_y=[0.1], I=[0.0], J=[0.0])
    assert any("a[1]" in p for p in validate(bad))
    with pytest.raises(InvalidSpecError):
        two_neuron_spec(a=-1.0, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.1, tau_y=0.1,
                        sigma_x=0.1, sigma_y=0.1)


def test_spec_equality_and_hash_exclusion():
    a = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]],
                          L=[[0.0]])
    b = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]],
                          L=[[0.0]])
    c = GeneralSystemSpec(alpha=[2.0], A=[2.0], tau=[0.0], sigma=[[0.0]],
                          L=[[0.0]])
    assert a == b and a != c


# --- two-layer merge --------------------------------------------------------

def test_two_neuron_spec_shapes():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=-1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5)
    assert s.n == 1
    assert abs(s.a_conn[0, 0] - 1.0) < 1e-15
    assert abs(s.b_conn[0, 0] + 1.0) < 1e-15


def test_bam_to_general_block_layout():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=-2.0, coupling_yx=1.5,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5, r_lo=0.9, r_hi=1.1,
                        p_lo=0.8, p_hi=1.2)
    g = bam_to_general(s)
    assert g.m == 2
    assert abs(g.alpha[0] - 0.9 * 0.8) < 1e-15
    assert abs(g.alpha[1] - 0.8 * 0.5) < 1e-15
    assert abs(g.A[0] - 1.1 * 0.8) < 1e-15
    assert abs(g.A[1] - 1.2 * 0.5) < 1e-15
    assert abs(g.tau[0] - 0.5) < 1e-15 and abs(g.tau[1] - 0.4) < 1e-15
    # cross-coupling growth bounds carry |connection| * destination rate * slope
    assert abs(g.L[0, 1] - 2.0 * 1.1 * 0.5) < 1e-15
    assert abs(g.L[1, 0] - 1.5 * 1.2 * 0.2) < 1e-15
    assert g.L[0, 0] == 0.0 and g.L[1, 1] == 0.0
    # transmission delays: x-rows see the y-signal delays and vice versa
    assert abs(g.sigma[0, 1] - 0.5) < 1e-15
    assert abs(g.sigma[1, 0] - 0.4) < 1e-15


def test_bam_to_general_random_dims():
    rng = np.random.default_rng(31)
    for _ in range(50):
        bam = random_bam(rng)
        g = bam_to_general(bam)
        n = bam.n
        assert g.m == 2 * n
        assert np.array_equal(g.L[:n, :n], np.zeros((n, n)))
        assert np.array_equal(g.L[n:, n:], np.zeros((n, n)))
        assert (g.L >= 0.0).all()
        assert validate(g) == []


# --- concrete systems -------------------------------------------------------

def test_general_concrete_derivative_known_value():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]],
                             L=[[0.0]])
    sys_ = GeneralConcrete(spec, [ConstantCoeff(1.0)], [ConstantLag(1.0)],
                           [[None]], [[None]], [1.0])
    # pure delayed decay: xdot = -x(t-1)
    out = sys_.derivative(0.5, lambda i, t: np.cos(t))
    assert abs(out[0] + np.cos(-0.5)) < 1e-15


def test_bam_concrete_derivative_known_value():
    s = two_neuron_spec(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                        Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                        sigma_x=0.4, sigma_y=0.5)
    sys_ = BamConcrete(s, [ConstantCoeff(1.0)], [ConstantCoeff(1.0)],
                       [ConstantLag(0.5)], [ConstantLag(0.4)],
                       [ConstantLag(0.4)], [ConstantLag(0.5)],
                       [TanhActivation(0.5)], [TanhActivation(0.2)],
                       [1.0, 1.0])
    value_at = lambda i, t: 2.0 if i == 0 else -1.0
    out = sys_.derivative(10.0, value_at)
    want_x = -0.8 * 2.0 + 0.5 * math.tanh(-1.0)
    want_y = -0.5 * (-1.0) + 0.2 * math.tanh(2.0)
    assert abs(out[0] - want_x) < 1e-14
    assert abs(out[1] - want_y) < 1e-14


def test_concrete_rejects_functions_outside_bounds():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.5], sigma=[[0.0]],
                             L=[[0.0]])
    with pytest.raises(ValueError):
        GeneralConcrete(spec, [ConstantCoeff(2.0)], [ConstantLag(0.5)],
                        [[None]], [[None]], [1.0])
    with pytest.raises(ValueError):
        GeneralConcrete(spec, [ConstantCoeff(1.0)], [ConstantLag(0.7)],
                        [[None]], [[None]], [1.0])


def test_lag_bound_violation_raises_at_runtime():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]],
                             L=[[0.0]])

    class LyingLag:
        bound = 1.0

        def __call__(self, t):
            return 2.0  # exceeds the declared bound

    sys_ = GeneralConcrete(spec, [ConstantCoeff(1.0)], [LyingLag()],
                           [[None]], [[None]], [1.0])
    with pytest.raises(DelayBoundError):
        sys_.derivative(0.0, lambda i, t: 1.0)


def test_min_positive_lag_bound():
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.0, 0.3],
                             sigma=[[0.0, 0.2], [0.5, 0.0]],
                             L=[[0.0, 0.1], [0.1, 0.0]])
    sys_ = GeneralConcrete(spec,
                           [ConstantCoeff(1.0), ConstantCoeff(1.0)],
                           [None, ConstantLag(0.3)],
                           [[None, ConstantLag(0.2)], [ConstantLag(0.5), None]],
                           [[None, LinearActivation(0.1)],
                            [LinearActivation(0.1), None]],
                           [1.0, 1.0])
    assert abs(sys_.min_positive_lag_bound - 0.2) < 1e-15
    assert abs(sys_.max_lag_bound - 0.5) < 1e-15


def test_linear_concrete_matches_matrix_product():
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0],
                            A_off=[[0.0, 0.9], [0.9, 0.0]],
                            sigma=[[0.0, 0.0], [0.0, 0.0]],
                            diagonal_delay_free=True)
    coeffs = [[ConstantCoeff(-1.0), ConstantCoeff(0.9)],
              [ConstantCoeff(0.9), ConstantCoeff(-1.0)]]
    lags = [[None, None], [None, None]]
    sys_ = LinearConcrete(spec, coeffs, lags, [1.0, 2.0])
    state = np.array([0.3, -0.7])
    out = sys_.derivative(1.0, lambda i, t: state[i])
    ref = np.array([[-1.0, 0.9], [0.9, -1.0]]) @ state
    assert np.max(np.abs(out - ref)) < 1e-15


def test_history_callable_and_vector():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]],
                             L=[[0.0]])
    sys_vec = GeneralConcrete(spec, [ConstantCoeff(1.0)], [ConstantLag(1.0)],
                              [[None]], [[None]], [2.5])
    assert abs(sys_vec.history(-0.3)[0] - 2.5) < 1e-15
    sys_fn = GeneralConcrete(spec, [ConstantCoeff(1.0)], [ConstantLag(1.0)],
                             [[None]], [[None]], lambda t: np.array([np.sin(t)]))
    assert abs(sys_fn.history(-0.25)[0] - np.sin(-0.25)) < 1e-15


def test_validate_messages_and_order_for_every_rule():
    nan, inf = float("nan"), float("inf")
    bad = BamSpec(a=[0.0, 1.0], b=[1.0, nan], a_conn=[[inf, 0.0], [0.0, -2.0]],
                  b_conn=[[0.0, 0.0], [nan, 0.0]], Lf=[-1.0, 0.5], Lg=[0.5, 0.5],
                  r_lo=[2.0, 1.0], r_hi=[1.0, 1.0], p_lo=[1.0, -1.0], p_hi=[1.0, 1.0],
                  tau_x=[0.0, -0.5], tau_y=[0.0, 0.0], sigma_x=[0.0, 0.0],
                  sigma_y=[inf, 0.0], I=[0.0, -inf], J=[0.0, 0.0])
    assert validate(bad) == [
        "a[1] must be > 0 (got 0.0)",
        "b[2] must be finite (got nan)",
        "r_lo[1] must be <= its upper partner (got 2.0 > 1.0)",
        "p_lo[2] must be > 0 (got -1.0)",
        "Lf[1] must be >= 0 (got -1.0)",
        "tau_x[2] must be >= 0 (got -0.5)",
        "sigma_y[1] must be finite (got inf)",
        "I[2] must be finite (got -inf)",
        "a_conn[1][1] must be finite (got inf)",
        "b_conn[2][1] must be finite (got nan)",
    ]
    general = GeneralSystemSpec(alpha=[nan, 2.0], A=[1.0, 1.0], tau=[0.0, 0.0],
                                sigma=[[0.0, -1.0], [0.0, 0.0]], L=[[0.0, 0.0], [inf, 0.0]])
    assert validate(general) == [
        "alpha[1] must be finite (got nan)",
        "alpha[1] must be finite (got nan)",
        "alpha[2] must be <= its upper partner (got 2.0 > 1.0)",
        "sigma[1][2] must be >= 0 (got -1.0)",
        "L[2][1] must be finite (got inf)",
    ]


def test_shifted_abs_lag_bound_is_the_true_maximum():
    for cls in (ShiftedAbsSinLag, ShiftedAbsCosLag):
        lag = cls(0.5, -0.2)
        values = [lag(t) for t in np.linspace(0.0, 7.0, 701)]
        assert lag.bound == 0.5 and lag.lower == pytest.approx(0.3)
        assert max(values) <= lag.bound and min(values) >= lag.lower - 1e-15
        assert cls(0.1, 0.3).bound == pytest.approx(0.4) and cls(0.1, 0.3).lower == 0.1
    assert SinSquaredLag(-1.0).lower == -1.0 and ConstantLag(0.2).lower == 0.2
