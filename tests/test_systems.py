"""Spec containers, validation, the two-layer merge, concrete realizations."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaystab import (
    BamConcrete,
    BamSpec,
    DelayBoundError,
    DocumentError,
    GeneralConcrete,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearConcrete,
    LinearSystemSpec,
    SimConfig,
    bam_to_general,
    simulate,
)
from delaystab.simulate import _Integrator
from delaystab.systems import (
    ConcreteSystem,
    Constant,
    Cosinusoid,
    LinearActivation,
    LogisticActivation,
    ShiftedAbsCosLag,
    ShiftedAbsSinLag,
    SinActivation,
    SinSquaredLag,
    Sinusoid,
    TanhActivation,
    _check,
    merged_bounds,
    read_time,
)

from conftest import random_bam
from oracles import two_neuron


# --- catalog functions ------------------------------------------------------

def test_sinusoid_range_and_values():
    f = Sinusoid(base=20.0, amp=5.0)
    assert abs(f.lower - 15.0) < 1e-15 and abs(f.upper - 25.0) < 1e-15
    assert abs(f(0.0) - 20.0) < 1e-15
    assert abs(f(math.pi / 2) - 25.0) < 1e-12
    g = Cosinusoid(base=40.0, amp=-3.0)  # negative amp, same envelope
    assert abs(g.lower - 37.0) < 1e-15 and abs(g.upper - 43.0) < 1e-15
    assert abs(g(0.0) - 37.0) < 1e-15


# every catalog entry at its parameters: the value at t (or u), then its
# range (lower, upper), (lower, bound) or its Lipschitz constant
CATALOG_CASES = [
    (Constant(1.5), lambda t: 1.5, (1.5, 1.5)),
    (Sinusoid(2.0, -0.5), lambda t: 2.0 - 0.5 * math.sin(t), (1.5, 2.5)),
    (Cosinusoid(2.0, -0.5), lambda t: 2.0 - 0.5 * math.cos(t), (1.5, 2.5)),
    (Constant(0.25), lambda t: 0.25, (0.25, 0.25)),
    (SinSquaredLag(0.3), lambda t: 0.3 * math.sin(t) ** 2, (0.0, 0.3)),
    (ShiftedAbsSinLag(0.5, -0.25), lambda t: 0.5 - 0.25 * abs(math.sin(t)), (0.25, 0.5)),
    (ShiftedAbsCosLag(0.5, 0.25), lambda t: 0.5 + 0.25 * abs(math.cos(t)), (0.5, 0.75)),
    (LinearActivation(-1.5), lambda u: -1.5 * u, 1.5),
    (TanhActivation(-1.5), lambda u: -1.5 * math.tanh(u), 1.5),
    (SinActivation(-1.5), lambda u: -1.5 * math.sin(u), 1.5),
    (LogisticActivation(-1.5), lambda u: -1.5 * (1.0 / (1.0 + math.exp(-u)) - 0.5), 0.375),
]


@pytest.mark.parametrize("fn, value, bounds", CATALOG_CASES,
                         ids=[type(case[0]).__name__ for case in CATALOG_CASES])
def test_catalog_entry_values_ranges_and_identity(fn, value, bounds):
    params = dataclasses.astuple(fn)
    assert repr(fn) == f"{type(fn).__name__}(" + ", ".join(
        f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(fn), params)) + ")"
    twin = type(fn)(*params)
    assert fn == twin and hash(fn) == hash(twin)
    for other, _, _ in CATALOG_CASES:
        if type(other) is not type(fn) and len(dataclasses.fields(other)) == len(params):
            assert fn != type(other)(*params)
    for x in (-3.0, -0.7, 0.0, 0.4, 2.5):
        assert abs(fn(x) - value(x)) <= 1e-15 * max(1.0, abs(value(x)))
    if isinstance(bounds, tuple):
        top = fn.upper if hasattr(fn, "upper") else fn.bound
        assert (fn.lower, top) == bounds
    else:
        assert fn.lipschitz == bounds


def test_catalog_variant_differs_from_its_base_and_stays_frozen():
    assert Cosinusoid(1.0, 2.0) != Sinusoid(1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Cosinusoid(1.0, 2.0).amp = 3.0


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


def test_rhs_applies_each_catalog_activation_as_its_call():
    # rhs forms a catalog activation's k * unit(u) without calling it, and any
    # other phi as 1.0 * phi(u): each read's term is the call's value to the
    # last bit, the sign of a zero included, on both branches of the logistic
    acts = [kind(k) for kind in (LinearActivation, TanhActivation, SinActivation,
                                 LogisticActivation) for k in (-1.5, 0.0, 2.5)]
    acts.append(lambda u: 0.5 * math.tanh(u))
    system = ConcreteSystem([(0, None, 0.0, f"u{i}") for i in range(len(acts))], acts,
                            [(None, -0.0, [(i, 1.0, None)]) for i in range(len(acts))],
                            [0.0] * len(acts), [])
    assert [len(entry) for entry in system.phis] == [3] * len(acts)
    for u in (0.0, -0.0, 1e-300, -1e-300, 0.7, -0.7, 30.0, -30.0, 800.0, -800.0,
              1e300, -1e300):
        got = system.rhs([], [u] * len(acts))
        assert [v.hex() for v in got] == [float(phi(u)).hex() for phi in acts], u


def test_a_lambda_activation_integrates_as_its_catalog_twin():
    # 1.0 * phi(u) is phi(u), so a callable that computes k * tanh(u) gives
    # the catalog activation's trajectory bit for bit
    def system(phi):
        return ConcreteSystem([(0, Constant(0.2), 0.2, "lag"), (0, None, 0.0, "x")],
                              [phi, None], [(None, -0.0, [(1, -1.0, None), (0, -0.5, None)])],
                              [1.0], [])

    cfg = SimConfig(0.0, 2.0)
    twin = simulate(system(TanhActivation(0.5)), cfg)
    run = simulate(system(lambda u: 0.5 * math.tanh(u)), cfg)
    assert run.states.tobytes() == twin.states.tobytes()


# --- validation -------------------------------------------------------------

def test_validate_flags_each_problem(general_2x2):
    # a spec checks its rules when built, and again when `replace` rebuilds it
    assert dataclasses.replace(general_2x2) == general_2x2
    problems = [
        "alpha[0] must be > 0 (got 0.0)",                               # nonpositive lower bracket
        "alpha[1] must be <= its upper partner (got 1.0 > 0.5)",        # upper below lower
        "tau[0] must be >= 0 (got -0.1)",
        "L[0][1] must be >= 0 (got -0.2)",
    ]
    bad = dict(alpha=[0.0, 1.0], A=[1.0, 0.5], tau=[-0.1, 0.0], L=[[0.0, -0.2], [0.0, 0.0]])
    with pytest.raises(InvalidSpecError) as exc:
        GeneralSystemSpec(sigma=[[0.0, 0.0], [0.0, 0.0]], **bad)
    assert exc.value.violations == problems
    with pytest.raises(InvalidSpecError) as exc:
        dataclasses.replace(general_2x2, **bad)
    assert exc.value.violations == problems


@pytest.mark.parametrize("cls", [GeneralSystemSpec, LinearSystemSpec, BamSpec])
def test_each_spec_type_declares_its_fields_once(cls):
    # the declared arrays, and the flag where the type has one, are exactly
    # its fields, and every rule reads declared arrays
    arrays = cls.VECTORS + cls.MATRICES
    flag = ("diagonal_delay_free",) if hasattr(cls, "diagonal_delay_free") else ()
    assert sorted(arrays + flag) == sorted(f.name for f in dataclasses.fields(cls))
    assert len(set(arrays)) == len(arrays)
    ruled = {name for field, _, partner in cls.RULES for name in (field, partner)}
    assert ruled - {None} <= set(arrays)


def test_spec_keeps_copies_of_the_arrays_it_is_given():
    # the caller's arrays stay writable, and a later write to one reaches no
    # spec, which would then hold bounds outside its rules
    alpha, base = np.array([1.0, 1.0]), np.array([2.0, 2.0, 2.0])
    spec = GeneralSystemSpec(alpha=alpha, A=base[:2], tau=[0.0, 0.0],
                             sigma=np.zeros((2, 2)), L=np.zeros((2, 2)))
    alpha[0] = 2.0
    base[0] = -5.0
    assert spec.alpha.tolist() == [1.0, 1.0] and spec.A.tolist() == [2.0, 2.0]
    assert not spec.alpha.flags.writeable


def test_shape_mismatch_rejected_at_construction():
    with pytest.raises(InvalidSpecError):
        GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.1],
                          sigma=[[0.0]], L=[[0.0]])


def test_bam_validation():
    rng = np.random.default_rng(9)
    random_bam(rng)
    with pytest.raises(InvalidSpecError) as exc:
        BamSpec(a=[-1.0], b=[0.5], a_conn=[[1.0]], b_conn=[[1.0]],
                Lf=[0.5], Lg=[0.2], r_lo=[1.0], r_hi=[1.0],
                p_lo=[1.0], p_hi=[1.0], tau_x=[0.1], tau_y=[0.1],
                sigma_x=[0.1], sigma_y=[0.1], I=[0.0], J=[0.0])
    assert exc.value.violations == ["a[0] must be > 0 (got -1.0)"]
    with pytest.raises(DocumentError, match=r"^spec\.a must be > 0 \(got -1\.0\)$"):
        two_neuron(a=-1.0, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
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
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=-1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    assert s.n == 1
    assert abs(s.a_conn[0, 0] - 1.0) < 1e-15
    assert abs(s.b_conn[0, 0] + 1.0) < 1e-15


def test_bam_to_general_block_layout():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=-2.0, coupling_yx=1.5,
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


TWO_NEURON = dict(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0, Lf=0.5, Lg=0.2,
                  tau_x=0.5, tau_y=0.4, sigma_x=0.4, sigma_y=0.5)


@pytest.mark.parametrize("changes, problems", [
    (dict(a=1e-200, r_lo=1e-200, r_hi=1e-200),
     ["a[0]*r_lo[0] underflows to 0", "a[0]*r_hi[0] underflows to 0"]),
    (dict(a=1e200, r_lo=1e100, r_hi=1e200, coupling_xy=1e200),
     ["a[0]*r_hi[0] overflows", "a_conn[0][0]*r_hi[0]*Lf[0] overflows"]),
    (dict(coupling_yx=1e-300, Lg=1e-30), ["b_conn[0][0]*p_hi[0]*Lg[0] underflows to 0"]),
])
def test_merged_bounds_outside_float_range_name_the_product(changes, problems):
    # a merged bound that is 0 or inf although no factor is would reach the
    # comparison matrix as a non-finite entry, so no such spec is built
    with pytest.raises(DocumentError) as exc:
        two_neuron(**dict(TWO_NEURON, **changes))
    assert exc.value.__cause__.violations == problems


def test_merged_bounds_accept_a_zero_factor_and_name_entries_by_position():
    # a zero connection or Lipschitz constant makes a zero coupling bound,
    # which is no underflow; the names give the 0-based row and column
    fields = dict(a=[1.0, 1.0], b=[1.0, 1.0], a_conn=[[0.0, 1.0], [1e-300, 1.0]],
                  b_conn=[[1.0, 1.0], [1.0, 1.0]], Lf=[1e-30, 1.0], Lg=[0.0, 1.0],
                  r_lo=[1.0, 1.0], r_hi=[1.0, 1.0], p_lo=[1.0, 1.0], p_hi=[1.0, 1.0],
                  tau_x=[1.0, 1.0], tau_y=[1.0, 1.0], sigma_x=[1.0, 1.0],
                  sigma_y=[1.0, 1.0], I=[0.0, 0.0], J=[0.0, 0.0])
    with pytest.raises(InvalidSpecError) as exc:
        BamSpec(**fields)
    assert exc.value.violations == ["a_conn[1][0]*r_hi[1]*Lf[0] underflows to 0"]
    fixed = BamSpec(**dict(fields, a_conn=[[0.0, 1.0], [1e-200, 1.0]]))
    L = fixed.merged[3]
    assert L[2, 0] == 0.0 and L[0, 2] == 0.0 and L[1, 2] == 1e-230
    assert all(np.array_equal(x, y) for x, y in zip(fixed.merged, merged_bounds(fixed)))


# --- concrete systems -------------------------------------------------------

def rhs_over_reads(system, t, value_at):
    """The right-hand side at t, each delayed read taken from value_at(component, time)."""
    values = []
    for comp, lag, bound, label in system.reads:
        times = np.array([t])
        tq, error = (times, None) if lag is None else read_time(
            times, np.full(1, lag(times)), np.array([bound]), [label])
        if error:
            raise error
        values.append(value_at(comp, float(tq[0])))
    return system.rhs([fn(t) for fn in system.time_functions], values)


def test_general_concrete_derivative_known_value():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]],
                             L=[[0.0]])
    sys_ = GeneralConcrete(spec, [Constant(1.0)], [Constant(1.0)],
                           [[None]], [[None]], [1.0])
    # pure delayed decay: xdot = -x(t-1)
    out = rhs_over_reads(sys_, 0.5, lambda i, t: np.cos(t))
    assert abs(out[0] + np.cos(-0.5)) < 1e-15


def test_bam_concrete_derivative_known_value():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    sys_ = BamConcrete(s, [Constant(1.0)], [Constant(1.0)],
                       [Constant(0.5)], [Constant(0.4)],
                       [Constant(0.4)], [Constant(0.5)],
                       [TanhActivation(0.5)], [TanhActivation(0.2)],
                       [1.0, 1.0])
    value_at = lambda i, t: 2.0 if i == 0 else -1.0
    out = rhs_over_reads(sys_, 10.0, value_at)
    want_x = -0.8 * 2.0 + 0.5 * math.tanh(-1.0)
    want_y = -0.5 * (-1.0) + 0.2 * math.tanh(2.0)
    assert abs(out[0] - want_x) < 1e-14
    assert abs(out[1] - want_y) < 1e-14


def test_concrete_rejects_functions_outside_bounds():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.5], sigma=[[0.0]],
                             L=[[0.0]])
    with pytest.raises(ValueError):
        GeneralConcrete(spec, [Constant(2.0)], [Constant(0.5)],
                        [[None]], [[None]], [1.0])
    with pytest.raises(ValueError):
        GeneralConcrete(spec, [Constant(1.0)], [Constant(0.7)],
                        [[None]], [[None]], [1.0])


def test_lag_bound_violation_raises_at_runtime():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]],
                             L=[[0.0]])

    class LyingLag:
        bound = 1.0

        def __call__(self, t):
            return 2.0  # exceeds the declared bound

    sys_ = GeneralConcrete(spec, [Constant(1.0)], [LyingLag()],
                           [[None]], [[None]], [1.0])
    with pytest.raises(DelayBoundError):
        rhs_over_reads(sys_, 0.0, lambda i, t: 1.0)


def test_min_positive_lag_bound():
    # the smallest positive declared bound, 0.05, caps the default step at
    # 0.005; the lag below it, 0.04, does not
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.0, 0.3],
                             sigma=[[0.0, 0.05], [0.5, 0.0]],
                             L=[[0.0, 0.1], [0.1, 0.0]])
    sys_ = GeneralConcrete(spec,
                           [Constant(1.0), Constant(1.0)],
                           [None, Constant(0.3)],
                           [[None, Constant(0.04)], [Constant(0.5), None]],
                           [[None, LinearActivation(0.1)],
                            [LinearActivation(0.1), None]],
                           [1.0, 1.0])
    assert simulate(sys_, SimConfig(0.0, 1.0)).meta["h"] == 0.005
    # the nodes of the longest declared bound, 0.5: 101 steps, and 2 to spare
    assert _Integrator(sys_, SimConfig(0.0, 1.0)).window == 103


def test_lag_of_absent_coupling_sets_no_bound():
    # coupling 1 <- 2 is absent, so its short lag is never read and must not
    # shrink the default step
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[0.0, 0.3],
                             sigma=[[0.0, 0.02], [0.5, 0.0]],
                             L=[[0.0, 0.0], [0.1, 0.0]])
    sys_ = GeneralConcrete(spec,
                           [Constant(1.0), Constant(1.0)],
                           [None, Constant(0.3)],
                           [[None, Constant(0.02)], [Constant(0.5), None]],
                           [[None, None], [LinearActivation(0.1), None]],
                           [1.0, 1.0])
    assert len(sys_.reads) == 3
    assert _Integrator(sys_, SimConfig(0.0, 1.0, 0.01)).window == 53
    assert simulate(sys_, SimConfig(0.0, 1.0)).meta["h"] == 0.01


def test_linear_concrete_matches_matrix_product():
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0],
                            A_off=[[0.0, 0.9], [0.9, 0.0]],
                            sigma=[[0.0, 0.0], [0.0, 0.0]],
                            diagonal_delay_free=True)
    coeffs = [[Constant(-1.0), Constant(0.9)],
              [Constant(0.9), Constant(-1.0)]]
    lags = [[None, None], [None, None]]
    sys_ = LinearConcrete(spec, coeffs, lags, [1.0, 2.0])
    state = np.array([0.3, -0.7])
    out = rhs_over_reads(sys_, 1.0, lambda i, t: state[i])
    ref = np.array([[-1.0, 0.9], [0.9, -1.0]]) @ state
    assert np.max(np.abs(out - ref)) < 1e-15


def test_history_is_a_read_only_copy_of_one_state_vector():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]], L=[[0.0]])
    given = np.array([2.5])
    sys_ = GeneralConcrete(spec, [Constant(1.0)], [Constant(1.0)], [[None]], [[None]], given)
    given[0] = 0.0
    assert sys_.history.tolist() == [2.5] and not sys_.history.flags.writeable
    with pytest.raises(InvalidSpecError) as exc:
        GeneralConcrete(spec, [Constant(1.0)], [Constant(1.0)], [[None]], [[None]], [1.0, 2.0])
    assert exc.value.violations == ["history must have shape (1,), got (2,)"]


def test_validate_messages_and_order_for_every_rule():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(InvalidSpecError) as exc:
        BamSpec(a=[0.0, 1.0], b=[1.0, nan], a_conn=[[inf, 0.0], [0.0, -2.0]],
                b_conn=[[0.0, 0.0], [nan, 0.0]], Lf=[-1.0, 0.5], Lg=[0.5, 0.5],
                r_lo=[2.0, 1.0], r_hi=[1.0, 1.0], p_lo=[1.0, -1.0], p_hi=[1.0, 1.0],
                tau_x=[0.0, -0.5], tau_y=[0.0, 0.0], sigma_x=[0.0, 0.0],
                sigma_y=[inf, 0.0], I=[0.0, -inf], J=[0.0, 0.0])
    assert exc.value.violations == [
        "a[0] must be > 0 (got 0.0)",
        "b[1] must be finite (got nan)",
        "r_lo[0] must be <= its upper partner (got 2.0 > 1.0)",
        "p_lo[1] must be > 0 (got -1.0)",
        "Lf[0] must be >= 0 (got -1.0)",
        "tau_x[1] must be >= 0 (got -0.5)",
        "sigma_y[0] must be finite (got inf)",
        "I[1] must be finite (got -inf)",
        "a_conn[0][0] must be finite (got inf)",
        "b_conn[1][0] must be finite (got nan)",
    ]
    with pytest.raises(InvalidSpecError) as exc:
        GeneralSystemSpec(alpha=[nan, 2.0], A=[1.0, 1.0], tau=[0.0, 0.0],
                          sigma=[[0.0, -1.0], [0.0, 0.0]], L=[[0.0, 0.0], [inf, 0.0]])
    assert exc.value.violations == [
        # alpha[0] breaks both of alpha's rules and is named once, at the first
        "alpha[0] must be finite (got nan)",
        "alpha[1] must be <= its upper partner (got 2.0 > 1.0)",
        "sigma[0][1] must be >= 0 (got -1.0)",
        "L[1][0] must be finite (got inf)",
    ]


def test_shifted_abs_lag_bound_is_the_true_maximum():
    for cls in (ShiftedAbsSinLag, ShiftedAbsCosLag):
        lag = cls(0.5, -0.2)
        values = [lag(t) for t in np.linspace(0.0, 7.0, 701)]
        assert lag.bound == 0.5 and lag.lower == pytest.approx(0.3)
        assert max(values) <= lag.bound and min(values) >= lag.lower - 1e-15
        assert cls(0.1, 0.3).bound == pytest.approx(0.4) and cls(0.1, 0.3).lower == 0.1
    assert SinSquaredLag(-1.0).lower == -1.0 and Constant(0.2).lower == 0.2


def field_by_field(cls, values) -> list[str]:
    """The rule check of a spec built from `values`, as it was written before
    the rules became one table: one `_check` call per rule, in message order,
    a field's later rule naming no non-finite entry (`first=False`)."""
    spec = types.SimpleNamespace(**{name: np.asarray(v, dtype=float)
                                    for name, v in values.items()})
    out: list[str] = []
    if cls in (GeneralSystemSpec, LinearSystemSpec):
        _check(out, spec.alpha, "alpha", "> 0")
        _check(out, spec.A, "A", ">= 0")
        _check(out, spec.alpha, "alpha", "<=", spec.A, first=False)
        if cls is GeneralSystemSpec:
            _check(out, spec.tau, "tau", ">= 0")
            _check(out, spec.sigma, "sigma", ">= 0")
            _check(out, spec.L, "L", ">= 0")
        else:
            _check(out, spec.A_off, "A_off", ">= 0")
            _check(out, spec.sigma, "sigma", ">= 0")
    else:
        _check(out, spec.a, "a", "> 0")
        _check(out, spec.b, "b", "> 0")
        for lo, hi in (("r_lo", "r_hi"), ("p_lo", "p_hi")):
            _check(out, getattr(spec, lo), lo, "> 0")
            _check(out, getattr(spec, hi), hi, "> 0")
            _check(out, getattr(spec, lo), lo, "<=", getattr(spec, hi), first=False)
        for name in ("Lf", "Lg", "tau_x", "tau_y", "sigma_x", "sigma_y"):
            _check(out, getattr(spec, name), name, ">= 0")
        for name in ("I", "J", "a_conn", "b_conn"):
            _check(out, getattr(spec, name), name, None)
    return out


_ODD = np.array([float("nan"), float("inf"), -float("inf"), -1.0, -0.0, 0.0, -1e-300,
                 0.25, 5.0])


@st.composite
def specs_with_odd_entries(draw):
    """The type and fields of specs of every type in which a few fields have
    some entries replaced by NaN, an infinity, zero, a negative number, or a
    value below or above its partner's range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = draw(st.sampled_from([GeneralSystemSpec, LinearSystemSpec, BamSpec]))
    m = draw(st.integers(1, 4))
    names = [f.name for f in dataclasses.fields(cls) if f.name != "diagonal_delay_free"]
    odd_fields = rng.choice(names, size=draw(st.integers(0, 3)), replace=False)
    odd = draw(st.sampled_from([0.3, 1.0]))
    values = {}
    for name in names:
        square = name in ("sigma", "L", "A_off", "a_conn", "b_conn")
        arr = rng.uniform(0.5, 2.0, (m, m) if square else m)
        if name in ("A", "r_hi", "p_hi"):
            arr += 2.0      # above its lower partner unless made odd
        if name in odd_fields:
            swap = rng.random(arr.shape) < odd
            arr[swap] = rng.choice(_ODD, size=int(swap.sum()))
        values[name] = arr
    return cls, values


@settings(derandomize=True, max_examples=400, deadline=None)
@given(specs_with_odd_entries())
def test_validate_equals_the_field_by_field_checks(case):
    cls, values = case
    problems = field_by_field(cls, values)
    if not problems:
        cls(**values)
        return
    with pytest.raises(InvalidSpecError) as exc:
        cls(**values)
    assert exc.value.violations == problems


# --- one bound check for every realization ----------------------------------

def general_system(delay_free=False, **parts):
    """A two-component general realization whose functions all sit at their
    spec's bounds, with the entries of `parts` replaced."""
    at = dict(coeffs=[Sinusoid(1.5, 0.5)] * 2, leak=[Constant(0.5)] * 2,
              clags=[[Constant(0.3)] * 2] * 2, coups=[[TanhActivation(0.5)] * 2] * 2)
    at.update(parts)
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[2.0, 2.0], tau=[0.5, 0.5],
                             sigma=[[0.3, 0.3], [0.3, 0.3]], L=[[0.5, 0.5], [0.5, 0.5]],
                             diagonal_delay_free=delay_free)
    return GeneralConcrete(spec, at["coeffs"], at["leak"], at["clags"], at["coups"], [1.0, 1.0])


def linear_system(delay_free=False, **parts):
    diag, off = Sinusoid(-1.5, 0.5), Cosinusoid(0.0, 0.4)
    at = dict(coeffs=[[diag, off], [off, diag]], lags=[[Constant(0.3)] * 2] * 2)
    at.update(parts)
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[2.0, 2.0], A_off=[[0.0, 0.4], [0.4, 0.0]],
                            sigma=[[0.3, 0.3], [0.3, 0.3]], diagonal_delay_free=delay_free)
    return LinearConcrete(spec, at["coeffs"], at["lags"], [1.0, 1.0])


def bam_system(**parts):
    at = dict(r=[Sinusoid(1.5, 0.5)] * 2, p=[Cosinusoid(1.5, 0.5)] * 2,
              leak_x=[Constant(0.5)] * 2, leak_y=[Constant(0.5)] * 2,
              trans_x=[Constant(0.3)] * 2, trans_y=[Constant(0.3)] * 2,
              f=[TanhActivation(0.5)] * 2, g=[SinActivation(0.5)] * 2)
    at.update(parts)
    spec = BamSpec(a=[1.0, 1.0], b=[1.0, 1.0], a_conn=[[0.2, -0.1], [0.3, 0.2]],
                   b_conn=[[0.1, 0.4], [-0.2, 0.1]], Lf=[0.5, 0.5], Lg=[0.5, 0.5],
                   r_lo=[1.0, 1.0], r_hi=[2.0, 2.0], p_lo=[1.0, 1.0], p_hi=[2.0, 2.0],
                   tau_x=[0.5, 0.5], tau_y=[0.5, 0.5], sigma_x=[0.3, 0.3],
                   sigma_y=[0.3, 0.3], I=[0.0, 0.0], J=[0.0, 0.0])
    return BamConcrete(spec, *(at[key] for key in ("r", "p", "leak_x", "leak_y", "trans_x",
                                                     "trans_y", "f", "g")), [0.0] * 4)


# one row per rule that a realization's functions must keep (the two ends of
# a range each get a row): the system with the first function of the rule
# moved d past its bound
BOUND_RULES = {
    "general coefficient below alpha":
        lambda d: general_system(coeffs=[Sinusoid(1.5 - d, 0.5), Sinusoid(1.5, 0.5)]),
    "general coefficient above A":
        lambda d: general_system(coeffs=[Sinusoid(1.5 + d, 0.5), Sinusoid(1.5, 0.5)]),
    "general leak lag on a delay-free diagonal":
        lambda d: general_system(delay_free=True, leak=[Constant(d), None]),
    "general leak lag above tau":
        lambda d: general_system(leak=[Constant(0.5 + d), Constant(0.5)]),
    "general coupling above L":
        lambda d: general_system(coups=[[TanhActivation(0.5), TanhActivation(0.5 + d)],
                                        [TanhActivation(0.5)] * 2]),
    "general coupling lag above sigma":
        lambda d: general_system(clags=[[Constant(0.3), Constant(0.3 + d)],
                                        [Constant(0.3)] * 2]),
    "linear diagonal below -A":
        lambda d: linear_system(coeffs=[[Sinusoid(-1.5 - d, 0.5), Cosinusoid(0.0, 0.4)],
                                        [Cosinusoid(0.0, 0.4), Sinusoid(-1.5, 0.5)]]),
    "linear diagonal above -alpha":
        lambda d: linear_system(coeffs=[[Sinusoid(-1.5 + d, 0.5), Cosinusoid(0.0, 0.4)],
                                        [Cosinusoid(0.0, 0.4), Sinusoid(-1.5, 0.5)]]),
    "linear diagonal lag on a delay-free diagonal":
        lambda d: linear_system(delay_free=True, lags=[[Constant(d), Constant(0.3)],
                                                       [Constant(0.3), None]]),
    "linear off-diagonal below -A_off":
        lambda d: linear_system(coeffs=[[Sinusoid(-1.5, 0.5), Cosinusoid(-d, 0.4)],
                                        [Cosinusoid(0.0, 0.4), Sinusoid(-1.5, 0.5)]]),
    "linear off-diagonal above A_off":
        lambda d: linear_system(coeffs=[[Sinusoid(-1.5, 0.5), Cosinusoid(d, 0.4)],
                                        [Cosinusoid(0.0, 0.4), Sinusoid(-1.5, 0.5)]]),
    "linear lag above sigma":
        lambda d: linear_system(lags=[[Constant(0.3), Constant(0.3 + d)],
                                      [Constant(0.3)] * 2]),
    "bam r below r_lo": lambda d: bam_system(r=[Sinusoid(1.5 - d, 0.5), Sinusoid(1.5, 0.5)]),
    "bam r above r_hi": lambda d: bam_system(r=[Sinusoid(1.5 + d, 0.5), Sinusoid(1.5, 0.5)]),
    "bam p below p_lo":
        lambda d: bam_system(p=[Cosinusoid(1.5 - d, 0.5), Cosinusoid(1.5, 0.5)]),
    "bam p above p_hi":
        lambda d: bam_system(p=[Cosinusoid(1.5 + d, 0.5), Cosinusoid(1.5, 0.5)]),
    "bam leak_x above tau_x":
        lambda d: bam_system(leak_x=[Constant(0.5 + d), Constant(0.5)]),
    "bam leak_y above tau_y":
        lambda d: bam_system(leak_y=[Constant(0.5 + d), Constant(0.5)]),
    "bam trans_x above sigma_x":
        lambda d: bam_system(trans_x=[Constant(0.3 + d), Constant(0.3)]),
    "bam trans_y above sigma_y":
        lambda d: bam_system(trans_y=[Constant(0.3 + d), Constant(0.3)]),
    "bam f above Lf":
        lambda d: bam_system(f=[TanhActivation(0.5 + d), TanhActivation(0.5)]),
    "bam g above Lg": lambda d: bam_system(g=[SinActivation(0.5 + d), SinActivation(0.5)]),
}


@pytest.mark.parametrize("build", BOUND_RULES.values(), ids=BOUND_RULES.keys())
def test_each_bound_rule_rejects_just_past_and_accepts_at_its_bound(build):
    build(0.0)
    with pytest.raises(InvalidSpecError):
        build(1e-6)


# --- the right-hand side against the equation written out -------------------

def _coeff(rng, base):
    amp = rng.uniform(-0.4, 0.4)
    return rng.choice([Constant(base), Sinusoid(base, amp), Cosinusoid(base, amp)])


def _lag(rng, allow_none=True):
    kinds = [Constant(rng.uniform(0.0, 1.0)), SinSquaredLag(rng.uniform(0.0, 1.0)),
             ShiftedAbsSinLag(rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))]
    return rng.choice(kinds + [None] * allow_none)


def _act(rng):
    cls = rng.choice([LinearActivation, TanhActivation, SinActivation, LogisticActivation])
    return cls(rng.uniform(-2.0, 2.0))


def _bound(lag):
    return 0.0 if lag is None else lag.bound


@st.composite
def realizations(draw):
    """(kind, system, functions, n, t, u, v): a general or linear realization
    of 1 to 6 components, or a two-layer one of 1 to 6 units per layer, with
    random catalog functions and the spec their bounds give; each component
    j reads x_j(s) = u_j + v_j*s at any time s."""
    kind = draw(st.sampled_from(["general", "linear", "bam"]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.uniform(-5.0, 20.0)
    dim = 2 * n if kind == "bam" else n
    u, v = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim)
    if kind == "general":
        fns = dict(coeffs=[_coeff(rng, rng.uniform(0.5, 2.0)) for _ in range(n)],
                   leak=[_lag(rng) for _ in range(n)],
                   clags=[[_lag(rng) for _ in range(n)] for _ in range(n)],
                   coups=[[_act(rng) if rng.random() < 0.7 else None for _ in range(n)]
                          for _ in range(n)])
        spec = GeneralSystemSpec(
            alpha=[c.lower for c in fns["coeffs"]], A=[c.upper for c in fns["coeffs"]],
            tau=[_bound(lag) for lag in fns["leak"]],
            sigma=[[_bound(lag) for lag in row] for row in fns["clags"]],
            L=[[0.0 if f is None else f.lipschitz for f in row] for row in fns["coups"]])
        system = GeneralConcrete(spec, fns["coeffs"], fns["leak"], fns["clags"], fns["coups"], u)
    elif kind == "linear":
        fns = dict(coeffs=[[_coeff(rng, -rng.uniform(0.5, 2.0) if i == j
                                   else rng.uniform(-1.0, 1.0)) for j in range(n)]
                           for i in range(n)],
                   lags=[[_lag(rng) for _ in range(n)] for _ in range(n)])
        c = fns["coeffs"]
        spec = LinearSystemSpec(
            alpha=[-c[i][i].upper for i in range(n)], A=[-c[i][i].lower for i in range(n)],
            A_off=[[0.0 if i == j else max(-c[i][j].lower, c[i][j].upper) for j in range(n)]
                   for i in range(n)],
            sigma=[[_bound(lag) for lag in row] for row in fns["lags"]])
        system = LinearConcrete(spec, c, fns["lags"], u)
    else:
        fns = {key: [_coeff(rng, rng.uniform(0.5, 2.0)) for _ in range(n)] for key in "rp"}
        fns.update({key: [_lag(rng, allow_none=False) for _ in range(n)]
                    for key in ("leak_x", "leak_y", "trans_x", "trans_y")})
        fns.update({key: [_act(rng) for _ in range(n)] for key in "fg"})
        fns.update(a=rng.uniform(0.5, 2.0, n), b=rng.uniform(0.5, 2.0, n),
                   a_conn=rng.normal(0.0, 1.0, (n, n)), b_conn=rng.normal(0.0, 1.0, (n, n)),
                   I=rng.normal(0.0, 5.0, n), J=rng.normal(0.0, 5.0, n))
        spec = BamSpec(
            a=fns["a"], b=fns["b"], a_conn=fns["a_conn"], b_conn=fns["b_conn"], I=fns["I"],
            J=fns["J"], Lf=[f.lipschitz for f in fns["f"]], Lg=[g.lipschitz for g in fns["g"]],
            r_lo=[r.lower for r in fns["r"]], r_hi=[r.upper for r in fns["r"]],
            p_lo=[p.lower for p in fns["p"]], p_hi=[p.upper for p in fns["p"]],
            **{bound: [lag.bound for lag in fns[key]] for bound, key in (
                ("tau_x", "leak_x"), ("tau_y", "leak_y"),
                ("sigma_x", "trans_x"), ("sigma_y", "trans_y"))})
        system = BamConcrete(spec, *(fns[key] for key in ("r", "p", "leak_x", "leak_y",
                                                           "trans_x", "trans_y", "f", "g")), u)
    return kind, system, fns, n, t, u, v


def equation(kind, fns, n, t, u, v):
    """The right-hand side at t, written out with numpy: (value, the size of
    its terms, whether it must match bit for bit)."""
    def delayed(j, lags):
        # x_j(t - lag(t)) for each lag of a sequence (None: undelayed)
        return u[j] + v[j] * (t - np.array([0.0 if lag is None else lag(t) for lag in lags]))

    if kind == "general":
        decay = -np.array([c(t) for c in fns["coeffs"]]) * np.array(
            [delayed(i, [fns["leak"][i]])[0] for i in range(n)])
        drive = np.array([[0.0 if f is None else f(delayed(j, [fns["clags"][i][j]])[0])
                           for j, f in enumerate(row)] for i, row in enumerate(fns["coups"])])
        return decay + drive.sum(axis=1), np.abs(decay) + np.abs(drive).sum(axis=1), False
    if kind == "linear":
        coeff = np.array([[c(t) for c in row] for row in fns["coeffs"]])
        state = np.array([[delayed(j, [fns["lags"][i][j]])[0] for j in range(n)]
                          for i in range(n)])
        # each row summed left to right, as the equation is written
        terms = coeff * state
        return np.cumsum(terms, axis=1)[:, -1], np.abs(terms).sum(axis=1), True
    layers = []
    for rate, gain, conn, inp, leak, trans, act, own, other in (
            ("r", "a", "a_conn", "I", "leak_x", "trans_y", "f", 0, n),
            ("p", "b", "b_conn", "J", "leak_y", "trans_x", "g", n, 0)):
        mu = np.array([c(t) for c in fns[rate]])
        decay = -fns[gain] * np.array([delayed(own + i, [fns[leak][i]])[0] for i in range(n)])
        signal = np.array([f(delayed(other + j, [fns[trans][j]])[0])
                           for j, f in enumerate(fns[act])])
        layers.append((mu * (decay + fns[conn] @ signal + fns[inp]),
                       mu * (np.abs(decay) + np.abs(fns[conn]) @ np.abs(signal)
                             + np.abs(fns[inp]))))
    return (np.concatenate([layers[0][0], layers[1][0]]),
            np.concatenate([layers[0][1], layers[1][1]]), n == 1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(realizations())
def test_rhs_is_the_equation_written_out(case):
    kind, system, fns, n, t, u, v = case
    got = rhs_over_reads(system, t, lambda j, s: u[j] + v[j] * s)
    want, size, exact = equation(kind, fns, n, t, u, v)
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.all(np.abs(got - want) <= 1e-13 * size)
