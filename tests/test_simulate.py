"""Method-of-steps integrator, decay fitting, trajectory CSV output."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaystab import (
    BamConcrete,
    DelayBoundError,
    FitInapplicableError,
    GeneralConcrete,
    GeneralSystemSpec,
    LinearConcrete,
    LinearSystemSpec,
    SimConfig,
    SimulationError,
    fit_decay,
    parse_document,
    parse_file,
    simulate,
    write_csv,
)
from delaystab.simulate import BLOCK, _Integrator
from delaystab.systems import (ConcreteSystem, Constant, Cosinusoid,
                               LinearActivation, ShiftedAbsCosLag, ShiftedAbsSinLag,
                               SinSquaredLag, Sinusoid, TanhActivation)

from oracles import two_neuron


def pure_delay_system(tau=1.0, history=1.0):
    """xdot(t) = -x(t - tau), constant history."""
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[tau], sigma=[[0.0]],
                             L=[[0.0]])
    return GeneralConcrete(spec, [Constant(1.0)], [Constant(tau)],
                           [[None]], [[None]], [history])


def undelayed_decay_system(rate=1.0, history=1.0):
    """xdot = -rate * x, no delay anywhere."""
    spec = GeneralSystemSpec(alpha=[rate], A=[rate], tau=[0.0], sigma=[[0.0]],
                             L=[[0.0]])
    return GeneralConcrete(spec, [Constant(rate)], [None],
                           [[None]], [[None]], [history])


def test_zero_delay_reduces_to_classical_integration():
    traj = simulate(undelayed_decay_system(), SimConfig(0.0, 5.0, 0.01))
    assert abs(traj.states[-1, 0] - math.exp(-5.0)) < 1e-6
    # fourth order: halving the step shrinks the endpoint error ~16x
    fine = simulate(undelayed_decay_system(), SimConfig(0.0, 5.0, 0.005))
    err_c = abs(traj.states[-1, 0] - math.exp(-5.0))
    err_f = abs(fine.states[-1, 0] - math.exp(-5.0))
    assert err_c / err_f > 10.0


def test_matrix_exponential_reference():
    a = np.array([[-1.0, 0.4], [0.4, -1.0]])
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0],
                            A_off=[[0.0, 0.4], [0.4, 0.0]],
                            sigma=np.zeros((2, 2)), diagonal_delay_free=True)
    coeffs = [[Constant(-1.0), Constant(0.4)],
              [Constant(0.4), Constant(-1.0)]]
    sys_ = LinearConcrete(spec, coeffs, [[None, None], [None, None]], [1.0, -0.5])
    traj = simulate(sys_, SimConfig(0.0, 2.0, 0.01))
    # eigen-decomposition of the symmetric coupling gives the exact solution
    w, v = np.linalg.eigh(a)
    ref = v @ np.diag(np.exp(w * 2.0)) @ v.T @ np.array([1.0, -0.5])
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-8


def test_delayed_solution_piecewise_polynomial_start():
    # on [0,1] the right side is exactly -1, so x(t) = 1 - t to roundoff
    traj = simulate(pure_delay_system(), SimConfig(0.0, 1.0, 0.05))
    ref = 1.0 - traj.times
    assert np.max(np.abs(traj.states[:, 0] - ref)) < 1e-13


def test_short_delay_oscillator_remains_bounded():
    # tau = 0.25 < pi/2: delayed negative feedback still decays
    traj = simulate(pure_delay_system(tau=0.25), SimConfig(0.0, 40.0, 0.025))
    assert np.max(np.abs(traj.states[-100:, 0])) < 1e-3


def test_long_delay_oscillator_grows():
    # tau = 2 > pi/2: the delayed feedback overshoots and oscillations grow
    traj = simulate(pure_delay_system(tau=2.0), SimConfig(0.0, 60.0, 0.05))
    t = traj.times
    x = np.abs(traj.states[:, 0])
    early = x[(t >= 15.0) & (t <= 30.0)].max()
    late = x[(t >= 45.0) & (t <= 60.0)].max()
    assert late > 5.0 * early


def test_integration_is_deterministic():
    a = simulate(pure_delay_system(tau=0.5), SimConfig(0.0, 10.0, 0.05))
    b = simulate(pure_delay_system(tau=0.5), SimConfig(0.0, 10.0, 0.05))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_step_must_resolve_the_delay():
    with pytest.raises(ValueError):
        simulate(pure_delay_system(tau=0.5), SimConfig(0.0, 10.0, 0.2))
    # exactly bound/10 is allowed
    simulate(pure_delay_system(tau=0.5), SimConfig(0.0, 1.0, 0.05))


def test_span_must_be_integer_steps():
    with pytest.raises(ValueError):
        simulate(pure_delay_system(), SimConfig(0.0, 1.03, 0.05))


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        simulate(pure_delay_system(), SimConfig(0.0, -1.0, 0.05))
    with pytest.raises(ValueError):
        simulate(pure_delay_system(), SimConfig(0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        simulate(pure_delay_system(), SimConfig(0.0, 1.0, 0.05, record_every=7))


@pytest.mark.parametrize("t0, t_end, h, message", [
    (0.0, math.inf, 0.05, "t_end must be finite, got inf"),
    (0.0, math.nan, 0.05, "t_end must be finite, got nan"),
    (math.nan, 1.0, 0.05, "t0 must be finite, got nan"),
    (-math.inf, 1.0, 0.05, "t0 must be finite, got -inf"),
    (0.0, 1.0, math.nan, "step must be finite, got nan"),
    (0.0, 1.0, math.inf, "step must be finite, got inf"),
])
def test_non_finite_times_rejected(t0, t_end, h, message):
    with pytest.raises(ValueError) as exc:
        simulate(pure_delay_system(), SimConfig(t0, t_end, h))
    assert str(exc.value) == message


# a grid of at most span / cap <= 5 / 0.005 = 1,000 steps
@settings(max_examples=40, deadline=None)
@given(t0=st.floats(-5.0, 5.0), span=st.floats(1e-3, 5.0),
       lag=st.one_of(st.none(), st.floats(0.05, 10.0)))
def test_default_step_is_the_coarsest_that_divides_the_span(t0, span, lag):
    system = undelayed_decay_system() if lag is None else pure_delay_system(tau=lag)
    t_end = t0 + span
    traj = simulate(system, SimConfig(t0, t_end))
    span = t_end - t0
    cap = 0.01 if lag is None else min(0.01, lag / 10.0)
    n = max(1, math.ceil(span / cap - 1e-9))
    n += lag is not None and span / n > lag / 10.0 + 1e-12
    h = traj.meta["h"]
    assert h == span / n
    assert len(traj.times) == n + 1 and abs(n * h - span) <= 1e-6 * h
    again = simulate(system, SimConfig(t0, t_end, h))
    assert again.meta["h"] == h and np.array_equal(again.states, traj.states)


@pytest.mark.parametrize("span, steps", [(0.010000000005, 2), (0.020000000009, 3)])
def test_default_step_takes_one_more_step_past_the_lag_cap(span, steps):
    # span / cap is 1.0000000005 or 2.0000000009: within the 1e-9 slack of
    # n = 1 or 2 steps, whose step span / n exceeds the cap; an explicit step
    # that large is still rejected
    system = pure_delay_system(tau=0.1)
    traj = simulate(system, SimConfig(0.0, span))
    assert traj.meta["h"] == span / steps and len(traj.times) == steps + 1
    with pytest.raises(ValueError) as exc:
        simulate(system, SimConfig(0.0, span, span / (steps - 1)))
    assert str(exc.value) == (f"step size {span / (steps - 1)} too large: must be at most a "
                              "tenth of the smallest positive delay bound (0.01)")


def test_record_every_decimates():
    full = simulate(pure_delay_system(), SimConfig(0.0, 2.0, 0.05))
    thin = simulate(pure_delay_system(), SimConfig(0.0, 2.0, 0.05, record_every=4))
    assert len(thin.times) == (len(full.times) - 1) // 4 + 1
    assert np.array_equal(thin.states[1], full.states[4])
    assert abs(thin.times[-1] - 2.0) < 1e-12


@pytest.mark.parametrize("lag", [Constant(1.0), ShiftedAbsSinLag(1.0, 0.0)],
                         ids=["planned", "table"])
def test_reads_at_or_before_t0_take_their_own_components_history_entry(lag):
    # x_i' = -x_i(t - 1) from the history (2, -3): until t = 1 each leak reads
    # its own component's entry, so x_1 = 2 - 2t and x_2 = -3 + 3t exactly,
    # whether the lag is planned once or resolved at every stage time
    spec = GeneralSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0], tau=[1.0, 1.0],
                             sigma=[[0.0, 0.0], [0.0, 0.0]], L=[[0.0, 0.0], [0.0, 0.0]])
    system = GeneralConcrete(spec, [Constant(1.0)] * 2, [lag] * 2,
                             [[None, None], [None, None]], [[None, None], [None, None]],
                             [2.0, -3.0])
    traj = simulate(system, SimConfig(0.0, 1.0, 0.05))
    exact = np.column_stack([2.0 - 2.0 * traj.times, -3.0 + 3.0 * traj.times])
    assert np.max(np.abs(traj.states - exact)) < 1e-12


def test_nonautonomous_rate_modulation():
    # xdot = (2 + sin t) * (-x): exact solution known in closed form
    from delaystab.systems import Sinusoid
    spec = GeneralSystemSpec(alpha=[1.0], A=[3.0], tau=[0.0], sigma=[[0.0]],
                             L=[[0.0]])
    sys_ = GeneralConcrete(spec, [Sinusoid(2.0, 1.0)], [None],
                           [[None]], [[None]], [1.0])
    traj = simulate(sys_, SimConfig(0.0, 4.0, 0.01))
    exact = math.exp(-(2.0 * 4.0 + 1.0 - math.cos(4.0)))
    assert abs(traj.states[-1, 0] - exact) < 1e-9


def test_runtime_delay_violation_caught():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.5], sigma=[[0.0]],
                             L=[[0.0]])

    class DriftingLag:
        bound = 0.5

        def __call__(self, t):
            return 0.4 + 0.05 * t  # exceeds the bound past t = 2

    sys_ = GeneralConcrete(spec, [Constant(1.0)], [DriftingLag()],
                           [[None]], [[None]], [1.0])
    with pytest.raises(DelayBoundError) as exc:
        simulate(sys_, SimConfig(0.0, 4.0, 0.05))
    assert str(exc.value) == ("leak_lag[1] exceeds its declared bound 0.5 at t=2.025 "
                              "(got 0.50125)")


def test_read_at_its_declared_bound_matches_the_exact_solution():
    # x'(t) = -x(t - 1) with history 1: its read declares 1, and the nodes kept
    # reach that far.  RK4 with Hermite reads is exact on the solution 1 - t on
    # [0, 1] and 1 - t + (t - 1)^2 / 2 on [1, 2]
    class ReachesFar:
        dim = 1
        reads = ((0, Constant(1.0), 1.0, "lag"),)
        time_functions = ()
        history = np.ones(1)

        def rhs(self, f_t, values):
            return np.array([-values[0]])

    traj = simulate(ReachesFar(), SimConfig(0.0, 2.0, 0.05))
    t = traj.times
    exact = np.where(t <= 1.0, 1.0 - t, 1.0 - t + (t - 1.0) ** 2 / 2.0)
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-14


@pytest.mark.parametrize("late, h", [(0.5, 0.02), (0.8, 0.01)])
def test_window_comes_from_the_declared_bound_not_the_lags_own(late, h):
    # the leak lag is 0.1 before t = 3 and `late` after, within the declared
    # tau = 1 but past the 0.2 that the lag reports as its own bound: the nodes
    # kept serve the late reads, the same bits as when the lag reports 1
    class SteppedLag:
        def __init__(self, bound):
            self.bound = bound

        def __call__(self, t):
            return np.where(np.asarray(t) < 3.0, 0.1, late)

    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0], sigma=[[0.0]], L=[[0.0]])
    cfg = SimConfig(0.0, 6.0, h)
    short, full = (simulate(GeneralConcrete(spec, [Constant(1.0)], [SteppedLag(bound)],
                                            [[None]], [[None]], [1.0]), cfg)
                   for bound in (0.2, 1.0))
    assert short.states.tobytes() == full.states.tobytes()
    assert short.meta == full.meta


def test_negative_lag_rejected():
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.5], sigma=[[0.0]],
                             L=[[0.0]])

    class NegativeLag:
        bound = 0.5

        def __call__(self, t):
            return -0.1

    sys_ = GeneralConcrete(spec, [Constant(1.0)], [NegativeLag()],
                           [[None]], [[None]], [1.0])
    with pytest.raises(DelayBoundError) as exc:
        simulate(sys_, SimConfig(0.0, 1.0, 0.05))
    assert str(exc.value) == "leak_lag[1] evaluates to a negative lag -1.000e-01 at t=0"


# --- evaluation counts and sub-step reporting --------------------------------

class Counting:
    """Mixin for a catalog function: counts the times it is evaluated at in
    `calls` (a call on an array of times counts each of them)."""

    def __call__(self, t):
        object.__setattr__(self, "calls", getattr(self, "calls", 0) + np.size(t))
        return super().__call__(t)


class CountingConstant(Counting, Constant):
    pass


class CountingVaryingLag(Counting, ShiftedAbsSinLag):
    pass


class CountingSinusoid(Counting, Sinusoid):
    pass


def two_neuron_system(trans_x, trans_y, rate=None, history=(1.0, -0.5)):
    spec = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                      Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                      sigma_x=0.4, sigma_y=0.5)
    return BamConcrete(spec, [rate or Constant(1.0)], [Constant(1.0)],
                       [Constant(0.5)], [Constant(0.4)], [trans_x], [trans_y],
                       [TanhActivation(0.5)], [TanhActivation(0.2)], history)


def test_positive_lags_are_evaluated_once_per_stage_time():
    # time-varying lags go through the per-stage-time pass at every stage time
    n_steps = 50
    lags = [CountingVaryingLag(0.3, 0.1), CountingVaryingLag(0.4, 0.1)]
    rate = CountingConstant(1.0)
    simulate(two_neuron_system(*lags, rate=rate), SimConfig(0.0, 0.04 * n_steps, 0.04))
    # the start plus two new stage times per step (t + h/2 and t + h); with
    # no zero lag every evaluation at a stage time is the same one
    assert [lag.calls for lag in lags] == [2 * n_steps + 1] * 2
    assert rate.calls == 2 * n_steps + 1


def test_undelayed_reads_keep_four_evaluations_per_step():
    n_steps = 50
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0],
                            A_off=[[0.0, 0.3], [0.3, 0.0]],
                            sigma=[[0.2, 0.0], [0.3, 0.2]])
    coeffs = [[CountingSinusoid(-1.0, 0.0), CountingSinusoid(0.3, 0.0)],
              [CountingSinusoid(0.3, 0.0), CountingSinusoid(-1.0, 0.0)]]
    lags = [CountingVaryingLag(0.15, 0.05), CountingVaryingLag(0.2, 0.1),
            CountingVaryingLag(0.15, 0.05)]
    sys_ = LinearConcrete(spec, coeffs, [[lags[0], None], lags[1:]], [1.0, -0.5])
    simulate(sys_, SimConfig(0.0, 0.02 * n_steps, 0.02))
    # the null lag reads each evaluation's stage state, so the right-hand
    # side is evaluated four times per step, but each coefficient and each
    # lag is still evaluated once per stage time
    assert [c.calls for row in coeffs for c in row] == [2 * n_steps + 1] * 4
    assert [lag.calls for lag in lags] == [2 * n_steps + 1] * 3


def test_constant_coefficients_are_folded_into_their_weights():
    # w * c(t) * x is (w * c(t)) * x, so a constant c is never called and the
    # run matches one whose coefficients are c + 0 * sin(t) to the last bit
    spec = LinearSystemSpec(alpha=[1.0, 1.0], A=[1.0, 1.0],
                            A_off=[[0.0, 0.3], [0.3, 0.0]], sigma=[[0.2, 0.0], [0.3, 0.2]])
    values = [[-1.0, 0.3], [-0.3, -1.0]]
    lags = [[Constant(0.2), None], [ShiftedAbsSinLag(0.2, 0.1), Constant(0.15)]]
    folded = [[CountingConstant(v) for v in row] for row in values]
    runs = [simulate(LinearConcrete(spec, coeffs, lags, [1.0, -0.5]), SimConfig(0.0, 2.0, 0.01))
            for coeffs in (folded, [[Sinusoid(v, 0.0) for v in row] for row in values])]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert [getattr(c, "calls", 0) for row in folded for c in row] == [0] * 4


def test_constant_lags_are_evaluated_once_for_the_range_check():
    # a constant lag of tau = 12 h reads nodes at t + h and Hermite values at
    # t + h/2, one of 13.5 h the reverse; each is evaluated once, for its range
    # check: its node offset and Hermite weights are planned from the value
    n_steps, h = 64, 1.0 / 32.0
    lags = [CountingConstant(12 * h), CountingConstant(13.5 * h)]
    rate = CountingConstant(1.0)
    traj = simulate(two_neuron_system(*lags, rate=rate), SimConfig(0.0, n_steps * h, h))
    assert [lag.calls for lag in lags] == [1, 1]
    assert rate.calls == 2 * n_steps + 1
    assert traj.meta["substep_lookups"] == 0


def test_building_the_integrator_places_no_read(monkeypatch):
    # a planned read keeps its history entry until its first step past t0
    # and is gathered from then on, so the lags of 12 h and 13.5 h, whose
    # first reads past t0 fall in (t0, t0 + h], are placed only by their
    # plans: building the integrator files no read and calls none of its
    # other methods
    h = 1.0 / 32.0
    called = []
    for name, method in vars(_Integrator).items():
        if callable(method) and name != "__init__":
            monkeypatch.setattr(_Integrator, name,
                                lambda *args, name=name: called.append(name))
    integ = _Integrator(two_neuron_system(Constant(12 * h), Constant(13.5 * h)),
                        SimConfig(0.0, 64 * h, h))
    assert integ.entries == [] and called == []
    # each is gathered from the first step k whose read t0 + (k + c) h - lag
    # lies past t0
    for c, plan in zip((0.5, 1.0), integ.plans):
        assert len(plan.queue) == 4  # the two leak lags and the two above
        for first, (slot, *_) in plan.queue:
            lag = integ.reads[slot][1].value
            assert (first - 1 + c) * h - lag <= 0 < (first + c) * h - lag


def test_constant_negative_lag_rejected_naming_the_read():
    # the range check of a constant lag runs once, before the first step
    spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.5], sigma=[[0.0]], L=[[0.0]])
    sys_ = GeneralConcrete(spec, [Constant(1.0)], [Constant(-0.1)],
                           [[None]], [[None]], [1.0])
    with pytest.raises(DelayBoundError) as exc:
        simulate(sys_, SimConfig(2.0, 3.0, 0.05))
    assert str(exc.value) == "leak_lag[1] evaluates to a negative lag -1.000e-01 at t=2"


def test_substep_fallbacks_are_reported():
    # sin^2 lags fall below one step around t = pi
    crossing = simulate(two_neuron_system(SinSquaredLag(0.4), SinSquaredLag(0.5)),
                        SimConfig(0.0, 4.0, 0.01))
    assert crossing.meta["substep_lookups"] > 0
    constant = simulate(two_neuron_system(Constant(0.4), Constant(0.5)),
                        SimConfig(0.0, 4.0, 0.01))
    assert constant.meta["substep_lookups"] == 0


# --- read plans ---------------------------------------------------------------

# a lag is None, or a delay given in steps of h: zero, or at least ten steps
# (the step may be at most a tenth of a positive lag): on a node, half-way
# between nodes, exactly ten steps, or anywhere up to forty steps
LAG_STEPS = st.one_of(st.none(), st.just(0.0), st.integers(10, 40).map(float),
                      st.integers(10, 39).map(lambda k: k + 0.5), st.just(10.0),
                      st.floats(10.0, 40.0))


# distinct entries, so that a read of the wrong component shows
WAVE = np.array([0.8, -0.3])


def twin_systems(family: str, lags: list, bound: float, history=WAVE):
    """The same system twice, from `history`: with Constant delays, whose
    reads are planned once, and with ShiftedAbsSinLag(tau, 0.0), the same
    values resolved at every stage time."""
    out = []
    for make in (Constant, lambda tau: ShiftedAbsSinLag(tau, 0.0)):
        lx, ly, tx, ty = [None if tau is None else make(tau) for tau in lags]
        if family == "general":
            spec = GeneralSystemSpec(alpha=[1.0, 0.5], A=[1.0, 0.5], tau=[bound] * 2,
                                     sigma=[[bound] * 2] * 2, L=[[0.0, 0.5], [0.4, 0.0]])
            out.append(GeneralConcrete(spec, [Constant(1.0), Constant(0.5)], [lx, ly],
                                       [[None, tx], [ty, None]],
                                       [[None, TanhActivation(0.5)], [LinearActivation(0.4), None]],
                                       history))
        elif family == "linear":
            spec = LinearSystemSpec(alpha=[1.0, 0.8], A=[1.0, 0.8],
                                    A_off=[[0.0, 0.3], [0.4, 0.0]], sigma=[[bound] * 2] * 2)
            coeffs = [[Constant(-1.0), Constant(0.3)],
                      [Constant(-0.4), Constant(-0.8)]]
            out.append(LinearConcrete(spec, coeffs, [[lx, tx], [ty, ly]], history))
        else:
            spec = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=-1.0,
                              Lf=0.5, Lg=0.2, tau_x=bound, tau_y=bound,
                              sigma_x=bound, sigma_y=bound, I=0.3)
            out.append(BamConcrete(spec, [Constant(1.0)], [Constant(1.0)], [lx], [ly],
                                   [tx], [ty], [TanhActivation(0.5)], [LinearActivation(0.2)],
                                   history))
    return out


def assert_plans_match(family, lag_steps, h, t0, n_steps, every):
    lags = [None if k is None else k * h for k in lag_steps]
    bound = max([10.0 * h] + [tau for tau in lags if tau is not None])
    cfg = SimConfig(t0, t0 + n_steps * h, h, record_every=every)
    planned, per_stage = (simulate(sys_, cfg) for sys_ in twin_systems(family, lags, bound))
    assert planned.meta == per_stage.meta
    assert np.array_equal(planned.times, per_stage.times)
    b = per_stage.states
    assert np.max(np.abs(planned.states - b)) <= 1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("family", ["general", "linear", "bam"])
@pytest.mark.parametrize("lag_steps", [
    (12.0, 10.5, 10.0, 33.3),  # node, half-way, ten steps, in between
    (None, 0.0, 13.0, 20.5),   # undelayed and zero lags beside delayed ones
    (17.77, 10.0, None, 31.25),
])
def test_planned_reads_match_per_stage_time_reads(family, lag_steps):
    assert_plans_match(family, lag_steps, 0.02, 0.0, 80, 1)
    assert_plans_match(family, lag_steps, 0.025, -1.3, 60, 4)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["general", "linear", "bam"]),
       lag_steps=st.lists(LAG_STEPS, min_size=4, max_size=4),
       h=st.sampled_from([0.01, 0.02, 0.025, 1.0 / 32.0]),
       t0=st.sampled_from([0.0, 0.7, -2.0, 13.0]),
       blocks=st.integers(8, 25), every=st.sampled_from([1, 2, 4]))
def test_planned_reads_match_per_stage_time_reads_property(family, lag_steps, h, t0, blocks,
                                                           every):
    assert_plans_match(family, lag_steps, h, t0, 4 * blocks, every)


@pytest.mark.parametrize("lag_steps, sub_steps", [(0.3, 200), (0.5, 100), (0.7, 100),
                                                  (1e-9, 200), (1e-11, 0)])
def test_planned_sub_step_reads_are_counted(lag_steps, sub_steps):
    # a system may declare a step bound that lets a constant lag fall below
    # one step; such reads fall back to the last node and are counted as for
    # a time-varying lag, and a lag too small to tell from zero is a stage read
    def system(lag):
        class OneRead:
            dim = 1
            reads = ((0, lag, 1.0, "lag"),)
            time_functions = ()
            history = np.array([0.6])

            def rhs(self, f_t, values):
                return np.array([-values[0]])
        return OneRead()

    h = 0.01
    cfg = SimConfig(0.5, 1.5, h)
    planned = simulate(system(Constant(lag_steps * h)), cfg)
    per_stage = simulate(system(ShiftedAbsSinLag(lag_steps * h, 0.0)), cfg)
    assert planned.meta == per_stage.meta
    assert planned.meta["substep_lookups"] == sub_steps
    assert np.max(np.abs(planned.states - per_stage.states)) <= 1e-13


# --- tables per block of steps ----------------------------------------------

def duck_system(reads, history, derivative, time_functions=()):
    """A one-component system that is not a ConcreteSystem, of the given
    history (a vector of one entry): its right-hand side is derivative(values),
    and `calls` counts its evaluations."""
    class Duck:
        dim = 1
        calls = 0

        def __init__(self):
            self.reads, self.time_functions, self.history = reads, time_functions, history

        def rhs(self, f_t, values):
            self.calls += 1
            return [derivative(values)]
    return Duck()


COSINE = np.array([0.6])


def test_integrator_memory_does_not_grow_with_the_span(inputs_dir):
    # the integrator keeps only the nodes that reads still reach, and writes
    # the recorded rows as it goes: beside the rows it returns, it holds as
    # much for 20,000 steps as for 500
    system = parse_file(str(inputs_dir / "two_neuron_sample.json")).concrete
    held = []
    for t_end in (5.0, 200.0):
        cfg = SimConfig(0.0, t_end, record_every=100)
        simulate(system, cfg)
        tracemalloc.start()
        try:
            traj = simulate(system, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(peak - traj.times.nbytes - traj.states.nbytes)
    assert held[1] <= held[0] + 4096, held


WINDOW_LAGS = st.one_of(st.builds(Constant, st.floats(0.65, 1.5)),
                        st.builds(ShiftedAbsSinLag, st.floats(0.65, 1.0), st.floats(0.0, 0.5)),
                        st.builds(ShiftedAbsCosLag, st.floats(0.65, 1.0), st.floats(0.0, 0.5)),
                        st.just(SinSquaredLag(1.5)))


@settings(max_examples=25, deadline=None)
@given(lags=st.lists(WINDOW_LAGS, min_size=2, max_size=2), t0=st.floats(-2.0, 2.0),
       every=st.sampled_from([1, 3, 64, 100]))
def test_window_and_recorded_rows_match_a_run_that_keeps_every_node(lags, t0, every):
    # x' = -x + tanh(y(t - lag_1)), y' = -y - 0.8 (1 + 0.3 sin t) x(t - lag_2)
    # reads up to 150 steps back at h = 0.01, more than a block: the nodes
    # past its reach are dropped, and the rows recorded a block at a time are
    # those of a run that records every step and keeps every node, bit for bit
    reads = [(1, lags[0], 1.5, "lag[1]"), (0, lags[1], 1.5, "lag[2]"),
             (0, None, 0.0, "x"), (1, None, 0.0, "y")]
    rows = [(None, -0.0, [(2, -1.0, None), (0, 1.0, None)]),
            (None, -0.0, [(3, -1.0, None), (1, -0.8, Sinusoid(1.0, 0.3))])]
    system = ConcreteSystem(reads, [TanhActivation(1.0), None, None, None], rows, [1.0, -0.5], [])
    n, h = every * -(-450 // every), 0.01
    integ = _Integrator(system, SimConfig(t0, t0 + n * h, h, every))
    thin = integ.run()
    assert len(integ.xs) <= (integ.window + BLOCK + 1) * 2 < (n + 1) * 2
    kept = _Integrator(system, SimConfig(t0, t0 + n * h, h))
    kept.window = n + 1  # never trimmed
    full = kept.run()
    assert len(kept.xs) == (n + 1) * 2
    for got, want in ((thin.times, full.times), (thin.states, full.states)):
        assert got.tobytes() == want[::every].tobytes()
    assert thin.meta == dict(full.meta, record_every=every)


def test_catalog_lag_leaving_its_bound_raises_at_its_stage_time():
    # 0.1 + 0.05 |sin t| passes the declared 0.12 at t = 0.415, the half-step
    # stage of step 41: the 41 steps before it run (two evaluations each,
    # after the one at t0), then the error names the read and the time
    system = duck_system(((0, ShiftedAbsSinLag(0.1, 0.05), 0.12, "leak_lag[1]"),),
                         COSINE, lambda v: -v[0])
    with pytest.raises(DelayBoundError) as exc:
        simulate(system, SimConfig(0.0, 2.0, 0.01))
    assert str(exc.value) == ("leak_lag[1] exceeds its declared bound 0.12 at t=0.415 "
                              "(got 0.120159)")
    assert system.calls == 1 + 2 * 41


def test_blow_up_before_a_lag_violation_is_reported_first():
    # the state overflows in the first step, long before the lag leaves its
    # bound at t = 0.415 in the same block of steps
    system = duck_system(((0, None, 0.0, "x"), (0, ShiftedAbsSinLag(0.1, 0.05), 0.12, "lag")),
                         np.ones(1), lambda v: 1e200 * v[0])
    with pytest.raises(SimulationError) as exc:
        simulate(system, SimConfig(0.0, 2.0, 0.01))
    assert str(exc.value) == "state became non-finite at t=0.01" and exc.value.time == 0.01


def test_failure_at_one_stage_reports_the_table_read():
    # the time-varying lag 0.4 + 0.1 |sin t| exceeds its bound 0.3 from the
    # start, where the two constant lags read the history: its error is reported
    far = ((0, Constant(2.0), 2.0, "far"), (0, Constant(3.0), 3.0, "farther"))
    varying = (0, ShiftedAbsSinLag(0.4, 0.1), 0.3, "varying")
    with pytest.raises(DelayBoundError) as exc:
        simulate(duck_system(far + (varying,), COSINE, lambda v: -v[0]),
                 SimConfig(0.0, 1.0, 0.01))
    assert str(exc.value) == "varying exceeds its declared bound 0.3 at t=0 (got 0.4)"


def test_block_size_changes_no_state_and_no_failure(monkeypatch):
    # a block's table reads are served per stage, so how many steps a block
    # holds changes nothing: sin^2 lags touch zero at t = 0, the end of step 31
    # of a run from t0 = -0.32, where reads are stage, sub-step, node, Hermite
    # and history ones; and a lag that leaves its bound at t = 0.415, the half
    # step of step 41, fails there with the same error after the same calls
    module = importlib.import_module("delaystab.simulate")
    runs, failures = [], []
    for block in (1, 7, 64):
        monkeypatch.setattr(module, "BLOCK", block)
        system = two_neuron_system(SinSquaredLag(0.3), SinSquaredLag(0.2))
        calls, rhs = [], system.rhs
        system.rhs = lambda *args: calls.append(1) or rhs(*args)
        traj = simulate(system, SimConfig(-0.32, 0.68, 0.01))
        runs.append((traj.states.tobytes(), traj.meta, len(calls)))
        system = duck_system(((0, ShiftedAbsSinLag(0.1, 0.05), 0.12, "leak_lag[1]"),),
                             COSINE, lambda v: -v[0])
        with pytest.raises(DelayBoundError) as exc:
            simulate(system, SimConfig(0.0, 2.0, 0.01))
        failures.append((str(exc.value), system.calls))
    assert runs == [runs[-1]] * 3 and failures == [failures[-1]] * 3
    # the zero lag adds evaluations to the 1 + 2 * 100 of a run without one
    assert runs[-1][2] > 1 + 2 * 100 and runs[-1][1]["substep_lookups"] > 0
    assert failures[-1] == ("leak_lag[1] exceeds its declared bound 0.12 at t=0.415 "
                            "(got 0.120159)", 1 + 2 * 41)


def place_one(q, h):
    """The node offset and Hermite weights (none on a node) of one read q
    steps past node k, placed on its own: the reference for the tables."""
    if q > 1e-9 or abs(q - round(q)) <= 1e-9:
        return min(round(q), 0), ()
    r = math.floor(q)
    theta, om = q - r, 1.0 - (q - r)
    return r, ((1.0 + 2.0 * theta) * om * om, theta * om * om * h,
               theta * theta * (3.0 - 2.0 * theta), theta * theta * (theta - 1.0) * h)


def bits(entry):
    return [x.hex() if isinstance(x, float) else x for x in entry]


RATES = st.one_of(st.builds(Constant, st.floats(0.5, 2.0)),
                  st.builds(Sinusoid, st.floats(0.5, 2.0), st.floats(-0.4, 0.4)),
                  st.builds(Cosinusoid, st.floats(-2.0, 2.0), st.floats(-0.4, 0.4)))
LAGS = st.one_of(st.builds(Constant, st.floats(0.0, 1.0)),
                 st.builds(SinSquaredLag, st.floats(0.0, 1.0)),
                 st.builds(ShiftedAbsSinLag, st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
                 st.builds(ShiftedAbsCosLag, st.floats(0.0, 0.5), st.floats(0.0, 0.5)))


@settings(max_examples=60, deadline=None)
@given(functions=st.lists(RATES, min_size=1, max_size=3), lags=st.lists(LAGS, min_size=1,
       max_size=4), t0=st.floats(-3.0, 3.0), h=st.sampled_from([0.01, 0.004]),
       start=st.integers(0, 200), x0=st.sampled_from([0.5, -0.7]))
def test_tables_match_per_stage_scalar_evaluation(functions, lags, t0, h, start, x0):
    # every rate and coefficient, and every table read (time-varying lags and
    # constant lags below one step) at every stage of a block, is the value,
    # class and place that the same objects give one stage time at a time, to
    # the last bit; each read declares the bound 1, which admits both steps,
    # so lags far below ten steps are tried too
    reads = tuple((0, lag, 1.0, f"lag[{i}]") for i, lag in enumerate(lags))
    system = duck_system(reads, np.array([x0]), lambda v: 0.0, functions)
    integ = _Integrator(system, SimConfig(t0, t0 + (start + 80) * h, h))
    times = integ.times.tolist()

    def stage_time(g):  # stage 2k is step k's half step, 2k + 1 its end; -1 is t0
        return times[g // 2 + 1] if g % 2 else times[g // 2] + 0.5 * h

    def want(g, slots):
        entries = [[], [], [], []]
        t = stage_time(g)
        for slot in slots:
            tq = t - float(lags[slot](t))
            if abs(tq - t) <= 1e-12 * max(1.0, abs(t)):
                entries[0].append((slot, 0))
            elif tq <= t0:
                entries[3].append((slot, x0))
            else:
                r, weights = place_one((tq - t0) / h - g // 2, h)
                entries[2 if weights else 1].append((slot, r * integ.dim, *weights))
        return [sorted(map(bits, kind)) for kind in entries]

    f_t = integ._tabulate(2 * start, 160)
    assert integ.failure is None
    table = [slot for slot, lag in enumerate(lags)
             if not isinstance(lag, Constant) or 0 < lag.value < h]
    assert (integ.g0, len(integ.entries)) == ((2 * start, 160 * len(table)) if table else (-1, 0))
    for g, row in enumerate(f_t, 2 * start):
        assert bits(row) == bits([float(fn(stage_time(g))) for fn in functions])
        # stage g's entries, one per table read, in the fields each kind is read by
        got = [[], [], [], []]
        lo = (g - integ.g0) * len(table)
        for kind, slot, at, *weights, value in integ.entries[lo:lo + len(table)]:
            got[kind].append((slot, at, *weights) if kind == 2 else (slot, value) if kind == 3
                             else (slot, at))
        assert [sorted(map(bits, kind)) for kind in got] == want(g, table)


# --- decay fitting ----------------------------------------------------------

def synthetic_decay(lam=0.7, amp=3.0, t_end=20.0, h=0.01):
    t = np.arange(0.0, t_end + h / 2, h)
    x = amp * np.exp(-lam * t)
    from delaystab.simulate import Trajectory
    states = x[:, None]
    return Trajectory(times=t, states=states, meta={})


def test_fit_recovers_synthetic_rate():
    fit = fit_decay(synthetic_decay(), np.zeros(1))
    assert abs(fit.lambda_hat - 0.7) < 1e-6
    assert abs(fit.amplitude - 3.0 * math.exp(0.0)) < 0.2
    assert fit.r_squared > 0.999999


def test_fit_uses_late_window_only():
    fit = fit_decay(synthetic_decay(t_end=50.0), np.zeros(1))
    assert fit.fit_window[0] >= 10.0 - 1e-9
    assert abs(fit.fit_window[1] - 50.0) < 1e-9


def test_fit_rejects_flat_trajectory():
    from delaystab.simulate import Trajectory
    t = np.arange(0.0, 10.0, 0.01)
    traj = Trajectory(times=t, states=np.ones((len(t), 1)), meta={})
    with pytest.raises(FitInapplicableError):
        fit_decay(traj, np.zeros(1))


def test_fit_rejects_growth():
    t = np.arange(0.0, 10.0, 0.01)
    from delaystab.simulate import Trajectory
    x = np.exp(0.3 * t)[:, None]
    traj = Trajectory(times=t, states=x, meta={})
    with pytest.raises(FitInapplicableError):
        fit_decay(traj, np.zeros(1))


@pytest.mark.parametrize("deviation, message", [
    # on t = 0, 1: the window (the last 80% of the run) holds t = 1 alone
    ([1.0, 0.5], "fit window holds fewer than 3 samples"),
    ([0.0] * 10, "trajectory is constant at the reference"),
    # below the initial deviation, but flat across the window t >= 1.8
    ([1.0] + [0.5] * 9, "deviation envelope does not decrease across the fit window"),
    # the envelope's one positive sample is the window's first
    ([1.0, 0.7, 0.5] + [0.0] * 7, "deviation envelope vanishes inside the window"),
], ids=["short-window", "constant", "flat-envelope", "vanishing-envelope"])
def test_fit_refusals(deviation, message):
    from delaystab.simulate import Trajectory
    t = np.arange(float(len(deviation)))
    states = np.column_stack([np.array(deviation), -0.5 * np.array(deviation)]) + 2.0
    with pytest.raises(FitInapplicableError) as exc:
        fit_decay(Trajectory(times=t, states=states, meta={}), np.full(2, 2.0))
    assert str(exc.value) == message


def test_fit_on_real_decaying_run():
    traj = simulate(undelayed_decay_system(rate=0.7, history=3.0),
                    SimConfig(0.0, 20.0, 0.01))
    fit = fit_decay(traj, np.zeros(1))
    assert abs(fit.lambda_hat - 0.7) < 1e-6


# --- CSV output -------------------------------------------------------------

def test_csv_format(tmp_path):
    traj = simulate(pure_delay_system(), SimConfig(0.0, 0.5, 0.1))
    write_csv(traj, str(tmp_path / "traj.csv"))
    text = (tmp_path / "traj.csv").read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "t,x_1"
    assert len(lines) == 7 + 1  # header + 6 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    # %.17g keeps the double exactly
    row = lines[2].split(",")
    assert float(row[0]) == traj.times[1]
    assert float(row[1]) == traj.states[1, 0]


def test_csv_round_trip_file(tmp_path):
    traj = simulate(pure_delay_system(), SimConfig(0.0, 2.0, 0.1))
    dest = tmp_path / "traj.csv"
    write_csv(traj, str(dest))
    data = np.genfromtxt(dest, delimiter=",", names=True)
    assert data.dtype.names == ("t", "x_1")
    assert np.array_equal(np.asarray(data["t"]), traj.times)
    assert np.array_equal(np.asarray(data["x_1"]), traj.states[:, 0])


def test_csv_multicomponent_header(tmp_path):
    spec = LinearSystemSpec(alpha=[1.0, 1.0, 1.0], A=[1.0, 1.0, 1.0],
                            A_off=np.zeros((3, 3)), sigma=np.zeros((3, 3)),
                            diagonal_delay_free=True)
    coeffs = [[Constant(-1.0) if i == j else Constant(0.0)
               for j in range(3)] for i in range(3)]
    lags = [[None] * 3 for _ in range(3)]
    sys_ = LinearConcrete(spec, coeffs, lags, [1.0, 2.0, 3.0])
    traj = simulate(sys_, SimConfig(0.0, 1.0, 0.5))
    write_csv(traj, str(tmp_path / "traj.csv"))
    assert (tmp_path / "traj.csv").read_text().split("\n")[0] == "t,x_1,x_2,x_3"


def test_constant_lag_beyond_the_span_reads_the_history_for_the_whole_run(two_neuron_doc):
    # a lag of 1e308 is inf steps of 0.01, where 1e300 is a finite number of
    # them; both lie beyond the span, so both read the history throughout
    runs = []
    for lag in (1e300, 1e308):
        two_neuron_doc["dynamics"]["leak_x"] = {"type": "constant", "value": lag}
        runs.append(simulate(parse_document(two_neuron_doc).concrete, SimConfig(0.0, 0.2)))
    assert np.array_equal(runs[0].states, runs[1].states)
    assert runs[0].meta["h"] == 0.01 and runs[0].states.shape == (21, 2)
