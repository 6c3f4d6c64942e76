"""Existence conditions and the fixed-point equilibrium solver."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

from delaystab import (
    DivergenceError,
    FamilyError,
    GeneralSystemSpec,
    LinearSystemSpec,
    build_existence_matrices,
    equilibrium,
    equilibrium_exists,
    solve_equilibrium,
)
from delaystab.cli import main
from delaystab.systems import LinearActivation, TanhActivation

from conftest import random_bam
from oracles import serialize_spec, two_neuron


@pytest.mark.parametrize("solve", [equilibrium_exists, build_existence_matrices,
                                   lambda spec: solve_equilibrium(spec, [], [])],
                         ids=["equilibrium_exists", "build_existence_matrices",
                              "solve_equilibrium"])
@pytest.mark.parametrize("spec", [
    GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[0.0], sigma=[[0.0]], L=[[0.0]]),
    LinearSystemSpec(alpha=[1.0], A=[1.0], A_off=[[0.0]], sigma=[[0.0]]),
], ids=["general", "linear"])
def test_equilibrium_needs_a_two_layer_spec(solve, spec):
    with pytest.raises(FamilyError) as exc:
        solve(spec)
    assert str(exc.value) == f"expected a two-layer network spec, got {type(spec).__name__}"


def modulated_pair():
    return two_neuron(a=1.0, b=1.0, coupling_xy=1.0 / 720.0,
                      coupling_yx=1.0 / 200.0, Lf=1.0, Lg=1.0,
                      tau_x=0.001, tau_y=0.001, sigma_x=2.0, sigma_y=3.0,
                      r_lo=20.0, r_hi=20.0, p_lo=40.0, p_hi=40.0,
                      I=10000.0, J=20000.0)


def test_existence_matrices_layout():
    s = two_neuron(a=2.0, b=4.0, coupling_xy=-3.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.8, tau_x=0.1, tau_y=0.1,
                   sigma_x=0.1, sigma_y=0.1)
    first, second = build_existence_matrices(s)
    # block-anti-diagonal: each layer only reads the other
    assert first[0, 0] == 0.0 and first[1, 1] == 0.0
    # first matrix scales by the destination gain, second by the source gain
    assert abs(first[0, 1] - 3.0 * 0.5 / 2.0) < 1e-15
    assert abs(first[1, 0] - 1.0 * 0.8 / 4.0) < 1e-15
    assert abs(second[0, 1] - 3.0 * (0.5 / 4.0)) < 1e-15
    assert abs(second[1, 0] - 1.0 * (0.8 / 2.0)) < 1e-15


def test_existence_conditions_against_numpy_norms():
    rng = np.random.default_rng(41)
    for _ in range(50):
        bam = random_bam(rng)
        report = equilibrium_exists(bam)
        a_mat, b_mat = build_existence_matrices(bam)
        by_idx = {c.index: c for c in report.conditions}
        assert abs(by_idx[1].value - np.max(np.abs(np.linalg.eigvals(a_mat)))) < 1e-7
        assert abs(by_idx[2].value - np.abs(a_mat).sum(axis=1).max()) < 1e-12
        assert abs(by_idx[3].value - np.abs(a_mat).sum(axis=0).max()) < 1e-12
        assert abs(by_idx[4].value - (a_mat ** 2).sum()) < 1e-12
        assert abs(by_idx[6].value - np.abs(b_mat).sum(axis=1).max()) < 1e-12
        # any norm below one certifies existence
        if any(c.holds for c in report.conditions):
            assert report.exists_unique


def test_worked_example_equilibrium():
    s = modulated_pair()
    eq = solve_equilibrium(s, [LinearActivation(1.0)], [LinearActivation(1.0)])
    assert abs(eq.x_star[0] - 10027.847415607053) < 1e-6
    assert abs(eq.y_star[0] - 20050.139237078034) < 1e-6
    assert eq.residual < 1e-10
    assert eq.iterations < 50


def test_linear_activation_equilibria_match_direct_solve():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        bam = random_bam(rng, n=n)
        ks = rng.uniform(-1.0, 1.0, 2 * n)
        # keep the interconnection an easy contraction
        a_conn = bam.a_conn * 0.1
        b_conn = bam.b_conn * 0.1
        bam = type(bam)(a=bam.a, b=bam.b, a_conn=a_conn, b_conn=b_conn,
                        Lf=np.abs(ks[:n]), Lg=np.abs(ks[n:]),
                        r_lo=bam.r_lo, r_hi=bam.r_hi, p_lo=bam.p_lo,
                        p_hi=bam.p_hi, tau_x=bam.tau_x, tau_y=bam.tau_y,
                        sigma_x=bam.sigma_x, sigma_y=bam.sigma_y,
                        I=bam.I, J=bam.J)
        f = [LinearActivation(float(k)) for k in ks[:n]]
        g = [LinearActivation(float(k)) for k in ks[n:]]
        eq = solve_equilibrium(bam, f, g)
        # assemble the block-linear system a x - A K_f y = I, b y - B K_g x = J
        big = np.zeros((2 * n, 2 * n))
        big[:n, :n] = np.diag(bam.a)
        big[:n, n:] = -a_conn * ks[None, :n]
        big[n:, :n] = -b_conn * ks[None, n:]
        big[n:, n:] = np.diag(bam.b)
        ref = np.linalg.solve(big, np.concatenate([bam.I, bam.J]))
        got = np.concatenate([eq.x_star, eq.y_star])
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) < 1e-8 * scale


def test_zero_input_zero_equilibrium():
    s = two_neuron(a=0.8, b=0.5, coupling_xy=1.0, coupling_yx=1.0,
                   Lf=0.5, Lg=0.2, tau_x=0.5, tau_y=0.4,
                   sigma_x=0.4, sigma_y=0.5)
    eq = solve_equilibrium(s, [TanhActivation(0.5)], [TanhActivation(0.2)])
    assert abs(eq.x_star[0]) < 1e-11
    assert abs(eq.y_star[0]) < 1e-11


def test_divergence_detected():
    # expansion factor 4 through the loop: iteration cannot settle
    s = two_neuron(a=0.5, b=0.5, coupling_xy=2.0, coupling_yx=2.0,
                   Lf=1.0, Lg=1.0, tau_x=0.1, tau_y=0.1,
                   sigma_x=0.1, sigma_y=0.1, I=1.0, J=1.0)
    with pytest.raises(DivergenceError):
        with pytest.warns(RuntimeWarning):
            solve_equilibrium(s, [LinearActivation(1.0)], [LinearActivation(1.0)])


def test_iteration_cap_stops_a_slow_contraction():
    # loop gain 0.99995**2: the existence conditions hold, so no warning,
    # but the steps shrink too slowly to settle within the cap
    s = two_neuron(a=1.0, b=1.0, coupling_xy=0.99995, coupling_yx=0.99995,
                   Lf=1.0, Lg=1.0, tau_x=0.1, tau_y=0.1,
                   sigma_x=0.1, sigma_y=0.1, I=1.0, J=1.0)
    with pytest.raises(DivergenceError, match=r"^no convergence within 10000 iterations ") as info:
        solve_equilibrium(s, [LinearActivation(1.0)], [LinearActivation(1.0)])
    assert abs(info.value.ratio - 0.99995) < 1e-6


def test_solver_deterministic():
    s = modulated_pair()
    f, g = [LinearActivation(1.0)], [LinearActivation(1.0)]
    eq1 = solve_equilibrium(s, f, g)
    eq2 = solve_equilibrium(s, f, g)
    assert eq1.x_star[0] == eq2.x_star[0]
    assert eq1.y_star[0] == eq2.y_star[0]
    assert eq1.iterations == eq2.iterations


def test_existence_report_on_worked_example():
    report = equilibrium_exists(modulated_pair())
    assert report.exists_unique
    spectral = next(c for c in report.conditions if c.index == 1)
    assert abs(spectral.value - 0.00263523) < 1e-6
    assert spectral.holds


def _count_existence_matrices(monkeypatch) -> list:
    calls = []
    build = equilibrium.build_existence_matrices
    monkeypatch.setattr(equilibrium, "build_existence_matrices",
                        lambda bam: calls.append(bam) or build(bam))
    return calls


@pytest.mark.parametrize("doc", ["two_neuron_sample.json", "bam_modulated.json"])
def test_equilibrium_command_evaluates_the_conditions_once(doc, inputs_dir, monkeypatch):
    calls = _count_existence_matrices(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["equilibrium", str(inputs_dir / doc)]) == 0
    assert len(calls) == 1


def test_solver_warns_from_the_report_it_is_given(monkeypatch):
    s = modulated_pair()
    f, g = [LinearActivation(1.0)], [LinearActivation(1.0)]
    holds = equilibrium_exists(s)
    fails = equilibrium.ExistenceReport(holds.conditions, False)
    calls = _count_existence_matrices(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_equilibrium(s, f, g, holds)
    with pytest.warns(RuntimeWarning, match="none of the existence conditions holds"):
        solve_equilibrium(s, f, g, fails)
    assert calls == []
    solve_equilibrium(s, f, g)   # without a report the solver evaluates its own
    assert len(calls) == 1


def test_solver_without_a_report_stops_at_the_first_condition_that_holds(monkeypatch):
    # the first condition, A's spectral radius, holds for modulated_pair: the
    # solver without a report evaluates that one, and B's radius never
    calls, radius = [], equilibrium.spectral_radius
    monkeypatch.setattr(equilibrium, "spectral_radius",
                        lambda mat: calls.append(mat) or radius(mat))
    linear = [LinearActivation(1.0)]
    s = modulated_pair()
    assert equilibrium_exists(s).conditions[0].holds and len(calls) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_equilibrium(s, linear, linear)
    assert len(calls) == 3
    # where none holds, it evaluates all eight and warns as the full report does
    s = two_neuron(a=0.5, b=0.5, coupling_xy=2.0, coupling_yx=2.0, Lf=1.0, Lg=1.0,
                   tau_x=0.1, tau_y=0.1, sigma_x=0.1, sigma_y=0.1, I=1.0, J=1.0)
    messages = []
    for report in (equilibrium_exists(s), None):
        with pytest.raises(DivergenceError), pytest.warns(RuntimeWarning) as record:
            solve_equilibrium(s, linear, linear, report)
        messages.append([str(w.message) for w in record])
    assert messages == [["none of the existence conditions holds; iterating with a "
                         "divergence guard"]] * 2
    assert len(calls) == 3 + 2 + 2


def test_existence_condition_whose_norm_overflows_does_not_hold(tmp_path):
    # |coupling_xy| * Lf / b overflows, so every norm of B does: those
    # conditions do not hold (value inf), and a bounds-only document then
    # exits 2, as when no condition holds; none of A's holds either
    spec = two_neuron(a=0.8, b=1e-10, coupling_xy=1e308, coupling_yx=1.0, Lf=0.5, Lg=0.2,
                      tau_x=0.5, tau_y=0.4, sigma_x=0.4, sigma_y=0.5)
    report = equilibrium_exists(spec)
    assert [c.value for c in report.conditions[4:]] == [np.inf] * 4
    assert report.conditions[3].value == np.inf and not report.exists_unique
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(serialize_spec(spec, scalars=True)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["equilibrium", str(path)]) == 2
    assert "error" not in err.getvalue() and "warning" not in err.getvalue()
