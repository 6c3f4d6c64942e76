"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the toolkit and prints a
single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -s`` to
see the tally.  Expected values are frozen from independent computations
(exact rational arithmetic, numpy linear algebra, a symbolic step-by-step
integrator) — never from the code under test.
"""

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from delaystab import (
    GeneralConcrete,
    GeneralSystemSpec,
    SimConfig,
    bam_to_general,
    certify_decay_rate,
    comparison_matrix,
    equilibrium_exists,
    find_failure_threshold,
    fit_decay,
    is_m_matrix,
    parse_document,
    parse_file,
    point_parser,
    set_parameter,
    simulate,
    solve_equilibrium,
    stability_verdict,
    two_neuron_comparison,
)
from delaystab.criteria import test_matrix_at_rate as matrix_at_rate
from delaystab.systems import Constant

from conftest import random_bam, random_general
from oracles import leading_principal_minors

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


@contextlib.contextmanager
def tally(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


def load(name):
    return json.loads((INPUTS / name).read_text())


def test_1_worked_two_layer_network():
    with tally("criterion 1 (worked two-layer network)"):
        parsed = parse_file(str(INPUTS / "two_neuron_sample.json"))
        spec = parsed.spec

        per_unit, product = two_neuron_comparison(spec)
        sides = {c.name: c for c in per_unit.checks}
        assert abs(sides["unit_1_coupling"].lhs - 5.0 / 8.0) <= 1e-12
        assert abs(sides["unit_1_coupling"].rhs - 3.0 / 7.0) <= 1e-12
        assert not per_unit.stable
        sides = {c.name: c for c in product.checks}
        assert abs(sides["coupling_product"].lhs - 1.0 / 4.0) <= 1e-12
        assert abs(sides["coupling_product"].rhs - 2.0 / 7.0) <= 1e-12
        assert product.stable

        verdict = stability_verdict(spec, criterion="theorem1")
        assert verdict.status == "stable_certified"

        cert = certify_decay_rate(spec)
        traj = simulate(parsed.concrete, SimConfig(0.0, 100.0, 0.01))
        fit = fit_decay(traj, np.zeros(2))
        assert fit.lambda_hat >= cert.lambda0 - 0.005
        assert np.max(np.abs(traj.states[-1])) < 1e-2


def test_2_coupling_strength_dichotomy():
    with tally("criterion 2 (symmetric coupling dichotomy)"):
        doc = load("linear_coupled.json")
        for s in (0.9, 0.99, 1.01, 1.1):
            parsed = parse_document(set_parameter(doc, "parameters.s", s))
            verdict = stability_verdict(parsed.spec, criterion="cor7")
            assert verdict.stable == (s < 1.0), f"s={s}"

        # below the threshold the trajectory settles, above it it runs away
        quiet = parse_document(set_parameter(doc, "parameters.s", 0.9))
        traj = simulate(quiet.concrete, SimConfig(0.0, 100.0, 0.01))
        assert np.max(np.abs(traj.states[-1])) < 1e-2

        hot = parse_document(set_parameter(doc, "parameters.s", 1.1))
        traj = simulate(hot.concrete, SimConfig(0.0, 100.0, 0.01))
        x = np.abs(traj.states).max(axis=1)
        grew = (not np.all(np.isfinite(traj.states))) or x[-1] > 1e3 * x[0]
        assert grew


def test_3_modulation_depth_family():
    with tally("criterion 3 (modulation-depth family and threshold)"):
        doc = load("bam_modulated.json")
        for mu in (0.0, 5.0, 10.0, 15.0, 18.0):
            parsed = parse_document(set_parameter(doc, "parameters.mu", mu))
            closed = stability_verdict(parsed.spec, criterion="cor11")
            matrix = stability_verdict(parsed.spec, criterion="thm3")
            assert closed.stable and matrix.stable, f"mu={mu}"
            assert closed.stable == matrix.stable

        thr = find_failure_threshold(point_parser(doc, "parameters.mu"), start=18.0)
        assert thr.value > 18.0
        assert thr.bracket[0] <= thr.value <= thr.bracket[1]
        assert thr.bracket[1] - thr.bracket[0] < 1e-9
        assert abs(thr.value - 18.51559620545732) < 1e-6


def test_4_minor_test_vs_inverse_positivity():
    with tally("criterion 4 (minor test vs inverse positivity, 1000 draws)"):
        rng = np.random.default_rng(20260823)
        checked = borderline = screened = 0
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            a = -rng.uniform(0.0, 2.0, (m, m))
            np.fill_diagonal(a, rng.uniform(0.0, 3.0, m))
            report = is_m_matrix(a)

            try:
                inv_nonneg = bool((np.linalg.inv(a) >= -1e-9).all())
            except np.linalg.LinAlgError:
                inv_nonneg = False

            minors = leading_principal_minors(a)
            if np.min(np.abs(minors)) > 1e-8:
                checked += 1
                assert report.is_m_matrix == inv_nonneg, f"matrix {a!r}"
            else:
                borderline += 1

            screen = report.screen_passed
            if screen not in (None, "none"):
                screened += 1
                assert report.is_m_matrix, f"screen {screen} on non-M {a!r}"
        assert checked + borderline == 1000
        assert checked >= 990  # borderline draws are measure-zero rare
        assert screened >= 50


def test_5_rate_parametrized_matrix_family():
    with tally("criterion 5 (rate-parametrized test-matrix family)"):
        rng = np.random.default_rng(7521)
        stable_specs = []
        while len(stable_specs) < 100:
            spec = random_general(rng, coupling_scale=0.5)
            # rate-zero matrix must coincide with the base matrix exactly
            assert np.array_equal(matrix_at_rate(spec, 0.0), comparison_matrix(spec, "theorem1"))
            if stability_verdict(spec).stable:
                stable_specs.append(spec)
        for spec in stable_specs:
            cert = certify_decay_rate(spec)
            assert cert.lambda0 > 0.0
            assert is_m_matrix(matrix_at_rate(spec, cert.lambda0)).is_m_matrix
            assert cert.upper_failed
            beyond = cert.lambda0 + cert.bracket_width
            assert not is_m_matrix(matrix_at_rate(spec, beyond)).is_m_matrix


def test_6_forced_equilibrium():
    with tally("criterion 6 (forced equilibrium vs direct solve)"):
        parsed = parse_document(load("bam_modulated.json"))
        spec = parsed.spec
        act_f, act_g = parsed.concrete.activations

        report = equilibrium_exists(spec)
        assert report.exists_unique
        first = report.conditions[0]
        assert first.index == 1 and first.holds
        assert abs(first.value - 0.002635231) < 1e-6

        eq = solve_equilibrium(spec, act_f, act_g)
        # identity activations make the fixed point a 2x2 linear solve
        m = np.array([[spec.a[0], -spec.a_conn[0, 0]],
                      [-spec.b_conn[0, 0], spec.b[0]]])
        direct = np.linalg.solve(m, [spec.I[0], spec.J[0]])
        got = np.array([eq.x_star[0], eq.y_star[0]])
        assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-9
        assert abs(direct[0] - 10027.847415607053) < 1e-6


def test_7_integrator_order_against_symbolic_oracle():
    with tally("criterion 7 (integrator vs symbolic stepwise oracle)"):
        sp = pytest.importorskip("sympy")
        t = sp.symbols("t")
        # unit-delay negative feedback with unit history: on each interval
        # [k, k+1] the exact solution is a polynomial, built by integrating
        # the previous segment
        polys = []
        prev = sp.Integer(1)  # history value on [-1, 0]
        for k in range(6):
            rhs = -prev.subs(t, t - 1)
            start = polys[-1].subs(t, sp.Integer(k)) if polys else sp.Integer(1)
            poly = sp.expand(sp.integrate(rhs, (t, sp.Integer(k), t)) + start)
            polys.append(poly)
            prev = poly

        def oracle(tv):
            idx = min(5, max(0, int(math.floor(tv - 1e-15))))
            tq = sp.Rational(tv).limit_denominator(10**12)
            return float(polys[idx].subs(t, tq))

        spec = GeneralSystemSpec(alpha=[1.0], A=[1.0], tau=[1.0],
                                 sigma=[[0.0]], L=[[0.0]])
        system = GeneralConcrete(spec, [Constant(1.0)], [Constant(1.0)],
                                 [[None]], [[None]], [1.0])

        errors = {}
        for h in (0.02, 0.01):
            traj = simulate(system, SimConfig(0.0, 6.0, h))
            err = np.array([abs(traj.states[i, 0] - oracle(tv))
                            for i, tv in enumerate(traj.times)])
            errors[h] = err
            early = err[traj.times <= 2.0 + 1e-12]
            assert np.max(early) <= 1e-12  # polynomial segments, degree <= RK order
        ratio = np.max(errors[0.02]) / np.max(errors[0.01])
        assert ratio >= 12.0, f"order ratio {ratio}"


def test_8_two_layer_reduction_is_exact():
    with tally("criterion 8 (two-layer reduction exactness, 1000 draws)"):
        rng = np.random.default_rng(1888)
        for _ in range(1000):
            bam = random_bam(rng)
            merged = bam_to_general(bam)
            assert np.array_equal(comparison_matrix(bam, "thm3"), comparison_matrix(merged, "cor0"))
