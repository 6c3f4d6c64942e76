"""Parameter sweeps and the failure-threshold search."""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from delaystab import (DocumentError, certify_decay_rate, find_failure_threshold, point_parser,
                       stability_verdict)
from delaystab.cli import main

# the package re-exports the function `sweep`, which shadows the module name
sweep_module = importlib.import_module("delaystab.sweep")


def test_diverging_simulation_keeps_its_row(inputs_dir):
    res = subprocess.run(
        [sys.executable, "-m", "delaystab", "sweep", str(inputs_dir / "linear_coupled.json"),
         "--param", "parameters.s", "--values", "0.5,50", "--simulate", "--t-end", "20"],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    first, second = json.loads(res.stdout)["rows"]
    assert first["status"] == "stable_certified" and first["lambda_hat"] is not None
    assert second["value"] == 50.0
    assert second["status"] == "inconclusive"
    assert second["lambda_hat"] is None and second["error"] is None
    assert "RuntimeWarning" not in res.stderr


def test_library_warning_is_one_line_without_a_source_location(tmp_path, inputs_dir):
    # couplings of 9 meet none of the equilibrium existence conditions, so
    # solve_equilibrium warns at every point and in the equilibrium verb
    warning = ("warning: none of the existence conditions holds; "
               "iterating with a divergence guard")
    doc = json.loads((inputs_dir / "two_neuron_sample.json").read_text())
    doc["spec"].update(coupling_xy=9.0, coupling_yx=9.0)
    strong = tmp_path / "strong.json"
    strong.write_text(json.dumps(doc))
    for args in (["sweep", str(inputs_dir / "two_neuron_sample.json"), "--param",
                  "spec.coupling_xy", "--values", "9,10", "--simulate", "--t-end", "2"],
                 ["equilibrium", str(strong)]):
        res = subprocess.run([sys.executable, "-m", "delaystab", *args],
                             capture_output=True, text=True)
        assert res.returncode in (0, 2), res.stderr
        lines = res.stderr.splitlines()
        assert [line for line in lines if line.startswith("warning")] == [warning]
        assert ".py:" not in res.stderr and "RuntimeWarning" not in res.stderr


def test_unusable_simulation_step_gives_error_rows(inputs_dir):
    res = subprocess.run(
        [sys.executable, "-m", "delaystab", "sweep", str(inputs_dir / "bam_modulated.json"),
         "--param", "parameters.mu", "--values", "0,5", "--simulate", "--t-end", "1",
         "--step", "0.5"],
        capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    rows = json.loads(res.stdout)["rows"]
    assert [r["status"] for r in rows] == ["error", "error"]
    assert all("step size 0.5 too large" in r["error"] for r in rows)


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "inf"], "t_end must be finite, got inf"),
    (["--t-end", "1", "--step", "nan"], "step must be finite, got nan"),
])
def test_non_finite_simulation_times_give_error_rows(capsys, inputs_dir, flags, message):
    rc = main(["sweep", str(inputs_dir / "linear_coupled.json"), "--param", "parameters.s",
               "--values", "0.5", "--simulate", *flags])
    assert rc == 2
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["status"] == "error" and row["error"] == message


def test_grid_too_large_to_allocate_gives_an_error_row(capsys, inputs_dir):
    # 1e17 steps cannot be allocated at all, so this fails at once
    rc = main(["sweep", str(inputs_dir / "linear_coupled.json"), "--param", "parameters.s",
               "--values", "0.5", "--simulate", "--t-end", "1e15", "--step", "0.01"])
    assert rc == 2
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["status"] == "error"
    assert row["error"].startswith("cannot allocate the grid of 100000000000000000 steps")


def test_sweep_certifies_rows_at_a_tolerance_below_half_an_ulp(capsys, inputs_dir):
    rc = main(["sweep", str(inputs_dir / "bam_modulated.json"), "--param", "parameters.mu",
               "--values", "0,9", "--tol", "1e-17"])
    out, err = capsys.readouterr()
    assert rc == 0 and "warning:" not in err
    rows = json.loads(out)["rows"]
    assert [(r["status"], r["error"]) for r in rows] == [("stable_certified", None)] * 2
    assert all(r["lambda0"] > 0.0 for r in rows)


def test_sweep_row_observes_the_rate_that_simulate_reports(capsys, inputs_dir):
    # a two-layer document decays toward its solved equilibrium, not toward 0;
    # the document's own mu is 0
    path = str(inputs_dir / "bam_modulated.json")
    assert main(["simulate", path, "--t-end", "2"]) == 0
    want = json.loads(capsys.readouterr().out)["simulation"]["lambda_hat"]
    assert main(["sweep", path, "--param", "parameters.mu", "--values", "0",
                 "--simulate", "--t-end", "2"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert want is not None and row["lambda_hat"] == want


def test_threshold_search_propagates_programming_errors(monkeypatch, modulated_doc):
    def broken(spec, tag=None):
        raise ValueError("bug inside a criterion")

    monkeypatch.setattr(sweep_module, "comparison_matrix", broken)
    with pytest.raises(ValueError, match="bug inside a criterion"):
        find_failure_threshold(point_parser(modulated_doc, "parameters.mu"), start=0.0)


def test_sweep_propagates_programming_errors(monkeypatch, linear_doc):
    def broken(spec, tol=None, criterion=None):
        raise ValueError("bug inside a criterion")

    monkeypatch.setattr(sweep_module, "stability_verdict", broken)
    with pytest.raises(ValueError, match="bug inside a criterion"):
        sweep_module.sweep(point_parser(linear_doc, "parameters.s"), [0.5])


# value-independent errors: the parser raises them once, before any value
_BAD_DOCUMENTS = [
    ("parameters.zz", lambda doc: doc, "parameters.zz: no such field"),
    ("spec.alpha", lambda doc: doc, "spec.alpha: no such field"),
    ("parameters.s", lambda doc: dict(doc, kind="bogus"),
     "kind: expected one of general, linear, bam, two_neuron, got 'bogus'"),
    ("parameters.s", lambda doc: dict(doc, dynamics=dict(
        doc["dynamics"], coefficients=[
            [{"type": "constant", "value": -1.0}, {"type": "constant", "value": "$q"}],
            [{"type": "constant", "value": "$s"}, {"type": "constant", "value": -1.0}]])),
     "dynamics.coefficients[0][1].value: unknown parameter reference '$q'"),
]


@pytest.mark.parametrize("path, edit, message", _BAD_DOCUMENTS)
def test_sweep_gives_one_error_row_per_value_for_a_bad_document(linear_doc, path, edit,
                                                                message):
    # no rows at all: the error is raised once, with the text every row had
    with pytest.raises(DocumentError) as exc:
        point_parser(edit(linear_doc), path)
    assert str(exc.value) == message


def test_threshold_search_with_a_bad_path_rejects_the_start(linear_doc):
    # the path is rejected before the search can try its start
    with pytest.raises(DocumentError, match=r"^parameters\.zz: no such field$"):
        point_parser(linear_doc, "parameters.zz")


def _coupled_general():
    return {"kind": "general", "parameters": {"k": 0.1},
            "spec": {"alpha": [1.0, 1.0], "A": [1.2, 1.1], "tau": [0.1, 0.2],
                     "sigma": [[0.0, 0.3], [0.2, 0.0]], "L": [[0.0, "$k"], ["$k", 0.0]]}}


def test_sweep_reports_a_value_that_makes_the_spec_invalid():
    rows = sweep_module.sweep(point_parser(_coupled_general(), "parameters.k"),
                              [0.1, -0.5, float("nan")])
    assert rows[0].status == "stable_certified" and rows[0].criterion == "cor0"
    assert rows[0].lambda0 == 0.510621319193048
    assert [r.error for r in rows[1:]] == [
        "spec.L[0][1] must be >= 0 (got -0.5); spec.L[1][0] must be >= 0 (got -0.5)",
        "spec.L[0][1] must be finite (got nan); spec.L[1][0] must be finite (got nan)"]
    assert all(r.status == "error" and r.criterion is None for r in rows[1:])


def _delay_free_general():
    doc = _coupled_general()
    doc["spec"]["diagonal_delay_free"] = True
    return doc


@pytest.mark.parametrize("make, path, value, criterion, tag", [
    (_coupled_general, "parameters.k", 0.1, None, "cor0"),
    (_coupled_general, "parameters.k", 0.1, "theorem1", "theorem1"),
    (_coupled_general, "parameters.k", 0.1, "cor4", "cor4"),
    (_delay_free_general, "parameters.k", 0.1, None, "cor1"),
    (_delay_free_general, "parameters.k", 0.1, "cor5", "cor5"),
    ("modulated_doc", "parameters.mu", 9.0, None, "thm3"),
    ("two_neuron_doc", "spec.coupling_xy", 0.5, "cor11", "cor11"),
])
def test_certified_row_takes_rate_zero_from_its_verdict(request, monkeypatch, make, path, value,
                                                        criterion, tag):
    # these verdicts test Theorem 1's rate-0 matrix, the certificate's first
    # trial: a certified row runs that M-matrix test once, and its certificate
    # is the one `certify_decay_rate` finds on its own
    doc = request.getfixturevalue(make) if isinstance(make, str) else make()
    points = point_parser(doc, path)
    calls = []
    for module in ("linalg", "criteria"):
        target = importlib.import_module(f"delaystab.{module}")
        test = target.witness_test
        monkeypatch.setattr(target, "witness_test",
                            lambda *args, test=test: calls.append(1) or test(*args))
    (row,) = sweep_module.sweep(points, [value], criterion=criterion)
    in_row, calls[:] = len(calls), []
    assert row.status == "stable_certified" and row.criterion == tag
    verdict = stability_verdict(points(value).spec, criterion=criterion)
    alone = certify_decay_rate(points(value).spec)
    assert verdict.stable and in_row == len(calls) - 1
    spec = points(value).spec
    stability_verdict(spec, criterion=criterion)
    assert certify_decay_rate(spec) == alone and row.lambda0 == alone.lambda0


def test_threshold_search_doubles_its_stride():
    # the same spec ten times faster: 1.1 and 3.1 pass, 7.1 fails
    doc = _coupled_general()
    spec = doc["spec"]
    spec["alpha"] = [10.0 * v for v in spec["alpha"]]
    spec["A"] = [10.0 * v for v in spec["A"]]
    spec["tau"] = [v / 10.0 for v in spec["tau"]]
    spec["sigma"] = [[v / 10.0 for v in row] for row in spec["sigma"]]
    t = find_failure_threshold(point_parser(doc, "parameters.k"), start=0.1)
    assert t.bracket[0] == t.value == 6.891004896069715
    assert 3.1 < t.value < t.bracket[1] < 7.1
    assert t.evaluations == 14


def test_threshold_search_gives_up_after_its_expansions():
    doc = _coupled_general()
    doc["parameters"]["unused"] = 0.0
    # the largest value tried, 0.1 + 1 + 2 + ... + 2**59
    with pytest.raises(ValueError, match=r"^no failure found up to 1\.152921504606847e\+18 "
                                         r"after 60 expansions$"):
        find_failure_threshold(point_parser(doc, "parameters.unused"), start=0.1)


def test_threshold_search_counts_invalid_values_as_failures():
    t = find_failure_threshold(point_parser(_coupled_general(), "parameters.k"), start=0.1)
    assert (t.value, t.bracket, t.evaluations) == \
        (0.6891004896069715, (0.6891004896069715, 0.6891004896069716), 12)


def test_threshold_search_on_a_one_unit_network_uses_the_matrix_verdict(two_neuron_doc):
    # a one-unit-per-layer document is judged like any other, by the thm3
    # matrix that `analyze` auto-selects
    points = point_parser(two_neuron_doc, "spec.coupling_xy")
    t = find_failure_threshold(points, start=0.1)
    assert t.value == 1.142857142854857
    assert t.bracket == (1.142857142854857, 1.1428571428548573)
    assert t.evaluations == 13
    assert [stability_verdict(points(v).spec).criterion_used for v in t.bracket] == ["thm3"] * 2
    assert stability_verdict(points(t.value).spec).stable
    assert not stability_verdict(points(t.bracket[1]).spec).stable
    # Corollary 11 is the same matrix's M-matrix test, so it switches there too
    for v in t.bracket:
        spec = points(v).spec
        assert stability_verdict(spec, criterion="cor11").status == stability_verdict(spec).status


def _one_component_general(rng):
    # passes at k = 0 with room to spare; "$k" is the coupling or the delay
    alpha = rng.uniform(0.5, 2.0)
    upper = alpha * rng.uniform(1.0, 1.5)
    spec = {"alpha": [alpha], "A": [upper], "tau": [rng.uniform(0.0, 0.5) * alpha / upper**2],
            "sigma": [[rng.uniform(0.0, 0.5)]], "L": [[rng.uniform(0.0, 0.5) * alpha]]}
    if rng.uniform() < 0.5:
        spec["L"] = [["$k"]]
    else:
        spec["tau"] = ["$k"]
    return {"kind": "general", "parameters": {"k": 0.0}, "spec": spec}


def test_one_component_threshold_search_interpolates_on_the_pivot():
    # a 1x1 matrix is its one entry p; the search steers on p, not on its sign
    rng = np.random.default_rng(12)
    evaluations = []
    for _ in range(40):
        points = point_parser(_one_component_general(rng), "parameters.k")
        t = find_failure_threshold(points, start=0.0)
        assert stability_verdict(points(t.value).spec).stable
        assert not stability_verdict(points(t.bracket[1]).spec).stable
        evaluations.append(t.evaluations)
    assert np.median(evaluations) <= 20
