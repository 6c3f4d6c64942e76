"""Parameter sweeps and the failure-threshold search."""

import importlib
import json
import subprocess
import sys

import pytest

from delaystab import find_failure_threshold
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


def test_threshold_search_propagates_programming_errors(monkeypatch, modulated_doc):
    def broken(spec, tol=None, criterion=None):
        raise ValueError("bug inside a criterion")

    monkeypatch.setattr(sweep_module, "stability_verdict", broken)
    monkeypatch.setattr(sweep_module, "two_neuron_closed_form", broken)
    with pytest.raises(ValueError, match="bug inside a criterion"):
        find_failure_threshold(modulated_doc, "parameters.mu", start=0.0)


def test_sweep_propagates_programming_errors(monkeypatch, linear_doc):
    def broken(spec, tol=None, criterion=None):
        raise ValueError("bug inside a criterion")

    monkeypatch.setattr(sweep_module, "stability_verdict", broken)
    with pytest.raises(ValueError, match="bug inside a criterion"):
        sweep_module.sweep(linear_doc, "parameters.s", [0.5])
