"""JSON document layer and the command-line interface."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from delaystab import (
    BamSpec,
    DocumentError,
    GeneralSystemSpec,
    LinearSystemSpec,
    document_sha256,
    parse_document,
    parse_file,
    serialize_spec,
    set_parameter,
)


# --- parsing ----------------------------------------------------------------

def test_general_bounds_only(inputs_dir):
    parsed = parse_file(str(inputs_dir / "general_sample.json"))
    assert parsed.kind == "general"
    assert parsed.concrete is None
    assert parsed.history is None
    assert isinstance(parsed.spec, GeneralSystemSpec)
    assert np.array_equal(parsed.spec.alpha, [1.0, 1.0, 1.0])
    assert len(parsed.sha256) == 64


def test_two_neuron_with_dynamics(inputs_dir, two_neuron_doc):
    parsed = parse_document(two_neuron_doc)
    assert parsed.kind == "two_neuron"
    assert isinstance(parsed.spec, BamSpec)
    # bounds are derived from the declared dynamics
    assert abs(parsed.spec.r_lo[0] - 1.0) < 1e-15
    assert abs(parsed.spec.p_hi[0] - 1.0) < 1e-15
    assert abs(parsed.spec.Lf[0] - 0.5) < 1e-15
    assert abs(parsed.spec.Lg[0] - 0.2) < 1e-15
    assert abs(parsed.spec.tau_x[0] - 0.5) < 1e-15
    assert abs(parsed.spec.tau_y[0] - 0.4) < 1e-15
    assert abs(parsed.spec.sigma_x[0] - 0.4) < 1e-15
    assert abs(parsed.spec.sigma_y[0] - 0.5) < 1e-15
    assert parsed.concrete is not None
    assert parsed.activations is not None
    assert np.array_equal(parsed.history, [1.0, 1.0])


def test_linear_with_dynamics(linear_doc):
    parsed = parse_document(linear_doc)
    assert isinstance(parsed.spec, LinearSystemSpec)
    assert np.array_equal(parsed.spec.alpha, [1.0, 1.0])
    assert np.array_equal(parsed.spec.A_off, [[0.0, 0.9], [0.9, 0.0]])
    assert parsed.spec.diagonal_delay_free
    assert parsed.concrete is not None


def test_parameter_reference_resolution(modulated_doc):
    parsed = parse_document(modulated_doc)
    assert parsed.parameters == {"mu": 0.0}
    # mu = 0 zeroes the oscillation amplitudes, so rate bounds collapse
    assert abs(parsed.spec.a[0] - 1.0) < 1e-15
    assert abs(parsed.spec.b[0] - 1.0) < 1e-15


def test_unknown_parameter_reference(modulated_doc):
    doc = copy.deepcopy(modulated_doc)
    doc["dynamics"]["rate_x"]["amp"] = "$nope"
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "nope" in str(exc.value)


def test_unknown_key_rejected(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    doc["spec"]["bogus"] = 1.0
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "bogus" in str(exc.value)


def test_missing_required_key(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    del doc["spec"]["a"]
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_unknown_kind():
    with pytest.raises(DocumentError) as exc:
        parse_document({"kind": "hopfield", "spec": {}})
    assert "hopfield" in str(exc.value)


def test_unknown_function_type(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    doc["dynamics"]["f"] = {"type": "relu", "k": 1.0}
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "relu" in str(exc.value)


def test_wrong_function_params(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    doc["dynamics"]["f"] = {"type": "tanh_scaled", "gain": 1.0}
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_history_required_with_dynamics(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    del doc["history"]
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "history" in str(exc.value)


def test_history_length_checked(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    doc["history"] = [1.0, 1.0, 1.0]
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_bounds_only_bam_document():
    doc = {"kind": "bam", "spec": {
        "a": [1.0, 1.2], "b": [0.9, 1.1],
        "a_conn": [[0.3, 0.1], [0.2, 0.4]],
        "b_conn": [[0.1, 0.2], [0.3, 0.1]],
        "Lf": [0.5, 0.5], "Lg": [1.0, 1.0],
        "r_lo": [1.0, 1.0], "r_hi": [1.0, 1.0],
        "p_lo": [1.0, 1.0], "p_hi": [1.0, 1.0],
        "tau_x": [0.1, 0.1], "tau_y": [0.2, 0.2],
        "sigma_x": [0.1, 0.1], "sigma_y": [0.2, 0.2]}}
    parsed = parse_document(doc)
    assert parsed.spec.a.shape == (2,)
    assert parsed.spec.a_conn.shape == (2, 2)
    assert parsed.concrete is None
    assert np.array_equal(parsed.spec.I, [0.0, 0.0])  # inputs default to zero


def test_rate_positivity_enforced(modulated_doc):
    doc = copy.deepcopy(modulated_doc)
    doc["parameters"]["mu"] = 25.0  # amp 25 on base 20: lower bound negative
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "positive" in str(exc.value)


def test_non_numeric_value(two_neuron_doc):
    doc = copy.deepcopy(two_neuron_doc)
    doc["spec"]["a"] = "fast"
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert "spec.a" in str(exc.value)


# --- parameter editing ------------------------------------------------------

def test_set_parameter_top_level(modulated_doc):
    out = set_parameter(modulated_doc, "parameters.mu", 5.0)
    assert out["parameters"]["mu"] == 5.0
    assert modulated_doc["parameters"]["mu"] == 0.0  # original untouched


def test_set_parameter_list_index(linear_doc):
    out = set_parameter(linear_doc, "dynamics.coefficients.0.1.value", 1.25)
    assert out["dynamics"]["coefficients"][0][1]["value"] == 1.25


def test_set_parameter_bad_path(linear_doc):
    with pytest.raises(DocumentError):
        set_parameter(linear_doc, "dynamics.nope.value", 1.0)
    with pytest.raises(DocumentError):
        set_parameter(linear_doc, "dynamics.coefficients.9.0.value", 1.0)
    with pytest.raises(DocumentError):
        # leaf is an object, not a number
        set_parameter(linear_doc, "dynamics.coefficients.0.1", 1.0)


def test_sha_stable_and_sensitive(two_neuron_doc):
    a = document_sha256(two_neuron_doc)
    b = document_sha256(copy.deepcopy(two_neuron_doc))
    assert a == b
    changed = set_parameter(two_neuron_doc, "spec.a", 0.81)
    assert document_sha256(changed) != a


def test_serialize_round_trip(two_neuron_doc, general_2x2, linear_2x2):
    bam = parse_document(two_neuron_doc).spec
    for spec in (bam, general_2x2, linear_2x2):
        again = parse_document(serialize_spec(spec)).spec
        assert again == spec


# --- command line -----------------------------------------------------------

def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "delaystab", *args],
        capture_output=True, text=True, env=env)


def test_cli_analyze_stable(inputs_dir):
    res = run_cli("analyze", str(inputs_dir / "two_neuron_sample.json"))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["command"] == "analyze"
    assert report["verdict"]["status"] == "stable_certified"
    assert report["verdict"]["stable"] is True
    assert report["input"]["kind"] == "two_neuron"
    assert "stable_certified" in res.stderr


def test_cli_analyze_specific_criterion(inputs_dir):
    res = run_cli("analyze", str(inputs_dir / "two_neuron_sample.json"),
                  "--criterion", "gopalsamy17")
    assert res.returncode == 2  # that particular test is inconclusive here
    report = json.loads(res.stdout)
    assert report["verdict"]["status"] == "inconclusive"
    assert report["verdict"]["criterion"] == "gopalsamy17"


def test_cli_analyze_unstable_exit(tmp_path, linear_doc):
    doc = set_parameter(linear_doc, "parameters.s", 1.1)
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    res = run_cli("analyze", str(path))
    assert res.returncode == 2
    assert json.loads(res.stdout)["verdict"]["stable"] is False


def test_cli_certify_rate(inputs_dir):
    res = run_cli("certify-rate", str(inputs_dir / "two_neuron_sample.json"))
    assert res.returncode == 0
    cert = json.loads(res.stdout)["certificate"]
    assert abs(cert["lambda0"] - 0.01646705508628224) < 1e-9
    assert cert["bracket_width"] < 1e-10


def test_cli_certify_rate_inconclusive(tmp_path, two_neuron_doc):
    # crank the coupling until the base test itself fails
    doc = set_parameter(two_neuron_doc, "spec.coupling_xy", 10.0)
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    res = run_cli("certify-rate", str(path))
    assert res.returncode == 2
    report = json.loads(res.stdout)
    assert report["certificate"] is None
    assert report["error"]


def test_cli_certify_rate_wrong_family(tmp_path, linear_doc):
    # the delay-free-diagonal family has no decay-rate certificate
    path = tmp_path / "lin.json"
    path.write_text(json.dumps(linear_doc))
    res = run_cli("certify-rate", str(path))
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_cli_equilibrium(inputs_dir):
    res = run_cli("equilibrium", str(inputs_dir / "bam_modulated.json"))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["existence"]["exists_unique"] is True
    eq = report["equilibrium"]
    assert abs(eq["x_star"][0] - 10027.847415607053) < 1e-5
    assert abs(eq["y_star"][0] - 20050.139237078034) < 1e-5


def test_cli_equilibrium_wrong_kind(inputs_dir):
    res = run_cli("equilibrium", str(inputs_dir / "linear_coupled.json"))
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_cli_simulate_csv(tmp_path, inputs_dir):
    out = tmp_path / "traj.csv"
    res = run_cli("simulate", str(inputs_dir / "two_neuron_sample.json"),
                  "--t-end", "10", "--record-every", "10",
                  "--out", str(out))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["simulation"]["steps"] == 1000
    assert report["simulation"]["recorded_points"] == 101
    lines = out.read_text().split("\n")
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 103  # header + 101 rows + trailing newline
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_cli_simulate_requires_dynamics(inputs_dir):
    res = run_cli("simulate", str(inputs_dir / "general_sample.json"),
                  "--t-end", "10")
    assert res.returncode == 1
    assert "dynamics" in res.stderr


def test_cli_sweep(inputs_dir):
    res = run_cli("sweep", str(inputs_dir / "linear_coupled.json"),
                  "--param", "parameters.s", "--values", "0.5,0.9,1.01,1.1")
    assert res.returncode == 2  # not every row is stable
    report = json.loads(res.stdout)
    stable = [row["status"] == "stable_certified" for row in report["rows"]]
    assert stable == [True, True, False, False]
    assert res.stderr.count("\n") >= 4


def test_cli_sweep_all_stable_exit_zero(inputs_dir):
    res = run_cli("sweep", str(inputs_dir / "linear_coupled.json"),
                  "--param", "parameters.s", "--values", "0.2,0.4")
    assert res.returncode == 0


def test_cli_sweep_threshold(inputs_dir):
    res = run_cli("sweep", str(inputs_dir / "bam_modulated.json"),
                  "--param", "parameters.mu", "--values", "0,18",
                  "--threshold-start", "18")
    assert res.returncode == 0
    thr = json.loads(res.stdout)["threshold"]
    assert thr["value"] > 18.0
    assert thr["bracket"][0] <= thr["value"] <= thr["bracket"][1]


def test_cli_sweep_bad_param(inputs_dir):
    res = run_cli("sweep", str(inputs_dir / "linear_coupled.json"),
                  "--param", "parameters.zeta", "--values", "0.5")
    assert res.returncode == 1


def test_cli_missing_file():
    res = run_cli("analyze", "/nonexistent/x.json")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert res.stdout == ""


def test_cli_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "general",')
    res = run_cli("analyze", str(path))
    assert res.returncode == 1
    assert "line" in res.stderr


def test_cli_usage_error_is_exit_one():
    res = run_cli("analyze")  # missing positional document
    assert res.returncode == 1


def test_cli_env_tolerance(inputs_dir):
    res = run_cli("analyze", str(inputs_dir / "general_sample.json"),
                  env_extra={"DELAYSTAB_TOL": "1e-9"})
    assert res.returncode == 0
    assert json.loads(res.stdout)["tolerance"] == 1e-9


def test_cli_flag_beats_env(inputs_dir):
    res = run_cli("analyze", str(inputs_dir / "general_sample.json"),
                  "--tol", "1e-6", env_extra={"DELAYSTAB_TOL": "1e-9"})
    assert json.loads(res.stdout)["tolerance"] == 1e-6


def test_cli_bad_env_tolerance(inputs_dir):
    res = run_cli("analyze", str(inputs_dir / "general_sample.json"),
                  env_extra={"DELAYSTAB_TOL": "banana"})
    assert res.returncode == 1
    assert "DELAYSTAB_TOL" in res.stderr


def test_cli_version():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "delaystab" in res.stdout


def test_lag_with_negative_amplitude_is_bounded_by_its_base(tmp_path, two_neuron_doc):
    two_neuron_doc["dynamics"]["leak_x"] = {"type": "shifted_abs_sin",
                                            "base": 0.5, "amp": -0.2}
    parsed = parse_document(two_neuron_doc)
    assert parsed.spec.tau_x[0] == 0.5
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(two_neuron_doc))
    res = run_cli("simulate", str(path), "--t-end", "2")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr


def test_lag_with_negative_minimum_is_rejected(tmp_path, two_neuron_doc):
    two_neuron_doc["dynamics"]["trans_y"] = {"type": "shifted_abs_cos",
                                             "base": -0.1, "amp": 0.5}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(two_neuron_doc))
    res = run_cli("analyze", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error: dynamics.trans_y:")
    assert "nonnegative" in res.stderr


@pytest.mark.parametrize("content", [None, '{"kind": "general",'])
def test_analyze_and_sweep_share_the_file_loader(tmp_path, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_text(content)
    analyze = run_cli("analyze", str(path))
    swept = run_cli("sweep", str(path), "--param", "spec.a", "--values", "1")
    assert analyze.returncode == swept.returncode == 1
    assert analyze.stderr.startswith("error:")
    assert analyze.stderr == swept.stderr
