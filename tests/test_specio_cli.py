"""JSON document layer and the command-line interface."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from delaystab import (
    BamSpec,
    DocumentError,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearSystemSpec,
    SimConfig,
    parse_document,
    parse_file,
    point_parser,
    resolve_parameters,
    set_parameter,
    simulate,
)
from delaystab.cli import main
from delaystab.systems import merged_bounds

from conftest import INPUTS, random_bam
from oracles import serialize_spec


# --- parsing ----------------------------------------------------------------

def test_general_bounds_only(inputs_dir):
    parsed = parse_file(str(inputs_dir / "general_sample.json"))
    assert parsed.kind == "general"
    assert parsed.concrete is None
    assert isinstance(parsed.spec, GeneralSystemSpec)
    assert np.array_equal(parsed.spec.alpha, [1.0, 1.0, 1.0])
    data = (inputs_dir / "general_sample.json").read_bytes()
    assert parsed.sha256 == hashlib.sha256(data).hexdigest()


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
    # the validated history is handed to the concrete system
    assert np.array_equal(parsed.concrete.history, [1.0, 1.0])


def test_linear_with_dynamics(linear_doc):
    parsed = parse_document(linear_doc)
    assert isinstance(parsed.spec, LinearSystemSpec)
    assert np.array_equal(parsed.spec.alpha, [1.0, 1.0])
    assert np.array_equal(parsed.spec.A_off, [[0.0, 0.9], [0.9, 0.0]])
    assert parsed.spec.diagonal_delay_free
    assert parsed.concrete is not None


def test_parameter_reference_resolution(modulated_doc):
    spec = parse_document(modulated_doc).spec
    # mu = 0 zeroes the oscillation amplitudes, so rate bounds collapse
    assert (spec.r_lo[0], spec.r_hi[0], spec.p_lo[0], spec.p_hi[0]) == (20.0, 20.0, 40.0, 40.0)
    modulated_doc["parameters"]["mu"] = 3.0
    spec = parse_document(modulated_doc).spec
    assert (spec.r_lo[0], spec.r_hi[0], spec.p_lo[0], spec.p_hi[0]) == (17.0, 23.0, 37.0, 43.0)


def test_resolve_parameters_returns_only_the_resolved_copy(modulated_doc):
    modulated_doc["parameters"]["mu"] = 3.5
    resolved = resolve_parameters(modulated_doc)
    assert isinstance(resolved, dict)
    assert resolved["dynamics"]["rate_x"]["amp"] == resolved["dynamics"]["rate_y"]["amp"] == 3.5
    assert resolved["parameters"] == {"mu": 3.5}
    assert modulated_doc["dynamics"]["rate_x"]["amp"] == "$mu"  # original untouched


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


@pytest.mark.parametrize("history, index, shown", [
    ("[NaN, 1.0]", 0, "nan"), ("[1.0, Infinity]", 1, "inf"), ("[1.0, -1e999]", 1, "-inf")])
def test_non_finite_history_is_a_document_error(tmp_path, two_neuron_doc, history, index, shown):
    # Python's json reads NaN, Infinity and overflowing literals as floats
    doc = dict(two_neuron_doc, history="HISTORY")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"HISTORY"', history))
    message = f"history[{index}]: expected a finite number, got {shown}"
    with pytest.raises(DocumentError, match=re.escape(message)):
        parse_file(str(path))
    res = run_cli("simulate", str(path), "--t-end", "1")
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")
    res = run_cli("sweep", str(path), "--param", "spec.a", "--values", "1",
                  "--simulate", "--t-end", "1")
    assert res.returncode == 2, res.stderr
    [row] = json.loads(res.stdout)["rows"]
    assert (row["status"], row["error"]) == ("error", message)


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


@pytest.mark.parametrize("field, index, value, message", [
    ("alpha", [1], True, "spec.alpha[1]: expected a number, got True"),
    ("L", [0, 1], "x", "spec.L[0][1]: expected a number, got 'x'"),
    ("L", [0, 1], "$x", "spec.L[0][1]: unknown parameter reference '$x'"),
    ("L", [1], [0.1, 0.1], "spec.L[1]: expected 3 entries to match spec.alpha, got 2"),
])
def test_diagnostic_names_the_entry(inputs_dir, field, index, value, message):
    doc = json.loads((inputs_dir / "general_sample.json").read_text())
    node = doc["spec"][field]
    for i in index[:-1]:
        node = node[i]
    node[index[-1]] = value
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == message


def test_reference_inside_numeric_list_resolves(inputs_dir):
    doc = json.loads((inputs_dir / "general_sample.json").read_text())
    doc["parameters"] = {"k": 0.05}
    doc["spec"]["tau"][1] = "$k"
    doc["spec"]["L"][2][0] = "$k"
    spec = parse_document(doc).spec
    assert spec.tau.tolist() == [0.1, 0.05, 0.1]
    assert spec.L[2].tolist() == [0.05, 0.15, 0.1]


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


@pytest.mark.parametrize("digit", ["²", "٣"], ids=["superscript_two", "arabic_indic_three"])
def test_parameter_path_indices_are_ascii_digits(tmp_path, digit):
    # str.isdigit() holds for both, but int() fails on "²" and reads "٣" as 3
    doc = {"kind": "general", "spec": {"alpha": [1.0] * 4, "A": [1.0] * 4, "tau": [0.1] * 4,
                                       "sigma": [[0.2] * 4] * 4, "L": [[0.1] * 4] * 4}}
    path = f"spec.alpha.{digit}"
    message = f"{path}: no such list index"
    with pytest.raises(DocumentError) as exc:
        set_parameter(doc, path, 0.5)
    assert str(exc.value) == message
    with pytest.raises(DocumentError) as exc:
        point_parser(doc, path)
    assert str(exc.value) == message
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    res = run_cli("sweep", str(file), "--param", path, "--values", "0.5")
    assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


def test_sha256_is_the_digest_of_the_bytes_read(tmp_path, two_neuron_doc):
    # the same document written two ways gets two digests, each that of its
    # bytes; a document given as a dict has none
    assert parse_document(two_neuron_doc).sha256 is None
    digests = set()
    for text in (json.dumps(two_neuron_doc), json.dumps(two_neuron_doc, indent=2)):
        path = tmp_path / "doc.json"
        path.write_text(text)
        parsed = parse_file(str(path))
        assert parsed.sha256 == hashlib.sha256(text.encode()).hexdigest()
        assert parsed.spec == parse_document(two_neuron_doc).spec
        digests.add(parsed.sha256)
    assert len(digests) == 2


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe{}", "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte)"),
    (b"\xef\xbb\xbf{}", "invalid JSON at line 1, column 1: "
                       "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
], ids=["utf16_bom", "utf8_bom"])
def test_a_file_that_is_not_utf8_json_names_its_path(tmp_path, data, message):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    message = f"{path}: {message}"
    with pytest.raises(DocumentError) as exc:
        parse_file(str(path))
    assert str(exc.value) == message
    for argv in (["analyze", str(path)],
                 ["sweep", str(path), "--param", "spec.a", "--values", "1"]):
        res = run_cli(*argv)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("verb, extra", [
    ("analyze", []), ("certify-rate", []), ("equilibrium", []),
    ("simulate", ["--t-end", "0.05"]),
    ("sweep", ["--param", "parameters.mu", "--values", "0,1"])])
def test_each_verb_opens_its_input_once(monkeypatch, capsys, inputs_dir, verb, extra):
    # the digest comes from the bytes the document was parsed from
    path = str(inputs_dir / "bam_modulated.json")
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main([verb, path, *extra]) == 0
    assert opened.count(path) == 1


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


@pytest.mark.parametrize("name", ["general_sample", "two_neuron_sample", "bam_modulated"])
def test_cli_certify_rate_at_a_tolerance_below_half_an_ulp(inputs_dir, name):
    # min(alpha) - 1e-17 rounds back to min(alpha), the pole of the rate
    # matrix; the top trial rate stays below it, so no division by zero
    path = str(inputs_dir / f"{name}.json")
    res = run_cli("certify-rate", path, "--tol", "1e-17")
    assert res.returncode == 0, res.stderr
    assert [line for line in res.stderr.splitlines() if line.startswith("warning:")] == []
    spec = parse_file(path).spec
    alpha = merged_bounds(spec)[0] if isinstance(spec, BamSpec) else spec.alpha
    assert 0.0 < json.loads(res.stdout)["certificate"]["lambda0"] < float(np.min(alpha))


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


@pytest.mark.parametrize("command", ["analyze", "certify-rate", "equilibrium"])
def test_cli_merged_bound_underflow_is_an_input_error(tmp_path, command):
    # a * r_lo underflows to 0: the spec is refused when built, by one error
    # line naming the product from its field's path, and no traceback
    spec = {"a": 1e-200, "b": 0.5, "coupling_xy": 1.0, "coupling_yx": 1.0, "Lf": 0.5,
            "Lg": 0.2, "r_lo": 1e-200, "r_hi": 1e-200, "p_lo": 1.0, "p_hi": 1.0,
            "tau_x": 0.5, "tau_y": 0.4, "sigma_x": 0.4, "sigma_y": 0.5}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"kind": "two_neuron", "spec": spec}))
    res = run_cli(command, str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "error: spec.a*r_lo underflows to 0; spec.a*r_hi underflows to 0\n"


@pytest.mark.parametrize("command, edits, code, lines", [
    ("certify-rate", [("sigma", 0, 1, 800.0)], 0, ["certified exponential decay rate 0.00353477 "]),
    ("certify-rate", [("sigma", 0, 1, 800.0), ("L", 0, 1, 0.0)], 0,
     ["certified exponential decay rate 0.433006 "]),
    ("analyze", [("A", 0, 1e200)], 2, ["warning: overflow encountered in multiply",
                                       "inconclusive via theorem1; violated: witness_margin"]),
    ("certify-rate", [("A", 0, 1e200)], 2, ["not certified stable: the rate-zero test matrix"]),
])
def test_cli_bounds_whose_test_matrix_overflows(inputs_dir, tmp_path, capsys,
                                               command, edits, code, lines):
    # valid bounds never end in an error: a rate trial or a test matrix with
    # an entry that overflows fails; the rate trials print no warning, and a
    # verdict shows numpy's, as a warning line of its own process would
    doc = json.loads((inputs_dir / "general_sample.json").read_text())
    for name, *at, value in edits:
        node = doc["spec"][name]
        for i in at[:-1]:
            node = node[i]
        node[at[-1]] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.resetwarnings()
        assert main([command, str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(lines)
    for line, want in zip(err, lines):
        assert line == want if want.startswith("warning: ") else line.startswith(f"{path}: {want}")


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


# at tol 1e-300 the per-unit form passes and the product form ties at margin 0
ROUNDING_TIE = {"a": 1.7612724989415074, "b": 1.9643441864735856,
                "coupling_xy": 1.2958832601530015, "coupling_yx": 1.157050909463833,
                "Lf": 1.3591289841444194, "Lg": 1.6977162978799651, "tau_x": 0, "tau_y": 0,
                "sigma_x": 0.1, "sigma_y": 0.1, "r_lo": 1, "r_hi": 1, "p_lo": 1, "p_hi": 1}


@pytest.mark.parametrize("argv", [
    ["analyze", "--criterion", "gopalsamy17"],
    ["analyze", "--criterion", "criterion18"],
    ["sweep", "--param", "spec.sigma_x", "--values", "0.1", "--criterion", "criterion18"],
], ids=["gopalsamy17", "criterion18", "sweep"])
def test_cli_scalar_criteria_rounding_tie_is_an_error(capsys, tmp_path, argv):
    # a rounding inconsistency between the two scalar forms: one error line,
    # no traceback
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"kind": "two_neuron", "spec": ROUNDING_TIE}))
    rc = main([argv[0], str(path), *argv[1:], "--tol", "1e-300"])
    assert (rc, *capsys.readouterr()) == (
        1, "", "error: per-unit criterion passed but the product form did not "
               "(margin 0.000e+00); rounding exceeds the tolerance\n")


_NO_BOUNDS = {key: [] for key in ("b", "a_conn", "b_conn", "Lf", "Lg", "r_lo", "r_hi",
                                  "p_lo", "p_hi", "tau_x", "tau_y", "sigma_x", "sigma_y")}


@pytest.mark.parametrize("doc, message", [
    ({"kind": "general", "spec": {"alpha": [], "A": [], "tau": [], "sigma": [], "L": []}},
     "spec.alpha must be a nonempty vector"),
    ({"kind": "general", "spec": {}, "history": [],
      "dynamics": {"coefficients": [], "leak_lags": [], "coupling_lags": [], "couplings": []}},
     "dynamics.coefficients: expected a nonempty list of function objects"),
    ({"kind": "linear", "spec": {}, "history": [], "dynamics": {"coefficients": [], "lags": []}},
     "dynamics.coefficients: expected a nonempty matrix of function objects"),
    ({"kind": "bam", "spec": dict(_NO_BOUNDS, a=[])}, "spec.a must be a nonempty vector"),
], ids=["general", "general_dynamics", "linear_dynamics", "bam"])
def test_cli_empty_spec_names_a_path_the_document_has(capsys, tmp_path, doc, message):
    # a dynamics document has no spec.alpha: its empty list is named instead
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    rc = main(["analyze", str(path)])
    assert (rc, *capsys.readouterr()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--t-end", "inf"], "t_end must be finite, got inf"),
    (["--t-end", "nan"], "t_end must be finite, got nan"),
    (["--t-end", "1", "--t0", "nan"], "t0 must be finite, got nan"),
    (["--t-end", "1", "--step", "nan"], "step must be finite, got nan"),
    # 1 / 1e-320 steps overflow to inf
    (["--t-end", "1", "--step", "1e-320"], "step_count must be finite, got inf"),
])
def test_cli_simulate_rejects_non_finite_times(capsys, inputs_dir, flags, message):
    rc = main(["simulate", str(inputs_dir / "two_neuron_sample.json"), *flags])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("t_end, steps", [("1e15", "100000000000000000"),
                                          ("1e18", "100000000000000000000")])
def test_cli_simulate_reports_a_grid_too_large_to_allocate(capsys, inputs_dir, t_end, steps):
    # 1e17 steps cannot be allocated at all, so this fails at once; numpy
    # refuses 1e20 as larger than any array, not as out of memory
    rc = main(["simulate", str(inputs_dir / "two_neuron_sample.json"),
               "--t-end", t_end, "--step", "0.01"])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: cannot allocate the grid of {steps} steps")
    assert err.count("\n") == 1


def test_cli_default_step_too_small_to_count_is_an_error(capsys, tmp_path, two_neuron_doc):
    # a lag bound of 1e-320 caps the default step at 1e-321
    message = "error: step_count must be finite, got inf\n"
    two_neuron_doc["dynamics"]["leak_x"] = {"type": "constant", "value": 1e-320}
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(two_neuron_doc))
    rc = main(["simulate", str(path), "--t-end", "1"])
    assert (rc, *capsys.readouterr()) == (1, "", message)
    rc = main(["sweep", str(path), "--param", "spec.a", "--values", "0.8",
               "--simulate", "--t-end", "1"])
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert rc == 2
    assert (row["status"], row["error"]) == ("error", message[len("error: "):-1])


@pytest.mark.parametrize("depth", [500, 100_000])
def test_cli_deeply_nested_document_is_an_error(tmp_path, two_neuron_doc, depth):
    # deep enough to exhaust the recursion limit in the parameter walk or the
    # copy (500) and in the JSON decoder itself (100,000)
    text = json.dumps(dict(two_neuron_doc, history=None))
    path = tmp_path / "deep.json"
    path.write_text(text.replace('"history": null', '"history": ' + "[" * depth + "1"
                                 + "]" * depth))
    for argv in (["analyze", str(path)],
                 ["sweep", str(path), "--param", "spec.a", "--values", "1"]):
        res = run_cli(*argv)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "nests too deeply" in res.stderr and "Traceback" not in res.stderr


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


@pytest.mark.parametrize("edit", [
    lambda doc: dict(doc, extra=1),
    lambda doc: dict(doc, kind="nonlinear"),
    lambda doc: dict(doc, history=[1.0, "$q"]),
    lambda doc: dict(doc, parameters={"s": 0.9, "t": "x"}),
], ids=["root_key", "kind", "reference", "other_parameter"])
def test_cli_sweep_of_a_malformed_document_is_exit_one(tmp_path, linear_doc, edit):
    # malformed whatever the swept value: one error line, as analyze gives
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(edit(linear_doc)))
    analyze = run_cli("analyze", str(path))
    assert analyze.returncode == 1 and analyze.stderr.startswith("error: ")
    for extra in ([], ["--threshold-start", "0.1"]):
        res = run_cli("sweep", str(path), "--param", "parameters.s", "--values", "0.5,2",
                      *extra)
        assert (res.returncode, res.stdout, res.stderr) == (1, "", analyze.stderr)


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



def _constant(value):
    return {"type": "constant", "value": value}


def _delay_free_doc(kind: str) -> dict:
    # a delay-free diagonal with one diagonal lag of bound 0.1
    if kind == "linear":
        dynamics = {"coefficients": [[_constant(-1.0), _constant("$s")],
                                     [_constant("$s"), _constant(-1.0)]],
                    "lags": [[_constant(0.1), None], [None, None]]}
    else:
        dynamics = {"coefficients": [_constant(1.0), _constant(1.0)],
                    "leak_lags": [_constant(0.1), None],
                    "coupling_lags": [[None, None], [None, None]],
                    "couplings": [[None, {"type": "linear", "k": "$s"}], [None, None]]}
    return {"kind": kind, "parameters": {"s": 0.5}, "spec": {"diagonal_delay_free": True},
            "dynamics": dynamics, "history": [1.0, 1.0]}


@pytest.mark.parametrize("kind, path", [("linear", "dynamics.lags[0][0]"),
                                        ("general", "dynamics.leak_lags[0]")])
def test_delay_free_rule_names_the_document_path(capsys, tmp_path, kind, path):
    message = f"{path}: lag must be zero for a delay-free diagonal (bound 0.1)"
    doc = _delay_free_doc(kind)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", str(file)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(DocumentError) as exc:
        point_parser(doc, "parameters.s")(0.25)
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", ["linear", "general"])
def test_delay_free_lag_below_the_rule_runs_as_a_zero_lag(kind):
    # a delay-free diagonal declares the bound 0, so diagonal lags of 1e-13,
    # under the rule's 1e-12, leave the default step at 0.01 and every bit of
    # the run as lags of 0 give
    runs = []
    for value in (1e-13, 0.0):
        doc = _delay_free_doc(kind)
        if kind == "linear":
            doc["dynamics"]["lags"][0][0] = doc["dynamics"]["lags"][1][1] = _constant(value)
        else:
            doc["dynamics"]["leak_lags"] = [_constant(value), _constant(value)]
        runs.append(simulate(parse_document(doc).concrete, SimConfig(0.0, 1.0)))
    tiny, zero = runs
    assert tiny.meta == zero.meta and tiny.meta["h"] == 0.01
    assert tiny.states.tobytes() == zero.states.tobytes()


def _general_dynamics_doc() -> dict:
    return {"kind": "general", "spec": {},
            "dynamics": {"coefficients": [_constant(1.0), _constant(1.0)],
                         "leak_lags": [_constant(0.1), None],
                         "coupling_lags": [[None, _constant(0.2)], [None, None]],
                         "couplings": [[None, {"type": "linear", "k": 0.5}], [None, None]]},
            "history": [1.0, 1.0]}


_HUGE = {"base": 1e308, "amp": 1e308}


@pytest.mark.parametrize("kind, keys, node, message", [
    ("general", ("coefficients", 0), {"type": "sinusoid", "base": math.inf, "amp": 0.1},
     "dynamics.coefficients[0].base: expected a finite number, got inf"),
    ("general", ("leak_lags", 0), _constant(math.nan),
     "dynamics.leak_lags[0].value: expected a finite number, got nan"),
    ("general", ("couplings", 0, 0), {"type": "linear", "k": math.inf},
     "dynamics.couplings[0][0].k: expected a finite number, got inf"),
    ("two_neuron", ("trans_x",), {"type": "sin_squared", "amp": math.nan},
     "dynamics.trans_x.amp: expected a finite number, got nan"),
    ("general", ("leak_lags", 0), dict(_HUGE, type="shifted_abs_sin"),
     "dynamics.leak_lags[0]: bound overflows to inf"),
    ("general", ("coefficients", 0), dict(_HUGE, type="sinusoid", base=1.7e308),
     "dynamics.coefficients[0]: upper overflows to inf"),
    ("two_neuron", ("rate_x",), dict(_HUGE, type="cosinusoid", base=1.7e308),
     "dynamics.rate_x: upper overflows to inf"),
    ("two_neuron", ("trans_x",), dict(_HUGE, type="shifted_abs_cos"),
     "dynamics.trans_x: bound overflows to inf"),
], ids=["coefficient-base", "leak-lag-value", "coupling-k", "two-neuron-trans-x-amp",
        "leak-lag-bound-overflow", "coefficient-upper-overflow",
        "two-neuron-rate-x-upper-overflow", "two-neuron-trans-x-bound-overflow"])
def test_non_finite_catalog_parameter_is_named_by_its_path(capsys, tmp_path, two_neuron_doc,
                                                           kind, keys, node, message):
    # Python's json reads NaN and Infinity; the spec fields derived from the
    # parameter, or from a range or bound that overflows, are not in the
    # document, so the parameter or the function itself is named
    doc = two_neuron_doc if kind == "two_neuron" else _general_dynamics_doc()
    parent = doc["dynamics"]
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = node
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == message
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", str(file)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc, path", [
    ({"kind": "general", "spec": {"alpha": [10**400, 1.0], "A": [2.0, 2.0], "tau": [0.1, 0.1],
                                  "sigma": [[0.0, 0.1], [0.1, 0.0]],
                                  "L": [[0.0, 0.1], [0.1, 0.0]]}}, "spec.alpha[0]"),
    ({"kind": "two_neuron", "parameters": {"mu": 10**400}, "spec": {
        "a": "$mu", "b": 0.5, "coupling_xy": 1.0, "coupling_yx": 1.0, "Lf": 0.5, "Lg": 0.2,
        "r_lo": 1.0, "r_hi": 1.0, "p_lo": 1.0, "p_hi": 1.0, "tau_x": 0.5, "tau_y": 0.4,
        "sigma_x": 0.4, "sigma_y": 0.5}}, "parameters.mu"),
], ids=["spec-entry", "parameter"])
def test_cli_integer_beyond_float_range_is_an_input_error(capsys, tmp_path, doc, path):
    # float() of such an int raises OverflowError; it is named like a non-finite history
    message = f"{path}: expected a finite number, got 100000000000000000...0000000000000000000"
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    for verb in ("analyze", "certify-rate", "equilibrium"):
        assert main([verb, str(file)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("kind, changes, message", [
    ("general", {"alpha": [math.inf, 1.0, 1.0]}, "spec.alpha[0] must be finite (got inf)"),
    ("general", {"alpha": [0.0, 1.0, 1.0]}, "spec.alpha[0] must be > 0 (got 0.0)"),
    ("bam", {"r_lo": [1.0, 1.0], "r_hi": [1.0, 0.5]},
     "spec.r_lo[1] must be <= its upper partner (got 1.0 > 0.5)"),
    ("two_neuron", {"tau_x": -0.1, "coupling_xy": math.inf},
     "spec.tau_x must be >= 0 (got -0.1); spec.coupling_xy must be finite (got inf)"),
], ids=["general-infinite", "general-zero", "bam-partner", "two-neuron-scalars"])
def test_cli_spec_rule_names_the_entry_the_document_has(capsys, tmp_path, inputs_dir,
                                                        kind, changes, message):
    # entries count from 0, as the document's lists do, a non-finite entry is
    # named once although it breaks two rules, and a two_neuron document's
    # scalars are named without an index, the couplings by their own names
    docs = {"general": json.loads((inputs_dir / "general_sample.json").read_text()),
            "bam": serialize_spec(random_bam(np.random.default_rng(1), n=2)),
            "two_neuron": {"kind": "two_neuron", "spec": dict(ROUNDING_TIE)}}
    doc = docs[kind]
    doc["spec"].update(changes)
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", str(file)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _blow_up_doc() -> dict:
    # x1 and x2 drive each other with gain 1e300, so the state overflows in
    # the first step, and x3 reads x1 through k sin(u)
    linear = {"type": "linear", "k": 1e300}
    return {"kind": "general", "spec": {},
            "dynamics": {"coefficients": [_constant(0.1), _constant(0.1), _constant(1.0)],
                         "leak_lags": [None] * 3, "coupling_lags": [[None] * 3] * 3,
                         "couplings": [[None, linear, None], [linear, None, None],
                                       [{"type": "sin_scaled", "k": 1.0}, None, None]]},
            "history": [1.0, 1.0, 0.0]}


def test_cli_blow_up_through_a_sine_coupling_is_a_failed_integration(capsys, tmp_path):
    # sin of an infinite stage value is NaN, not math's ValueError, so the
    # step's finiteness check reports the blow-up
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(_blow_up_doc()))
    assert main(["simulate", str(file), "--t-end", "5"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["simulation"] == {"error": "state became non-finite at t=0.01",
                                             "failed_at": 0.01}
    assert err == f"{file}: integration failed: state became non-finite at t=0.01\n"
    main(["sweep", str(file), "--param", "dynamics.couplings.2.0.k", "--values", "1",
          "--simulate", "--t-end", "5"])
    row, = json.loads(capsys.readouterr().out)["rows"]
    assert (row["lambda_hat"], row["error"]) == (None, None)


def _nested(depth: int):
    return 1.0 if depth == 0 else [_nested(depth - 1)]


@pytest.mark.parametrize("where, value, shown", [
    (("dynamics", "f", "k"), [0.5] * 100_000, "dynamics.f.k"),
    (("dynamics", "f", "k"), _nested(480), "dynamics.f.k"),
    (("dynamics", "f", "type"), [0.5] * 100_000, "dynamics.f.type"),
    (("kind",), [0.5] * 100_000, "kind"),
    # an unknown key is named by its first 40 characters and its length
    (("spec", "k" * 500_000), 1.0, "spec." + "k" * 40 + "... (500000 characters)"),
    (("spec", "k" * 500_000), "$nope", "spec." + "k" * 40 + "... (500000 characters)"),
    # and so is an unknown reference name
    (("spec", "a"), "$" + "q" * 500_000, "spec.a"),
], ids=["k-100000-numbers", "k-480-deep", "type-100000-numbers", "kind-100000-numbers",
        "key-500000-chars", "reference-key-500000-chars", "reference-name-500000-chars"])
def test_error_line_stays_short_whatever_the_value(tmp_path, two_neuron_doc, where, value,
                                                    shown):
    node = two_neuron_doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(two_neuron_doc))
    res = run_cli("analyze", str(path))
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith(f"error: {shown}: ")
    assert res.stderr.count("\n") == 1 and len(res.stderr.encode()) < 200


# --- one spec layout per kind ------------------------------------------------

def _frozen_doc(kind: str, style: str) -> dict:
    # one document per kind and style, each giving every spec field its kind
    # reads in that style; bam has n = 2
    linear = {"type": "linear", "k": 0.5}
    bam_dynamics = {"rate_x": [_constant(1.0)] * 2, "rate_y": [_constant(1.0)] * 2,
                    "leak_x": [_constant(0.1)] * 2, "leak_y": [_constant(0.1)] * 2,
                    "trans_x": [_constant(0.2)] * 2, "trans_y": [_constant(0.2)] * 2,
                    "f": [linear] * 2, "g": [linear] * 2}
    docs = {
        ("general", "bounds"): {"kind": "general", "spec": {
            "alpha": [1.0, 1.0], "A": [1.2, 1.2], "tau": [0.1, 0.1],
            "sigma": [[0.1, 0.2], [0.2, 0.1]], "L": [[0.1, 0.2], [0.2, 0.1]],
            "diagonal_delay_free": False}},
        ("general", "dynamics"): dict(_general_dynamics_doc(),
                                      spec={"diagonal_delay_free": False}),
        ("linear", "bounds"): {"kind": "linear", "spec": {
            "alpha": [1.0, 1.0], "A": [1.2, 1.2], "A_off": [[0.0, 0.3], [0.3, 0.0]],
            "sigma": [[0.0, 0.2], [0.2, 0.0]], "diagonal_delay_free": True}},
        ("linear", "dynamics"): json.loads((INPUTS / "linear_coupled.json").read_text()),
        ("bam", "bounds"): {"kind": "bam", "spec": {
            "a": [1.0, 1.2], "b": [0.9, 1.1], "a_conn": [[0.3, 0.1], [0.2, 0.4]],
            "b_conn": [[0.1, 0.2], [0.3, 0.1]], "Lf": [0.5, 0.5], "Lg": [1.0, 1.0],
            "r_lo": [1.0, 1.0], "r_hi": [1.0, 1.0], "p_lo": [1.0, 1.0], "p_hi": [1.0, 1.0],
            "tau_x": [0.1, 0.1], "tau_y": [0.2, 0.2], "sigma_x": [0.1, 0.1],
            "sigma_y": [0.2, 0.2], "I": [0.5, 0.0], "J": [0.0, 0.5]}},
        ("bam", "dynamics"): {"kind": "bam", "spec": {
            "a": [1.0, 1.2], "b": [0.9, 1.1], "a_conn": [[0.3, 0.1], [0.2, 0.4]],
            "b_conn": [[0.1, 0.2], [0.3, 0.1]], "I": [0.5, 0.0], "J": [0.0, 0.5]},
            "dynamics": bam_dynamics, "history": [1.0, 1.0, 1.0, 1.0]},
        ("two_neuron", "bounds"): {"kind": "two_neuron", "spec": {
            "a": 1.0, "b": 0.9, "coupling_xy": 0.3, "coupling_yx": 0.2, "Lf": 0.5,
            "Lg": 1.0, "r_lo": 1.0, "r_hi": 1.0, "p_lo": 1.0, "p_hi": 1.0, "tau_x": 0.1,
            "tau_y": 0.2, "sigma_x": 0.1, "sigma_y": 0.2, "I": 0.5, "J": -0.5}},
        ("two_neuron", "dynamics"): json.loads((INPUTS / "two_neuron_sample.json").read_text()),
    }
    return copy.deepcopy(docs[kind, style])


# the error line of each edit of one spec field: the field removed, set to
# "x", or (a list) with its last entry dropped; None where the document still
# parses, with zero inputs or diagonal_delay_free false
_FIELD_EDIT_MESSAGES = {
    'general-bounds-alpha-removed': "spec: missing required field 'alpha'",
    'general-bounds-alpha-x': 'spec.alpha: expected a list of numbers, got str',
    'general-bounds-alpha-dropped': 'spec.A: expected 1 entries to match spec.alpha, got 2',
    'general-bounds-A-removed': "spec: missing required field 'A'",
    'general-bounds-A-x': 'spec.A: expected a list of numbers, got str',
    'general-bounds-A-dropped': 'spec.A: expected 2 entries to match spec.alpha, got 1',
    'general-bounds-tau-removed': "spec: missing required field 'tau'",
    'general-bounds-tau-x': 'spec.tau: expected a list of numbers, got str',
    'general-bounds-tau-dropped': 'spec.tau: expected 2 entries to match spec.alpha, got 1',
    'general-bounds-sigma-removed': "spec: missing required field 'sigma'",
    'general-bounds-sigma-x': 'spec.sigma: expected a 2x2 matrix to match spec.alpha',
    'general-bounds-sigma-dropped': 'spec.sigma: expected a 2x2 matrix to match spec.alpha',
    'general-bounds-L-removed': "spec: missing required field 'L'",
    'general-bounds-L-x': 'spec.L: expected a 2x2 matrix to match spec.alpha',
    'general-bounds-L-dropped': 'spec.L: expected a 2x2 matrix to match spec.alpha',
    'general-bounds-diagonal_delay_free-removed': None,
    'general-bounds-diagonal_delay_free-x': 'spec.diagonal_delay_free: expected true or false',
    'general-dynamics-diagonal_delay_free-removed': None,
    'general-dynamics-diagonal_delay_free-x': 'spec.diagonal_delay_free: expected true or false',
    'linear-bounds-alpha-removed': "spec: missing required field 'alpha'",
    'linear-bounds-alpha-x': 'spec.alpha: expected a list of numbers, got str',
    'linear-bounds-alpha-dropped': 'spec.A: expected 1 entries to match spec.alpha, got 2',
    'linear-bounds-A-removed': "spec: missing required field 'A'",
    'linear-bounds-A-x': 'spec.A: expected a list of numbers, got str',
    'linear-bounds-A-dropped': 'spec.A: expected 2 entries to match spec.alpha, got 1',
    'linear-bounds-A_off-removed': "spec: missing required field 'A_off'",
    'linear-bounds-A_off-x': 'spec.A_off: expected a 2x2 matrix to match spec.alpha',
    'linear-bounds-A_off-dropped': 'spec.A_off: expected a 2x2 matrix to match spec.alpha',
    'linear-bounds-sigma-removed': "spec: missing required field 'sigma'",
    'linear-bounds-sigma-x': 'spec.sigma: expected a 2x2 matrix to match spec.alpha',
    'linear-bounds-sigma-dropped': 'spec.sigma: expected a 2x2 matrix to match spec.alpha',
    'linear-bounds-diagonal_delay_free-removed': None,
    'linear-bounds-diagonal_delay_free-x': 'spec.diagonal_delay_free: expected true or false',
    'linear-dynamics-diagonal_delay_free-removed': None,
    'linear-dynamics-diagonal_delay_free-x': 'spec.diagonal_delay_free: expected true or false',
    'bam-bounds-a-removed': "spec: missing required field 'a'",
    'bam-bounds-a-x': 'spec.a: expected a list of numbers, got str',
    'bam-bounds-a-dropped': 'spec.b: expected 1 entries to match spec.a, got 2',
    'bam-bounds-b-removed': "spec: missing required field 'b'",
    'bam-bounds-b-x': 'spec.b: expected a list of numbers, got str',
    'bam-bounds-b-dropped': 'spec.b: expected 2 entries to match spec.a, got 1',
    'bam-bounds-a_conn-removed': "spec: missing required field 'a_conn'",
    'bam-bounds-a_conn-x': 'spec.a_conn: expected a 2x2 matrix to match spec.a',
    'bam-bounds-a_conn-dropped': 'spec.a_conn: expected a 2x2 matrix to match spec.a',
    'bam-bounds-b_conn-removed': "spec: missing required field 'b_conn'",
    'bam-bounds-b_conn-x': 'spec.b_conn: expected a 2x2 matrix to match spec.a',
    'bam-bounds-b_conn-dropped': 'spec.b_conn: expected a 2x2 matrix to match spec.a',
    'bam-bounds-Lf-removed': "spec: missing required field 'Lf'",
    'bam-bounds-Lf-x': 'spec.Lf: expected a list of numbers, got str',
    'bam-bounds-Lf-dropped': 'spec.Lf: expected 2 entries to match spec.a, got 1',
    'bam-bounds-Lg-removed': "spec: missing required field 'Lg'",
    'bam-bounds-Lg-x': 'spec.Lg: expected a list of numbers, got str',
    'bam-bounds-Lg-dropped': 'spec.Lg: expected 2 entries to match spec.a, got 1',
    'bam-bounds-r_lo-removed': "spec: missing required field 'r_lo'",
    'bam-bounds-r_lo-x': 'spec.r_lo: expected a list of numbers, got str',
    'bam-bounds-r_lo-dropped': 'spec.r_lo: expected 2 entries to match spec.a, got 1',
    'bam-bounds-r_hi-removed': "spec: missing required field 'r_hi'",
    'bam-bounds-r_hi-x': 'spec.r_hi: expected a list of numbers, got str',
    'bam-bounds-r_hi-dropped': 'spec.r_hi: expected 2 entries to match spec.a, got 1',
    'bam-bounds-p_lo-removed': "spec: missing required field 'p_lo'",
    'bam-bounds-p_lo-x': 'spec.p_lo: expected a list of numbers, got str',
    'bam-bounds-p_lo-dropped': 'spec.p_lo: expected 2 entries to match spec.a, got 1',
    'bam-bounds-p_hi-removed': "spec: missing required field 'p_hi'",
    'bam-bounds-p_hi-x': 'spec.p_hi: expected a list of numbers, got str',
    'bam-bounds-p_hi-dropped': 'spec.p_hi: expected 2 entries to match spec.a, got 1',
    'bam-bounds-tau_x-removed': "spec: missing required field 'tau_x'",
    'bam-bounds-tau_x-x': 'spec.tau_x: expected a list of numbers, got str',
    'bam-bounds-tau_x-dropped': 'spec.tau_x: expected 2 entries to match spec.a, got 1',
    'bam-bounds-tau_y-removed': "spec: missing required field 'tau_y'",
    'bam-bounds-tau_y-x': 'spec.tau_y: expected a list of numbers, got str',
    'bam-bounds-tau_y-dropped': 'spec.tau_y: expected 2 entries to match spec.a, got 1',
    'bam-bounds-sigma_x-removed': "spec: missing required field 'sigma_x'",
    'bam-bounds-sigma_x-x': 'spec.sigma_x: expected a list of numbers, got str',
    'bam-bounds-sigma_x-dropped': 'spec.sigma_x: expected 2 entries to match spec.a, got 1',
    'bam-bounds-sigma_y-removed': "spec: missing required field 'sigma_y'",
    'bam-bounds-sigma_y-x': 'spec.sigma_y: expected a list of numbers, got str',
    'bam-bounds-sigma_y-dropped': 'spec.sigma_y: expected 2 entries to match spec.a, got 1',
    'bam-bounds-I-removed': None,
    'bam-bounds-I-x': 'spec.I: expected a list of numbers, got str',
    'bam-bounds-I-dropped': 'spec.I: expected 2 entries to match spec.a, got 1',
    'bam-bounds-J-removed': None,
    'bam-bounds-J-x': 'spec.J: expected a list of numbers, got str',
    'bam-bounds-J-dropped': 'spec.J: expected 2 entries to match spec.a, got 1',
    'bam-dynamics-a-removed': "spec: missing required field 'a'",
    'bam-dynamics-a-x': 'spec.a: expected a list of numbers, got str',
    'bam-dynamics-a-dropped': 'spec.b: expected 1 entries to match spec.a, got 2',
    'bam-dynamics-b-removed': "spec: missing required field 'b'",
    'bam-dynamics-b-x': 'spec.b: expected a list of numbers, got str',
    'bam-dynamics-b-dropped': 'spec.b: expected 2 entries to match spec.a, got 1',
    'bam-dynamics-a_conn-removed': "spec: missing required field 'a_conn'",
    'bam-dynamics-a_conn-x': 'spec.a_conn: expected a 2x2 matrix to match spec.a',
    'bam-dynamics-a_conn-dropped': 'spec.a_conn: expected a 2x2 matrix to match spec.a',
    'bam-dynamics-b_conn-removed': "spec: missing required field 'b_conn'",
    'bam-dynamics-b_conn-x': 'spec.b_conn: expected a 2x2 matrix to match spec.a',
    'bam-dynamics-b_conn-dropped': 'spec.b_conn: expected a 2x2 matrix to match spec.a',
    'bam-dynamics-I-removed': None,
    'bam-dynamics-I-x': 'spec.I: expected a list of numbers, got str',
    'bam-dynamics-I-dropped': 'spec.I: expected 2 entries to match spec.a, got 1',
    'bam-dynamics-J-removed': None,
    'bam-dynamics-J-x': 'spec.J: expected a list of numbers, got str',
    'bam-dynamics-J-dropped': 'spec.J: expected 2 entries to match spec.a, got 1',
    'two_neuron-bounds-a-removed': "spec: missing required field 'a'",
    'two_neuron-bounds-a-x': "spec.a: expected a number, got 'x'",
    'two_neuron-bounds-b-removed': "spec: missing required field 'b'",
    'two_neuron-bounds-b-x': "spec.b: expected a number, got 'x'",
    'two_neuron-bounds-coupling_xy-removed': "spec: missing required field 'coupling_xy'",
    'two_neuron-bounds-coupling_xy-x': "spec.coupling_xy: expected a number, got 'x'",
    'two_neuron-bounds-coupling_yx-removed': "spec: missing required field 'coupling_yx'",
    'two_neuron-bounds-coupling_yx-x': "spec.coupling_yx: expected a number, got 'x'",
    'two_neuron-bounds-Lf-removed': "spec: missing required field 'Lf'",
    'two_neuron-bounds-Lf-x': "spec.Lf: expected a number, got 'x'",
    'two_neuron-bounds-Lg-removed': "spec: missing required field 'Lg'",
    'two_neuron-bounds-Lg-x': "spec.Lg: expected a number, got 'x'",
    'two_neuron-bounds-r_lo-removed': "spec: missing required field 'r_lo'",
    'two_neuron-bounds-r_lo-x': "spec.r_lo: expected a number, got 'x'",
    'two_neuron-bounds-r_hi-removed': "spec: missing required field 'r_hi'",
    'two_neuron-bounds-r_hi-x': "spec.r_hi: expected a number, got 'x'",
    'two_neuron-bounds-p_lo-removed': "spec: missing required field 'p_lo'",
    'two_neuron-bounds-p_lo-x': "spec.p_lo: expected a number, got 'x'",
    'two_neuron-bounds-p_hi-removed': "spec: missing required field 'p_hi'",
    'two_neuron-bounds-p_hi-x': "spec.p_hi: expected a number, got 'x'",
    'two_neuron-bounds-tau_x-removed': "spec: missing required field 'tau_x'",
    'two_neuron-bounds-tau_x-x': "spec.tau_x: expected a number, got 'x'",
    'two_neuron-bounds-tau_y-removed': "spec: missing required field 'tau_y'",
    'two_neuron-bounds-tau_y-x': "spec.tau_y: expected a number, got 'x'",
    'two_neuron-bounds-sigma_x-removed': "spec: missing required field 'sigma_x'",
    'two_neuron-bounds-sigma_x-x': "spec.sigma_x: expected a number, got 'x'",
    'two_neuron-bounds-sigma_y-removed': "spec: missing required field 'sigma_y'",
    'two_neuron-bounds-sigma_y-x': "spec.sigma_y: expected a number, got 'x'",
    'two_neuron-bounds-I-removed': None,
    'two_neuron-bounds-I-x': "spec.I: expected a number, got 'x'",
    'two_neuron-bounds-J-removed': None,
    'two_neuron-bounds-J-x': "spec.J: expected a number, got 'x'",
    'two_neuron-dynamics-a-removed': "spec: missing required field 'a'",
    'two_neuron-dynamics-a-x': "spec.a: expected a number, got 'x'",
    'two_neuron-dynamics-b-removed': "spec: missing required field 'b'",
    'two_neuron-dynamics-b-x': "spec.b: expected a number, got 'x'",
    'two_neuron-dynamics-coupling_xy-removed': "spec: missing required field 'coupling_xy'",
    'two_neuron-dynamics-coupling_xy-x': "spec.coupling_xy: expected a number, got 'x'",
    'two_neuron-dynamics-coupling_yx-removed': "spec: missing required field 'coupling_yx'",
    'two_neuron-dynamics-coupling_yx-x': "spec.coupling_yx: expected a number, got 'x'",
    'two_neuron-dynamics-I-removed': None,
    'two_neuron-dynamics-I-x': "spec.I: expected a number, got 'x'",
    'two_neuron-dynamics-J-removed': None,
    'two_neuron-dynamics-J-x': "spec.J: expected a number, got 'x'",
}


@pytest.mark.parametrize("case", list(_FIELD_EDIT_MESSAGES))
def test_each_spec_field_edit_keeps_its_message(capsys, tmp_path, case):
    kind, style, field, edit = case.split("-")
    doc = _frozen_doc(kind, style)
    if edit == "removed":
        del doc["spec"][field]
    elif edit == "x":
        doc["spec"][field] = "x"
    else:
        doc["spec"][field] = doc["spec"][field][:-1]
    message = _FIELD_EDIT_MESSAGES[case]
    if message is None:
        spec = parse_document(doc).spec
        default = getattr(spec, field)
        if field == "diagonal_delay_free":
            assert default is False
        else:
            assert np.array_equal(default, np.zeros_like(spec.a))
        return
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", str(file)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


_BY_COEFFS = " to match dynamics.coefficients"


# a length refusal outside the spec section names the field that fixed the
# dimension, as those inside it do: a history one entry too long, or a
# dynamics list with its last entry dropped
@pytest.mark.parametrize("kind, style, where, message", [
    ("general", "bounds", ("history",), "history: expected 2 entries to match spec.alpha, got 3"),
    ("general", "dynamics", ("history",), f"history: expected 2 entries{_BY_COEFFS}, got 3"),
    ("general", "dynamics", ("dynamics", "leak_lags"),
     f"dynamics.leak_lags: expected a list of 2 function objects{_BY_COEFFS}"),
    ("general", "dynamics", ("dynamics", "coupling_lags"),
     f"dynamics.coupling_lags: expected a 2x2 matrix of function objects{_BY_COEFFS}"),
    ("general", "dynamics", ("dynamics", "couplings", 1),
     f"dynamics.couplings[1]: expected 2 entries{_BY_COEFFS}"),
    ("linear", "bounds", ("history",), "history: expected 2 entries to match spec.alpha, got 3"),
    ("linear", "dynamics", ("history",), f"history: expected 2 entries{_BY_COEFFS}, got 3"),
    ("linear", "dynamics", ("dynamics", "lags"),
     f"dynamics.lags: expected a 2x2 matrix of function objects{_BY_COEFFS}"),
    ("linear", "dynamics", ("dynamics", "lags", 0),
     f"dynamics.lags[0]: expected 2 entries{_BY_COEFFS}"),
    ("bam", "bounds", ("history",), "history: expected 4 entries for both layers of spec.a, got 5"),
    ("bam", "dynamics", ("history",),
     "history: expected 4 entries for both layers of spec.a, got 5"),
    ("bam", "dynamics", ("dynamics", "rate_x"),
     "dynamics.rate_x: expected a list of 2 function objects to match spec.a"),
    ("bam", "dynamics", ("dynamics", "g"),
     "dynamics.g: expected a list of 2 function objects to match spec.a"),
    ("two_neuron", "bounds", ("history",),
     "history: expected 2 entries for both layers of spec.a, got 3"),
    ("two_neuron", "dynamics", ("history",),
     "history: expected 2 entries for both layers of spec.a, got 3"),
])
def test_length_refusals_name_the_field_that_fixed_the_dimension(capsys, tmp_path, kind, style,
                                                                 where, message):
    doc = _frozen_doc(kind, style)
    if where == ("history",):
        spec = parse_document(doc).spec
        doc["history"] = [0.0] * ((2 * spec.n if kind in ("bam", "two_neuron") else spec.m) + 1)
    else:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = node[where[-1]][:-1]
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    assert main(["analyze", str(file)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# the spec fields a two-layer document with dynamics still gives; a general
# or linear one gives none but diagonal_delay_free
_TWO_LAYER_STRUCTURAL = ("a", "b", "a_conn", "b_conn", "I", "J")


@pytest.mark.parametrize("style", ["bounds", "dynamics"])
@pytest.mark.parametrize("kind", ["general", "linear", "bam", "two_neuron"])
def test_unknown_spec_field_lists_the_fields_of_the_spec_class(kind, style):
    cls = {"general": GeneralSystemSpec, "linear": LinearSystemSpec}.get(kind, BamSpec)
    names = [f.name for f in fields(cls) if style == "bounds"
             or f.name in _TWO_LAYER_STRUCTURAL + ("diagonal_delay_free",)]
    if kind == "two_neuron":
        names = [{"a_conn": "coupling_xy", "b_conn": "coupling_yx"}.get(n, n) for n in names]
    assert ("diagonal_delay_free" in names) == (cls is not BamSpec)
    doc = _frozen_doc(kind, style)
    doc["spec"]["zzz"] = 1.0
    with pytest.raises(DocumentError) as exc:
        parse_document(doc)
    assert str(exc.value) == f"spec.zzz: unknown field (allowed: {', '.join(sorted(names))})"


_POSITIVE = st.floats(1e-3, 1e3)
_NONNEGATIVE = st.floats(0.0, 1e3)
_ANY = st.floats(-1e3, 1e3)


@st.composite
def valid_specs(draw):
    # a spec of each class, of dimension 1 to 5, with values inside its rules
    m = draw(st.integers(1, 5))

    def vector(values):
        return draw(st.lists(values, min_size=m, max_size=m))

    def matrix(values):
        return [vector(values) for _ in range(m)]

    def bracket():
        lower = vector(_POSITIVE)
        return lower, [lo + d for lo, d in zip(lower, vector(_NONNEGATIVE))]

    family = draw(st.sampled_from(["general", "linear", "bam"]))
    if family == "bam":
        (r_lo, r_hi), (p_lo, p_hi) = bracket(), bracket()
        inputs = [[0.0] * m if draw(st.booleans()) else vector(_ANY) for _ in range(2)]
        try:
            return BamSpec(a=vector(_POSITIVE), b=vector(_POSITIVE), a_conn=matrix(_ANY),
                           b_conn=matrix(_ANY), Lf=vector(_NONNEGATIVE), Lg=vector(_NONNEGATIVE),
                           r_lo=r_lo, r_hi=r_hi, p_lo=p_lo, p_hi=p_hi,
                           tau_x=vector(_NONNEGATIVE), tau_y=vector(_NONNEGATIVE),
                           sigma_x=vector(_NONNEGATIVE), sigma_y=vector(_NONNEGATIVE),
                           I=inputs[0], J=inputs[1])
        except InvalidSpecError:  # the one rule not drawn inside: a merged bound underflows
            reject()
    alpha, upper = bracket()
    flag = draw(st.booleans())
    if family == "general":
        return GeneralSystemSpec(alpha=alpha, A=upper, tau=vector(_NONNEGATIVE),
                                 sigma=matrix(_NONNEGATIVE), L=matrix(_NONNEGATIVE),
                                 diagonal_delay_free=flag)
    return LinearSystemSpec(alpha=alpha, A=upper, A_off=matrix(_NONNEGATIVE),
                            sigma=matrix(_NONNEGATIVE), diagonal_delay_free=flag)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(valid_specs())
def test_every_valid_spec_round_trips_through_its_document(spec):
    assert parse_document(serialize_spec(spec)).spec == spec
    if isinstance(spec, BamSpec) and spec.n == 1:
        assert parse_document(serialize_spec(spec, scalars=True)).spec == spec
