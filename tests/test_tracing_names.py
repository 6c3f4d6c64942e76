"""The program names that the benchmark's layer tracer rebinds."""

import contextlib
import importlib
import importlib.util
import io
import pathlib

from delaystab import cli

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_PATH = _ROOT / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_tracer_names_missing_from_the_program_are_the_known_ones():
    # the tracer skips a name that its module no longer has, and that
    # layer's metrics then read 0 without a word; a rename shows up here
    missing = {f"{module}.{attr}" for module, attr, _ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == {"delaystab.sweep.parse_document", "delaystab.sweep.set_parameter",
                       "delaystab.cli.set_parameter", "delaystab.sweep.two_neuron_closed_form",
                       "delaystab.criteria.two_neuron_closed_form",
                       # simulate and sweep --simulate share sweep.observed_rate
                       "delaystab.cli.fit_decay"} | {
        # one builder, test_matrix_at_rate, took over from the per-family ones
        f"delaystab.criteria.test_matrix_{family}" for family in (
            "general", "no_self_coupling", "undelayed_decay", "linear", "linear_undelayed",
            "bam")}


def test_tracer_sees_the_matrix_build_of_every_matrix_verdict():
    # a verdict whose matrix is built past the rebound module globals would
    # leave the criteria.test_matrix layer short of one call
    inputs = sorted((_ROOT / "inputs").glob("*.json"))
    invocations = [["analyze", str(path)] for path in inputs] + [
        ["analyze", str(_ROOT / "inputs" / "linear_coupled.json"), "--criterion", "cor7"],
        ["analyze", str(_ROOT / "inputs" / "bam_modulated.json"), "--criterion", "cor9-3"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in invocations:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 2)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert len(inputs) == 4
    assert metrics["criteria.test_matrix.calls"] == metrics["criteria.stability_verdict.calls"] == 6
