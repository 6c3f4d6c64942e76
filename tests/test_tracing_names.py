"""The program names that the benchmark's layer tracer rebinds."""

import importlib
import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
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
                       "delaystab.criteria.two_neuron_closed_form"}
