"""The exact bytes of CLI reports, and what a report says about its input.

`test_golden_cli.py` compares decoded reports with a float tolerance; this
file pins the encoding itself: every report is `json.dumps(report,
indent=2)` of its JSON-safe form followed by one newline (invocations
that exit with status 1 print no report).  The CLI's writer is checked
against that definition on random reports, with the cleaner it replaced
as the reference.  A report names its input by path, kind and the hash of
the resolved document, and does not repeat the document.
"""

import contextlib
import functools
import io
import json
import os

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from delaystab import document_sha256, parse_file
from delaystab.cli import _json, main

from test_golden_cli import GOLDEN, ROOT, _invocations


@functools.cache
def _printed() -> dict:
    """stdout of every golden invocation that prints a report, by argv."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        reports = {}
        for argv in _invocations():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            if out.getvalue():
                reports[" ".join(argv)] = out.getvalue()
        return reports
    finally:
        os.chdir(cwd)


def test_golden_reports_are_indent_2_json():
    reports = _printed()
    wrong = [argv for argv, text in reports.items()
             if text != json.dumps(json.loads(text), indent=2) + "\n"]
    golden = json.loads(GOLDEN.read_text())
    assert reports.keys() == {k for k, v in golden.items() if v["report"] is not None}
    assert not wrong, wrong


def test_reports_identify_their_input_without_echoing_it():
    seen = set()
    for argv, text in _printed().items():
        command, path = argv.split()[:2]
        if command == "sweep":
            continue
        report = json.loads(text)
        parsed = parse_file(ROOT / path)
        assert "document" not in report, argv
        assert report["input"] == {"path": path, "kind": parsed.kind,
                                   "sha256": document_sha256(parsed.document)}, argv
        seen.add(command)
    assert seen == {"analyze", "certify-rate", "equilibrium", "simulate"}


def reference_clean(value):
    """The report cleaner the writer replaced, kept as its reference."""
    if isinstance(value, dict):
        return {k: reference_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return reference_clean(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else None
    return value


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0])
_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int64]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
_leaves = (
    _floats | st.integers() | st.booleans() | st.none()
    | st.text(st.characters(codec="utf-8"))
    | _floats.map(np.float64) | st.floats(width=32).map(np.float32)
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
    | _arrays
    | st.lists(_floats | st.integers())
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(st.characters(codec="utf-8")), inner),
    max_leaves=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_reports)
def test_writer_matches_json_dumps_of_the_cleaned_report(report):
    assert _json(report) == json.dumps(reference_clean(report), indent=2)
