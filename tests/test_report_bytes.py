"""The exact bytes of CLI reports, and what a report says about its input.

`test_golden_cli.py` compares decoded reports with a float tolerance; this
file pins the encoding itself: every report is `json.dumps(report,
indent=2)` of its JSON-safe form followed by one newline (invocations
that exit with status 1 print no report).  The CLI's writer is checked
against that definition on random reports, with the cleaner it replaced
as the reference.  A report names its input by path, kind and the sha256
of the file's bytes (what `sha256sum` prints), and does not repeat the
document: the same document written another way gets the same report but
for that digest.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from delaystab import parse_file
from delaystab.cli import _json, main

from test_golden_cli import GOLDEN, ROOT, _invocations


def _stdout(argvs, cwd) -> dict:
    """stdout of each invocation run from `cwd` that prints a report, by argv."""
    back = os.getcwd()
    os.chdir(cwd)
    try:
        reports = {}
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                main(argv)
            if out.getvalue():
                reports[" ".join(argv)] = out.getvalue()
        return reports
    finally:
        os.chdir(back)


@functools.cache
def _printed() -> dict:
    """stdout of every golden invocation that prints a report, by argv."""
    return _stdout(_invocations(), ROOT)


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
        digest = hashlib.sha256((ROOT / path).read_bytes()).hexdigest()
        assert "document" not in report, argv
        assert report["input"] == {"path": path, "kind": parse_file(ROOT / path).kind,
                                   "sha256": digest}, argv
        seen.add(command)
    assert seen == {"analyze", "certify-rate", "equilibrium", "simulate"}


def _shuffled(node, rng: random.Random):
    """The JSON value with the keys of every object in an order drawn from rng."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: _shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled(x, rng) for x in node]
    return node


INPUT_NAMES = sorted(p.name for p in (ROOT / "inputs").glob("*.json"))


@pytest.mark.parametrize("name", INPUT_NAMES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(indent=st.sampled_from([None, 0, 1, 2, 4, "\t"]),
       separators=st.sampled_from([(",", ":"), (", ", ": "), (",", ": "), (" , ", " : ")]),
       rng=st.randoms(use_true_random=False))
def test_a_rewritten_document_changes_only_the_digest(tmp_path_factory, name, indent,
                                                     separators, rng):
    # written under inputs/ of a fresh directory, the file has the golden
    # argv's relative path, so everything but input.sha256 must match byte for byte
    doc = json.loads((ROOT / "inputs" / name).read_text())
    data = json.dumps(_shuffled(doc, rng), indent=indent, separators=separators).encode()
    where = tmp_path_factory.mktemp("rewritten")
    (where / "inputs").mkdir()
    (where / "inputs" / name).write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    argvs = [["analyze", f"inputs/{name}"], ["certify-rate", f"inputs/{name}"]]
    reports = _stdout(argvs, where)
    # certify-rate refuses a linear document without a report, on either file
    assert reports.keys() == {" ".join(argv) for argv in argvs} & _printed().keys()
    for argv, text in reports.items():
        assert json.loads(text)["input"]["sha256"] == digest, argv
        golden = _printed()[argv]
        golden_digest = json.loads(golden)["input"]["sha256"]
        assert text.replace(digest, golden_digest) == golden, argv


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
