"""Mutated documents through every verb: no traceback, and each input error names a path.

Each example starts from one of the documents in inputs/ and edits one or
two of its nodes (leaves and containers alike): null, true, "x", NaN,
infinity, [], {}, -1, 0, 1e-200, 1e200, 1e308, delete, or drop the last
entry of a list.  The document then goes through `analyze`, `certify-rate`,
`equilibrium` (two-layer kinds) and `simulate --t-end 0.2` (documents with
dynamics), each run in this process through `cli.main`.  No run may raise;
exit status 1 prints exactly one `error:` line, and that line begins with a
path the document has, or with a key missing under an object it has.
`analyze` never exits 1 on a document that parses.
"""

import contextlib
import copy
import io
import json
import math
import pathlib
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from delaystab import DocumentError, parse_document
from delaystab.cli import main

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"
DOCS = {p.name: json.loads(p.read_text()) for p in sorted(INPUTS.glob("*.json"))}

DELETE, DROP_LAST = "<delete>", "<drop last>"
EDITS = [None, True, "x", math.nan, math.inf, [], {}, -1.0, 0, 1e-200, 1e200, 1e308,
         DELETE, DROP_LAST]
SECTIONS = ("kind", "parameters", "spec", "dynamics", "history")
# refusals about a command-line option (the grid that the step makes), and the
# linear family's missing decay-rate certificate, which name no document path
EXEMPT = ("cannot allocate the grid", "decay-rate certification needs a general or two-layer spec")
_KEY = re.compile(r"\.?([A-Za-z_]\w*)|\[(\d+)\]")


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCS.items()}


def _edit(doc, path, value):
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        if not isinstance(node, (dict, list)):
            return
        child = node[path[-1]]
    except (KeyError, IndexError, TypeError):
        return  # an earlier edit removed this path
    if value is DELETE:
        del node[path[-1]]
    elif value is DROP_LAST:
        if isinstance(child, list) and child:
            child.pop()
    else:
        node[path[-1]] = copy.deepcopy(value)


def names_a_path(doc, text: str) -> bool:
    """Whether text begins with a path of doc (`spec.L[0][1]`, `dynamics.f.k`), or
    with a key missing under an object doc has; the first key is a section."""
    keys, at = [], 0
    while (m := _KEY.match(text, at)) and (keys or not text.startswith(".")):
        keys.append(m.group(1) if m.group(1) is not None else int(m.group(2)))
        at = m.end()
    if not keys or keys[0] not in SECTIONS:
        return False
    node = doc
    for i, key in enumerate(keys):
        if isinstance(node, dict) and isinstance(key, str) and key in node \
                or isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return isinstance(node, dict) and isinstance(key, str) and i == len(keys) - 1
    return True


def test_names_a_path_reads_the_leading_path():
    doc = {"kind": "general", "spec": {"L": [[1.0, 2.0]], "tau": 0.1}}
    assert names_a_path(doc, "spec.L[0][1]: expected a number")
    assert names_a_path(doc, "spec.L[0][1] must be >= 0 (got -1.0)")
    assert names_a_path(doc, "spec.tau*a underflows to 0")
    assert names_a_path(doc, "spec: missing required field 'alpha'")
    assert names_a_path(doc, "history: required when dynamics is present")
    assert names_a_path(doc, "spec.alpha must be finite")         # missing under spec
    assert not names_a_path(doc, "spec.L[1][0]: expected 1 entries")
    assert not names_a_path(doc, "spec.L.x.y: no such field")     # x is missing, y below it
    assert not names_a_path(doc, "invalid spec: r_lo[0]*a[0] underflows to 0")
    assert not names_a_path(doc, "matrix has a non-finite entry")
    assert not names_a_path(doc, "r_lo[0]*a[0] underflows to 0")


def _run(argv: list) -> tuple[int, list[str]]:
    # as in a process of its own: a RuntimeWarning is a warning line, not an error
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.resetwarnings()
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "doc.json"


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_documents_end_in_a_verdict_or_one_error_naming_a_path(doc_file, data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 2))):
        _edit(doc, data.draw(st.sampled_from(PATHS[name])), data.draw(st.sampled_from(EDITS)))
    doc_file.write_text(json.dumps(doc))
    try:
        parse_document(copy.deepcopy(doc))
        parses = True
    except DocumentError:
        parses = False
    verbs = [["analyze"], ["certify-rate"]]
    if DOCS[name]["kind"] in ("bam", "two_neuron"):
        verbs.append(["equilibrium"])
    if doc.get("dynamics") is not None:
        verbs.append(["simulate", "--t-end", "0.2"])
    for verb in verbs:
        code, errors = _run([*verb, str(doc_file)])
        if code == 1:
            assert len(errors) == 1, (verb, errors)
            text = errors[0].removeprefix("error: ")
            assert text.startswith(EXEMPT) or names_a_path(doc, text), (verb, text, doc)
        assert not (verb == ["analyze"] and parses and code == 1), (errors, doc)
