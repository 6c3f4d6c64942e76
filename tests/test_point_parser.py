"""The per-point parser of a sweep equals parsing the rewritten document.

`point_parser(doc, path)(value)` must give what
`parse_document(set_parameter(doc, path, value))` gives: the same kind,
spec, concrete system (its history included) and `sha256` (None for a
document given as a dict), or a `DocumentError` with the same text.  An error that no value can
fix is raised once, by `point_parser` itself, with the text the rewritten
document gives at every value.
"""

import copy
import dataclasses
import json
import pathlib

import numpy as np
from hypothesis import example, given, settings, strategies as st

from delaystab import DocumentError, parse_document, point_parser, set_parameter

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

_CONST = {"type": "constant", "value": 0.1}

DOCS = {p.name: json.loads(p.read_text()) for p in sorted(INPUTS.glob("*.json"))}
DOCS.update({
    # "$k" feeds every coupling and a delay; "$j" feeds one bound
    "general_bounds": {
        "kind": "general", "parameters": {"k": 0.2, "j": 1.1},
        "spec": {"alpha": [1.0, 1.0, 0.9], "A": [1.2, "$j", 1.0], "tau": ["$k", 0.1, 0.0],
                 "sigma": [[0.0, 0.3, 0.1], [0.2, 0.0, 0.1], [0.1, 0.1, 0.0]],
                 "L": [[0.0, "$k", "$k"], ["$k", 0.0, "$k"], ["$k", "$k", 0.1]]}},
    "general_dynamics": {
        "kind": "general", "parameters": {"k": 0.3},
        "spec": {"diagonal_delay_free": False},
        "dynamics": {
            "coefficients": [{"type": "sinusoid", "base": 2.0, "amp": "$k"},
                             {"type": "constant", "value": 1.5}],
            "leak_lags": [{"type": "constant", "value": 0.1}, None],
            "coupling_lags": [[None, {"type": "sin_squared", "amp": "$k"}],
                              [{"type": "shifted_abs_sin", "base": 0.1, "amp": "$k"}, None]],
            "couplings": [[None, {"type": "tanh_scaled", "k": "$k"}],
                          [{"type": "linear", "k": "$k"}, None]]},
        "history": [0.5, "$k"]},
    "linear_bounds": {
        "kind": "linear", "parameters": {"k": 0.25},
        "spec": {"alpha": [1.0, 1.0], "A": [1.2, 1.1], "diagonal_delay_free": False,
                 "A_off": [[0.0, "$k"], ["$k", 0.0]], "sigma": [[0.1, "$k"], [0.2, 0.1]]}},
    "bam_bounds": {
        "kind": "bam", "parameters": {"k": 0.3, "j": 2.0},
        "spec": {"a": [1.0, 0.8], "b": [0.9, 1.1], "a_conn": [["$k", "$k"], ["$k", "$k"]],
                 "b_conn": [[0.2, -0.1], [0.1, 0.3]], "Lf": [1.0, 1.0], "Lg": [0.5, 0.5],
                 "r_lo": [1.0, 1.0], "r_hi": [1.2, 1.1], "p_lo": [1.0, 1.0], "p_hi": [1.0, 1.3],
                 "tau_x": [0.1, 0.0], "tau_y": [0.0, 0.1], "sigma_x": [0.2, 0.2],
                 "sigma_y": [0.1, 0.3], "I": ["$j", 0.0], "J": [0.0, 0.0]}},
    "bam_dynamics": {
        "kind": "bam", "parameters": {"k": 0.4},
        "spec": {"a": [1.0, 0.8], "b": [0.9, 1.1], "a_conn": [["$k", 0.1], [0.0, "$k"]],
                 "b_conn": [[0.2, -0.1], [0.1, 0.3]]},
        "dynamics": {
            "rate_x": [{"type": "cosinusoid", "base": 1.0, "amp": "$k"}, _CONST],
            "rate_y": [_CONST, _CONST],
            "leak_x": [_CONST, _CONST], "leak_y": [_CONST, _CONST],
            "trans_x": [{"type": "shifted_abs_cos", "base": "$k", "amp": 0.1}, _CONST],
            "trans_y": [_CONST, _CONST],
            "f": [{"type": "logistic_centered", "k": "$k"}, {"type": "sin_scaled", "k": 1.0}],
            "g": [{"type": "linear", "k": 1.0}, {"type": "tanh_scaled", "k": 1.0}]},
        "history": ["$k", 0.0, 0.1, 0.2]},
    # documents that are malformed whatever the value
    "unknown_reference": {"kind": "linear", "parameters": {"s": 0.5},
                          "spec": {"alpha": [1.0], "A": ["$t"], "A_off": [[0.0]],
                                   "sigma": [[0.0]]}},
    "bad_kind": {"kind": "nonlinear", "parameters": {"s": 0.5}, "spec": {"a": "$s"}},
    "numeric_kind": {"kind": 3.0, "parameters": {"s": 0.5}, "spec": {"a": "$s"}},
    "bad_root_key": {"kind": "general", "parameters": {"s": 0.5}, "spec": {"a": "$s"},
                     "extra": 1},
    "bad_parameters": {"kind": "general", "parameters": {"s": 0.5, "t": "x"},
                       "spec": {"alpha": ["$s"]}},
    "parameter_reference": {"kind": "general", "parameters": {"s": "$s"},
                            "spec": {"alpha": ["$s"], "A": [1.0], "tau": [0.0],
                                     "sigma": [[0.0]], "L": [["$s"]]}},
})


def _scalar_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float, str)) and not isinstance(node, bool) \
                and (not isinstance(node, str) or node.startswith("$")):
            yield ".".join(map(str, prefix))
        return
    for key, child in items:
        yield from _scalar_paths(child, prefix + (key,))


# every leaf a sweep may address, and paths that address none
CASES = sorted({(name, path) for name, doc in DOCS.items()
                for path in list(_scalar_paths(doc)) + [
                    "parameters.k", "parameters.nope", "spec.nope", "spec", "kind",
                    "history.9", "spec.alpha.x", "parameters"]})

VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 0.5, 3.0, 1e-300, float("inf"),
                     -float("inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True))


def describe(x):
    """A comparable, exact picture of a parse result (NaN compares equal)."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, repr(x.tolist()))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [describe(v) for v in x])
    if isinstance(x, dict):
        return ("dict", json.dumps(x, sort_keys=True))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, [(f.name, describe(getattr(x, f.name)))
                                   for f in dataclasses.fields(x)])
    if hasattr(x, "__dict__"):
        return (type(x).__name__, sorted((k, describe(v)) for k, v in vars(x).items()))
    return repr(x)


def picture(p):
    return ("parsed", p.kind, describe(p.spec), describe(p.concrete), p.sha256)


def outcome(parse):
    try:
        return picture(parse())
    except DocumentError as exc:
        return ("error", str(exc))


def parse_as_given(doc, path):
    """The path check, then the document parsed as given."""
    set_parameter(doc, path, 0.0)
    return parse_document(doc)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.sampled_from(CASES), st.lists(VALUES, min_size=1, max_size=4))
@example(("numeric_kind", "kind"), [0.5])
def test_point_parse_equals_parsing_the_rewritten_document(case, values):
    name, path = case
    doc = DOCS[name]
    before = json.dumps(doc, sort_keys=True)
    try:
        parse_at = point_parser(copy.deepcopy(doc), path)
    except DocumentError as exc:
        for value in values:
            if path == "kind":
                # the kind is checked as given, so the error names the
                # document's kind, not the value
                expected = outcome(lambda: parse_as_given(doc, path))
            else:
                expected = outcome(lambda: parse_document(set_parameter(doc, path, value)))
            assert ("error", str(exc)) == expected
        assert json.dumps(doc, sort_keys=True) == before
        return
    results = []
    for value in values:
        try:
            results.append(parse_at(value))
        except DocumentError as exc:
            results.append(exc)
    # compared after every value was parsed, so that a later value cannot
    # have changed an earlier result through a shared container
    for value, result in zip(values, results):
        got = ("error", str(result)) if isinstance(result, DocumentError) else picture(result)
        assert got == outcome(lambda: parse_document(set_parameter(doc, path, value)))
    assert json.dumps(doc, sort_keys=True) == before


def test_cases_reach_both_outcomes_and_both_path_kinds():
    kinds = {"parameters" if path.startswith("parameters.") else "leaf" for _, path in CASES}
    assert kinds == {"parameters", "leaf"}
    outcomes = {outcome(lambda: parse_document(set_parameter(DOCS[name], path, 0.5)))[0]
                for name, path in CASES}
    assert outcomes == {"parsed", "error"}
    # and some parsers are never built: their documents fail at every value
    built = set()
    for name, path in CASES:
        try:
            point_parser(DOCS[name], path)
            built.add(True)
        except DocumentError:
            built.add(False)
    assert built == {True, False}
