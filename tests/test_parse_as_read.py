"""A document without "parameters" is parsed as read.

parse_document skips the reference walk for such a document unless its
parse fails, and must then give what the walk-first composition
(`oracles.parse_by_walk`) gives: the same error type and text, or a spec
and concrete system with the same bits.  Each list of plain numbers is
checked once.
"""

import copy
import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaystab import DocumentError, parse_document, resolve_parameters, specio

from conftest import INPUTS
from oracles import parse_by_walk
from test_specio_cli import _frozen_doc


def _load(name: str) -> dict:
    return json.loads((INPUTS / name).read_text())


def _without_parameters(doc: dict) -> dict:
    resolved = resolve_parameters(doc)
    resolved.pop("parameters", None)
    return resolved


# parameter-free documents of every kind, with and without dynamics
DOCS = {"general_sample": _load("general_sample.json"),
        "two_neuron_sample": _load("two_neuron_sample.json"),
        "bam_modulated": _without_parameters(_load("bam_modulated.json")),
        "linear_coupled": _without_parameters(_load("linear_coupled.json")),
        **{f"{kind}-{style}": _without_parameters(_frozen_doc(kind, style))
           for kind in ("general", "linear", "bam", "two_neuron")
           for style in ("bounds", "dynamics")}}

DEEP, UNKNOWN = "<500-deep list>", "<unknown key>"
JUNK = ["$x", True, None, "1.5", [], {}, 10**400, 2**63 + 1, -0.0, DEEP, UNKNOWN]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCS.items()}


def _replace(doc, path, junk):
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]]
    except (KeyError, IndexError, TypeError):
        return  # an earlier replacement removed this path
    if not isinstance(node, (dict, list)):
        return
    key = path[-1]
    if junk == UNKNOWN and isinstance(node, dict):
        node["bogus"] = node.pop(key)
    elif junk == UNKNOWN:
        node[key] = {"bogus": node[key]}
    elif junk == DEEP:
        deep = [1.0]
        for _ in range(499):
            deep = [deep]
        node[key] = deep
    else:
        node[key] = copy.deepcopy(junk)


def _outcome(parse, doc):
    try:
        return parse(doc), None
    except Exception as exc:  # compared by type and text
        return None, (type(exc), str(exc))


def _bits(arr: np.ndarray):
    return arr.dtype, arr.shape, arr.tobytes()


def _containers(root) -> set[int]:
    # ids of the lists and dicts reachable from root through containers and
    # the attributes of the package's objects; iterative, for deep documents
    seen, out, todo = set(), set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (dict, list)):
            out.add(id(node))
        if isinstance(node, dict):
            todo.extend(node.values())
        elif isinstance(node, (list, tuple)):
            todo.extend(node)
        elif type(node).__module__.startswith("delaystab") and hasattr(node, "__dict__"):
            todo.extend(vars(node).values())
    return out


def _assert_same_parse(got, want):
    assert (got.kind, got.sha256) == (want.kind, want.sha256)
    for f in dataclasses.fields(want.spec):
        a, b = getattr(got.spec, f.name), getattr(want.spec, f.name)
        if isinstance(b, np.ndarray):
            assert _bits(a) == _bits(b), f.name
        else:
            assert a == b, f.name
    assert (got.concrete is None) == (want.concrete is None)
    if want.concrete is not None:
        assert repr(got.concrete.reads) == repr(want.concrete.reads)
        assert repr(got.concrete.rows) == repr(want.concrete.rows)
        assert _bits(got.concrete.history) == _bits(want.concrete.history)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_parse_as_read_matches_the_walk_first_parse(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _replace(doc, data.draw(st.sampled_from(PATHS[name])), data.draw(st.sampled_from(JUNK)))
    before = repr(doc)
    got, got_error = _outcome(parse_document, doc)
    assert repr(doc) == before
    want, want_error = _outcome(parse_by_walk, doc)
    assert got_error == want_error
    if got is not None:
        _assert_same_parse(got, want)
        assert not _containers(doc) & _containers(got)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_each_parameter_free_document_parses_as_the_walk_first_parse(name):
    _assert_same_parse(parse_document(DOCS[name]), parse_by_walk(DOCS[name]))


# Hypothesis raises the recursion limit while it runs a test, so a 500-deep
# list is an ordinary bad value there; one deeper than the limit is refused
# by the walk, before any error of the spec parser
@pytest.mark.parametrize("name, path", [("general_sample", ("spec", "alpha")),
                                        ("two_neuron_sample", ("history",)),
                                        ("two_neuron_sample", ("dynamics", "f", "k"))])
def test_a_list_deeper_than_the_recursion_limit_is_refused_first(name, path):
    doc = copy.deepcopy(DOCS[name])
    deep = [1.0]
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = deep
    for parse in (parse_document, parse_by_walk):
        with pytest.raises(DocumentError, match="^document nests too deeply$"):
            parse(doc)


def test_a_number_list_converts_each_entry_to_the_double_float_gives():
    entries = [2**63 + 1, 2**53 + 1, -(2**64) - 3, 10**300 + 1, -0.0, 0, 7, 0.1]
    want = np.array([float(v) for v in entries])
    assert _bits(specio._num_list(entries, "x")) == _bits(want)
    assert _bits(specio._num_matrix([entries[:2], entries[2:4]], "x", 2, "")) == \
        _bits(want[:4].reshape(2, 2))


def _count_calls(monkeypatch, name: str) -> list:
    calls, real = [], getattr(specio, name)
    monkeypatch.setattr(specio, name, lambda *args: calls.append(args[0]) or real(*args))
    return calls


@pytest.mark.parametrize("doc, error, walks", [
    (DOCS["general_sample"], None, 0),
    (DOCS["two_neuron_sample"], None, 0),
    (dict(DOCS["general_sample"], history=[1.0]), "history: expected 3 entries", 1),
    (dict(DOCS["two_neuron_sample"], history=["$x", 1.0]), "unknown parameter reference", 1),
    (_load("bam_modulated.json"), None, 1),
    (dict(DOCS["general_sample"], parameters={"k": 1.0}), None, 1),
], ids=["bounds", "dynamics", "bad-length", "unknown-reference", "with-parameters",
        "unreferenced-parameters"])
def test_reference_walk_runs_only_for_parameters_or_a_failed_parse(monkeypatch, doc, error,
                                                                   walks):
    calls = _count_calls(monkeypatch, "resolve_parameters")
    if error is None:
        parse_document(doc)
    else:
        with pytest.raises(DocumentError, match=error):
            parse_document(doc)
    assert len(calls) == walks


def _number_lists(node) -> list:
    # the lists of a document whose entries are all numbers
    children = list(node.values()) if isinstance(node, dict) else node
    if isinstance(node, list) and all(isinstance(x, (int, float)) for x in node):
        return [node]
    return [found for child in children if isinstance(child, (dict, list))
            for found in _number_lists(child)]


def test_each_number_list_is_checked_once(monkeypatch):
    doc = _load("general_sample.json")
    lists = _number_lists(doc)
    calls = _count_calls(monkeypatch, "_plain_numbers")
    parse_document(doc)
    assert len(lists) == 9
    assert sorted(map(id, calls)) == sorted(map(id, lists))
