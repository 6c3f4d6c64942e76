"""Malformed documents: parse_document may only raise DocumentError.

Each example starts from one of the sample documents in inputs/ and
replaces or deletes up to three of its nodes (leaves and containers alike)
with null, booleans, strings, NaN, infinities, empty lists or empty objects.
"""

import copy
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from delaystab import DocumentError, parse_document

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"
DOCS = {p.name: json.loads(p.read_text()) for p in sorted(INPUTS.glob("*.json"))}

DELETE = "<delete>"
JUNK = [None, True, False, "x", "$nope", "", float("nan"), float("inf"),
        -float("inf"), [], {}, -1.0, 0, 1e308, DELETE]


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in DOCS.items()}


def _mutate(doc, path, value):
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]]
    except (KeyError, IndexError, TypeError):
        return  # an earlier mutation removed this path
    if value == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.data())
def test_mutated_documents_raise_only_document_error(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(PATHS[name]))
        _mutate(doc, path, data.draw(st.sampled_from(JUNK)))
    try:
        parse_document(doc)
    except DocumentError:
        pass


@pytest.mark.parametrize("bad_type", [[], {}, None, 3])
def test_non_string_function_type_is_a_document_error(two_neuron_doc, bad_type):
    two_neuron_doc["dynamics"]["leak_x"]["type"] = bad_type
    with pytest.raises(DocumentError, match=r"dynamics\.leak_x\.type"):
        parse_document(two_neuron_doc)
