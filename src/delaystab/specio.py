"""JSON documents describing systems: parsing, validation, serialization.

A document is a single JSON object:

    {
      "kind": "general" | "linear" | "bam" | "two_neuron",
      "parameters": {"mu": 0.0},          // optional named scalars
      "spec": { ... bound fields ... },
      "dynamics": { ... catalog functions ... },   // optional
      "history": [ ... dim numbers ... ]           // required with dynamics
    }

Any number inside spec/dynamics/history may be written as the string "$name"
to reference an entry of "parameters"; references are resolved before
parsing, so one scalar can drive several coefficients at once (handy for
parameter sweeps); a document without "parameters" is parsed as read and
walked only when that fails, as an unknown reference or a too-deep document
is reported first.  A sweep resolves the document once through
`point_parser` and re-runs only the spec parser at each value.

When "dynamics" is present the analytic bounds (decay brackets, delay
bounds, Lipschitz constants) are derived from the named functions; the spec
section then only carries the structural constants.  Without dynamics the
bounds are given explicitly and the document supports analysis only, not
simulation.  The spec classes declare this bounds-only layout: the document
gives every field of its kind's spec class, with I and J zero when absent
(`two_neuron` writes the one-unit `bam` in scalars).

All diagnostics carry the JSON field path of the offending value; a broken
spec rule names its field and entry (`spec.alpha[0] must be > 0 ...`).  A list
of plain numbers (a matrix: all its rows) is checked in one pass and converted
by one numpy call; the field paths of its entries are formatted only when that
check fails and a diagnostic is to be raised.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import reprlib
from dataclasses import fields
from functools import cache
from typing import NamedTuple

import numpy as np

from .systems import (
    ACTIVATION_CATALOG,
    COEFF_CATALOG,
    LAG_CATALOG,
    BamConcrete,
    BamSpec,
    GeneralConcrete,
    GeneralSystemSpec,
    InvalidSpecError,
    LinearConcrete,
    LinearSystemSpec,
)

# a document deeper than the interpreter's recursion limit is malformed
_TOO_DEEP = "document nests too deeply"
_PLAIN = frozenset({int, float})  # the types of a plain number


class DocumentError(ValueError):
    """A system document is malformed; the message names the field path."""


class ParsedInput(NamedTuple):
    kind: str
    spec: object
    concrete: object | None
    sha256: str | None = None  # of the bytes `parse_file` read; None for a dict


def _fail(path: str, message: str):
    raise DocumentError(f"{path}: {message}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _plain_numbers(x: list) -> bool:
    """True when every entry is exactly an int or a float (no bools)."""
    return _PLAIN.issuperset(map(type, x))


def _num(x, path: str) -> float:
    # reprlib keeps the line short whatever the value's size or depth
    if not _is_number(x):
        _fail(path, f"expected a number, got {reprlib.repr(x)}")
    try:
        return float(x)
    except OverflowError:  # an int beyond float range
        _fail(path, f"expected a finite number, got {reprlib.repr(x)}")


def _finite(x, path: str) -> float:
    if not math.isfinite(value := _num(x, path)):
        _fail(path, f"expected a finite number, got {value}")
    return value


def _num_list(x, path: str, length: int | None = None, like: str = "") -> np.ndarray:
    # `like` names the field that fixed `length`
    if not isinstance(x, list):
        _fail(path, f"expected a list of numbers, got {type(x).__name__}")
    if length is not None and len(x) != length:
        _fail(path, f"expected {length} entries{like}, got {len(x)}")
    if _plain_numbers(x):
        try:
            return np.array(x, dtype=float)
        except OverflowError:  # raised below, at the entry's path
            pass
    return np.array([_num(v, f"{path}[{i}]") for i, v in enumerate(x)], dtype=float)


def _num_matrix(x, path: str, size: int, like: str) -> np.ndarray:
    if not isinstance(x, list) or len(x) != size:
        _fail(path, f"expected a {size}x{size} matrix{like}")
    if all(isinstance(row, list) and len(row) == size and _plain_numbers(row) for row in x):
        try:
            return np.array(x, dtype=float)
        except OverflowError:  # raised below, at the entry's path
            pass
    return np.array([_num_list(row, f"{path}[{i}]", size, like) for i, row in enumerate(x)])


def _short(name) -> str:
    # a name longer than 80 characters is shown by its first 40 and its
    # length, so the error line stays short
    name = str(name)
    return name if len(name) <= 80 else f"{name[:40]}... ({len(name)} characters)"


def _key_path(path: str, key) -> str:
    return f"{path}.{_short(key)}" if path else _short(key)


def _check_keys(node: dict, path: str, allowed, required=()):
    for key in node:
        if key not in allowed:
            _fail(_key_path(path, key), f"unknown field (allowed: {', '.join(sorted(allowed))})")
    for key in required:
        if key not in node:
            _fail(path or key, f"missing required field '{key}'")


# ---------------------------------------------------------------------------
# parameter references
# ---------------------------------------------------------------------------

def resolve_parameters(doc: dict) -> dict:
    """A copy of the document with each "$name" string replaced by its value."""
    raw = doc.get("parameters", {})
    if not isinstance(raw, dict):
        _fail("parameters", "expected an object of name -> number")
    params = {}
    for name, value in raw.items():
        params[name] = _num(value, _key_path("parameters", name))

    def walk(node, path):
        if isinstance(node, str) and node.startswith("$"):
            name = node[1:]
            if name not in params:
                _fail(path, f"unknown parameter reference '${_short(name)}'")
            return params[name]
        if isinstance(node, dict):
            return {k: walk(v, _key_path(path, k)) for k, v in node.items()}
        if isinstance(node, list):
            if _plain_numbers(node):
                return node[:]
            return [walk(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node

    return {k: (walk(v, k) if k not in ("parameters", "kind") else copy.deepcopy(v))
            for k, v in doc.items()}


def _leaf(doc, path: str):
    # (container, key) of the one scalar field that the dotted path addresses
    parts = path.split(".")
    node = doc
    for i, part in enumerate(parts):
        where = ".".join(parts[: i + 1])
        if isinstance(node, list):
            # ASCII only: int() reads other decimal digits too, and '²' not at all
            if not (part.isascii() and part.isdigit()) or int(part) >= len(node):
                _fail(where, "no such list index")
            key = int(part)
        elif isinstance(node, dict):
            if part not in node:
                _fail(where, "no such field")
            key = part
        else:
            _fail(where, "path descends through a scalar")
        parent, node = node, node[key]
    if not (_is_number(node) or (isinstance(node, str) and node.startswith("$"))):
        _fail(path, "parameter path must address one scalar field")
    return parent, key


def set_parameter(doc: dict, path: str, value: float) -> dict:
    """Return a copy of the document with one scalar leaf replaced.

    The dotted path addresses nested objects; components of ASCII digits
    index lists (for example "dynamics.rate_x.amp" or "spec.A_off.0.1").
    """
    out = copy.deepcopy(doc)
    node, key = _leaf(out, path)
    node[key] = float(value)
    return out


# ---------------------------------------------------------------------------
# catalog functions
# ---------------------------------------------------------------------------

def _build_fn(node, catalog: dict, path: str, allow_null: bool = False):
    if node is None:
        if allow_null:
            return None
        _fail(path, "function must not be null here")
    if not isinstance(node, dict) or "type" not in node:
        _fail(path, "expected a function object with a 'type' field")
    kind = node["type"]
    if not isinstance(kind, str) or kind not in catalog:
        _fail(f"{path}.type",
              f"unknown function {reprlib.repr(kind)} (choose from: {', '.join(sorted(catalog))})")
    cls, param_names = catalog[kind]
    _check_keys(node, path, allowed=("type",) + param_names, required=param_names)
    # checked at its own path: the spec fields derived from it are not the document's
    fn = cls(**{name: _finite(node[name], f"{path}.{name}") for name in param_names})
    if catalog is LAG_CATALOG and fn.lower < 0:
        _fail(path, f"lag must stay nonnegative (minimum {fn.lower})")
    for name in ("lower", "upper", "bound"):
        if not math.isfinite(value := getattr(fn, name, 0.0)):
            _fail(path, f"{name} overflows to {value}")
    return fn


def _fn_list(node, catalog, path, length, allow_null=False, like=""):
    if not isinstance(node, list) or len(node) != length:
        _fail(path, f"expected a list of {length} function objects{like}")
    return [_build_fn(v, catalog, f"{path}[{i}]", allow_null=allow_null)
            for i, v in enumerate(node)]


def _fn_matrix(node, catalog, path, size, allow_null=False, like=""):
    if not isinstance(node, list) or len(node) != size:
        _fail(path, f"expected a {size}x{size} matrix of function objects{like}")
    out = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != size:
            _fail(f"{path}[{i}]", f"expected {size} entries{like}")
        out.append([_build_fn(v, catalog, f"{path}[{i}][{j}]", allow_null=allow_null)
                    for j, v in enumerate(row)])
    return out


def _history_vec(doc: dict, dim: int, like: str, required: bool) -> np.ndarray | None:
    if "history" not in doc:
        if required:
            _fail("history", "required when dynamics is present")
        return None
    history = _num_list(doc["history"], "history", dim, like)
    for i in np.flatnonzero(~np.isfinite(history)):
        _finite(history[i], f"history[{i}]")
    return history


# ---------------------------------------------------------------------------
# the spec parser and the dynamics parser of each kind
# ---------------------------------------------------------------------------

def _lag_bound(fn) -> float:
    return 0.0 if fn is None else fn.bound


def _require_delay_free(diagonal_lags, path: str):
    # the concrete system checks these lags too, against a declared bound of
    # 0 within its 1e-9 tolerance, but names its own 1-based read labels
    for i, fn in enumerate(diagonal_lags):
        if fn is not None and fn.bound > 1e-12:
            _fail(path.format(i=i), f"lag must be zero for a delay-free diagonal "
                                    f"(bound {fn.bound})")


def _general_dynamics(dyn: dict, given: dict, scalar: bool):
    _check_keys(dyn, "dynamics",
                allowed=("coefficients", "leak_lags", "coupling_lags", "couplings"),
                required=("coefficients", "leak_lags", "coupling_lags", "couplings"))
    # a dynamics document has no spec.alpha, so an empty one is refused here
    if not isinstance(dyn["coefficients"], list) or not dyn["coefficients"]:
        _fail("dynamics.coefficients", "expected a nonempty list of function objects")
    m, like = len(dyn["coefficients"]), " to match dynamics.coefficients"
    coeffs = _fn_list(dyn["coefficients"], COEFF_CATALOG, "dynamics.coefficients", m)
    leak = _fn_list(dyn["leak_lags"], LAG_CATALOG, "dynamics.leak_lags", m,
                    allow_null=True, like=like)
    if given["diagonal_delay_free"]:
        _require_delay_free(leak, "dynamics.leak_lags[{i}]")
    clags = _fn_matrix(dyn["coupling_lags"], LAG_CATALOG, "dynamics.coupling_lags",
                       m, allow_null=True, like=like)
    coups = _fn_matrix(dyn["couplings"], ACTIVATION_CATALOG, "dynamics.couplings",
                       m, allow_null=True, like=like)
    for i, c in enumerate(coeffs):
        if c.lower <= 0:
            _fail(f"dynamics.coefficients[{i}]",
                  f"decay coefficient range must stay positive (lower {c.lower})")
    bounds = dict(alpha=[c.lower for c in coeffs], A=[c.upper for c in coeffs],
                  tau=[_lag_bound(f) for f in leak],
                  sigma=[[_lag_bound(f) for f in row] for row in clags],
                  L=[[0.0 if f is None else f.lipschitz for f in row] for row in coups])
    return bounds, lambda spec, history: GeneralConcrete(spec, coeffs, leak, clags, coups,
                                                         history)


def _linear_dynamics(dyn: dict, given: dict, scalar: bool):
    _check_keys(dyn, "dynamics", allowed=("coefficients", "lags"),
                required=("coefficients", "lags"))
    if not isinstance(dyn["coefficients"], list) or not dyn["coefficients"]:
        _fail("dynamics.coefficients", "expected a nonempty matrix of function objects")
    m = len(dyn["coefficients"])
    coeffs = _fn_matrix(dyn["coefficients"], COEFF_CATALOG, "dynamics.coefficients", m)
    lags = _fn_matrix(dyn["lags"], LAG_CATALOG, "dynamics.lags", m, allow_null=True,
                      like=" to match dynamics.coefficients")
    if given["diagonal_delay_free"]:
        _require_delay_free([lags[i][i] for i in range(m)], "dynamics.lags[{i}][{i}]")
    alpha, upper, off = [], [], []
    for i in range(m):
        diag = coeffs[i][i]
        if diag.upper >= 0:
            _fail(f"dynamics.coefficients[{i}][{i}]",
                  f"diagonal coefficient must stay negative (upper {diag.upper})")
        alpha.append(-diag.upper)
        upper.append(-diag.lower)
        off.append([max(abs(coeffs[i][j].lower), abs(coeffs[i][j].upper))
                    if j != i else 0.0 for j in range(m)])
    bounds = dict(alpha=alpha, A=upper, A_off=off,
                  sigma=[[_lag_bound(f) for f in row] for row in lags])
    return bounds, lambda spec, history: LinearConcrete(spec, coeffs, lags, history)


def _bam_dynamics(dyn: dict, given: dict, scalar: bool):
    # BamConcrete takes the functions in this order
    catalogs = {"rate_x": COEFF_CATALOG, "rate_y": COEFF_CATALOG,
                "leak_x": LAG_CATALOG, "leak_y": LAG_CATALOG,
                "trans_x": LAG_CATALOG, "trans_y": LAG_CATALOG,
                "f": ACTIVATION_CATALOG, "g": ACTIVATION_CATALOG}
    _check_keys(dyn, "dynamics", allowed=catalogs, required=catalogs)
    fns = {key: [_build_fn(dyn[key], catalog, f"dynamics.{key}")] if scalar
           else _fn_list(dyn[key], catalog, f"dynamics.{key}", len(given["a"]),
                         like=" to match spec.a")
           for key, catalog in catalogs.items()}
    for label in ("rate_x", "rate_y"):
        for i, r in enumerate(fns[label]):
            if r.lower <= 0:
                _fail(f"dynamics.{label}" + ("" if scalar else f"[{i}]"),
                      f"rate range must stay positive (lower {r.lower})")
    rate_x, rate_y, leak_x, leak_y, trans_x, trans_y, act_f, act_g = fns.values()
    bounds = dict(
        Lf=[f.lipschitz for f in act_f], Lg=[g.lipschitz for g in act_g],
        r_lo=[r.lower for r in rate_x], r_hi=[r.upper for r in rate_x],
        p_lo=[p.lower for p in rate_y], p_hi=[p.upper for p in rate_y],
        tau_x=[f.bound for f in leak_x], tau_y=[f.bound for f in leak_y],
        sigma_x=[f.bound for f in trans_x], sigma_y=[f.bound for f in trans_y],
    )
    return bounds, lambda spec, history: BamConcrete(spec, *fns.values(), history)


# kind: its spec class, the spec fields a document with dynamics still gives,
# and the parser of its dynamics section, which returns the spec's other
# fields and the realization of the spec
_TWO_LAYER = (BamSpec, ("a", "b", "a_conn", "b_conn", "I", "J"), _bam_dynamics)
_KINDS = {"general": (GeneralSystemSpec, (), _general_dynamics),
          "linear": (LinearSystemSpec, (), _linear_dynamics),
          "bam": _TWO_LAYER, "two_neuron": _TWO_LAYER}
# two_neuron is the one-unit bam written in scalars, its couplings renamed
_SCALAR_NAMES = {"a_conn": "coupling_xy", "b_conn": "coupling_yx"}


@cache
def _spec_keys(kind: str, with_dynamics: bool) -> dict:
    # spec field -> document key of the spec fields a document gives, in the
    # order they are read: with dynamics the structural fields, else every
    # array field of the spec class, the structural ones first
    cls, structural, _ = _KINDS[kind]
    names = structural if with_dynamics else structural + tuple(
        f.name for f in fields(cls) if f.name not in structural + ("diagonal_delay_free",))
    return {name: _SCALAR_NAMES.get(name, name) if kind == "two_neuron" else name
            for name in names}


def _spec_layout(doc: dict, kind: str):
    # the spec checks that read no number, so no swept value can change them:
    # (spec object, its flag as given, spec field -> document key)
    spec_node = doc.get("spec")
    if not isinstance(spec_node, dict):
        _fail("spec", "expected an object")
    given = {}
    if hasattr(_KINDS[kind][0], "diagonal_delay_free"):
        given["diagonal_delay_free"] = spec_node.get("diagonal_delay_free", False)
        if not isinstance(given["diagonal_delay_free"], bool):
            _fail("spec.diagonal_delay_free", "expected true or false")
    keys = _spec_keys(kind, doc.get("dynamics") is not None)
    _check_keys(spec_node, "spec", allowed=(*keys.values(), *given),
                required=[key for key in keys.values() if key not in ("I", "J")])
    return spec_node, given, keys


def _parse_spec(doc: dict, kind: str):
    spec_node, given, keys = _spec_layout(doc, kind)
    cls, _, parse_dynamics = _KINDS[kind]
    scalar = kind == "two_neuron"
    m, like = None, ""  # the first field, a vector, fixes the dimension
    for name, key in keys.items():
        path = f"spec.{key}"
        if key not in spec_node:  # I or J, the only optional fields: zero inputs
            given[name] = [0.0] * m
        elif scalar:
            value = [_num(spec_node[key], path)]
            given[name] = [value] if name in cls.MATRICES else value
        elif name in cls.MATRICES:
            given[name] = _num_matrix(spec_node[key], path, m, like)
        else:
            given[name] = _num_list(spec_node[key], path, m, like)
        if m is None:
            m, like = len(given[name]), f" to match {path}"
    dyn = doc.get("dynamics")
    if dyn is None:
        return cls(**given), None
    if not isinstance(dyn, dict):
        _fail("dynamics", "expected an object")
    bounds, realize = parse_dynamics(dyn, given, scalar)
    return cls(**given, **bounds), realize


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _root_kind(doc) -> str:
    # the root object, its keys and its kind: the checks made before the
    # parameter references are resolved
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    _check_keys(doc, "", allowed=("kind", "parameters", "spec", "dynamics", "history"),
                required=("kind", "spec"))
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        _fail("kind", f"expected one of {', '.join(_KINDS)}, got {reprlib.repr(kind)}")
    return kind


def _build(resolved: dict, kind: str) -> ParsedInput:
    # the spec parser of a resolved document builds (and so checks) the
    # spec, each broken rule naming a spec field, written as its document
    # path; the history (required with dynamics) and the concrete system
    # follow, whose checks cannot fail for a spec derived from the same functions
    try:
        spec, realize = _parse_spec(resolved, kind)
    except InvalidSpecError as exc:
        problems = ["spec." + p for p in exc.violations]
        if kind == "two_neuron":  # its spec fields are scalars
            for name, key in _SCALAR_NAMES.items():
                problems = [p.replace(f"{name}[0][0]", key) for p in problems]
            problems = [p.replace("[0]", "") for p in problems]
        raise DocumentError("; ".join(problems)) from exc
    # a two-layer state holds both layers; the field that fixed the dimension
    # is named with a length refusal
    if isinstance(spec, BamSpec):
        dim, like = 2 * spec.n, " for both layers of spec.a"
    else:
        dim, like = spec.m, " to match " + ("spec.alpha" if realize is None
                                           else "dynamics.coefficients")
    history = _history_vec(resolved, dim, like, required=realize is not None)
    concrete = None if realize is None else realize(spec, history)
    return ParsedInput(kind=kind, spec=spec, concrete=concrete)


def parse_document(doc: dict) -> ParsedInput:
    kind = _root_kind(doc)
    if "parameters" not in doc:
        # no "$name" can resolve: parse as read, and walk the document only
        # when that fails, for a reference or depth error that comes first
        try:
            return _build(doc, kind)
        except DocumentError:
            pass
    try:
        resolved = resolve_parameters(doc)
    except RecursionError:
        raise DocumentError(_TOO_DEEP) from None
    return _build(resolved, kind)


def _paths_to(node, hit, keys: tuple = ()):
    # key paths below a container of every child for which hit(container,
    # key, child) holds; hits are not descended into
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if hit(node, key, child):
            yield keys + (key,)
        elif isinstance(child, (dict, list)):
            yield from _paths_to(child, hit, keys + (key,))


def _overlay(node, trie: dict, value: float):
    # copy of node with `value` at the trie's leaves; only the containers on
    # the trie's paths are copied, everything else is shared with node
    out = node.copy()
    for key, sub in trie.items():
        out[key] = value if sub is None else _overlay(node[key], sub, value)
    return out


def point_parser(doc: dict, path: str):
    """Return `value -> parse_document(set_parameter(doc, path, value))`.

    What no value can change is checked here, once, in the order the composed
    parse meets it, and raises DocumentError with the same text: the path; the
    root object, its keys and kind (as given, so a path into a non-string kind
    names that kind, not the value); then `parameters` and every reference,
    with a placeholder at `path`; then the spec object, its flag and its
    field names.  Each call copies only the containers on the paths where the
    value lands (the leaf, and for `parameters.NAME` every "$NAME" leaf too)
    and runs the spec parser.
    """
    try:
        template = copy.deepcopy(doc)
        node, leaf = _leaf(template, path)
        kind = _root_kind(template)
        node[leaf] = 0.0
        # every way to reach the leaf, in case a container appears more than once
        spots = list(_paths_to(template, lambda at, key, _: at is node and key == leaf))
        refs = {"$" + keys[1] for keys in spots if len(keys) == 2 and keys[0] == "parameters"}
        if refs:
            spots += _paths_to(template,
                               lambda at, key, child: isinstance(child, str) and child in refs)
        resolved = resolve_parameters(template)
    except RecursionError:
        raise DocumentError(_TOO_DEEP) from None
    _spec_layout(resolved, kind)
    trie: dict = {}
    for keys in spots:
        branch = trie
        for key in keys[:-1]:
            branch = branch.setdefault(key, {})
        branch[keys[-1]] = None

    def parse_at(value: float) -> ParsedInput:
        return _build(_overlay(resolved, trie, float(value)), kind)

    return parse_at


def _read(path: str) -> tuple[object, bytes]:
    # the JSON value of a file and the bytes it was read from, read once;
    # decoded as UTF-8, which keeps a BOM, so that a BOM is refused as invalid JSON
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8")), data
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError:
        raise DocumentError(f"{path}: {_TOO_DEEP}") from None


def load_json(path: str):
    """Read a JSON file; unreadable or malformed files raise DocumentError."""
    return _read(path)[0]


def parse_file(path: str) -> ParsedInput:
    """Parse a document file; `sha256` is the digest of its bytes (`sha256sum`)."""
    doc, data = _read(path)
    return parse_document(doc)._replace(sha256=hashlib.sha256(data).hexdigest())
