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
parameter sweeps).

When "dynamics" is present the analytic bounds (decay brackets, delay
bounds, Lipschitz constants) are derived from the named functions; the spec
section then only carries the structural constants.  Without dynamics the
bounds are given explicitly and the document supports analysis only, not
simulation.

All diagnostics carry the JSON field path of the offending value.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, fields
from functools import partial

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
    require_valid,
)

KINDS = ("general", "linear", "bam", "two_neuron")


class DocumentError(ValueError):
    """A system document is malformed; the message names the field path."""


@dataclass(frozen=True)
class ParsedInput:
    kind: str
    spec: object
    concrete: object | None
    history: np.ndarray | None
    activations: tuple | None
    document: dict
    sha256: str
    parameters: dict


def _fail(path: str, message: str):
    raise DocumentError(f"{path}: {message}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _num(x, path: str) -> float:
    if not _is_number(x):
        _fail(path, f"expected a number, got {x!r}")
    return float(x)


def _num_list(x, path: str, length: int | None = None) -> list[float]:
    if not isinstance(x, list):
        _fail(path, f"expected a list of numbers, got {type(x).__name__}")
    if length is not None and len(x) != length:
        _fail(path, f"expected {length} entries, got {len(x)}")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _num_matrix(x, path: str, size: int) -> list[list[float]]:
    if not isinstance(x, list) or len(x) != size:
        _fail(path, f"expected a {size}x{size} matrix")
    return [_num_list(row, f"{path}[{i}]", size) for i, row in enumerate(x)]


def _check_keys(node: dict, path: str, allowed, required=()):
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key,
                  f"unknown field (allowed: {', '.join(sorted(allowed))})")
    for key in required:
        if key not in node:
            _fail(path or key, f"missing required field '{key}'")


# ---------------------------------------------------------------------------
# parameter references
# ---------------------------------------------------------------------------

def resolve_parameters(doc: dict) -> tuple[dict, dict]:
    """Replace "$name" strings with their values; returns (resolved, params)."""
    raw = doc.get("parameters", {})
    if not isinstance(raw, dict):
        _fail("parameters", "expected an object of name -> number")
    params = {}
    for name, value in raw.items():
        params[name] = _num(value, f"parameters.{name}")

    def walk(node, path):
        if isinstance(node, str) and node.startswith("$"):
            name = node[1:]
            if name not in params:
                _fail(path, f"unknown parameter reference '${name}'")
            return params[name]
        if isinstance(node, dict):
            return {k: walk(v, f"{path}.{k}" if path else k) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node

    resolved = {k: (walk(v, k) if k not in ("parameters", "kind") else copy.deepcopy(v))
                for k, v in doc.items()}
    return resolved, params


def set_parameter(doc: dict, path: str, value: float) -> dict:
    """Return a copy of the document with one scalar leaf replaced.

    The dotted path addresses nested objects; integer components index
    lists (for example "dynamics.rate_x.amp" or "spec.A_off.0.1").
    """
    out = copy.deepcopy(doc)
    parts = path.split(".")
    node = out
    for i, part in enumerate(parts[:-1]):
        where = ".".join(parts[: i + 1])
        if isinstance(node, list):
            if not part.isdigit() or int(part) >= len(node):
                _fail(where, "no such list index")
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                _fail(where, "no such field")
            node = node[part]
        else:
            _fail(where, "path descends through a scalar")
    leaf = parts[-1]
    if isinstance(node, list):
        if not leaf.isdigit() or int(leaf) >= len(node):
            _fail(path, "no such list index")
        old = node[int(leaf)]
    elif isinstance(node, dict):
        if leaf not in node:
            _fail(path, "no such field")
        old = node[leaf]
    else:
        _fail(path, "path descends through a scalar")
    if not (_is_number(old) or (isinstance(old, str) and old.startswith("$"))):
        _fail(path, "parameter path must address one scalar field")
    if isinstance(node, list):
        node[int(leaf)] = float(value)
    else:
        node[leaf] = float(value)
    return out


def document_sha256(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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
              f"unknown function '{kind}' (choose from: {', '.join(sorted(catalog))})")
    cls, param_names = catalog[kind]
    _check_keys(node, path, allowed=("type",) + param_names, required=param_names)
    fn = cls(**{name: _num(node[name], f"{path}.{name}") for name in param_names})
    if catalog is LAG_CATALOG and fn.lower < 0:
        _fail(path, f"lag must stay nonnegative (minimum {fn.lower})")
    return fn


def _fn_list(node, catalog, path, length, allow_null=False):
    if not isinstance(node, list) or len(node) != length:
        _fail(path, f"expected a list of {length} function objects")
    return [_build_fn(v, catalog, f"{path}[{i}]", allow_null=allow_null)
            for i, v in enumerate(node)]


def _fn_matrix(node, catalog, path, size, allow_null=False):
    if not isinstance(node, list) or len(node) != size:
        _fail(path, f"expected a {size}x{size} matrix of function objects")
    out = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != size:
            _fail(f"{path}[{i}]", f"expected {size} entries")
        out.append([_build_fn(v, catalog, f"{path}[{i}][{j}]", allow_null=allow_null)
                    for j, v in enumerate(row)])
    return out


def _require_spec_valid(spec):
    try:
        return require_valid(spec)
    except InvalidSpecError as exc:
        raise DocumentError("; ".join(f"spec.{p}" for p in exc.violations)) from exc


def _history_vec(doc: dict, dim: int, required: bool) -> np.ndarray | None:
    if "history" not in doc:
        if required:
            _fail("history", "required when dynamics is present")
        return None
    return np.asarray(_num_list(doc["history"], "history", dim), dtype=float)


# ---------------------------------------------------------------------------
# per-kind parsers
# ---------------------------------------------------------------------------

def _lag_bound(fn) -> float:
    return 0.0 if fn is None else fn.bound


def _general_dynamics(dyn: dict, flag: bool):
    _check_keys(dyn, "dynamics",
                allowed=("coefficients", "leak_lags", "coupling_lags", "couplings"),
                required=("coefficients", "leak_lags", "coupling_lags", "couplings"))
    if not isinstance(dyn["coefficients"], list):
        _fail("dynamics.coefficients", "expected a list of function objects")
    m = len(dyn["coefficients"])
    coeffs = _fn_list(dyn["coefficients"], COEFF_CATALOG, "dynamics.coefficients", m)
    leak = _fn_list(dyn["leak_lags"], LAG_CATALOG, "dynamics.leak_lags", m,
                    allow_null=True)
    clags = _fn_matrix(dyn["coupling_lags"], LAG_CATALOG, "dynamics.coupling_lags",
                       m, allow_null=True)
    coups = _fn_matrix(dyn["couplings"], ACTIVATION_CATALOG, "dynamics.couplings",
                       m, allow_null=True)
    for i, c in enumerate(coeffs):
        if c.lower <= 0:
            _fail(f"dynamics.coefficients[{i}]",
                  f"decay coefficient range must stay positive (lower {c.lower})")
    spec = GeneralSystemSpec(
        alpha=[c.lower for c in coeffs],
        A=[c.upper for c in coeffs],
        tau=[_lag_bound(f) for f in leak],
        sigma=[[_lag_bound(f) for f in row] for row in clags],
        L=[[0.0 if f is None else f.lipschitz for f in row] for row in coups],
        diagonal_delay_free=flag,
    )
    return spec, partial(GeneralConcrete, spec, coeffs, leak, clags, coups)


def _linear_dynamics(dyn: dict, flag: bool):
    _check_keys(dyn, "dynamics", allowed=("coefficients", "lags"),
                required=("coefficients", "lags"))
    if not isinstance(dyn["coefficients"], list):
        _fail("dynamics.coefficients", "expected a matrix of function objects")
    m = len(dyn["coefficients"])
    coeffs = _fn_matrix(dyn["coefficients"], COEFF_CATALOG, "dynamics.coefficients", m)
    lags = _fn_matrix(dyn["lags"], LAG_CATALOG, "dynamics.lags", m, allow_null=True)
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
    spec = LinearSystemSpec(
        alpha=alpha, A=upper, A_off=off,
        sigma=[[_lag_bound(f) for f in row] for row in lags],
        diagonal_delay_free=flag,
    )
    return spec, partial(LinearConcrete, spec, coeffs, lags)


# flat kinds: spec class, bounds-only vector and matrix fields (alpha first),
# and the parser of the dynamics section
_FLAT_KINDS = {
    "general": (GeneralSystemSpec, ("alpha", "A", "tau"), ("sigma", "L"), _general_dynamics),
    "linear": (LinearSystemSpec, ("alpha", "A"), ("A_off", "sigma"), _linear_dynamics),
}


def _parse_flat(doc: dict, kind: str) -> ParsedInput:
    spec_node = doc.get("spec")
    if not isinstance(spec_node, dict):
        _fail("spec", "expected an object")
    dyn = doc.get("dynamics")
    flag = spec_node.get("diagonal_delay_free", False)
    if not isinstance(flag, bool):
        _fail("spec.diagonal_delay_free", "expected true or false")
    cls, vec_keys, mat_keys, parse_dynamics = _FLAT_KINDS[kind]
    if dyn is None:
        _check_keys(spec_node, "spec", allowed=vec_keys + mat_keys + ("diagonal_delay_free",),
                    required=vec_keys + mat_keys)
        alpha = _num_list(spec_node["alpha"], "spec.alpha")
        m = len(alpha)
        bounds = {key: _num_list(spec_node[key], f"spec.{key}", m) for key in vec_keys[1:]}
        bounds.update({key: _num_matrix(spec_node[key], f"spec.{key}", m) for key in mat_keys})
        spec, make_concrete = cls(alpha=alpha, diagonal_delay_free=flag, **bounds), None
    else:
        _check_keys(spec_node, "spec", allowed=("diagonal_delay_free",))
        if not isinstance(dyn, dict):
            _fail("dynamics", "expected an object")
        spec, make_concrete = parse_dynamics(dyn, flag)
    _require_spec_valid(spec)
    history = _history_vec(doc, spec.m, required=dyn is not None)
    concrete = None if make_concrete is None else make_concrete(history)
    return _finish(doc, kind, spec, concrete, history, None)


_BAM_BOUND_KEYS = ("Lf", "Lg", "r_lo", "r_hi", "p_lo", "p_hi",
                   "tau_x", "tau_y", "sigma_x", "sigma_y")
_BAM_DYN_KEYS = ("rate_x", "rate_y", "leak_x", "leak_y", "trans_x", "trans_y",
                 "f", "g")


def _parse_bam_like(doc: dict, kind: str) -> ParsedInput:
    spec_node = doc.get("spec")
    if not isinstance(spec_node, dict):
        _fail("spec", "expected an object")
    dyn = doc.get("dynamics")
    scalar = kind == "two_neuron"
    conn_keys = ("coupling_xy", "coupling_yx") if scalar else ("a_conn", "b_conn")

    def values(key, path, n=None):
        if scalar:
            return [_num(spec_node[key], path)]
        return _num_list(spec_node[key], path, n)

    if dyn is None:
        _check_keys(spec_node, "spec",
                    allowed=("a", "b", "I", "J") + conn_keys + _BAM_BOUND_KEYS,
                    required=("a", "b") + conn_keys + _BAM_BOUND_KEYS)
    else:
        _check_keys(spec_node, "spec", allowed=("a", "b", "I", "J") + conn_keys,
                    required=("a", "b") + conn_keys)
    a = values("a", "spec.a")
    n = len(a)
    b = values("b", "spec.b", n)
    if scalar:
        a_conn = [[_num(spec_node["coupling_xy"], "spec.coupling_xy")]]
        b_conn = [[_num(spec_node["coupling_yx"], "spec.coupling_yx")]]
    else:
        a_conn = _num_matrix(spec_node["a_conn"], "spec.a_conn", n)
        b_conn = _num_matrix(spec_node["b_conn"], "spec.b_conn", n)
    inputs_i = values("I", "spec.I", n) if "I" in spec_node else [0.0] * n
    inputs_j = values("J", "spec.J", n) if "J" in spec_node else [0.0] * n

    if dyn is None:
        bounds = {key: values(key, f"spec.{key}", n) for key in _BAM_BOUND_KEYS}
        spec = BamSpec(a=a, b=b, a_conn=a_conn, b_conn=b_conn,
                       I=inputs_i, J=inputs_j, **bounds)
        _require_spec_valid(spec)
        history = _history_vec(doc, 2 * n, required=False)
        return _finish(doc, kind, spec, None, history, None)

    if not isinstance(dyn, dict):
        _fail("dynamics", "expected an object")
    _check_keys(dyn, "dynamics", allowed=_BAM_DYN_KEYS, required=_BAM_DYN_KEYS)

    def fns(key, catalog):
        if scalar:
            return [_build_fn(dyn[key], catalog, f"dynamics.{key}")]
        return _fn_list(dyn[key], catalog, f"dynamics.{key}", n)

    rate_x = fns("rate_x", COEFF_CATALOG)
    rate_y = fns("rate_y", COEFF_CATALOG)
    leak_x = fns("leak_x", LAG_CATALOG)
    leak_y = fns("leak_y", LAG_CATALOG)
    trans_x = fns("trans_x", LAG_CATALOG)
    trans_y = fns("trans_y", LAG_CATALOG)
    act_f = fns("f", ACTIVATION_CATALOG)
    act_g = fns("g", ACTIVATION_CATALOG)
    for label, rates in (("rate_x", rate_x), ("rate_y", rate_y)):
        for i, r in enumerate(rates):
            if r.lower <= 0:
                _fail(f"dynamics.{label}" + ("" if scalar else f"[{i}]"),
                      f"rate range must stay positive (lower {r.lower})")
    spec = BamSpec(
        a=a, b=b, a_conn=a_conn, b_conn=b_conn,
        Lf=[f.lipschitz for f in act_f], Lg=[g.lipschitz for g in act_g],
        r_lo=[r.lower for r in rate_x], r_hi=[r.upper for r in rate_x],
        p_lo=[p.lower for p in rate_y], p_hi=[p.upper for p in rate_y],
        tau_x=[f.bound for f in leak_x], tau_y=[f.bound for f in leak_y],
        sigma_x=[f.bound for f in trans_x], sigma_y=[f.bound for f in trans_y],
        I=inputs_i, J=inputs_j,
    )
    _require_spec_valid(spec)
    history = _history_vec(doc, 2 * n, required=True)
    concrete = BamConcrete(spec, rate_x, rate_y, leak_x, leak_y, trans_x, trans_y,
                           act_f, act_g, history)
    return _finish(doc, kind, spec, concrete, history, (act_f, act_g))


def _finish(doc, kind, spec, concrete, history, activations) -> ParsedInput:
    return ParsedInput(kind=kind, spec=spec, concrete=concrete, history=history,
                       activations=activations, document=doc,
                       sha256=document_sha256(doc),
                       parameters=doc.get("parameters", {}))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def parse_document(doc: dict) -> ParsedInput:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    _check_keys(doc, "", allowed=("kind", "parameters", "spec", "dynamics", "history"),
                required=("kind", "spec"))
    kind = doc["kind"]
    if kind not in KINDS:
        _fail("kind", f"expected one of {', '.join(KINDS)}, got {kind!r}")
    resolved, _ = resolve_parameters(doc)
    try:
        if kind in _FLAT_KINDS:
            return _parse_flat(resolved, kind)
        return _parse_bam_like(resolved, kind)
    except InvalidSpecError as exc:
        raise DocumentError("; ".join(exc.violations)) from exc


def load_json(path: str):
    """Read a JSON file; unreadable or malformed files raise DocumentError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def parse_file(path: str) -> ParsedInput:
    return parse_document(load_json(path))


def serialize_spec(spec) -> dict:
    """Bounds-only document for a spec; parse_document round-trips it."""
    kind = {GeneralSystemSpec: "general", LinearSystemSpec: "linear",
            BamSpec: "bam"}.get(type(spec))
    if kind is None:
        raise TypeError(f"cannot serialize {type(spec).__name__}")
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"kind": kind, "spec": {
        name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}}
