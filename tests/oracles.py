"""Reference computations that only the tests use."""

from dataclasses import fields

import numpy as np

from delaystab import BamSpec, GeneralSystemSpec, LinearSystemSpec, parse_document
from delaystab.linalg import as_square


def leading_principal_minors(a) -> np.ndarray:
    """Determinants of the k-by-k top-left submatrices, k = 1..n."""
    arr = as_square(a)
    return np.array([np.linalg.det(arr[:k, :k]) for k in range(1, arr.shape[0] + 1)])


def serialize_spec(spec, scalars: bool = False) -> dict:
    """Bounds-only document for a spec; parse_document round-trips it.

    Inputs I and J that are all zero are left out, as they default to zeros.
    With scalars, a one-unit two-layer spec is written as a two_neuron
    document, whose couplings are coupling_xy and coupling_yx.
    """
    kind = {GeneralSystemSpec: "general", LinearSystemSpec: "linear",
            BamSpec: "two_neuron" if scalars else "bam"}.get(type(spec))
    if kind is None:
        raise TypeError(f"cannot serialize {type(spec).__name__}")
    names = {"a_conn": "coupling_xy", "b_conn": "coupling_yx"} if scalars else {}
    out = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.name in ("I", "J") and not value.any():
            continue
        if isinstance(value, np.ndarray):
            value = value.item() if scalars else value.tolist()
        out[names.get(f.name, f.name)] = value
    return {"kind": kind, "spec": out}


def two_neuron(**scalars) -> BamSpec:
    """The spec of a bounds-only two_neuron document with these scalars.

    The rate brackets r_lo, r_hi, p_lo and p_hi default to 1.  A bound
    outside the spec's rules raises DocumentError, naming its `spec.` path.
    """
    spec = {"r_lo": 1.0, "r_hi": 1.0, "p_lo": 1.0, "p_hi": 1.0, **scalars}
    return parse_document({"kind": "two_neuron", "spec": spec}).spec
