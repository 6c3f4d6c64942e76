"""Reference computations that only the tests use."""

from dataclasses import fields

import numpy as np

from delaystab import BamSpec, GeneralSystemSpec, LinearSystemSpec
from delaystab.linalg import as_square


def leading_principal_minors(a) -> np.ndarray:
    """Determinants of the k-by-k top-left submatrices, k = 1..n."""
    arr = as_square(a)
    return np.array([np.linalg.det(arr[:k, :k]) for k in range(1, arr.shape[0] + 1)])


def serialize_spec(spec) -> dict:
    """Bounds-only document for a spec; parse_document round-trips it."""
    kind = {GeneralSystemSpec: "general", LinearSystemSpec: "linear",
            BamSpec: "bam"}.get(type(spec))
    if kind is None:
        raise TypeError(f"cannot serialize {type(spec).__name__}")
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"kind": kind, "spec": {
        name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}}
