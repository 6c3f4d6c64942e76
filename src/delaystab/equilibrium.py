"""Existence tests and computation of the two-layer network equilibrium.

The equilibrium equations are rewritten as a fixed-point problem in scaled
coordinates u_i = a_i x_i, v_i = b_i y_i, which keeps the iteration map free
of divisions by the gains.  Existence/uniqueness is guaranteed when any of
eight norm conditions on two nonnegative bound matrices holds (spectral
radius, max row sum, max column sum, or squared-entry sum below 1, for each
matrix); the solver then runs plain fixed-point iteration with a divergence
guard, so it also works on many systems where none of the eight happens to
hold.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_radius
from .systems import BamSpec, require_valid

# sup-norm step threshold; at equilibria of magnitude ~1e4 a tighter value
# would sit below float spacing and the loop could cycle forever
DEFAULT_STEP_TOL = 1e-11


class DivergenceError(RuntimeError):
    """Fixed-point iteration failed to settle.

    Carries the last iterate (x, y) and the last observed step ratio.
    """

    def __init__(self, message: str, x_last: np.ndarray, y_last: np.ndarray,
                 ratio: float):
        super().__init__(message)
        self.x_last = x_last
        self.y_last = y_last
        self.ratio = ratio


@dataclass(frozen=True)
class ExistenceCondition:
    index: int
    description: str
    value: float
    holds: bool


@dataclass(frozen=True)
class ExistenceReport:
    conditions: tuple[ExistenceCondition, ...]
    exists_unique: bool


@dataclass(frozen=True)
class Equilibrium:
    x_star: np.ndarray
    y_star: np.ndarray
    residual: float
    iterations: int
    contraction_ratio: float


class FixedPointSystem:
    """The merged fixed-point map u = F(u) + offset in scaled coordinates.

    State layout is (u_1..u_n, v_1..v_n).  `lipschitz` bounds the map's
    componentwise sensitivity; its nonzero pattern is block-anti-diagonal
    because each layer only reads the other.
    """

    def __init__(self, bam: BamSpec, f, g):
        require_valid(bam)
        n = bam.n
        if len(f) != n or len(g) != n:
            raise ValueError(f"need {n} activations per layer, "
                             f"got {len(f)} and {len(g)}")
        self.bam = bam
        self.n = n
        self.dim = 2 * n
        self.f = list(f)
        self.g = list(g)
        self.offset = np.concatenate([bam.I, bam.J])
        lip = np.zeros((2 * n, 2 * n))
        lip[:n, n:] = np.abs(bam.a_conn) * (bam.Lf / bam.b)[None, :]
        lip[n:, :n] = np.abs(bam.b_conn) * (bam.Lg / bam.a)[None, :]
        self.lipschitz = lip

    def apply(self, w: np.ndarray) -> np.ndarray:
        bam, n = self.bam, self.n
        fv = np.array([self.f[j](w[n + j] / bam.b[j]) for j in range(n)])
        gu = np.array([self.g[j](w[j] / bam.a[j]) for j in range(n)])
        return np.concatenate([bam.a_conn @ fv + bam.I,
                               bam.b_conn @ gu + bam.J])


def build_existence_matrices(bam: BamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative bound matrices controlling equilibrium existence.

    The first scales each row's incoming Lipschitz weights by that row's own
    gain; the second scales by the source unit's gain instead.
    """
    require_valid(bam)
    n = bam.n
    first = np.zeros((2 * n, 2 * n))
    first[:n, n:] = np.abs(bam.a_conn) * bam.Lf[None, :] / bam.a[:, None]
    first[n:, :n] = np.abs(bam.b_conn) * bam.Lg[None, :] / bam.b[:, None]
    second = np.zeros((2 * n, 2 * n))
    second[:n, n:] = np.abs(bam.a_conn) * (bam.Lf / bam.b)[None, :]
    second[n:, :n] = np.abs(bam.b_conn) * (bam.Lg / bam.a)[None, :]
    return first, second


def _norm_conditions(mat: np.ndarray, label: str, start: int) -> list[ExistenceCondition]:
    out = []
    r = spectral_radius(mat)
    out.append(ExistenceCondition(start, f"spectral radius of {label} < 1",
                                  float(r), bool(r < 1.0)))
    row = float(np.abs(mat).sum(axis=1).max())
    out.append(ExistenceCondition(start + 1, f"max row sum of {label} < 1",
                                  row, bool(row < 1.0)))
    col = float(np.abs(mat).sum(axis=0).max())
    out.append(ExistenceCondition(start + 2, f"max column sum of {label} < 1",
                                  col, bool(col < 1.0)))
    frob = float((mat * mat).sum())
    out.append(ExistenceCondition(start + 3, f"squared-entry sum of {label} < 1",
                                  frob, bool(frob < 1.0)))
    return out


def equilibrium_exists(bam: BamSpec) -> ExistenceReport:
    """Evaluate the eight sufficient conditions; any one settles existence."""
    first, second = build_existence_matrices(bam)
    conditions = _norm_conditions(first, "A", 1) + _norm_conditions(second, "B", 5)
    return ExistenceReport(tuple(conditions), any(c.holds for c in conditions))


def solve_equilibrium(bam: BamSpec, f, g, tol: float = DEFAULT_STEP_TOL,
                      max_iter: int = 10_000) -> Equilibrium:
    """Fixed-point iteration for the equilibrium, started from the inputs.

    f and g are the activation functions of each layer (catalog objects or
    plain callables).  Iterates until the sup-norm step drops below tol,
    then back-substitutes x = u/a, y = v/b and reports the residual of the
    original equilibrium equations, which comes out below 10*tol.

    Raises DivergenceError when steps grow for 10 consecutive iterations or
    max_iter is exhausted.
    """
    fixed_point = FixedPointSystem(bam, f, g)
    report = equilibrium_exists(bam)
    if not report.exists_unique:
        warnings.warn("none of the existence conditions holds; iterating "
                      "with a divergence guard", RuntimeWarning, stacklevel=2)
    bam = fixed_point.bam
    n = bam.n
    w = fixed_point.offset.copy()
    prev_step = np.inf
    ratio = 0.0
    growing = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        w_new = fixed_point.apply(w)
        step = float(np.max(np.abs(w_new - w)))
        ratio = step / prev_step if np.isfinite(prev_step) and prev_step > 0 else 0.0
        if not np.isfinite(step):
            raise DivergenceError("iteration produced non-finite values",
                                  w[:n] / bam.a, w[n:] / bam.b, ratio)
        if step >= prev_step:
            growing += 1
            if growing >= 10:
                raise DivergenceError(
                    f"steps grew for {growing} consecutive iterations "
                    f"(last step {step:.3e})", w_new[:n] / bam.a,
                    w_new[n:] / bam.b, ratio)
        else:
            growing = 0
        w = w_new
        if step < tol:
            converged = True
            break
        prev_step = step
    if not converged:
        raise DivergenceError(f"no convergence within {max_iter} iterations "
                              f"(last step {prev_step:.3e})",
                              w[:n] / bam.a, w[n:] / bam.b, ratio)
    x = w[:n] / bam.a
    y = w[n:] / bam.b
    fv = np.array([f[j](y[j]) for j in range(n)])
    gu = np.array([g[j](x[j]) for j in range(n)])
    residual = max(
        float(np.max(np.abs(bam.a * x - bam.a_conn @ fv - bam.I))),
        float(np.max(np.abs(bam.b * y - bam.b_conn @ gu - bam.J))),
    )
    if residual > 10.0 * tol * max(1.0, float(np.max(np.abs(w)))):
        raise DivergenceError(
            f"iteration settled but the residual {residual:.3e} is "
            "inconsistent with the step tolerance", x, y, ratio)
    return Equilibrium(x, y, residual, iterations, ratio)
