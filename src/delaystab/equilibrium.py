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
from itertools import product
from math import inf, isfinite

import numpy as np

from .linalg import spectral_radius
from .systems import BamSpec, require_bam

# sup-norm step threshold; at equilibria of magnitude ~1e4 a tighter value
# would sit below float spacing and the loop could cycle forever
STEP_TOL = 1e-11
MAX_ITER = 10_000


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


def build_existence_matrices(bam: BamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative bound matrices controlling equilibrium existence.

    The first scales each row's incoming Lipschitz weights by that row's own
    gain; the second scales by the source unit's gain instead.  A spec of
    another family raises FamilyError.
    """
    n = require_bam(bam).n
    first = np.zeros((2 * n, 2 * n))
    first[:n, n:] = np.abs(bam.a_conn) * bam.Lf[None, :] / bam.a[:, None]
    first[n:, :n] = np.abs(bam.b_conn) * bam.Lg[None, :] / bam.b[:, None]
    second = np.zeros((2 * n, 2 * n))
    second[:n, n:] = np.abs(bam.a_conn) * (bam.Lf / bam.b)[None, :]
    second[n:, :n] = np.abs(bam.b_conn) * (bam.Lg / bam.a)[None, :]
    return first, second


def _conditions(bam: BamSpec):
    """The eight conditions in report order, each evaluated when it is asked for; a norm that
    is not finite is inf, as is the spectral radius of a matrix with an entry that is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        matrices = build_existence_matrices(bam)
    norms = (("spectral radius", lambda m: spectral_radius(m) if np.isfinite(m).all() else inf),
             ("max row sum", lambda m: np.abs(m).sum(axis=1).max()),
             ("max column sum", lambda m: np.abs(m).sum(axis=0).max()),
             ("squared-entry sum", lambda m: (m * m).sum()))
    for index, ((label, mat), (name, norm)) in enumerate(product(zip("AB", matrices), norms), 1):
        with np.errstate(over="ignore", invalid="ignore"):
            v = norm(mat)
        yield ExistenceCondition(index, f"{name} of {label} < 1",
                                 float(v) if isfinite(v) else inf, bool(v < 1.0))


def equilibrium_exists(bam: BamSpec) -> ExistenceReport:
    """Evaluate the eight sufficient conditions; any one settles existence.

    A condition whose norm overflows, or is built from a bound that does,
    does not hold: its value is inf.
    """
    conditions = tuple(_conditions(bam))
    return ExistenceReport(conditions, any(c.holds for c in conditions))


def solve_equilibrium(bam: BamSpec, f, g, existence: ExistenceReport | None = None) -> Equilibrium:
    """Fixed-point iteration for the equilibrium, started from the inputs.

    f and g are the activation functions of each layer (catalog objects or
    plain callables).  Warns when `existence` certifies nothing or, left out,
    when none of the conditions holds (they are evaluated up to the first
    that does).  Iterates until the sup-norm step drops below STEP_TOL, then
    back-substitutes x = u/a, y = v/b and reports the residual of the
    original equilibrium equations, which comes out below 10*STEP_TOL.

    Raises DivergenceError when steps grow for 10 consecutive iterations or
    MAX_ITER iterations are exhausted, and FamilyError when `bam` is a spec of
    another family.
    """
    n = require_bam(bam).n
    if len(f) != n or len(g) != n:
        raise ValueError(f"need {n} activations per layer, "
                         f"got {len(f)} and {len(g)}")
    if not (existence.exists_unique if existence else any(c.holds for c in _conditions(bam))):
        warnings.warn("none of the existence conditions holds; iterating "
                      "with a divergence guard", RuntimeWarning, stacklevel=2)

    def apply(w: np.ndarray) -> np.ndarray:
        # the map w -> F(w) + offset on the scaled state (u_1..u_n, v_1..v_n)
        fv = np.array([f[j](w[n + j] / bam.b[j]) for j in range(n)])
        gu = np.array([g[j](w[j] / bam.a[j]) for j in range(n)])
        return np.concatenate([bam.a_conn @ fv + bam.I,
                               bam.b_conn @ gu + bam.J])

    w = np.concatenate([bam.I, bam.J])
    prev_step = np.inf
    ratio = 0.0
    growing = 0
    for iterations in range(1, MAX_ITER + 1):
        w_new = apply(w)
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
        if step < STEP_TOL:
            break
        prev_step = step
    else:
        raise DivergenceError(f"no convergence within {MAX_ITER} iterations "
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
    if residual > 10.0 * STEP_TOL * max(1.0, float(np.max(np.abs(w)))):
        raise DivergenceError(
            f"iteration settled but the residual {residual:.3e} is "
            "inconsistent with the step tolerance", x, y, ratio)
    return Equilibrium(x, y, residual, iterations, ratio)
