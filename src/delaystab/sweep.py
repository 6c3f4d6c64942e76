"""Parameter sweeps over system documents and failure-threshold search."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .criteria import (
    STATUS_STABLE,
    FamilyError,
    NotCertifiedError,
    bisect,
    certify_decay_rate,
    stability_verdict,
    two_neuron_closed_form,
)
from .equilibrium import DivergenceError, solve_equilibrium
from .linalg import DEFAULT_TOL, LinalgInputError
from .simulate import FitInapplicableError, SimConfig, SimulationError, fit_decay, simulate
from .specio import DocumentError, parse_document, set_parameter
from .systems import BamSpec, InvalidSpecError

COARSEST_STEP = 0.01
THRESHOLD_STRIDE = 1.0
MAX_EXPAND = 60
# what a document unusable at one parameter value raises
_POINT_ERRORS = (DocumentError, InvalidSpecError, FamilyError, LinalgInputError)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: certification outcome, optional rate and fit."""

    value: float
    status: str
    criterion: str | None
    lambda0: float | None
    lambda_hat: float | None
    error: str | None

    @property
    def stable(self) -> bool:
        return self.status == STATUS_STABLE

    def as_dict(self) -> dict:
        return asdict(self)


def fit_reference(parsed) -> np.ndarray:
    """Steady state a decaying trajectory should approach.

    Two-layer documents with dynamics get their solved equilibrium; the
    other families have no constant forcing, so zero is the fixed point.
    """
    spec = parsed.spec
    if isinstance(spec, BamSpec) and parsed.activations is not None:
        f, g = parsed.activations
        eq = solve_equilibrium(spec, f, g)
        return np.concatenate([eq.x_star, eq.y_star])
    return np.zeros(parsed.concrete.dim)


def sweep(document: dict, path: str, values, *, tol: float = DEFAULT_TOL,
          criterion: str | None = None, simulate_until: float | None = None,
          step: float | None = None) -> list[SweepRow]:
    """Re-run certification for each value of one scalar document field.

    Rows keep the order of `values`.  A value whose document fails to parse
    or fit the test, or whose simulation cannot start, gets status "error"
    with the message; the rest of the sweep continues.  When
    `simulate_until` is set, each point with concrete dynamics is also
    integrated from its history and the observed decay rate toward the
    equilibrium is fitted; a run that blows up or does not decay keeps its
    row, with lambda_hat None.
    """
    rows = []
    for value in values:
        value = float(value)
        status, tag, lam0, lam_hat, error = "error", None, None, None, None
        try:
            parsed = parse_document(set_parameter(document, path, value))
            verdict = stability_verdict(parsed.spec, tol=tol, criterion=criterion)
            status, tag = verdict.status, verdict.criterion_used
            if verdict.stable:
                try:
                    lam0 = certify_decay_rate(parsed.spec, tol=tol).lambda0
                except (FamilyError, NotCertifiedError):
                    lam0 = None
            if simulate_until is not None and parsed.concrete is not None:
                try:
                    lam_hat = _simulated_rate(parsed, simulate_until, step)
                except ValueError as exc:  # unusable step or span
                    status, error = "error", str(exc)
        except _POINT_ERRORS as exc:
            status, error = "error", str(exc)
        rows.append(SweepRow(value, status, tag, lam0, lam_hat, error))
    return rows


def _simulated_rate(parsed, t_end: float, step: float | None) -> float | None:
    h = step if step is not None else default_step(parsed.concrete, 0.0, t_end)
    try:
        traj = simulate(parsed.concrete, SimConfig(t0=0.0, t_end=t_end, h=h))
        return fit_decay(traj, fit_reference(parsed)).lambda_hat
    except (SimulationError, FitInapplicableError, DivergenceError):
        return None


def default_step(system, t0: float, t_end: float) -> float:
    """A step that divides the span, at most COARSEST_STEP and a tenth of
    the smallest positive delay bound."""
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed t0")
    h_cap = COARSEST_STEP
    bound = system.min_positive_lag_bound
    if bound is not None:
        h_cap = min(h_cap, bound / 10.0)
    n = max(1, int(np.ceil(span / h_cap - 1e-9)))
    return span / n


@dataclass(frozen=True)
class Threshold:
    """Largest certified-stable parameter value with its failure bracket."""

    value: float
    bracket: tuple[float, float]
    evaluations: int


def find_failure_threshold(document: dict, path: str, *, start: float = 0.0,
                           tol: float = DEFAULT_TOL) -> Threshold:
    """Locate where certification first fails along one scalar parameter.

    Walks up from `start` (which must certify) by THRESHOLD_STRIDE, doubling
    the stride up to MAX_EXPAND times until a value fails, then bisects the
    bracket.  Documents that fail to parse at a trial value count as
    failures, so the search also finds validity edges.  Scalar two-layer
    documents are judged by the closed form; everything else by the
    auto-selected matrix test.
    """
    evals = 0

    def certified(value: float) -> bool:
        nonlocal evals
        evals += 1
        try:
            parsed = parse_document(set_parameter(document, path, value))
            spec = parsed.spec
            if isinstance(spec, BamSpec) and spec.n == 1:
                return two_neuron_closed_form(spec, tol=tol).stable
            return stability_verdict(spec, tol=tol).stable
        except _POINT_ERRORS:
            return False

    if not certified(start):
        raise ValueError(f"starting value {start} is not certified stable")
    lo, width = float(start), THRESHOLD_STRIDE
    for _ in range(MAX_EXPAND):
        if not certified(lo + width):
            break
        lo, width = lo + width, 2.0 * width
    else:
        raise ValueError(
            f"no failure found up to {lo + width} after {MAX_EXPAND} expansions")
    lo, hi = bisect(certified, lo, lo + width)
    return Threshold(value=lo, bracket=(lo, hi), evaluations=evals)
