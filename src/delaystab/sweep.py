"""Parameter sweeps over system documents, failure-threshold search, and
the decay rate observed in a simulated trajectory."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import nan

import numpy as np

from .criteria import (
    STATUS_STABLE,
    FamilyError,
    NotCertifiedError,
    certify_decay_rate,
    comparison_matrix,
    stability_verdict,
    switch_bracket,
    witness_trial,
)
from .equilibrium import DivergenceError, solve_equilibrium
from .linalg import DEFAULT_TOL
from .simulate import FitInapplicableError, SimConfig, SimulationError, fit_decay, simulate
from .specio import DocumentError
from .systems import BamSpec, InvalidSpecError

THRESHOLD_STRIDE = 1.0
MAX_EXPAND = 60
# what a document unusable at one parameter value raises
_POINT_ERRORS = (DocumentError, InvalidSpecError, FamilyError)


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


def observed_rate(parsed, traj) -> float | None:
    """Decay rate fitted to a trajectory of a document with dynamics, toward
    the steady state it should approach; None when there is no fit.

    Two-layer documents decay toward their solved equilibrium; the other
    families have no constant forcing, so zero is the fixed point.
    """
    try:
        if isinstance(parsed.spec, BamSpec):
            eq = solve_equilibrium(parsed.spec, *parsed.concrete.activations)
            reference = np.concatenate([eq.x_star, eq.y_star])
        else:
            reference = np.zeros(parsed.concrete.dim)
        return fit_decay(traj, reference).lambda_hat
    except (FitInapplicableError, DivergenceError):
        return None


def sweep(points, values, *, tol: float = DEFAULT_TOL, criterion: str | None = None,
          simulate_until: float | None = None, step: float | None = None) -> list[SweepRow]:
    """Re-run certification for each value of one scalar document field.

    `points` is the document's `point_parser` for that field, which has
    already raised any error that no value can fix.  Rows keep the order
    of `values`.  A value whose document fails to parse or fit the test, or
    whose simulation cannot start, gets status "error" with the message;
    the rest of the sweep continues.  When `simulate_until` is set, each
    point with concrete dynamics is also integrated from its history, on
    `step` or by default on `simulate`'s default step, and its
    `observed_rate` is fitted; a run that blows up or does not decay keeps
    its row, with lambda_hat None.
    """
    rows = []
    for value in values:
        value = float(value)
        status, tag, lam0, lam_hat, error = "error", None, None, None, None
        try:
            parsed = points(value)
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
    try:
        traj = simulate(parsed.concrete, SimConfig(t0=0.0, t_end=t_end, h=step))
    except SimulationError:
        return None
    return observed_rate(parsed, traj)


@dataclass(frozen=True)
class Threshold:
    """Largest certified-stable value, its (pass, fail) bracket and the values tried."""

    value: float
    bracket: tuple[float, float]
    evaluations: int


def find_failure_threshold(points, *, start: float = 0.0, tol: float = DEFAULT_TOL) -> Threshold:
    """Locate where certification first fails along one scalar parameter.

    `points` is the document's `point_parser` for that parameter.  Walks
    up from `start` (which must certify) by THRESHOLD_STRIDE, doubling the
    stride up to MAX_EXPAND times until a value fails, then narrows the
    last stride with `switch_bracket`, the search behind decay-rate
    certificates.  Documents that fail to parse at a trial value count as
    failures, so the search also finds validity edges.  Every value is
    judged by `witness_trial` on the comparison matrix that
    `stability_verdict` auto-selects.
    """
    evals = 0

    def trial(value: float) -> tuple[bool, float]:
        nonlocal evals
        evals += 1
        try:
            return witness_trial(comparison_matrix(points(value).spec), tol)[:2]
        except _POINT_ERRORS:
            return False, nan

    ok, slack_lo = trial(start)
    if not ok:
        raise ValueError(f"starting value {start} is not certified stable")
    lo, width = float(start), THRESHOLD_STRIDE
    for _ in range(MAX_EXPAND):
        ok, slack_hi = trial(lo + width)
        if not ok:
            break
        lo, width, slack_lo = lo + width, 2.0 * width, slack_hi
    else:
        raise ValueError(f"no failure found up to {lo} after {MAX_EXPAND} expansions")
    lo, hi = switch_bracket(trial, lo, lo + width, slack_lo, slack_hi)
    return Threshold(value=lo, bracket=(lo, hi), evaluations=evals)
