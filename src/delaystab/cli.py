"""Command-line interface.

Verbs:

    delaystab analyze DOC.json [--criterion TAG]
    delaystab certify-rate DOC.json
    delaystab equilibrium DOC.json
    delaystab simulate DOC.json --t-end T [--step H] [--out TRAJ.csv]
    delaystab sweep DOC.json --param PATH --values V1,V2,... [--simulate ...]

Every verb prints a machine-readable JSON report to stdout and a short
human summary to stderr.  Exit status: 0 when the requested certification
succeeds, 2 when the tests are inconclusive (which is not a proof of
instability), 1 for malformed documents or bad usage.

The base tolerance for strict inequalities comes from --tol, else the
DELAYSTAB_TOL environment variable, else 1e-12.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .criteria import (
    ALL_TAGS,
    NotCertifiedError,
    certify_decay_rate,
    stability_verdict,
)
from .equilibrium import DivergenceError, equilibrium_exists, solve_equilibrium
from .linalg import DEFAULT_TOL
from .simulate import (
    FitInapplicableError,
    SimConfig,
    SimulationError,
    fit_decay,
    simulate,
    write_csv,
)
from .specio import load_json, parse_file, set_parameter
from .sweep import default_step, find_failure_threshold, fit_reference, sweep
from .systems import BamSpec


class UsageError(Exception):
    """Bad flags or an unusable document; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _say(message: str):
    print(message, file=sys.stderr)


def _clean(value):
    """Make a report JSON-safe: arrays to lists, non-finite floats to null."""
    if is_dataclass(value) and not isinstance(value, type):
        return _clean(asdict(value))
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, np.ndarray):
        return _clean(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else None
    return value


def _emit(report: dict):
    print(json.dumps(_clean(report), indent=2))


def _base_report(command: str, path: str, parsed, tol: float) -> dict:
    return {
        "tool": "delaystab",
        "version": __version__,
        "command": command,
        "tolerance": tol,
        "input": {"path": path, "kind": parsed.kind, "sha256": parsed.sha256},
        "document": parsed.document,
    }


def _verdict_dict(verdict) -> dict:
    out = {
        "status": verdict.status,
        "stable": verdict.stable,
        "criterion": verdict.criterion_used,
        "checks": [asdict(c) for c in verdict.checks],
        "test_matrix": verdict.test_matrix,
    }
    rep = verdict.report
    out["m_matrix"] = None if rep is None else {
        "is_m_matrix": rep.is_m_matrix,
        "off_diagonal_ok": rep.off_diagonal_ok,
        "minors": rep.minors,
        "min_minor_margin": rep.margin,
        "witness": rep.witness_xi,
        "screen": rep.screen_passed,
    }
    return out


def _verdict_summary(name: str, verdict) -> str:
    if verdict.stable:
        if verdict.report is not None:
            slack = verdict.report.margin
        else:
            slack = min((c.margin for c in verdict.checks), default=float("nan"))
        return (f"{name}: {verdict.status} via {verdict.criterion_used} "
                f"(smallest slack {slack:.4g})")
    failed = [c.name for c in verdict.checks if not c.satisfied]
    tail = f"; violated: {', '.join(failed)}" if failed else ""
    return f"{name}: {verdict.status} via {verdict.criterion_used}{tail}"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(args, tol: float) -> int:
    parsed = parse_file(args.document)
    verdict = stability_verdict(parsed.spec, tol=tol, criterion=args.criterion)
    report = _base_report("analyze", args.document, parsed, tol)
    report["verdict"] = _verdict_dict(verdict)
    _emit(report)
    _say(_verdict_summary(args.document, verdict))
    return 0 if verdict.stable else 2


def cmd_certify_rate(args, tol: float) -> int:
    parsed = parse_file(args.document)
    report = _base_report("certify-rate", args.document, parsed, tol)
    try:
        cert = certify_decay_rate(parsed.spec, tol=tol)
    except NotCertifiedError as exc:
        report["certificate"] = None
        report["error"] = str(exc)
        _emit(report)
        _say(f"{args.document}: {exc}")
        return 2
    report["certificate"] = asdict(cert)
    _emit(report)
    _say(f"{args.document}: certified exponential decay rate {cert.lambda0:.6g} "
         f"(boundary margin {cert.boundary_margin:.3g}, "
         f"bracket width {cert.bracket_width:.3g})")
    return 0


def cmd_equilibrium(args, tol: float) -> int:
    parsed = parse_file(args.document)
    if not isinstance(parsed.spec, BamSpec):
        raise UsageError("equilibrium analysis needs a two-layer document "
                         f"(got kind '{parsed.kind}')")
    spec = parsed.spec
    existence = equilibrium_exists(spec)
    report = _base_report("equilibrium", args.document, parsed, tol)
    report["existence"] = {
        "exists_unique": existence.exists_unique,
        "conditions": [asdict(c) for c in existence.conditions],
    }
    held = sum(c.holds for c in existence.conditions)
    solution = None
    if parsed.activations is not None:
        f, g = parsed.activations
        try:
            solution = solve_equilibrium(spec, f, g)
            report["equilibrium"] = asdict(solution)
        except DivergenceError as exc:
            report["equilibrium"] = None
            report["error"] = str(exc)
    else:
        report["equilibrium"] = None
        report["note"] = ("document has no dynamics section; numeric solve "
                         "skipped, existence judged from the bounds alone")
    _emit(report)
    _say(f"{args.document}: contraction conditions {held}/"
         f"{len(existence.conditions)} hold; unique equilibrium "
         f"{'certified' if existence.exists_unique else 'not certified'}")
    if solution is not None:
        _say(f"  x* = {np.array2string(solution.x_star, precision=8)}  "
             f"y* = {np.array2string(solution.y_star, precision=8)}  "
             f"(residual {solution.residual:.3g}, "
             f"{solution.iterations} iterations)")
    return 0 if (existence.exists_unique or solution is not None) else 2


def cmd_simulate(args, tol: float) -> int:
    parsed = parse_file(args.document)
    if parsed.concrete is None:
        raise UsageError("document has no dynamics section; nothing to integrate")
    system = parsed.concrete
    t0 = args.t0
    h = args.step if args.step is not None else default_step(system, t0, args.t_end)
    cfg = SimConfig(t0=t0, t_end=args.t_end, h=h, record_every=args.record_every)
    report = _base_report("simulate", args.document, parsed, tol)
    try:
        traj = simulate(system, cfg, meta={"input_sha256": parsed.sha256})
    except SimulationError as exc:
        report["simulation"] = {"error": str(exc), "failed_at": exc.time}
        _emit(report)
        _say(f"{args.document}: integration failed: {exc}")
        return 2
    final = traj.states[-1]
    lam_hat = None
    try:
        lam_hat = fit_decay(traj, fit_reference(parsed)).lambda_hat
    except (FitInapplicableError, DivergenceError):
        pass
    summary = {
        "t0": t0, "t_end": args.t_end, "h": h,
        "steps": int(round((args.t_end - t0) / h)),
        "recorded_points": len(traj.times), "dim": traj.dim,
        "final_state": final, "final_sup_norm": float(np.max(np.abs(final))),
        "lambda_hat": lam_hat, "csv": args.out,
    }
    report["simulation"] = summary
    if args.out:
        write_csv(traj, args.out)
    _emit(report)
    _say(f"{args.document}: integrated t in [{t0:g}, {args.t_end:g}] "
         f"with step {h:g} ({summary['steps']} steps)")
    rate = f"; fitted decay rate {lam_hat:.6g}" if lam_hat is not None else ""
    _say(f"  final sup-norm {summary['final_sup_norm']:.6g}{rate}")
    if args.out:
        _say(f"  wrote trajectory to {args.out}")
    return 0


def cmd_sweep(args, tol: float) -> int:
    doc = load_json(args.document)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"--values must be a comma-separated list of numbers "
                         f"({exc})") from exc
    if not values:
        raise UsageError("--values is empty")
    set_parameter(doc, args.param, values[0])  # fail fast on a bad path
    simulate_until = args.t_end if args.simulate else None
    if args.simulate and args.t_end is None:
        raise UsageError("--simulate needs --t-end")
    rows = sweep(doc, args.param, values, tol=tol, criterion=args.criterion,
                 simulate_until=simulate_until, step=args.step)
    report = {
        "tool": "delaystab", "version": __version__, "command": "sweep",
        "tolerance": tol,
        "input": {"path": args.document, "parameter": args.param},
        "rows": [r.as_dict() for r in rows],
    }
    threshold = None
    if args.threshold_start is not None:
        threshold = find_failure_threshold(doc, args.param,
                                           start=args.threshold_start, tol=tol)
        report["threshold"] = {"value": threshold.value,
                               "bracket": list(threshold.bracket),
                               "evaluations": threshold.evaluations}
    _emit(report)
    for r in rows:
        bits = [f"{args.param}={r.value:g}: {r.status}"]
        if r.criterion:
            bits.append(f"({r.criterion})")
        if r.lambda0 is not None:
            bits.append(f"rate>={r.lambda0:.4g}")
        if r.lambda_hat is not None:
            bits.append(f"observed~{r.lambda_hat:.4g}")
        if r.error:
            bits.append(f"-- {r.error}")
        _say(" ".join(bits))
    n_stable = sum(r.stable for r in rows)
    _say(f"{n_stable}/{len(rows)} points certified stable")
    if threshold is not None:
        _say(f"certification fails beyond {args.param} = {threshold.value:.6g} "
             f"(bracket width {threshold.bracket[1] - threshold.value:.3g})")
    return 0 if n_stable == len(rows) else 2


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="delaystab",
                     description="Stability certificates for delayed "
                                 "nonautonomous systems.")
    parser.add_argument("--version", action="version",
                        version=f"delaystab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("document", help="system document (JSON)")
    common.add_argument("--tol", type=float, default=None,
                        help="strict-inequality tolerance "
                             "(default: DELAYSTAB_TOL or 1e-12)")

    p = sub.add_parser("analyze", parents=[common],
                       help="run a stability test and report the verdict")
    p.add_argument("--criterion", choices=ALL_TAGS, default=None,
                   help="force one specific test instead of auto-selection")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify-rate", parents=[common],
                       help="bisect for a certified exponential decay rate")
    p.set_defaults(func=cmd_certify_rate)

    p = sub.add_parser("equilibrium", parents=[common],
                       help="existence conditions and numeric equilibrium "
                            "for two-layer documents")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the dynamics and write a trajectory")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--step", type=float, default=None,
                   help="grid step (default: auto from the delay bounds)")
    p.add_argument("--record-every", type=int, default=1,
                   help="keep every n-th grid point in the trajectory")
    p.add_argument("--out", default=None, help="write the trajectory as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="repeat the analysis over a range of one parameter")
    p.add_argument("--param", required=True,
                   help="dotted path of the value to vary "
                        "(e.g. parameters.mu or spec.A_off.0.1)")
    p.add_argument("--values", required=True,
                   help="comma-separated list of values")
    p.add_argument("--criterion", choices=ALL_TAGS, default=None)
    p.add_argument("--simulate", action="store_true",
                   help="also integrate each point and fit the observed decay")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--threshold-start", type=float, default=None, dest="threshold_start",
                   help="also search upward from this value for the first "
                        "failure of certification")
    p.set_defaults(func=cmd_sweep)
    return parser


def _resolve_tol(args) -> float:
    if args.tol is not None:
        tol = args.tol
    else:
        env = os.environ.get("DELAYSTAB_TOL", "").strip()
        if env:
            try:
                tol = float(env)
            except ValueError:
                raise UsageError(f"DELAYSTAB_TOL is not a number: {env!r}")
        else:
            tol = DEFAULT_TOL
    if not (tol > 0.0 and np.isfinite(tol)):
        raise UsageError(f"tolerance must be a positive finite number, got {tol}")
    return tol


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _resolve_tol(args)
        return args.func(args, tol)
    except (UsageError, ValueError, OSError) as exc:
        # DocumentError, InvalidSpecError and FamilyError are ValueErrors
        _say(f"error: {exc}")
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
