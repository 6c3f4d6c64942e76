"""Output checks: every CLI report is scored against an independent answer.

- analyze: the reported test matrix goes through the numpy oracle; for
  bounds-only documents without self-coupling it must also equal the matrix
  written from the published formulas.
- certify-rate: the certificate matrix at lambda0 is rebuilt with the public
  `test_matrix_at_rate` and must not be refuted by the oracle; a refusal is
  scored against the oracle's verdict on the rate-zero matrix.
- equilibrium: the residual of the equilibrium equations is recomputed from
  x* and y*, and the reported spectral radii are compared with numpy's.
- simulate: the final state must match the reference integrator, and the CSV
  must hold the recorded rows ending in that state.
- sweep: row verdicts and the failure threshold must agree with the critical
  coupling the oracle computes; the `inputs/` sweep is compared with values
  frozen from the seed commit.

A refuted certificate or any other mismatch fails the operation.  A verdict
of inconclusive (or a refused certificate) that the oracle certifies with
margin is counted as a false inconclusive instead: it is sound, only weak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import oracle
import reference
from delaystab.criteria import test_matrix_at_rate
from delaystab.equilibrium import build_existence_matrices
from delaystab.specio import parse_document, set_parameter
from delaystab.systems import BamSpec, GeneralSystemSpec, bam_to_general

STABLE = "stable_certified"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    verdicts: int = 0
    false_inconclusive: int = 0
    work: int = 0          # simulate: RK4 steps x dim; sweep: rows + threshold evaluations


def fail(reason: str) -> Outcome:
    return Outcome(False, reason)


def resolve(doc: dict) -> dict:
    """The document with every "$name" leaf replaced by its parameter value.

    Kept apart from the program's resolver so that the reference integrator
    reads the document without the program's help.
    """
    params = doc.get("parameters", {})

    def walk(node):
        if isinstance(node, str) and node.startswith("$"):
            return params[node[1:]]
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return {k: (v if k == "parameters" else walk(v)) for k, v in doc.items()}


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rate_family(spec):
    """The general spec whose rate family certify_decay_rate bisects over."""
    if isinstance(spec, BamSpec):
        spec = bam_to_general(spec)
    if spec.diagonal_delay_free:
        spec = GeneralSystemSpec(alpha=spec.alpha, A=spec.A, tau=np.zeros(spec.m),
                                 sigma=spec.sigma, L=spec.L, diagonal_delay_free=False)
    return spec


def _formula_matrix(doc: dict):
    """Published-formula matrix for docs the auto-dispatch sends to cor0 or thm3."""
    if "dynamics" in doc or "parameters" in doc:
        return None
    spec = doc["spec"]
    if doc["kind"] == "general":
        if spec.get("diagonal_delay_free") or np.any(np.diag(np.asarray(spec["L"])) != 0.0):
            return None
    elif doc["kind"] not in ("bam", "two_neuron"):
        return None
    return oracle.comparison_matrix(doc["kind"], spec)


def _certificate_outcome(family, lambda0) -> Outcome:
    """Score one certify_decay_rate answer (lambda0 None means refused)."""
    if lambda0 is None:
        missed = oracle.classify(test_matrix_at_rate(family, 0.0)) == oracle.CERTIFIED
        return Outcome(True, verdicts=1, false_inconclusive=int(missed))
    if not 0.0 <= lambda0 < float(np.min(family.alpha)):
        return fail(f"lambda0 {lambda0} outside [0, min alpha)")
    if oracle.classify(test_matrix_at_rate(family, lambda0)) == oracle.REJECTED:
        return fail(f"unsound certificate: the matrix at lambda0={lambda0} is not an M-matrix")
    return Outcome(True, verdicts=1)


class Checker:
    """Prepares the expected answers for a workload's operations and scores outputs."""

    def __init__(self, ops, frozen: dict):
        self.frozen = frozen
        self.expect = {}
        for op in ops:
            self.expect[op.name] = getattr(self, f"_prepare_{op.verb.replace('-', '_')}")(op)

    # -- preparation (runs once, before any timing) -------------------------

    def _prepare_analyze(self, op):
        return {"formula": _formula_matrix(_load(op.argv[1]))}

    def _prepare_certify_rate(self, op):
        return {"family": _rate_family(parse_document(_load(op.argv[1])).spec)}

    def _prepare_equilibrium(self, op):
        doc = _load(op.argv[1])
        parsed = parse_document(doc)
        return {"doc": resolve(doc), "radii": [
            float(np.max(np.abs(np.linalg.eigvals(mat))))
            for mat in build_existence_matrices(parsed.spec)]}

    def _prepare_simulate(self, op):
        doc = resolve(_load(op.expect["document"]))
        t_end = op.expect["t_end"]
        h = reference.default_step(doc, t_end)
        final, tol = reference.final_state(doc, t_end, h)
        return {"h": h, "steps": int(round(t_end / h)), "final": final, "tol": tol}

    def _prepare_sweep(self, op):
        if "frozen" in op.expect:
            return {"frozen": self.frozen[op.expect["frozen"]]}
        doc = _load(op.expect["document"])
        k_star = op.expect["k_star"]
        return {"k_star": k_star, "families": [
            _rate_family(parse_document(set_parameter(doc, "parameters.k", v)).spec)
            if v < k_star else None for v in op.expect["values"]]}

    # -- scoring ---------------------------------------------------------------

    def check(self, op, rc, stdout: str) -> Outcome:
        if isinstance(rc, BaseException):
            return fail(f"raised {type(rc).__name__}: {rc}")
        if rc not in (0, 2):
            return fail(f"exit status {rc} on a valid document")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return fail(f"stdout is not one JSON report: {exc}")
        try:
            return getattr(self, f"_check_{op.verb.replace('-', '_')}")(
                op, self.expect[op.name], rc, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return fail(f"malformed report: {type(exc).__name__}: {exc}")

    def _check_analyze(self, op, exp, rc, report):
        verdict = report["verdict"]
        stable = verdict["status"] == STABLE
        if rc != (0 if stable else 2):
            return fail(f"exit status {rc} does not match verdict {verdict['status']}")
        matrix = verdict["test_matrix"]
        if exp["formula"] is not None:
            got = np.asarray(matrix, dtype=float)
            want = exp["formula"]
            if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=1e-14):
                return fail("test matrix differs from the published formula")
        cls = oracle.classify(matrix)
        if stable and cls == oracle.REJECTED:
            return fail("unsound verdict: stable_certified but the oracle refutes the matrix")
        return Outcome(True, verdicts=1,
                       false_inconclusive=int(not stable and cls == oracle.CERTIFIED))

    def _check_certify_rate(self, op, exp, rc, report):
        cert = report["certificate"]
        if (rc == 0) != (cert is not None):
            return fail(f"exit status {rc} does not match the certificate {cert!r}")
        return _certificate_outcome(exp["family"], None if cert is None else cert["lambda0"])

    def _check_equilibrium(self, op, exp, rc, report):
        radii = [c["value"] for c in report["existence"]["conditions"]
                 if c["description"].startswith("spectral radius")]
        if len(radii) != len(exp["radii"]) or not np.allclose(radii, exp["radii"],
                                                              rtol=1e-6, atol=1e-9):
            return fail(f"spectral radii {radii} differ from numpy's {exp['radii']}")
        doc = exp["doc"]
        if "dynamics" not in doc:
            return Outcome(True)
        eq = report["equilibrium"]
        if eq is None:
            return fail("no equilibrium for a document with dynamics")
        spec, dyn = doc["spec"], doc["dynamics"]
        if doc["kind"] == "two_neuron":
            spec = {"a": [spec["a"]], "b": [spec["b"]], "a_conn": [[spec["coupling_xy"]]],
                    "b_conn": [[spec["coupling_yx"]]], "I": [spec.get("I", 0.0)],
                    "J": [spec.get("J", 0.0)]}
            dyn = {"f": [dyn["f"]], "g": [dyn["g"]]}
        x, y = np.asarray(eq["x_star"]), np.asarray(eq["y_star"])
        n = x.shape[0]
        f, g = reference.activation(dyn["f"]), reference.activation(dyn["g"])
        res_x = np.asarray(spec["a"]) * x - np.asarray(spec["a_conn"]) @ f(y) - np.asarray(spec.get("I", [0.0] * n))
        res_y = np.asarray(spec["b"]) * y - np.asarray(spec["b_conn"]) @ g(x) - np.asarray(spec.get("J", [0.0] * n))
        residual = float(np.max(np.abs(np.concatenate([res_x, res_y]))))
        scale = max(1.0, float(np.max(np.abs(np.concatenate([x, y])))))
        if residual > 1e-8 * scale:
            return fail(f"equilibrium residual {residual:.3e} above tolerance")
        return Outcome(True)

    def _check_simulate(self, op, exp, rc, report):
        if rc != 0:
            return fail(f"simulation failed: {report.get('simulation')}")
        sim = report["simulation"]
        every = op.expect["record_every"]
        if sim["h"] != exp["h"] or sim["steps"] != exp["steps"]:
            return fail(f"step {sim['h']} x {sim['steps']}, expected {exp['h']} x {exp['steps']}")
        if sim["recorded_points"] != exp["steps"] // every + 1:
            return fail(f"{sim['recorded_points']} recorded points for record_every={every}")
        final = np.asarray(sim["final_state"], dtype=float)
        if final.shape != exp["final"].shape:
            return fail(f"final state has shape {final.shape}")
        err = float(np.max(np.abs(final - exp["final"])))
        if not err <= exp["tol"]:
            return fail(f"final state off the reference by {err:.3e} (tolerance {exp['tol']:.3e})")
        if "csv" in op.expect:
            with open(op.expect["csv"]) as fh:
                lines = fh.read().splitlines()
            if len(lines) != sim["recorded_points"] + 1 or not lines[0].startswith("t,x_1"):
                return fail(f"CSV has {len(lines)} lines")
            last = np.array([float(v) for v in lines[-1].split(",")[1:]])
            if not np.array_equal(last, final):
                return fail("last CSV row differs from the reported final state")
        return Outcome(True, work=exp["steps"] * final.shape[0])

    def _check_sweep(self, op, exp, rc, report):
        rows = report["rows"]
        if rc != (0 if all(r["status"] == STABLE for r in rows) else 2):
            return fail(f"exit status {rc} does not match the rows")
        threshold = report.get("threshold")
        work = len(rows) + (0 if threshold is None else threshold["evaluations"])
        if "frozen" in exp:
            want = exp["frozen"]
            got_rows = [[r["status"], r["lambda0"]] for r in rows]
            if ([s for s, _ in got_rows] != [s for s, _ in want["rows"]]
                    or not np.allclose([lam for _, lam in got_rows] + [threshold["value"]],
                                       [lam for _, lam in want["rows"]] + [want["threshold"][0]],
                                       rtol=1e-9, atol=0.0)):
                return fail(f"sweep differs from the seed commit: rows {got_rows}, "
                            f"threshold {threshold}")
            return Outcome(True, verdicts=len(rows), work=work)
        k_star = exp["k_star"]
        if len(rows) != len(exp["families"]):
            return fail(f"{len(rows)} rows for {len(exp['families'])} values")
        missed = 0
        for row, family in zip(rows, exp["families"]):
            stable = row["status"] == STABLE
            if stable and family is None:
                return fail(f"unsound row: k={row['value']} above the critical {k_star}")
            if family is not None and not stable:
                missed += 1
            if stable:
                outcome = _certificate_outcome(family, row["lambda0"])
                if not outcome.ok:
                    return outcome
        if threshold is not None and abs(threshold["value"] - k_star) > 1e-6 * k_star:
            return fail(f"threshold {threshold['value']} differs from the critical {k_star}")
        return Outcome(True, verdicts=len(rows), false_inconclusive=missed, work=work)
