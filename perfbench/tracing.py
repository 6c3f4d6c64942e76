"""Outside-in layer tracing for the traced benchmark passes.

Nothing inside the program changes.  delaystab looks its collaborators up
through module globals at call time, so for the duration of a traced pass the
tracer rebinds those names in their importing modules to timing wrappers, and
hands `simulate` a proxy of the system whose `derivative` it times.  The
proxy also wraps the delayed-value callback the integrator passes in, to time
and count lookups.  Outputs stay byte-identical; the runner checks that.

Spans (name, start, end, parent span, operation id) are kept in memory and
written out when the run ends.  Derivative evaluations and lookups are too
many for one span each; they are aggregated into counters and charged to the
enclosing `simulate` span as child time.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (importing module, attribute, layer name); a name missing from a module is
# skipped, so the tracer keeps working when the program drops an import
WRAPPED = [
    ("delaystab.cli", "parse_file", "specio.parse_file"),
    ("delaystab.cli", "set_parameter", "specio.set_parameter"),
    ("delaystab.cli", "stability_verdict", "criteria.stability_verdict"),
    ("delaystab.cli", "certify_decay_rate", "criteria.certify_decay_rate"),
    ("delaystab.cli", "equilibrium_exists", "equilibrium.equilibrium_exists"),
    ("delaystab.cli", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("delaystab.cli", "simulate", "simulate.simulate"),
    ("delaystab.cli", "fit_decay", "simulate.fit_decay"),
    ("delaystab.cli", "write_csv", "simulate.write_csv"),
    ("delaystab.cli", "sweep", "sweep.sweep"),
    ("delaystab.cli", "find_failure_threshold", "sweep.find_failure_threshold"),
    ("delaystab.specio", "parse_document", "specio.parse_document"),
    ("delaystab.sweep", "parse_document", "specio.parse_document"),
    ("delaystab.sweep", "set_parameter", "specio.set_parameter"),
    ("delaystab.sweep", "stability_verdict", "criteria.stability_verdict"),
    ("delaystab.sweep", "certify_decay_rate", "criteria.certify_decay_rate"),
    ("delaystab.sweep", "two_neuron_closed_form", "criteria.two_neuron_closed_form"),
    ("delaystab.sweep", "solve_equilibrium", "equilibrium.solve_equilibrium"),
    ("delaystab.sweep", "simulate", "simulate.simulate"),
    ("delaystab.sweep", "fit_decay", "simulate.fit_decay"),
    ("delaystab.criteria", "is_m_matrix", "linalg.is_m_matrix"),
    ("delaystab.criteria", "two_neuron_closed_form", "criteria.two_neuron_closed_form"),
    ("delaystab.equilibrium", "spectral_radius", "linalg.spectral_radius"),
    ("delaystab.equilibrium", "equilibrium_exists", "equilibrium.equilibrium_exists"),
] + [("delaystab.criteria", name, "criteria.test_matrix") for name in (
    "test_matrix_at_rate", "test_matrix_general", "test_matrix_no_self_coupling",
    "test_matrix_undelayed_decay", "test_matrix_linear", "test_matrix_linear_undelayed",
    "test_matrix_bam")]

LOOKUP_CLASSES = ("stage", "history", "node", "hermite", "substep")

NAME, START, END, PARENT, OP, EXTRA, AUX = range(7)


def classify_lookups(stage_t, query_t, t0: float, h: float) -> dict:
    """Count delayed-value queries by where they fall on the grid.

    stage: lag zero (the query is the stage time); history: at or before t0;
    node: on a completed grid node; hermite: inside a completed step;
    substep: beyond the last completed node, i.e. a lag shorter than the step
    being built.  The last completed node during a stage at time t is the
    grid point strictly below t (t0 for the first evaluation).
    """
    t = np.asarray(stage_t, dtype=float)
    tq = np.asarray(query_t, dtype=float)
    stage = np.abs(tq - t) <= 1e-12 * np.maximum(1.0, np.abs(t))
    history = ~stage & (tq <= t0)
    rest = ~(stage | history)
    frontier = np.maximum(0.0, np.floor((t - t0) / h - 0.25))
    pos = (tq - t0) / h
    node = rest & (np.abs(pos - np.rint(pos)) <= 1e-9) & (np.rint(pos) <= frontier)
    substep = rest & ~node & (pos >= frontier)
    hermite = rest & ~node & ~substep
    return {"stage": int(stage.sum()), "history": int(history.sum()), "node": int(node.sum()),
            "hermite": int(hermite.sum()), "substep": int(substep.sum())}


class _SystemProxy:
    """Forwards everything to the system; times `derivative` and its lookups."""

    def __init__(self, system, tracer, stage_t, query_t):
        self._system = system
        self._tracer = tracer
        self._stage_t = stage_t
        self._query_t = query_t

    def __getattr__(self, name):
        return getattr(self._system, name)

    def derivative(self, t, value_at, *args, **kwargs):
        queries = self._query_t
        lookup_ns = 0

        def timed_lookup(comp, tq):
            nonlocal lookup_ns
            start = perf_counter_ns()
            value = value_at(comp, tq)
            lookup_ns += perf_counter_ns() - start
            queries.append(tq)
            return value

        before = len(queries)
        start = perf_counter_ns()
        out = self._system.derivative(t, timed_lookup, *args, **kwargs)
        elapsed = perf_counter_ns() - start
        self._stage_t.extend([t] * (len(queries) - before))
        tracer = self._tracer
        tracer.counts["systems.derivative.calls"] += 1
        tracer.counts["systems.derivative.ns"] += elapsed
        tracer.counts["systems.derivative.components"] += len(out)
        tracer.counts["simulate.lookup.ns"] += lookup_ns
        tracer.spans[tracer.stack[-1]][EXTRA] += elapsed
        return out


class Tracer:
    """In-memory spans and counters, plus the rebinding that feeds them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self._saved = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op, 0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _wrap_simulate(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(system, cfg, *args, **kwargs):
            stage_t, query_t = [], []
            idx = tracer.open("simulate.simulate")
            try:
                result = fn(_SystemProxy(system, tracer, stage_t, query_t), cfg, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.counts["simulate.lookup.calls"] += len(query_t)
            for cls, n in classify_lookups(stage_t, query_t, cfg.t0, cfg.h).items():
                tracer.counts[f"simulate.lookup.{cls}.calls"] += n
            return result

        return traced

    # -- result hooks -----------------------------------------------------------

    def _count(self, key, attr):
        def after(idx, args, kwargs, result):
            self.counts[key] += getattr(result, attr)
        return after

    def _matrix_dim(self, idx, args, kwargs, result):
        self.spans[idx][AUX] = len(args[0]) if args else len(kwargs["a"])

    def _csv_bytes(self, idx, args, kwargs, result):
        dest = args[1] if len(args) > 1 else kwargs["destination"]
        if isinstance(dest, str):
            with open(dest, "rb") as fh:
                self.counts["simulate.write_csv.bytes"] += len(fh.read())

    # -- installation -------------------------------------------------------------

    def install(self):
        hooks = {
            "criteria.certify_decay_rate": self._count("criteria.certify_decay_rate.bisect_steps",
                                                       "iterations"),
            "equilibrium.solve_equilibrium": self._count("equilibrium.solve_equilibrium.iterations",
                                                         "iterations"),
            "sweep.find_failure_threshold": self._count(
                "sweep.find_failure_threshold.evaluations", "evaluations"),
            "linalg.is_m_matrix": self._matrix_dim,
            "simulate.write_csv": self._csv_bytes,
        }
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            if layer == "simulate.simulate":
                wrapped = self._wrap_simulate(fn)
            else:
                wrapped = self._wrap(layer, fn, hooks.get(layer))
            setattr(module, attr, wrapped)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- results --------------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "op": s[OP]}))
                fh.write("\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer totals: calls, inclusive and self milliseconds, counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        calls, ns, self_ns = Counter(), Counter(), Counter()
        bucket_calls, bucket_ns = Counter(), Counter()
        for i, s in enumerate(spans):
            name = s[NAME]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == name:
                continue  # nested builder call: already inside its caller's span
            dur = s[END] - s[START]
            calls[name] += 1
            ns[name] += dur
            self_ns[name] += dur - child_ns[i] - s[EXTRA]
            if name == "linalg.is_m_matrix":
                m = s[AUX]
                bucket = "m1-8" if m <= 8 else "m9-32" if m <= 32 else "m33-64"
                bucket_calls[bucket] += 1
                bucket_ns[bucket] += dur
        c = self.counts
        out = {"cli.main.self_ms": self_ns["cli.main"] / 1e6}
        for name in ("specio.parse_file", "specio.parse_document", "specio.set_parameter",
                     "criteria.stability_verdict", "criteria.test_matrix",
                     "criteria.two_neuron_closed_form", "criteria.certify_decay_rate",
                     "linalg.is_m_matrix", "linalg.spectral_radius",
                     "equilibrium.equilibrium_exists", "equilibrium.solve_equilibrium",
                     "simulate.simulate"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = ns[name] / 1e6
        out["criteria.certify_decay_rate.self_ms"] = self_ns["criteria.certify_decay_rate"] / 1e6
        out["criteria.certify_decay_rate.bisect_steps"] = c["criteria.certify_decay_rate.bisect_steps"]
        for bucket in ("m1-8", "m9-32", "m33-64"):
            n = bucket_calls[bucket]
            out[f"linalg.is_m_matrix.us_per_call.{bucket}"] = bucket_ns[bucket] / n / 1e3 if n else 0.0
        out["equilibrium.solve_equilibrium.iterations"] = c["equilibrium.solve_equilibrium.iterations"]
        deriv_self = c["systems.derivative.ns"] - c["simulate.lookup.ns"]
        out["systems.derivative.calls"] = c["systems.derivative.calls"]
        out["systems.derivative.self_ms"] = deriv_self / 1e6
        comps = c["systems.derivative.components"]
        out["systems.derivative.self_ns_per_component"] = deriv_self / comps if comps else 0.0
        out["simulate.integrator.self_ms"] = self_ns["simulate.simulate"] / 1e6
        out["simulate.lookup.calls"] = c["simulate.lookup.calls"]
        out["simulate.lookup.ms"] = c["simulate.lookup.ns"] / 1e6
        for cls in LOOKUP_CLASSES:
            out[f"simulate.lookup.{cls}.calls"] = c[f"simulate.lookup.{cls}.calls"]
        out["simulate.fit_decay.ms"] = ns["simulate.fit_decay"] / 1e6
        out["simulate.write_csv.ms"] = ns["simulate.write_csv"] / 1e6
        out["simulate.write_csv.bytes"] = c["simulate.write_csv.bytes"]
        out["sweep.sweep.ms"] = ns["sweep.sweep"] / 1e6
        out["sweep.find_failure_threshold.ms"] = ns["sweep.find_failure_threshold"] / 1e6
        out["sweep.find_failure_threshold.evaluations"] = c["sweep.find_failure_threshold.evaluations"]
        return {k: (v / passes if k.endswith(("calls", "ms", "bytes", "steps", "iterations",
                                               "evaluations")) else v) for k, v in out.items()}
