"""delaystab benchmark: CLI workloads with checked outputs and layer timings.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src; documents
are generated from the seed into a scratch directory under ./.perfbench and
removed at exit.

One process, one client, closed loop: each operation is one in-process call to
`delaystab.cli.main(argv)` with stdout and stderr captured, issued after the
previous one returns.  The workload's operations form a pass; passes repeat
until --seconds have elapsed (the last pass always completes, so every run
measures the same mix).  One untimed warm-up pass comes first.  Every output
is checked (see checks.py); an operation whose stdout differs from its
warm-up output also fails.

Times are speed-normalised.  The processor speed of a shared 2-vCPU virtual
machine drifts by up to 2x within minutes, far more than any bound a
regression check could use.  So after every operation the benchmark times a
fixed probe kernel (see probe()), and scales the operation's wall time by
PROBE_REF_S / (median probe time around that operation).  A reported
millisecond is a millisecond at the speed at which the probe takes
PROBE_REF_S; the raw wall-clock figures are printed alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (see
tracing.py, raw wall time), whose outputs must match the warm-up's byte for
byte.  Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import oracle
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
# median probe time on an unloaded 2-vCPU KVM guest (Python 3.11, numpy 2.4)
PROBE_REF_S = 1.2e-3
PROBE_WINDOW = 2    # an operation is scaled by the probes after it and its 2 neighbours each side
_PROBE_DOC = workloads.bam_dynamics(np.random.default_rng(0), 2)
_PROBE_MATRIX = np.eye(16) * 2.0 - np.full((16, 16), 0.05)

UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
         "setup_s": "s", "failed_ratio": "ratio", "false_inconclusive_ratio": "ratio",
         "sim_component_steps_per_s": "1/s", "trial_evals_per_s": "1/s",
         "trace.overhead_ratio": "ratio"}


def _load_program():
    """Import delaystab from this checkout's src/, or explain why not."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import delaystab.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import delaystab from {SRC}: {exc}")
    if not os.path.abspath(delaystab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: delaystab was imported from {delaystab.cli.__file__}, "
                         f"not from {SRC}")
    return delaystab.cli


def probe() -> float:
    """Wall time of a fixed kernel shaped like the program's work.

    Three steps of the reference integrator on a two-layer network (interpreter
    and small-array numpy work) and one oracle call on a 16 x 16 matrix.
    """
    start = time.perf_counter()
    reference.integrate(_PROBE_DOC, 0.03, 0.01)
    oracle.classify(_PROBE_MATRIX)
    return time.perf_counter() - start


# the set-up child times a pure-Python kernel on its own processor before and
# after the import; SETUP_PROBE_REF_S is that pair's time on the reference machine
SETUP_PROBE_REF_S = 3.0e-2
_SETUP_CODE = """
import sys, time
def kernel():
    start = time.perf_counter()
    s = 0
    for i in range(200000):
        s += i * i % 7
    return time.perf_counter() - start
spent = kernel()
sys.path.insert(0, sys.argv[1])
import delaystab.cli
print(spent + kernel())
"""


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import a ready delaystab.cli: (normalised, raw).

    The child's own kernel time is taken out of the wall time and sets the
    speed scale, since the child may run on the other processor.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        kernel_s = float(done.stdout)
        elapsed = time.perf_counter() - start - kernel_s
        raw.append(elapsed)
        scaled.append(elapsed * SETUP_PROBE_REF_S / kernel_s)
    return statistics.median(scaled), statistics.median(raw)


def execute(cli, op, tracer=None):
    """One closed-loop operation: (latency in s, exit status or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    idx = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            idx = tracer.open("cli.main")
        try:
            rc = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # a raise is a failed operation, not a crash
            rc = exc
        if idx is not None:
            tracer.close(idx)
    return time.perf_counter() - start, rc, out.getvalue()


class Tally:
    """Outcomes and latencies (normalised and raw) of the measured operations."""

    def __init__(self):
        self.latencies, self.raw = [], []
        self.failed = self.verdicts = self.false_inconclusive = 0
        self.work = {"simulate": [0, 0.0], "sweep": [0, 0.0]}   # units, seconds
        self.reasons = {}

    def add(self, op, latency, raw, outcome):
        self.latencies.append(latency)
        self.raw.append(raw)
        self.verdicts += outcome.verdicts
        self.false_inconclusive += outcome.false_inconclusive
        if not outcome.ok:
            self.failed += 1
            self.reasons.setdefault(op.name, outcome.reason)
        if op.verb in self.work:
            self.work[op.verb][0] += outcome.work
            self.work[op.verb][1] += latency

    def rate(self, verb):
        units, seconds = self.work[verb]
        return units / seconds if units else None


def run_pass(cli, ops, checker, expected, tally=None, tracer=None) -> float:
    """Run every operation once; returns the pass's normalised summed latency."""
    from checks import fail
    results, probes = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        latency, rc, stdout = execute(cli, op, tracer)
        probes.append(probe())
        if op.name not in expected:
            expected[op.name] = (stdout, checker.check(op, rc, stdout))
        first, outcome = expected[op.name]
        if stdout != first:
            outcome = fail("stdout differs from the warm-up run of the same operation")
        results.append((op, latency, outcome))
    total = 0.0
    for i, (op, latency, outcome) in enumerate(results):
        near = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        scaled = latency * PROBE_REF_S / statistics.median(near)
        total += scaled
        if tally is not None:
            tally.add(op, scaled, latency, outcome)
    return total


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if ".us_per_call." in name:
        return "us"
    for suffix, unit in (("_ns_per_component", "ns"), ("ms", "ms"), ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _load_program()
    import checks
    import tracing
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    inputs_dir = os.path.join(ROOT, "inputs")
    with open(os.path.join(HERE, "frozen.json")) as fh:
        frozen = json.load(fh)

    setup = measure_setup() if args.trace == 0 else None
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, inputs_dir)
        checker = checks.Checker(ops, frozen)
        expected = {}
        run_pass(cli, ops, checker, expected)  # warm-up, also records the outputs
        tally = Tally()
        tracer = tracing.Tracer() if args.trace else None
        passes, traced_seconds, untraced_seconds = 0, [], []
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            if tracer is None:
                run_pass(cli, ops, checker, expected, tally)
            else:
                # untraced and traced passes alternate, for the overhead ratio
                untraced_seconds.append(run_pass(cli, ops, checker, expected))
                tracer.install()
                try:
                    traced_seconds.append(run_pass(cli, ops, checker, expected, tally, tracer))
                finally:
                    tracer.uninstall()
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(tally.latencies)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {passes} passes of "
          f"{len(ops)} operations, {n} attempted, {tally.failed} failed")
    for name, reason in sorted(tally.reasons.items()):
        print(f"  FAILED {name}: {reason}")
    fi_ratio = tally.false_inconclusive / tally.verdicts if tally.verdicts else 0.0
    if tracer is not None:
        metrics = tracer.layer_metrics(passes)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_seconds)
                                           / statistics.median(untraced_seconds))
        metrics["false_inconclusive_ratio"] = fi_ratio
        spans_path = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics = {
            "ops_per_s": n / sum(tally.latencies),
            "op_p50_ms": statistics.median(tally.latencies) * 1e3,
            "op_p90_ms": percentile(tally.latencies, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup[0],
        }
        raw = {"ops_per_s": n / sum(tally.raw),
               "op_p50_ms": statistics.median(tally.raw) * 1e3,
               "op_p90_ms": percentile(tally.raw, 90) * 1e3,
               "setup_s": setup[1]}
        extra = {
            "failed_ratio": tally.failed / n,
            "false_inconclusive_ratio": fi_ratio,
            "sim_component_steps_per_s": tally.rate("simulate"),
            "trial_evals_per_s": tally.rate("sweep"),
        }
        print(f"  {'metric':28s} {'value':>12s} {'unit':6s} {'raw wall':>12s}")
        for name, value in {**metrics, **extra}.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            shown_raw = f"{raw[name]:.6g}" if name in raw else ""
            print(f"  {name:28s} {shown:>12s} {UNITS[name]:6s} {shown_raw:>12s}")
    p90 = percentile(tally.latencies, 90)
    print(f"  {n} samples, {sum(v > p90 for v in tally.latencies)} beyond p90; "
          f"{tally.verdicts} verdicts, {tally.false_inconclusive} false inconclusive")
    result = {"correct": tally.failed == 0, "attempted": n, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
