"""Self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first failed check.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from run import HERE, ROOT, _load_program, execute


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def generator_is_byte_stable(workloads, scratch):
    inputs = os.path.join(ROOT, "inputs")
    for workload in workloads.WORKLOADS:
        dirs = [tempfile.mkdtemp(dir=scratch) for _ in range(3)]
        for d, seed in zip(dirs, (7, 7, 8)):
            workloads.build(workload, seed, d, inputs)
        names = sorted(os.listdir(dirs[0]))
        same = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)[0]
        check(names and same == names, f"{workload}: seed 7 writes byte-identical documents twice")
        seeded = [n for n in names if "roadmap" not in n]   # the ROADMAP spec is fixed
        differ = filecmp.cmpfiles(dirs[0], dirs[2], seeded, shallow=False)[1]
        check(differ == seeded, f"{workload}: seed 8 changes every seeded document")


def traced_output_is_identical(cli, workloads, tracing, scratch):
    inputs = os.path.join(ROOT, "inputs")
    workdir = tempfile.mkdtemp(dir=scratch)
    ops = []
    for workload in workloads.WORKLOADS:
        ops += workloads.build(workload, 3, workdir, inputs)
    for op in ops:
        _, rc_plain, plain = execute(cli, op)
        csv = op.expect.get("csv")
        csv_plain = open(csv, "rb").read() if csv else None
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, rc_traced, traced = execute(cli, op, tracer)
        finally:
            tracer.uninstall()
        same_csv = csv is None or open(csv, "rb").read() == csv_plain
        if rc_plain != rc_traced or plain != traced or not same_csv:
            check(False, f"traced run of {op.name} changes its output")
    check(True, f"traced and untraced runs print byte-identical stdout for all {len(ops)} operations")


def oracle_decides(oracle):
    check(oracle.classify([[1.0, -2.0], [-2.0, 1.0]]) == oracle.REJECTED,
          "oracle rejects a Z-matrix with a negative eigenvalue")
    check(oracle.classify([[2.0, 0.5], [-1.0, 2.0]]) == oracle.REJECTED,
          "oracle rejects a positive off-diagonal entry")
    check(oracle.classify([[2.0, -1.0], [-1.0, 2.0]]) == oracle.CERTIFIED,
          "oracle certifies a diagonally dominant Z-matrix")
    check(oracle.classify(0.1 * np.eye(20)) == oracle.CERTIFIED,
          "oracle certifies 0.1 * I of dimension 20, independent of scale")
    check(oracle.classify([[1.0, -1.0], [-1.0, 1.0]]) == oracle.BOUNDARY,
          "oracle leaves a singular M-matrix undecided")


def lookup_classes_match_fallbacks(cli, tracing):
    class Op:
        argv = ["simulate", os.path.join(ROOT, "inputs", "bam_modulated.json"), "--t-end", "2"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, rc, stdout = execute(cli, Op, tracer)
    finally:
        tracer.uninstall()
    with open(os.path.join(HERE, "frozen.json")) as fh:
        want = json.load(fh)["simulate:inputs/bam_modulated:t_end=2.0"]
    check(rc == 0 and json.loads(stdout)["simulation"]["final_state"] == want,
          "traced 2 s run of inputs/bam_modulated.json ends in the seed commit's exact state")
    counts = tracer.counts
    total = sum(counts[f"simulate.lookup.{c}.calls"] for c in tracing.LOOKUP_CLASSES)
    check(rc == 0 and total == counts["simulate.lookup.calls"],
          f"every lookup gets one class ({total} lookups)")
    check(counts["simulate.lookup.substep.calls"] == 436,
          f"2 s of inputs/bam_modulated.json has 436 sub-step fallbacks "
          f"(got {counts['simulate.lookup.substep.calls']})")


def reference_matches_seed_commit(checks, reference):
    with open(os.path.join(HERE, "frozen.json")) as fh:
        frozen = json.load(fh)
    for name, t_end in (("two_neuron_sample", 5.0), ("bam_modulated", 0.05)):
        with open(os.path.join(ROOT, "inputs", f"{name}.json")) as fh:
            doc = checks.resolve(json.load(fh))
        final, tol = reference.final_state(doc, t_end, reference.default_step(doc, t_end))
        want = np.asarray(frozen[f"simulate:inputs/{name}:t_end={t_end!r}"])
        err = float(np.max(np.abs(final - want)))
        check(err <= tol, f"reference final state of {name} matches the seed commit "
                          f"(error {err:.2e}, tolerance {tol:.2e})")


def main() -> int:
    cli = _load_program()
    import checks
    import oracle
    import reference
    import tracing
    import workloads
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        oracle_decides(oracle)
        generator_is_byte_stable(workloads, scratch)
        reference_matches_seed_commit(checks, reference)
        lookup_classes_match_fallbacks(cli, tracing)
        traced_output_is_identical(cli, workloads, tracing, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
