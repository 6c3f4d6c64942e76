"""Golden CLI outputs: every report verb on every shipped input document.

`golden_cli.json` holds the exit status and the JSON report of `analyze`
(auto-selected and with each criterion tag forced), `certify-rate` and
`equilibrium` for each `inputs/*.json`, as produced before the M-matrix
classifier was rewritten as a single elimination, and the reports of a few
`simulate` and `sweep` runs (`EXTRA_INVOCATIONS`), frozen before the
certification layer shared one bisection.  Strings, booleans,
integers and nulls must match exactly; floats must agree to rtol 1e-9.
The one exception is a certificate's `boundary_margin`: it is the smallest
minor at the last rate that passed, so it sits at the decision threshold
(about the tolerance) by construction, and only its order of magnitude is
pinned.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

from delaystab.cli import main
from delaystab.criteria import ALL_TAGS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
RTOL = 1e-9
# absolute tolerance for fields that sit at the tolerance by construction
ATOL = {"boundary_margin": 1e-11}
# simulate and sweep outputs, frozen before the certification layer shared
# one bisection and one dominance body
EXTRA_INVOCATIONS = (
    "sweep inputs/bam_modulated.json --param parameters.mu --values 0,9,18 "
    "--threshold-start 18",
    "sweep inputs/linear_coupled.json --param parameters.s --values 0.5,0.9,50 "
    "--simulate --t-end 20",
    "sweep inputs/linear_coupled.json --param parameters.s --values 0.5 "
    "--threshold-start 0.5",
    "simulate inputs/two_neuron_sample.json --t-end 5 --record-every 10",
    "simulate inputs/bam_modulated.json --t-end 0.05",
    "simulate inputs/linear_coupled.json --t-end 5",
)


def _invocations():
    for doc in sorted(p.name for p in (ROOT / "inputs").glob("*.json")):
        path = f"inputs/{doc}"
        yield ["analyze", path]
        for tag in ALL_TAGS:
            yield ["analyze", path, "--criterion", tag]
        yield ["certify-rate", path]
        yield ["equilibrium", path]
    yield from (argv.split() for argv in EXTRA_INVOCATIONS)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    text = out.getvalue()
    return {"exit": rc, "report": json.loads(text) if text.strip() else None}


def record() -> dict:
    """Run every invocation from the repository root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {" ".join(argv): _run(argv) for argv in _invocations()}
    finally:
        os.chdir(cwd)


def _diff(got, want, where: str):
    """First mismatch between two decoded reports, or None."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(want, bool) or isinstance(got, bool) \
                or not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return f"{where}: {got!r} != {want!r}"
        atol = ATOL.get(where.rsplit(".", 1)[-1], 0.0)
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=atol):
            return f"{where}: {got!r} != {want!r} (rtol {RTOL}, atol {atol})"
        return None
    if type(got) is not type(want):
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = _diff(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = _diff(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if got == want else f"{where}: {got!r} != {want!r}"


def test_cli_reports_match_golden_outputs():
    want = json.loads(GOLDEN.read_text())
    got = record()
    assert got.keys() == want.keys()
    mismatches = [d for key in want if (d := _diff(got[key], want[key], key))]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
