"""List the benchmark operations whose outputs differ between two commits.

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD --seeds 1-3,101

Run from the repository root.  The run covers every workload of the
benchmark, or those that `--workload certify,simulate` names.  Each
workload's documents are generated once per seed by this checkout's
`perfbench/workloads.build`, so both sides read the same files.  Each
commit is exported once with `git archive` (as tools/bench_pair.py does)
and runs every operation of every workload once, in one fresh interpreter
per side, through its own `delaystab.cli.main(argv)`.  An operation
differs when its exit code (or the exception it raised), stdout, stderr or
the bytes of the CSV file it writes differ.  The script prints each such
operation and the fields that differ, then a count per workload, and exits
1 if there is one.  Where both sides' stdout parses as JSON, the field is
followed by the key paths where they differ other than by a number (for
example `stdout at input.sha256`, at most three named).  Where stdout or
the CSV file differs in numbers, the field is followed by the largest
relative difference |a - b| / max(|a|, |b|) of the numbers at the same
places.  The exported commits and the documents are removed when it ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import bench_pair

ROOT = bench_pair.ROOT
FIELDS = ("exit", "stdout", "stderr", "csv")

# runs the operations of argv[2] (a JSON list of [argv, csv path or null])
# through the delaystab under argv[1], and writes their outcomes to argv[3]
_CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import delaystab.cli
with open(sys.argv[2]) as fh:
    ops = json.load(fh)
outcomes = []
for argv, csv in ops:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = delaystab.cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # the operation's outcome, not the script's
            code = f"{type(exc).__name__}: {exc}"
    data = ""
    if csv is not None and os.path.exists(csv):
        with open(csv, "rb") as fh:
            data = fh.read().decode("latin-1")
        os.remove(csv)
    outcomes.append([code, out.getvalue(), err.getvalue(), data])
with open(sys.argv[3], "w") as fh:
    json.dump(outcomes, fh)
"""


def csv_path(argv: list) -> str | None:
    """The file an operation writes its trajectory to (`--out`), if any."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_ops(checkout: str, ops: list, scratch: str) -> list:
    """Each operation's [exit code or exception, stdout, stderr, CSV text] under the
    delaystab of `checkout`."""
    todo, done = os.path.join(scratch, "ops.json"), os.path.join(scratch, "outcomes.json")
    with open(todo, "w") as fh:
        json.dump([[op.argv, csv_path(op.argv)] for op in ops], fh)
    subprocess.run([sys.executable, "-c", _CHILD, os.path.join(checkout, "src"), todo, done],
                   cwd=checkout, check=True)
    with open(done) as fh:
        return json.load(fh)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)  # 0 == false otherwise


def _walk(a, b, path: str, others: list, pairs: list):
    """Compare two JSON values side by side: each pair of numbers at the same place goes
    to `pairs`, and the key path of every other difference to `others`."""
    if _is_number(a) and _is_number(b):
        pairs.append((float(a), float(b)))
    elif type(a) is dict and type(b) is dict:
        for key in {**a, **b}:
            at = f"{path}.{key}" if path else key
            if key in a and key in b:
                _walk(a[key], b[key], at, others, pairs)
            else:
                others.append(at)
    elif type(a) is list and type(b) is list and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", others, pairs)
    elif type(a) is not type(b) or a != b:
        others.append(path or "(root)")


def _cells(text: str) -> list:
    """The comma-separated cells of each line of a CSV text, each number as a float."""
    rows = []
    for line in text.split("\n"):
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return rows


def number_difference(field: str, a: str, b: str) -> tuple[list, float] | None:
    """The key paths where two stdout (JSON) texts differ other than by a number, and the
    largest relative difference of the numbers they hold at the same places; None unless
    both parse.  CSV texts give no paths: None unless they differ only in their numbers."""
    if field not in ("stdout", "csv"):
        return None
    try:
        values = [json.loads(text) if field == "stdout" else _cells(text) for text in (a, b)]
    except ValueError:  # not JSON
        return None
    others, pairs = [], []
    _walk(*values, "", others, pairs)
    if others and field == "csv":
        return None
    largest = 0.0
    for x, y in pairs:
        if x != y and not (math.isnan(x) and math.isnan(y)):
            size = abs(x - y) / max(abs(x), abs(y))  # not finite if either is NaN or infinite
            largest = max(largest, size if math.isfinite(size) else math.inf)
    return others, largest


def _describe(field: str, a: str, b: str) -> str:
    found = number_difference(field, a, b)
    if found is None:
        return field
    others, largest = found
    sized = f"largest relative difference {largest:.2g}"
    if not others:
        return f"{field} ({sized})"
    more = f" and {len(others) - 3} more" if len(others) > 3 else ""
    numbers = f" and in numbers ({sized})" if largest else ""
    return f"{field} at {' and '.join(others[:3])}{more}{numbers}"


def differences(names: list, parent: list, change: list) -> list:
    """(operation name, the fields that differ) for each operation whose outcomes differ.
    A stdout field is followed by the key paths where it differs other than by a number,
    and a stdout or CSV field by the largest relative difference of its numbers, where
    `number_difference` finds them."""
    out = []
    for name, a, b in zip(names, parent, change, strict=True):
        fields = [_describe(field, x, y) for field, x, y in zip(FIELDS, a, b) if x != y]
        if fields:
            out.append((name, fields))
    return out


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--workload", default=list(workloads.WORKLOADS),
                        type=lambda text: text.split(","),
                        help="benchmark workload names, comma-separated, e.g. certify,simulate "
                             "(default: every workload)")
    parser.add_argument("--seeds", required=True, type=bench_pair.seeds_arg,
                        help="seeds of the workload, e.g. 1-3,101")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="same_outputs-")
    exports = []
    groups = {}     # workload -> its (name, operation) pairs, in run order
    try:
        for workload in args.workload:
            groups[workload] = []
            for seed in args.seeds:
                workdir = os.path.join(scratch, workload, f"seed{seed}")
                os.makedirs(workdir)
                built = workloads.build(workload, seed, workdir, os.path.join(ROOT, "inputs"))
                groups[workload] += [(f"seed {seed} {op.name}", op) for op in built]
        ops = [op for group in groups.values() for _, op in group]
        for rev in (args.parent, args.change):
            exports.append(bench_pair.export(rev))
        outcomes = [run_ops(checkout, ops, scratch) for _, checkout in exports]
    finally:
        for _, checkout in exports:
            shutil.rmtree(checkout, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    start, differing = 0, 0
    for workload, group in groups.items():
        stop = start + len(group)
        found = differences([name for name, _ in group], *(out[start:stop] for out in outcomes))
        for name, fields in found:
            print(f"{name}: differs in {', '.join(fields)}")
        print(f"{len(found)} of {len(group)} {workload} operations differ between "
              f"{exports[0][0][:12]} and {exports[1][0][:12]}")
        start, differing = stop, differing + len(found)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
