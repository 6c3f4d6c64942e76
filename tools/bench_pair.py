"""Benchmark two commits against each other and write BENCH_<pr>.json.

    python3 tools/bench_pair.py --pr 6 --parent HEAD~1 --change HEAD \\
        --workload certify --seeds 11-20 --workload sweep --seeds 11-15 \\
        --trace-seed 11 --note "2-vCPU shared VM, no CPU pinning"

Run from the repository root.  Each commit is exported with `git archive`
into its own directory under ./.bench_build, so both sides run the same
committed benchmark on their own committed source.  For every seed of a
workload, `perfbench/run.py` runs once per side, and the side that runs
first alternates from one seed to the next.  Each run's last stdout line
is its JSON result.

The output holds, per workload: the seeds and which side ran first, every
run's end-to-end metrics, each side's median and quartiles per metric,
how many pairs the change won per metric (ties count for neither side),
failed/attempted operations, and a verdict per metric (see `verdict`).
`source_lines` gives each side's `wc -l src/delaystab/*.py`.
With --trace-seed, one traced run per side (`--trace 1`) adds the
per-layer metrics.  The run ends with one stderr line per workload and
end-to-end metric, the figures behind its verdict (see `verdict_line`).
The exported commits are removed when the script ends, also when a run
fails.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def seeds_arg(text: str) -> list[int]:
    """'11-20' or '3,5,8' -> list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def export(rev: str) -> tuple[str, str]:
    """Unpack the commit `rev` under .bench_build; returns (sha, directory)."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest = os.path.join(BUILD, sha[:12])
    shutil.rmtree(dest, ignore_errors=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    try:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    except BaseException:
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return sha, dest


def source_lines(checkout: str) -> int:
    """Line total of the package sources in a checkout, as `wc -l` counts."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "delaystab", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pair: {' '.join(cmd)} in {checkout} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Judge one end-to-end metric from paired runs (pair i is parent[i],
    change[i]); `bound` is the worsening allowed, as a fraction of the
    parent's median.

    "gain": the change wins at least 9 in 10 pairs (ties count for neither
    side) and its median is better by more than the parent's interquartile
    range.  "regression": its median is worse by more than the bound.
    "unresolved": neither, but one side's interquartile range is wider than
    the bound, unless every change run is better than every parent run.
    "within bound" otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    ps, cs = summary(parent), summary(change)
    ahead = sign * (cs["median"] - ps["median"])
    if 10 * wins(parent, change, better) >= 9 * len(parent) and ahead > ps["q3"] - ps["q1"]:
        return "gain"
    allowed = bound * abs(ps["median"])
    if -ahead > allowed:
        return "regression"
    spread = max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"])
    if spread > allowed and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def verdict_line(workload: str, metric: str, entry: dict) -> str:
    """Each side's median [q1, q3] of one metric of a workload's entry, the
    pairs the change won out of all, and the verdict."""
    def figures(side: str) -> str:
        s = entry[side]["metrics"][metric]
        return f"{side} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    return (f"{workload} {metric}: {figures('parent')}, {figures('change')}, change won "
            f"{entry['change_wins'][metric]}/{entry['pairs']}: {entry['verdicts'][metric]}")


def compare(args, sides: dict, seconds: float, metrics: dict) -> dict:
    """Run every pair and summarise it; `sides` maps parent/change to (sha, checkout)."""
    out = {
        "pr": args.pr,
        "parent": sides["parent"][0], "change": sides["change"][0],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}",
        "vm": {"note": args.note, "cpus": os.cpu_count(), "python": platform.python_version(),
               "machine": platform.machine()},
        "source_lines": {side: source_lines(checkout) for side, (_, checkout) in sides.items()},
        "workloads": {},
    }
    for workload, seeds in zip(args.workload, args.seeds):
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side][1], workload, seed, seconds, trace=0)
                print(f"{workload} seed {seed} {side}: "
                      f"{pair[side]['metrics'].get('ops_per_s', 0.0):.4g} ops/s",
                      file=sys.stderr)
            runs.append(pair)
        entry = {"seeds": seeds, "pairs": len(runs), "runs": runs}
        for side in sides:
            entry[side] = {
                "attempted": sum(r[side]["attempted"] for r in runs),
                "failed": sum(r[side]["failed"] for r in runs),
                "metrics": {m: summary([r[side]["metrics"][m] for r in runs])
                            for m in runs[0][side]["metrics"]},
            }
        paired = {m: ([r["parent"]["metrics"][m] for r in runs],
                      [r["change"]["metrics"][m] for r in runs])
                  for m in metrics if m in runs[0]["parent"]["metrics"]}
        entry["change_wins"] = {m: wins(*pv, metrics[m]["better"]) for m, pv in paired.items()}
        entry["verdicts"] = {m: verdict(*pv, metrics[m]["better"], metrics[m]["bound"])
                             for m, pv in paired.items()}
        share = {side: entry[side]["failed"] / max(1, entry[side]["attempted"]) for side in sides}
        entry["verdicts"]["failed_share"] = \
            "regression" if share["change"] > share["parent"] else "within bound"
        if args.trace_seed is not None:
            entry["trace"] = {"seed": args.trace_seed, **{
                side: run(sides[side][1], workload, args.trace_seed, seconds, trace=1)
                for side in sides}}
        out["workloads"][workload] = entry
    for workload, entry in out["workloads"].items():
        for metric in entry["change_wins"]:
            print(verdict_line(workload, metric, entry), file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output file name")
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload name; give once per workload")
    parser.add_argument("--seeds", action="append", required=True, type=seeds_arg,
                        help="seeds of the preceding --workload, e.g. 11-20")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also run one traced pair on this seed per workload")
    parser.add_argument("--note", default="", help="where the runs were made")
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds after each --workload")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    exports = []
    try:
        for rev in (args.parent, args.change):
            exports.append(export(rev))
        out = compare(args, dict(zip(("parent", "change"), exports)), seconds, metrics)
    finally:
        for _, checkout in exports:
            shutil.rmtree(checkout, ignore_errors=True)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
