"""The verdict rule and the output of tools/bench_pair.py, on hand-made runs."""

import argparse
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]


@pytest.mark.parametrize("change, better, expected", [
    # 10/10 pairs, far beyond the parent's interquartile range
    ([150.0 + i for i in range(10)], "higher", "gain"),
    # lower is better: the same runs are then a regression
    ([150.0 + i for i in range(10)], "lower", "regression"),
    ([60.0 + i for i in range(10)], "lower", "gain"),
    # 8/10 pairs is not enough for a gain
    ([150.0] * 8 + [50.0, 50.0], "higher", "within bound"),
    # 10/10 pairs, but the medians differ by less than the parent's IQR (1.0)
    ([p + 0.3 for p in PARENT], "higher", "within bound"),
    # 9/10 pairs, one tie: ties count for neither side
    ([p + 5.0 for p in PARENT[:9]] + [PARENT[9]], "higher", "gain"),
    ([p + 5.0 for p in PARENT[:8]] + PARENT[8:], "higher", "within bound"),
    # worse by 10%: inside a 15% bound; by 20%: beyond it
    ([p * 0.9 for p in PARENT], "higher", "within bound"),
    ([p * 0.8 for p in PARENT], "higher", "regression"),
])
def test_verdict(change, better, expected):
    assert bench_pair.verdict(PARENT, change, better, 0.15) == expected


def test_wide_spread_is_unresolved_unless_every_change_run_is_better():
    wide = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0]
    # 5% worse in the median, but the runs spread over 40% of it
    assert bench_pair.verdict(wide, [w * 0.95 for w in wide], "higher", 0.15) == "unresolved"
    # every change run above every parent run, yet not a gain: the medians
    # differ by less than the parent's interquartile range
    parent = [10.0, 10.0, 10.0, 10.0, 10.0, 50.0, 90.0, 90.0, 90.0, 90.0]
    change = [91.0] * 10
    assert bench_pair.wins(parent, change, "higher") == 10
    assert bench_pair.verdict(parent, change, "higher", 0.15) == "within bound"
    assert bench_pair.verdict(parent, [49.0] * 10, "higher", 0.15) == "unresolved"


def test_wins_counts_ties_for_neither_side():
    assert bench_pair.wins([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher") == 1
    assert bench_pair.wins([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "lower") == 1


def test_a_failed_run_leaves_no_export_behind(monkeypatch, tmp_path):
    made = []

    def export(rev):
        made.append(tmp_path / rev)
        made[-1].mkdir()
        return rev, str(made[-1])

    def compare(*args):
        raise SystemExit("bench_pair: a run failed")

    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair, "compare", compare)
    with pytest.raises(SystemExit, match="a run failed"):
        bench_pair.main(["--pr", "0", "--parent", "p", "--change", "c",
                         "--workload", "sweep", "--seeds", "1"])
    assert len(made) == 2 and not any(path.exists() for path in made)


def test_output_counts_each_sides_source_lines(monkeypatch, tmp_path):
    sides = {}
    for side, files in (("parent", {"a.py": "x\ny\n", "b.py": "z\n"}),
                        ("change", {"a.py": "x\n", "notes.txt": "not\ncounted\n"})):
        pkg = tmp_path / side / "src" / "delaystab"
        pkg.mkdir(parents=True)
        for name, text in files.items():
            (pkg / name).write_text(text)
        sides[side] = (side, str(tmp_path / side))
    result = {"attempted": 1, "failed": 0, "metrics": {"ops_per_s": 1.0}}
    monkeypatch.setattr(bench_pair, "run", lambda *args, **kwargs: result)
    args = argparse.Namespace(pr=0, note="", workload=["sweep"], seeds=[[1]], trace_seed=None)
    out = bench_pair.compare(args, sides, 1.0,
                             {"ops_per_s": {"better": "higher", "bound": 0.15}})
    assert out["source_lines"] == {"parent": 3, "change": 1}
