"""tools/same_outputs.py: its comparison, its runner and its clean-up."""

import json
import pathlib
import sys
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import same_outputs  # noqa: E402  (tools/ is not a package)


def test_differences_name_each_operation_and_field():
    same = [0, "{}\n", "", "t,x_1\n0,1\n"]
    outcomes = [same, [2, "a", "", ""], [1, "", "error: x", ""], [0, "", "", "t\n"]]
    changed = [same, [2, "b", "", ""], ["ValueError: y", "", "error: z", ""], [0, "", "", "t\r\n"]]
    names = ["same", "stdout", "exit", "csv"]
    assert same_outputs.differences(names, outcomes, outcomes) == []
    assert same_outputs.differences(names, outcomes, changed) == [
        ("stdout", ["stdout"]), ("exit", ["exit", "stderr"]), ("csv", ["csv"])]


def test_a_difference_only_in_numbers_is_sized():
    # JSON stdout or CSV files of the same shape: the largest |a - b| / max(|a|, |b|)
    # of their numbers; a JSON stdout names where else it differs, a CSV file does not
    csv = "t,x_1,x_2\n0,1,-2\n0.5,0.25,-1\n"
    outcomes = [[0, '{"x": [1.0, 2.0], "tag": "a", "ok": false}\n', "", csv]] * 4
    changed = [[0, '{"x": [1.0, 2.0000000000000004], "tag": "a", "ok": false}\n', "",
                csv.replace("0.25", "0.2500000001")],
               [0, '{"x": [1.0, 2.0], "tag": "b", "ok": false}\n', "",
                csv.replace("-1\n", "-1\n1,0,0\n")],
               [0, '{"x": [1.0, NaN], "tag": "a", "ok": false}\n', "", csv.replace("-2", "-3")],
               [0, '{"x": [1.0, 2.0], "tag": "a", "ok": 0}\n', "", csv.replace("t,", "time,")]]
    assert same_outputs.differences(["numbers", "shape", "nan", "ok"], outcomes, changed) == [
        ("numbers", ["stdout (largest relative difference 2.2e-16)",
                     "csv (largest relative difference 4e-10)"]),
        ("shape", ["stdout at tag", "csv"]),
        ("nan", ["stdout (largest relative difference inf)",
                 "csv (largest relative difference 0.33)"]),
        ("ok", ["stdout at ok", "csv"])]


def test_a_json_stdout_names_the_key_paths_where_it_differs():
    report = {"input": {"path": "a.json", "sha256": "0" * 64},
              "rows": [{"status": "stable", "rate": 0.5}, {"status": "stable", "rate": 0.25}]}

    def changed(edit):
        out = json.loads(json.dumps(report))
        edit(out)
        return [0, json.dumps(out, indent=2) + "\n", "", ""]

    def sha(out):
        out["input"]["sha256"] = "1" * 64

    def sha_and_rate(out):
        sha(out)
        out["rows"][1]["rate"] = 0.3

    def keys_and_rows(out):
        del out["input"]["path"]
        out["input"]["parameter"] = "spec.a"
        out["rows"].append({})

    def statuses(out):
        out["tool"] = None
        for row in out["rows"]:
            row["status"] = "inconclusive"
        out["rows"][0]["rate"] = True
        out["input"]["sha256"] = 1

    cases = {"sha": sha, "sha_and_rate": sha_and_rate, "keys_and_rows": keys_and_rows,
             "statuses": statuses}
    parent = [[0, json.dumps(report, indent=2) + "\n", "", ""]] * len(cases)
    assert same_outputs.differences(list(cases), parent,
                                    [changed(edit) for edit in cases.values()]) == [
        ("sha", ["stdout at input.sha256"]),
        ("sha_and_rate", ["stdout at input.sha256 and in numbers "
                          "(largest relative difference 0.17)"]),
        ("keys_and_rows", ["stdout at input.path and input.parameter and rows"]),
        ("statuses", ["stdout at input.sha256 and rows[0].status and rows[0].rate and 2 more"])]


def test_run_ops_captures_each_outcome_and_the_csv_bytes(tmp_path):
    csv = tmp_path / "run.csv"
    document = str(ROOT / "inputs" / "two_neuron_sample.json")
    ops = [SimpleNamespace(argv=["simulate", document, "--t-end", "0.2", "--record-every", "10",
                                 "--out", str(csv)]),
           SimpleNamespace(argv=["simulate", str(tmp_path / "missing.json"), "--t-end", "1"])]
    written, missing = same_outputs.run_ops(str(ROOT), ops, str(tmp_path))
    assert written[0] == 0 and '"command": "simulate"' in written[1]
    assert written[3].startswith("t,x_1,x_2\n0,1,1\n") and not csv.exists()
    assert missing[0] == 1 and missing[1] == "" and "missing.json" in missing[2]


def fake_exports(monkeypatch, tmp_path):
    made = []

    def export(rev):
        made.append(tmp_path / rev)
        made[-1].mkdir()
        return rev, str(made[-1])

    monkeypatch.setattr(same_outputs.bench_pair, "export", export)
    return made


def test_a_differing_operation_is_listed_and_fails_the_run(monkeypatch, tmp_path, capsys):
    fake_exports(monkeypatch, tmp_path)

    def run_ops(checkout, ops, scratch):
        return [[0, "parent" if checkout.endswith("p") and i == 1 else "", "", ""]
                for i in range(len(ops))]

    monkeypatch.setattr(same_outputs, "run_ops", run_ops)
    assert same_outputs.main(["--parent", "p", "--change", "c", "--workload", "simulate",
                              "--seeds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 1 simulate-csv:two_neuron_dynamics: differs in stdout"
    assert lines[1] == "1 of 25 simulate operations differ between p and c"


def test_a_failed_run_leaves_no_export_behind(monkeypatch, tmp_path):
    made = fake_exports(monkeypatch, tmp_path)

    def run_ops(*args):
        raise SystemExit("a run failed")

    monkeypatch.setattr(same_outputs, "run_ops", run_ops)
    with pytest.raises(SystemExit, match="a run failed"):
        same_outputs.main(["--parent", "p", "--change", "c", "--workload", "simulate",
                           "--seeds", "1"])
    assert len(made) == 2 and not any(path.exists() for path in made)


@pytest.mark.parametrize("workload", [["--workload", "certify,simulate,sweep"], []],
                         ids=["listed", "default"])
def test_several_workloads_share_one_export_and_one_run_per_commit(monkeypatch, tmp_path,
                                                                  capsys, workload):
    made = fake_exports(monkeypatch, tmp_path)
    runs = []

    def run_ops(checkout, ops, scratch):
        # the parent's last operation (the last sweep operation) differs
        runs.append(len(ops))
        return [[0, "parent" if checkout.endswith("p") and i == len(ops) - 1 else "", "", ""]
                for i in range(len(ops))]

    monkeypatch.setattr(same_outputs, "run_ops", run_ops)
    # left out, --workload is every workload of the benchmark
    assert same_outputs.main(["--parent", "p", "--change", "c", *workload, "--seeds", "1"]) == 1
    assert len(made) == 2 and runs == [113 + 25 + 15] * 2
    assert capsys.readouterr().out.splitlines() == [
        "0 of 113 certify operations differ between p and c",
        "0 of 25 simulate operations differ between p and c",
        "seed 1 sweep-threshold:inputs/bam_modulated: differs in stdout",
        "1 of 15 sweep operations differ between p and c",
    ]
