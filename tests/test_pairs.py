"""tools/pairs.py's summary of parent/change pairs, on fixed numbers."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

BETTER = {"ops_per_s": "higher", "op_tail_ms": "lower"}


def runs(parent_tail, change_tail, parent_ops, change_ops):
    out = []
    for seed, values in enumerate(zip(parent_tail, change_tail, parent_ops, change_ops), 1):
        pt, ct, po, co = values
        out.append({"seed": seed, "side": "parent", "ops_per_s": po, "op_tail_ms": pt})
        out.append({"seed": seed, "side": "change", "ops_per_s": co, "op_tail_ms": ct})
    return out


PARENT_TAIL = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
CHANGE_TAIL = [8, 9, 10, 11, 12, 13, 14, 15, 16, 20]  # better in all pairs but the last
OPS = [100] * 10


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        summary = pairs.summarize(runs(PARENT_TAIL, CHANGE_TAIL, OPS, OPS), BETTER)
        assert summary["op_tail_ms"] == {
            "parent": {"median": 14.5, "q1": 12.25, "q3": 16.75},
            "change": {"median": 12.5, "q1": 10.25, "q3": 14.75},
            "wins": "9/10",
        }
        # ties are not wins
        assert summary["ops_per_s"]["wins"] == "0/10"

    def test_direction_follows_the_metric(self):
        summary = pairs.summarize(runs(PARENT_TAIL, PARENT_TAIL, OPS, [101] * 10), BETTER)
        assert summary["ops_per_s"]["wins"] == "10/10"
        assert summary["op_tail_ms"]["wins"] == "0/10"

    def test_benchmark_metrics(self):
        assert pairs.end_to_end()["op_tail_ms"] == "lower"
        assert pairs.end_to_end()["ops_per_s"] == "higher"


class TestClaimRule:
    def metric(self, change_tail):
        return pairs.summarize(runs(PARENT_TAIL, change_tail, OPS, OPS), BETTER)["op_tail_ms"]

    def test_gap_must_exceed_parent_iqr(self):
        # 9/10 wins, but the gap of 2 is inside the parent's IQR of 4.5
        assert not pairs.meets_claim(self.metric(CHANGE_TAIL), "lower")
        faster = [t - 5 for t in PARENT_TAIL[:9]] + [20]
        assert pairs.meets_claim(self.metric(faster), "lower")

    def test_needs_nine_wins_in_ten(self):
        two_losses = [t - 5 for t in PARENT_TAIL[:8]] + [20, 20]
        assert not pairs.meets_claim(self.metric(two_losses), "lower")

    def test_higher_is_better(self):
        metric = {"parent": {"median": 100, "q1": 99, "q3": 101},
                  "change": {"median": 103, "q1": 102, "q3": 104}, "wins": "10/10"}
        assert pairs.meets_claim(metric, "higher")
        assert not pairs.meets_claim(metric, "lower")


class TestNoRegression:
    """The per-metric verdict, with BENCHMARK.json's bound of 0.25."""

    def verdict(self, parent_ops, change_ops, name="ops_per_s"):
        tail = [10] * len(parent_ops)
        return pairs.no_regression(runs(tail, tail, parent_ops, change_ops), name,
                                   BETTER[name], 0.25)

    def test_worse_by_more_than_the_bound(self):
        assert self.verdict(OPS, [74] * 10) == "regressed"
        assert self.verdict(OPS, [76] * 10) == "ok"

    def test_lower_is_better(self):
        parent, change = [10] * 10, [13] * 10
        tail_runs = runs(parent, change, OPS, OPS)
        assert pairs.no_regression(tail_runs, "op_tail_ms", "lower", 0.25) == "regressed"
        assert pairs.no_regression(tail_runs, "op_tail_ms", "lower", 0.5) == "ok"
        faster = runs(parent, [7] * 10, OPS, OPS)
        assert pairs.no_regression(faster, "op_tail_ms", "lower", 0.25) == "ok"

    def test_parent_spread_wider_than_the_bound(self):
        wide = [40, 60, 70, 80, 100, 100, 120, 130, 140, 160]  # IQR 60 > 25
        assert self.verdict(wide, wide) == "unresolved"
        assert self.verdict(wide, [161] * 10) == "ok"  # every change run better
        assert self.verdict(wide, [160] * 10) == "unresolved"  # a tie is not better
        assert self.verdict(wide, [60] * 10) == "regressed"  # checked first

    def test_main_prints_a_verdict_per_metric_and_exits_1(self, monkeypatch, capsys):
        def fake_run(root, workload, seed, seconds):
            stamp = {"stamp": {"nproc": 2, "python": "3.11.7", "git_sha": "unknown"},
                     "slowdown": 1.0}
            values = {name: 1.0 for name in pairs.end_to_end()}
            if root.name == "change":  # half the throughput
                values["ops_per_s"] = 0.5
            return stamp, {"correct": True,
                           "metrics": {k: {"value": v} for k, v in values.items()}}

        monkeypatch.setattr(pairs, "export", lambda rev, into: "0" * 40)
        monkeypatch.setattr(pairs, "copy_checkout", lambda into: None)
        monkeypatch.setattr(pairs, "run_once", fake_run)
        assert pairs.main(["--parent", "HEAD", "--workload", "verify-acceptance",
                           "--seeds", "1-3", "--seconds", "1"]) == 1
        out, err = capsys.readouterr()
        assert '"pairs": 3' in out  # the entry is still printed
        verdicts = [line for line in err.splitlines() if line.startswith("no-regression")]
        assert len(verdicts) == len(pairs.end_to_end())
        assert "no-regression ops_per_s: regressed" in err
        assert "no-regression op_p50_ms: ok" in err


@pytest.mark.parametrize("name", ["BENCH_verify-acceptance.json",
                                  "BENCH_subgroups-large.json"])
def test_format_entry_matches_the_bench_files(name):
    # the entries the tool wrote, among those recorded by hand before it
    text = (ROOT / name).read_text()
    assert any(pairs.format_entry(e) in text for e in json.loads(text)["entries"]
               if "runs" in e)


def test_parse_seeds():
    assert pairs.parse_seeds("501-503") == [501, 502, 503]
    assert pairs.parse_seeds("7") == [7]
    assert pairs.parse_seeds("7-7") == [7]


@pytest.mark.parametrize("text", ["510-501", "", "a", "5-", "-5", "1-2-3", "1 - 3"])
def test_parse_seeds_rejects_empty_or_malformed_ranges(text):
    with pytest.raises(ValueError):
        pairs.parse_seeds(text)


@pytest.mark.parametrize("args, message", [
    (["--workload", "verify-acceptance", "--seeds", "510-501"], "range 510-501 is empty"),
    (["--workload", "verify-acceptance", "--seeds", "501-"], "is not a seed or a range"),
    (["--workload", "no-such-workload", "--seeds", "501-510"], "invalid choice"),
    (["--workload", "verify-acceptance", "--seeds", "501-510", "--seconds", "0"],
     "--seconds must be positive"),
    (["--workload", "verify-acceptance", "--seeds", "501-510", "--seconds", "-1"],
     "--seconds must be positive"),
    (["--workload", "verify-acceptance", "--seeds", "501-510", "--parent", "nosuchrev"],
     "--parent: 'nosuchrev' names no commit"),
])
def test_bad_arguments_stop_before_any_export(monkeypatch, capsys, args, message):
    def never(*_):
        raise AssertionError("a side was exported")

    monkeypatch.setattr(pairs, "export", never)
    monkeypatch.setattr(pairs, "copy_checkout", never)
    monkeypatch.setattr(pairs, "run_once", never)
    with pytest.raises(SystemExit) as exited:  # a flag in args overrides these
        pairs.main(["--parent", "HEAD", "--seconds", "1", *args])
    assert exited.value.code == 2  # argparse's usage error
    assert message in capsys.readouterr().err


class TestIncorrectRun:
    """A run that reports "correct": false ends the tool with exit 1 and no
    entry: numbers from a wrong engine are not a measurement."""

    def fake_run(self, correct):
        stamp = {"stamp": {"nproc": 2, "python": "3.11.7", "git_sha": "unknown"},
                 "slowdown": 1.0}
        metrics = {name: {"value": 1.0} for name in pairs.end_to_end()}
        return stamp, {"correct": correct, "metrics": metrics}

    def run_main(self, monkeypatch, wrong):
        """main over seeds 1-3, the run of (side, seed) wrong reporting not correct."""
        monkeypatch.setattr(pairs, "commit_sha", lambda rev: "0" * 40)
        monkeypatch.setattr(pairs, "export", lambda sha, into: None)
        monkeypatch.setattr(pairs, "copy_checkout", lambda into: None)
        monkeypatch.setattr(pairs, "run_once", lambda root, workload, seed, seconds:
                            self.fake_run((root.name == "change", seed) != wrong))
        return pairs.main(["--parent", "HEAD", "--workload", "verify-acceptance",
                           "--seeds", "1-3", "--seconds", "1"])

    @pytest.mark.parametrize("wrong", [(True, 2), (False, 3)])
    def test_exits_1_without_entry(self, monkeypatch, capsys, wrong):
        with pytest.raises(SystemExit) as exited:
            self.run_main(monkeypatch, wrong)
        assert exited.value.code not in (0, None)
        assert "not correct" in str(exited.value.code)
        assert capsys.readouterr().out == ""

    def test_correct_runs_print_the_entry(self, monkeypatch, capsys):
        assert self.run_main(monkeypatch, None) == 0
        assert '"pairs": 3' in capsys.readouterr().out


def test_both_sides_run_from_fresh_copies(monkeypatch, tmp_path, capsys):
    """Neither side runs in the checkout: the parent is its commit, the
    change the files on disk, an uncommitted edit and an untracked file
    included, an ignored file left out."""
    checkout = tmp_path / "checkout"
    checkout.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=checkout, check=True, capture_output=True)

    git("init", "-q")
    (checkout / ".gitignore").write_text("*.log\n")
    (checkout / "engine.py").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (checkout / "engine.py").write_text("edited\n")
    (checkout / "new.py").write_text("untracked\n")
    (checkout / "run.log").write_text("ignored\n")
    seen = {}

    def fake_run(root, workload, seed, seconds):
        seen[root.name] = root, {p.name: p.read_text() for p in root.iterdir()}
        stamp = {"stamp": {"nproc": 2, "python": "3.11.7", "git_sha": "unknown"},
                 "slowdown": 1.0}
        return stamp, {"correct": True,
                       "metrics": {name: {"value": 1.0} for name in pairs.end_to_end()}}

    monkeypatch.setattr(pairs, "ROOT", checkout)
    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", "HEAD", "--workload", "verify-acceptance",
                       "--seeds", "1-2", "--seconds", "1"]) == 0
    assert '"pairs": 2' in capsys.readouterr().out
    (parent_root, parent_files), (change_root, change_files) = seen["parent"], seen["change"]
    assert checkout not in (parent_root, change_root, *parent_root.parents,
                            *change_root.parents)
    assert parent_files == {".gitignore": "*.log\n", "engine.py": "committed\n"}
    assert change_files == {".gitignore": "*.log\n", "engine.py": "edited\n",
                            "new.py": "untracked\n"}


def test_blob_sha_is_git_hash_object():
    want = subprocess.run(["git", "hash-object", "perfbench/run.py"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert pairs.blob_sha(ROOT / "perfbench" / "run.py") == want


class TestRunPySha:
    """The entry carries the change's perfbench/run.py blob sha after its
    seeds, and a parent whose run.py differs is warned about."""

    def run_main(self, monkeypatch, capsys, parent_text, change_text):
        def write(into, text):
            (into / "perfbench").mkdir(parents=True)
            (into / "perfbench" / "run.py").write_text(text)

        def fake_run(root, workload, seed, seconds):
            stamp = {"stamp": {"nproc": 2, "python": "3.11.7", "git_sha": "unknown"},
                     "slowdown": 1.0}
            return stamp, {"correct": True,
                           "metrics": {name: {"value": 1.0} for name in pairs.end_to_end()}}

        monkeypatch.setattr(pairs, "commit_sha", lambda rev: "0" * 40)
        monkeypatch.setattr(pairs, "export", lambda sha, into: write(into, parent_text))
        monkeypatch.setattr(pairs, "copy_checkout", lambda into: write(into, change_text))
        monkeypatch.setattr(pairs, "run_once", fake_run)
        assert pairs.main(["--parent", "HEAD", "--workload", "verify-acceptance",
                           "--seeds", "1-2", "--seconds", "1"]) == 0
        out, err = capsys.readouterr()
        return json.loads(out), err

    def hash_object(self, tmp_path, text):
        (tmp_path / "run.py").write_text(text)
        return subprocess.run(["git", "hash-object", "run.py"], cwd=tmp_path, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_equal_sides_record_the_sha_without_a_warning(self, monkeypatch, capsys, tmp_path):
        entry, err = self.run_main(monkeypatch, capsys, "bench\n", "bench\n")
        assert entry["run_py_sha"] == self.hash_object(tmp_path, "bench\n")
        assert list(entry).index("run_py_sha") == list(entry).index("seeds") + 1
        assert "sha" not in entry
        assert "warning" not in err

    def test_a_mismatch_warns(self, monkeypatch, capsys, tmp_path):
        entry, err = self.run_main(monkeypatch, capsys, "old\n", "new\n")
        assert entry["run_py_sha"] == self.hash_object(tmp_path, "new\n")
        old = self.hash_object(tmp_path, "old\n")
        assert f"warning: perfbench/run.py differs: parent {old}, change {entry['run_py_sha']}" \
            in err
