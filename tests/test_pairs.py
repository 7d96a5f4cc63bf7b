"""tools/pairs.py's summary of parent/change pairs, on fixed numbers."""

import importlib.util
import json
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
