import inspect
import json
import random
from dataclasses import asdict

import pytest
from conftest import plant_failing_check

from wordcycles import verify
from wordcycles.generators import TrialConfig, trial_seed
from wordcycles.verify import SUITES, _encode, run_suite

SMALL = TrialConfig(
    master_seed=11, trials=25, max_vertices=8, alphabet=2, max_word_length=6
)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_clean(name):
    report = run_suite(name, SMALL)
    assert report.suite == name
    assert report.failures == []
    assert report.passes + report.failure_count + report.inconclusive == report.trials


# [trials, passes, inconclusive, qualifying] at SMALL; a difference here is a
# verdict change.
SMALL_SUMMARIES = {
    "conjugate-intersection": [25, 25, 0, None],
    "conjugates": [25, 25, 0, None],
    "equality-collapse": [125, 125, 0, 101],
    "fold-confluence": [25, 25, 0, None],
    "main": [25, 25, 0, None],
    "npi": [25, 25, 0, None],
    "oracle": [25, 25, 0, None],
    "restated": [25, 25, 0, None],
    "shnc": [25, 25, 0, None],
    "staggered": [25, 25, 0, None],
    "strict": [25, 25, 0, 25],
}


def test_pinned_summaries():
    assert sorted(SMALL_SUMMARIES) == sorted(SUITES)
    for name, expected in SMALL_SUMMARIES.items():
        r = run_suite(name, SMALL)
        assert [r.trials, r.passes, r.inconclusive, r.qualifying] == expected, name


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope", SMALL)


def test_reproducible_reports():
    a = run_suite("main", SMALL)
    b = run_suite("main", SMALL)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time"), jb.pop("wall_time")
    assert ja == jb


@pytest.mark.parametrize("name", sorted(SUITES))
def test_report_key_order(name):
    # the fields in order, and qualifying last where the suite counts it
    keys = ["suite", "trials", "passes", "failures", "inconclusive", "wall_time"]
    if name in ("strict", "equality-collapse"):
        keys.append("qualifying")
    assert list(run_suite(name, SMALL).to_json()) == keys


@pytest.mark.parametrize("name", sorted(SUITES))
def test_qualifying_is_what_the_reports_declare(monkeypatch, name):
    # a suite counts qualifying trials exactly when its check's reports
    # have applicable, and then counts the applicable ones
    _, reports = plant_failing_check(monkeypatch, name)
    report = run_suite(name, SMALL)
    declared = {hasattr(res, "applicable") for res in reports}
    assert len(declared) == 1
    if declared == {True}:
        assert report.qualifying == sum(res.applicable for res in reports)
    else:
        assert report.qualifying is None


def test_different_seed_different_instances():
    # the master seed steers generation: over the first few trials, seeds 11
    # and 12 give different instances
    from wordcycles.generators import random_inverse_automaton, trial_seed

    def instances(master_seed):
        return [random_inverse_automaton(SMALL, trial_seed(master_seed, i))
                for i in range(5)]

    assert instances(11) != instances(12)
    assert instances(11) == instances(11)
    assert trial_seed(11, 0) != trial_seed(12, 0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_failure_payloads(monkeypatch, name):
    check, reports = plant_failing_check(monkeypatch, name)
    report = run_suite(name, SMALL)
    assert report.passes + report.failure_count == report.trials == len(reports)
    applicable = [i for i, res in enumerate(reports) if getattr(res, "applicable", True)]
    assert [p["trial"] for p in report.failures] == applicable != []
    params = list(inspect.signature(check).parameters)
    for payload in report.failures:
        counts = {k: v for k, v in vars(reports[payload["trial"]]).items()
                  if type(v) is int}
        assert set(payload) == {"suite", "trial", "trial_seed", "config",
                                *params, *counts}
        assert {k: payload[k] for k in counts} == counts
        assert payload["suite"] == name
        assert payload["trial_seed"] == trial_seed(SMALL.master_seed, payload["trial"])
        assert payload["config"] == asdict(SMALL)
    json.dumps(report.to_json())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_payload_replays_its_trial(monkeypatch, name):
    # the payload alone, through JSON, redraws the instance it records
    check, _ = plant_failing_check(monkeypatch, name)
    report = run_suite(name, SMALL)
    p = json.loads(json.dumps(report.failures[-1]))
    instance = SUITES[p["suite"]].draw(TrialConfig(**p["config"]), p["trial"],
                                       random.Random(p["trial_seed"]))
    assert set(instance) == set(inspect.signature(check).parameters)
    encoded = json.loads(json.dumps({k: _encode(v) for k, v in instance.items()}))
    assert encoded == {k: p[k] for k in instance}


def test_one_trial_seed_per_trial(monkeypatch):
    # perfbench times each verify trial by its one trial_seed call
    indices = []

    def counted(master_seed, index):
        indices.append(index)
        return trial_seed(master_seed, index)

    monkeypatch.setattr(verify, "trial_seed", counted)
    report = run_suite("equality-collapse", SMALL)
    assert indices == list(range(report.trials))
