import inspect
import json
import sys
from types import SimpleNamespace

import pytest

from wordcycles.generators import TrialConfig
from wordcycles.verify import SUITES, run_suite

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
    with pytest.raises(KeyError):
        run_suite("nope", SMALL)


def test_reproducible_reports():
    a = run_suite("main", SMALL)
    b = run_suite("main", SMALL)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time"), jb.pop("wall_time")
    assert ja == jb


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
    # plant, through the module attribute run_suite looks up, a check whose
    # every report fails; applicable is left as the real check set it
    module, _, function = SUITES[name].check.partition(".")
    owner = sys.modules[f"wordcycles.{module}"]
    check, reports = getattr(owner, function), []

    def failing(**instance):
        res = check(**instance)
        reports.append(res)
        return SimpleNamespace(**{**vars(res), "passed": False})

    monkeypatch.setattr(owner, function, failing)
    report = run_suite(name, SMALL)
    assert report.passes + report.failure_count == report.trials == len(reports)
    applicable = [i for i, res in enumerate(reports) if getattr(res, "applicable", True)]
    assert [p["trial"] for p in report.failures] == applicable != []
    params = list(inspect.signature(check).parameters)
    for payload in report.failures:
        counts = {k: v for k, v in vars(reports[payload["trial"]]).items()
                  if type(v) is int}
        assert set(payload) == {"trial", *params, *counts}
        assert {k: payload[k] for k in counts} == counts
    json.dumps(report.to_json())
