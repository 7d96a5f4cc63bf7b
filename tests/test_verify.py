import inspect
import json
import random
import sys
from dataclasses import asdict, replace

import pytest
from conftest import extra_class, patch_everywhere, plant_failing_check

from wordcycles import complexes, cycles, graphs, verify
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
    assert report.passes + len(report.failures) + report.inconclusive == report.trials


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
        return [random_inverse_automaton(SMALL, random.Random(trial_seed(master_seed, i)))
                for i in range(5)]

    assert instances(11) != instances(12)
    assert instances(11) == instances(11)
    assert trial_seed(11, 0) != trial_seed(12, 0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_failure_payloads(monkeypatch, name):
    check, reports = plant_failing_check(monkeypatch, name)
    report = run_suite(name, SMALL)
    assert report.passes + len(report.failures) == report.trials == len(reports)
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
    # each payload alone, through JSON, redraws the instance it records,
    # so no trial's draw depends on the trials run before it
    check, _ = plant_failing_check(monkeypatch, name)
    report = run_suite(name, SMALL)
    assert report.failures
    for failure in report.failures:
        p = json.loads(json.dumps(failure))
        instance = SUITES[p["suite"]].draw(TrialConfig(**p["config"]), p["trial"],
                                           random.Random(p["trial_seed"]))
        assert set(instance) == set(inspect.signature(check).parameters)
        encoded = json.loads(json.dumps({k: _encode(v) for k, v in instance.items()}))
        assert encoded == {k: p[k] for k in instance}, p["trial"]


def test_main_payload_of_a_trial_with_a_class(monkeypatch):
    # a main report with a class holds its Betti side when the check returns,
    # so the payload of a trial with a class holds every count
    plant_failing_check(monkeypatch, "main")
    report = run_suite("main", SMALL)
    with_class = [p for p in report.failures if p["total_classes"]]
    assert with_class
    for p in with_class:
        instance = SUITES["main"].draw(SMALL, p["trial"], random.Random(p["trial_seed"]))
        dec = cycles.decompose(instance["g"], instance["w"])
        assert (p["total_classes"], p["total_betti"], p["count_with_multiplicity"]) == (
            dec.class_count, graphs.betti(instance["g"]).total, dec.count_with_multiplicity)


def test_one_trial_seed_per_trial(monkeypatch):
    # perfbench times each verify trial by its one trial_seed call
    indices = []

    def counted(master_seed, index):
        indices.append(index)
        return trial_seed(master_seed, index)

    monkeypatch.setattr(verify, "trial_seed", counted)
    report = run_suite("equality-collapse", SMALL)
    assert indices == list(range(report.trials))


def test_run_suite_makes_no_unseeded_rng(monkeypatch):
    # an unseeded Random fills its state from os.urandom, which trial 0 would pay for
    made = []

    class Recorded(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Recorded)
    run_suite("main", SMALL)
    assert made and () not in made


# decompose calls one check makes on one drawn instance: one per relator for
# staggered, none where no word acts on a graph, one everywhere else
NOT_DECOMPOSING = {"fold-confluence", "shnc", "conjugate-intersection"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_no_check_decomposes_an_instance_twice(monkeypatch, name):
    calls = []

    def counted(decompose):
        def counting(g, w):
            calls.append(w)
            return decompose(g, w)
        return counting

    patch_everywhere(monkeypatch, cycles, "decompose", counted)
    suite = SUITES[name]
    module, _, function = suite.check.partition(".")
    check = getattr(sys.modules[f"wordcycles.{module}"], function)
    for i in range(SMALL.trials + suite.extra_trials):
        instance = suite.draw(SMALL, i, random.Random(trial_seed(SMALL.master_seed, i)))
        before = len(calls)  # npi's draw decomposes too; only the check's calls count
        check(**instance)
        expected = (len(instance["p"].relators) if name == "staggered"
                    else 0 if name in NOT_DECOMPOSING else 1)
        assert len(calls) - before == expected, i


def test_no_suite_builds_a_canonical_form(monkeypatch):
    # fold numbers classes by their least vertices, so fold confluence
    # compares the folds themselves; canonical forms serve isomorphism alone
    calls = []

    def counted(canonical_form):
        def counting(g):
            calls.append(g)
            return canonical_form(g)
        return counting

    patch_everywhere(monkeypatch, graphs, "canonical_form", counted)
    for name in SUITES:
        run_suite(name, SMALL)
    assert calls == []


def test_restated_draws_mains_instance():
    assert SUITES["restated"].draw is verify.draw_main


class TestConjugateIntersectionConfig:
    """Words of length 1 reach only 1 + 2(k - r) cosets of H = <r of the k
    letters>, fewer than the r + 1 the draw needs once 3r > 2k, which some
    r in 1..k-1 meets at every k >= 4: that config is rejected up front."""

    def test_length_one_over_four_letters_raises_before_drawing(self):
        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("drew")

            def getrandbits(self, k):
                raise AssertionError("drew")

        cfg = TrialConfig(alphabet=4, max_word_length=1)
        with pytest.raises(ValueError, match="needs max_word_length >= 2 when alphabet >= 4"):
            SUITES["conjugate-intersection"].draw(cfg, 0, NoDraws())
        with pytest.raises(ValueError, match="max_word_length >= 2"):
            run_suite("conjugate-intersection", cfg)

    @pytest.mark.parametrize("alphabet, length", [(4, 2), (3, 1), (8, 2)])
    def test_reachable_configs_still_run(self, alphabet, length):
        cfg = TrialConfig(master_seed=11, trials=200, alphabet=alphabet,
                          max_word_length=length)
        report = run_suite("conjugate-intersection", cfg)
        assert report.passes == report.trials == 200


def never_collapses(collapses_to_tree):
    return lambda x: replace(collapses_to_tree(x), collapses=False)


# At seed 11, 100 trials of the default TrialConfig: the extra class fails
# oracle in 40 trials and restated in 35, and npi's check rejects 13 of its
# own draws as duplicate attachments; never collapsing fails each of
# equality-collapse's 106 qualifying trials and 5 of npi's.  A collapse
# check that always answers True still fails no suite, so it is not here.
@pytest.mark.parametrize("module, name, fault, suites", [
    (cycles, "decompose", extra_class, ["oracle", "restated", "npi"]),
    (complexes, "collapses_to_tree", never_collapses, ["equality-collapse", "npi"]),
])
def test_planted_faults_fail_their_suites(monkeypatch, module, name, fault, suites):
    patch_everywhere(monkeypatch, module, name, fault)
    cfg = TrialConfig(master_seed=11, trials=100)
    for suite in suites:
        report = run_suite(suite, cfg)
        assert report.failures, suite
        if suite == "equality-collapse":
            assert len(report.failures) == report.qualifying
        if name == "decompose" and suite == "npi":  # failed trials, not a raise
            assert len(report.failures) == 13
            for p in report.failures:
                assert p["error"].endswith("cycle class, so this is not an immersion")
                instance = SUITES[suite].draw(cfg, p["trial"], random.Random(p["trial_seed"]))
                assert {k: _encode(v) for k, v in instance.items()} == \
                    {k: p[k] for k in instance}
