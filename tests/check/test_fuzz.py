"""The differential fuzz engine: determinism, the degenerate-input
sweep, and the bounded smoke run CI leans on."""

import random

import pytest

from repro import obs
from repro.check import (Scenario, generate_scenario, run_case,
                         run_fuzz)


class TestDeterminism:
    def test_same_seed_same_scenarios(self):
        a = [generate_scenario(random.Random(11)).to_dict()
             for _ in range(1)]
        draws1 = []
        draws2 = []
        rng1, rng2 = random.Random(5), random.Random(5)
        for _ in range(25):
            draws1.append(generate_scenario(rng1).to_dict())
            draws2.append(generate_scenario(rng2).to_dict())
        assert draws1 == draws2
        assert a  # silence unused

    def test_scenario_dict_roundtrip(self):
        scenario = generate_scenario(random.Random(3))
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_rerun_same_case_same_outcome(self):
        scenario = generate_scenario(random.Random(9))
        assert run_case(scenario) == run_case(scenario)


class TestDegenerateSweep:
    """Satellite: degenerate inputs across all four layers must agree
    with the pattern-semantics contract (empty text, length-1 text,
    whole-text patterns, queries on freshly-extended unsaved state)."""

    def _scenario(self, **kwargs):
        base = dict(alphabet="ac", text="", cuts=[],
                    layers=["memory", "packed", "disk", "shard"],
                    shards=2, max_pattern_len=16,
                    deep_verify=True)
        base.update(kwargs)
        scenario = Scenario(**base)
        return scenario

    def test_empty_text(self):
        scenario = self._scenario(
            text="", cuts=[],
            patterns=["", "a", "ac", "z"])
        assert run_case(scenario) == []

    def test_single_character_text(self):
        scenario = self._scenario(
            text="a", cuts=[1],
            patterns=["", "a", "c", "aa", "az"])
        assert run_case(scenario) == []

    def test_whole_text_and_longer_patterns(self):
        text = "aaccacaaca"
        scenario = self._scenario(
            text=text, cuts=[len(text)],
            patterns=["", text, text + "a", text * 2, "accaa",
                      "caca"])
        assert run_case(scenario) == []

    def test_freshly_extended_unsaved(self):
        # Build from a prefix, extend online, query immediately —
        # no checkpoint, no save. All layers must already answer
        # over the full text.
        text = "acacccaaacacaca"
        scenario = self._scenario(
            text=text, cuts=[4, 9, len(text)],
            patterns=["", text, text[3:11], "cac", "aaa",
                      text + "c"])
        assert run_case(scenario) == []

    def test_all_same_character(self):
        scenario = self._scenario(
            text="aaaaaaa", cuts=[3, 7],
            patterns=["", "a", "aa", "aaaaaaa", "aaaaaaaa", "c"])
        assert run_case(scenario) == []

    def test_case_insensitive_folding(self):
        scenario = self._scenario(
            alphabet="AC", case_insensitive=True,
            text="AaCcAcAaCa", cuts=[10],
            patterns=["", "aacc", "AACC", "aAcC", "acz"])
        assert run_case(scenario) == []


class TestFuzzSmoke:
    def test_bounded_run_is_clean(self):
        report = run_fuzz(seed=0, budget=15, max_cases=40)
        assert report.cases > 0
        assert report.ok, report.divergences

    def test_layer_subset(self):
        report = run_fuzz(seed=2, budget=10, max_cases=10,
                          layers=["memory", "packed"])
        assert report.ok, report.divergences

    def test_metrics_published(self):
        with obs.metrics_enabled() as registry:
            run_fuzz(seed=4, budget=5, max_cases=3, minimize=False)
            snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["check.cases"] == 3
        assert counters["check.queries"] > 0
        assert counters["check.divergences"] == 0
        assert "check.case.seconds" in snap["timers"]

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError):
            generate_scenario(random.Random(0), layers=["bogus"])


def test_streaming_ops_checked_on_every_layer_but_shard(monkeypatch):
    """Matching statistics and maximal matches are diffed on the
    memory, packed and disk layers; the sharded layer has neither verb
    and is skipped, not reported."""
    from repro.core import matching

    real = matching.matching_statistics

    def broken(index, query):
        result = real(index, query)
        if result.lengths:
            result.lengths[-1] = 0
        return result

    monkeypatch.setattr(matching, "matching_statistics", broken)
    scenario = Scenario(alphabet="ac", text="aaccacaaca", cuts=[10],
                        layers=["memory", "packed", "disk", "shard"],
                        patterns=["caca"])
    assert {(d.layer, d.op) for d in run_case(scenario)} == {
        (layer, op) for layer in ("memory", "packed", "disk")
        for op in ("matching_statistics", "maximal_matches")}
