"""``explain_pattern`` against the paper's worked example.

The index over ``"aaccacaaca"`` (Figures 2/3) has ribs
``(0,'c')->3 PT=0``, ``(1,'c')->3 PT=1``, ``(3,'a')->5 PT=1`` (extrib
chain ``[(7, PT=2), (10, PT=3)]``) and ``(5,'a')->8 PT=2``; the paper's
showcase false positive is ``"accaa"``, which a plain compacted trie
would accept and the PT machinery must reject.
"""

import json

import pytest

from repro.core.index import SpineIndex
from repro.obs.explain import explain_pattern
from repro.obs.trace import get_tracer
from tests.conftest import lock_checked_index, three_layers

PAPER = "aaccacaaca"


@pytest.fixture
def index():
    return SpineIndex(PAPER)


class TestPaperDecisions:
    def test_false_positive_rejected_with_pt_values(self, index):
        ex = explain_pattern(index, "accaa")
        assert not ex.matched
        last = ex.steps[-1]
        assert last.position == 5
        assert last.outcome == "rejected"
        assert last.node == 5 and last.pathlength == 4
        rib = next(e for e in last.events if e["type"] == "enter-rib")
        assert rib["pt"] == 2  # PT 2 < pathlength 4 -> reject
        assert "PT 2" in ex.text and "NOT a substring" in ex.text

    def test_extrib_fallthrough_accepts(self, index):
        ex = explain_pattern(index, "acaa")
        assert ex.matched
        step = ex.steps[2]  # third char, the rib at node 3
        assert step.outcome == "extrib"
        assert step.dest == 7
        taken = [e for e in step.events
                 if e["type"] == "extrib-fallthrough" and e["taken"]]
        assert taken[0]["pt"] == 2
        assert "extrib (PT=2, -> node 7)" in ex.text

    def test_plain_rib_acceptance(self, index):
        ex = explain_pattern(index, "caca")
        assert ex.matched
        assert ex.end_node == 7
        assert ex.first_occurrence == 3
        assert ex.occurrences == index.find_all("caca")
        # First step takes the rib (0,'c')->3 with PT=0 at pathlength 0.
        assert ex.steps[0].outcome == "rib"

    def test_vertebra_only_walk(self, index):
        ex = explain_pattern(index, "aac")
        assert ex.matched
        assert [s.outcome for s in ex.steps[:2]] == ["vertebra",
                                                     "vertebra"]

    def test_no_edge_dead_end(self, index):
        ex = explain_pattern(index, "ccc")
        assert not ex.matched
        assert ex.steps[-1].outcome == "rejected"
        assert "no edge" in ex.text


class TestEveryLayer:
    def test_paper_decisions_agree_on_every_layer(self):
        decisions = TestPaperDecisions()
        checks = [getattr(decisions, name) for name in dir(decisions)
                  if name.startswith("test_")]
        with three_layers(PAPER) as layers:
            for idx in layers.values():
                for check in checks:
                    check(idx)
            for pattern in ("accaa", "acaa", "caca", "aac", "ccc"):
                edges = {
                    name: [e for e in explain_pattern(idx, pattern)
                           .span.events if e["type"] != "page-fetch"]
                    for name, idx in layers.items()}
                assert edges["memory"] == edges["packed"] \
                    == edges["disk"], pattern

    def test_walks_under_the_read_lock(self):
        idx = lock_checked_index(PAPER)
        assert explain_pattern(idx, "acaa").matched
        # Once for the walk, once for the occurrence scan.
        assert idx.entries == 2


class TestMechanics:
    def test_to_dict_is_json_serializable(self, index):
        doc = explain_pattern(index, "accaa").to_dict()
        encoded = json.loads(json.dumps(doc))
        assert encoded["matched"] is False
        assert encoded["trace"]["op"] == "explain"
        assert encoded["steps"][-1]["outcome"] == "rejected"

    def test_restores_previous_global_tracer(self, index):
        before = get_tracer()
        explain_pattern(index, "caca")
        assert get_tracer() is before
        assert before.enabled is False

    def test_one_step_per_consumed_char(self, index):
        ex = explain_pattern(index, "caca")
        assert len(ex.steps) == 4
        assert [s.position for s in ex.steps] == [1, 2, 3, 4]

    def test_disk_index_reports_fetched_pages(self):
        from repro.disk.spine_disk import DiskSpineIndex

        disk = DiskSpineIndex(buffer_pages=2, page_size=512)
        try:
            disk.extend("acgtacggttacgacgt" * 40)
            disk.pool.clear()
            ex = explain_pattern(disk, "ggttacgacg")
            assert ex.matched
            fetched = [e for s in ex.steps for e in s.events
                       if e["type"] == "page-fetch"]
            assert fetched
            assert "[fetched page(s) " in ex.text
        finally:
            disk.close()
