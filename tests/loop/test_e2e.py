"""The closed loop, end to end: detect → retrain → shadow → promote.

One deterministic recipe (see ``conftest.loop_harness``) replayed against
two fresh stores must produce byte-identical durable histories — the
whole loop, including the forked retrain, is a pure function of the
corpus and the seeds.
"""

import pytest

from repro.loop import HISTORY_KEY, read_history
from repro.stream import TimelineReplayer


def run_cycle(harness):
    """Replay baseline then drifted campaign through a loop harness."""
    replayer = TimelineReplayer(harness.scanner, rate=None)
    try:
        replayer.replay_records(harness.base_records)
        replayer.replay_records(harness.drift_records)
        harness.scanner.flush()
    finally:
        harness.loop.detach()
        harness.scanner.close()
    return harness.loop.status()


@pytest.fixture
def full_cycle(loop_harness, base_corpus, drift_corpus, tmp_path):
    def build(root):
        harness = loop_harness(store_path=root)
        harness.base_records = [
            r for r in base_corpus.records if r.bytecode
        ]
        harness.drift_records = [
            r for r in drift_corpus.records if r.bytecode
        ]
        return harness

    return build


class TestSingleCycle:
    def test_drift_fires_exactly_once_and_promotes(self, full_cycle,
                                                   tmp_path):
        harness = full_cycle(tmp_path / "run")
        store = harness.store
        production_before = store.resolve("production")
        status = run_cycle(harness)

        assert status["drifts"] == 1
        assert status["promotions"] == 1
        assert status["aborts"] == 0
        assert status["state"] == "watching"

        history = read_history(store)
        assert [entry["event"] for entry in history] == [
            "drift", "retrain", "promote",
        ]
        drift, retrain, promote = history

        # Drift evidence is durable and quantified.
        assert drift["p_value"] <= 0.05
        assert abs(drift["effect"]) >= 0.2
        assert drift["consecutive"] >= 2

        # The retrain entry carries full provenance.
        assert retrain["base"] == production_before
        assert "mode" not in retrain
        assert retrain["metrics"]["grown_trees"] == 20
        assert 0.0 <= retrain["metrics"]["holdout_accuracy"] <= 1.0

        # The promotion moved production to the candidate it shadowed.
        assert promote["stage"] == "shadow"
        assert promote["candidate"] == retrain["candidate"]
        assert promote["agreement_rate"] >= 0.90
        assert store.resolve("production") == retrain["candidate"]
        assert store.resolve("candidate") == retrain["candidate"]
        assert store.resolve("production") != production_before

        # The scanner now serves the promoted model.
        assert harness.service.artifact_digest == retrain["candidate"]

        # Timestamps are event-time and monotone.
        stamps = [entry["timestamp"] for entry in history]
        assert stamps == sorted(stamps)

    def test_two_runs_yield_bit_identical_histories(self, full_cycle,
                                                    tmp_path):
        """The acceptance bar: same seeds, fresh stores, identical logs
        down to the byte — including digests of models grown inside a
        forked retrain child."""
        raws = []
        for name in ("first", "second"):
            harness = full_cycle(tmp_path / name)
            run_cycle(harness)
            raws.append(harness.store.backend.get(HISTORY_KEY))
        assert raws[0] == raws[1]
        assert raws[0].count(b"\n") == 3

    def test_status_snapshot_is_json_ready_and_complete(self, full_cycle,
                                                        tmp_path):
        import json

        harness = full_cycle(tmp_path / "run")
        status = run_cycle(harness)
        assert json.loads(json.dumps(status)) == status
        for key in ("state", "events_seen", "drifts", "promotions",
                    "aborts", "production", "candidate_tag", "monitor"):
            assert key in status
        assert status["events_seen"] > 0
        assert not {"retrain_mode", "retrain_pending"} & set(status)
