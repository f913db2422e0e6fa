"""The durable loop-history log: canonical, self-numbering, durable."""

import json

import pytest

from repro.artifacts import ModelStore
from repro.loop import HISTORY_KEY, append_history, read_history


@pytest.fixture
def store(tmp_path):
    return ModelStore(tmp_path / "store")


class TestAppend:
    def test_seq_numbers_assigned_in_order(self, store):
        for index in range(5):
            record = append_history(store, {"event": "drift", "n": index})
            assert record["seq"] == index
        history = read_history(store)
        assert [entry["seq"] for entry in history] == list(range(5))
        assert [entry["n"] for entry in history] == list(range(5))

    def test_empty_store_reads_empty(self, store):
        assert read_history(store) == []

    def test_entry_is_not_mutated(self, store):
        entry = {"event": "drift"}
        record = append_history(store, entry)
        assert "seq" not in entry
        assert record["seq"] == 0

    def test_lines_are_canonical_json(self, store):
        append_history(store, {"zulu": 1, "alpha": 2, "event": "retrain"})
        raw = store.backend.get(HISTORY_KEY)
        assert raw == (
            b'{"alpha":2,"event":"retrain","seq":0,"zulu":1}\n'
        ), "history lines must be sorted-key, compact, newline-terminated"

    def test_nan_refused(self, store):
        with pytest.raises(ValueError):
            append_history(store, {"event": "drift", "p_value": float("nan")})
        assert read_history(store) == []

    def test_durable_across_reopen(self, store, tmp_path):
        append_history(store, {"event": "drift"})
        append_history(store, {"event": "promote"})
        reopened = ModelStore(tmp_path / "store")
        assert [e["event"] for e in read_history(reopened)] == [
            "drift", "promote",
        ]

    def test_appends_are_byte_deterministic(self, tmp_path):
        """Two stores receiving the same entries hold identical logs."""
        entries = [
            {"event": "drift", "p_value": 0.0234, "effect": -0.84,
             "timestamp": 1700000000},
            {"event": "retrain", "candidate": "abc123",
             "metrics": {"holdout_accuracy": 0.925}},
            {"event": "promote", "reason": "parity"},
        ]
        raws = []
        for name in ("a", "b"):
            store = ModelStore(tmp_path / name)
            for entry in entries:
                append_history(store, entry)
            raws.append(store.backend.get(HISTORY_KEY))
        assert raws[0] == raws[1]

    def test_concurrent_appenders_lose_nothing(self, store):
        """The lock serializes read-modify-write; seq has no gaps."""
        import threading

        def appender(tag):
            for _ in range(20):
                append_history(store, {"event": "drift", "by": tag})

        threads = [
            threading.Thread(target=appender, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        history = read_history(store)
        assert len(history) == 80
        assert [entry["seq"] for entry in history] == list(range(80))


class TestRead:
    def test_blank_lines_skipped(self, store):
        append_history(store, {"event": "drift"})
        raw = store.backend.get(HISTORY_KEY)
        store.backend.put(HISTORY_KEY, raw + b"\n\n")
        assert len(read_history(store)) == 1

    def test_round_trips_nested_payloads(self, store):
        entry = {
            "event": "retrain",
            "metrics": {"holdout_accuracy": 0.925, "grown_trees": 20},
        }
        append_history(store, entry)
        (read,) = read_history(store)
        assert read == {**entry, "seq": 0}
        assert json.dumps(read, sort_keys=True)  # JSON-clean
