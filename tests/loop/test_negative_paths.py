"""Negative paths: the loop must fail closed, never corrupt production.

Four failure families:
  * a stationary stream must never trigger the loop (no false retrains);
  * a retrain that raises must leave the serving model and the
    production tag exactly as they were, with a durable ``abort`` entry;
  * a retrain child that dies or hangs aborts the same way: the fit runs
    in a forked child, which the parent reaps on every outcome;
  * a hard kill (SIGKILL) mid-shadow must leave the store's tag table
    parseable and both tags loadable — the JSONL history and the atomic
    tag writes are the crash-safety story.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.artifacts import ModelStore
from repro.loop import read_history
from repro.models.hsc import HSCDetector
from repro.stream import TimelineReplayer


class TestStationaryStream:
    def test_no_trigger_over_many_windows(self, loop_harness, base_corpus,
                                          stationary_corpus):
        """Two stationary campaigns back to back: scores keep the same
        distribution, so N = ~11 drift checks all stay quiet."""
        harness = loop_harness()
        replayer = TimelineReplayer(harness.scanner, rate=None)
        try:
            replayer.replay_records(
                [r for r in base_corpus.records if r.bytecode]
            )
            replayer.replay_records(
                [r for r in stationary_corpus.records if r.bytecode]
            )
            harness.scanner.flush()
        finally:
            harness.loop.detach()
            harness.scanner.close()

        status = harness.loop.status()
        assert status["drifts"] == 0
        assert status["promotions"] == 0
        assert status["aborts"] == 0
        assert status["state"] == "watching"
        # Checks actually ran — quiet because stationary, not because idle.
        assert status["last_check"]["checked"] is True
        assert read_history(harness.store) == []
        # Production never moved.
        assert harness.service.artifact_digest == \
            harness.store.resolve("production")


class TestRetrainFailure:
    def test_failed_retrain_leaves_production_untouched(
            self, loop_harness, base_corpus, drift_corpus):
        """Force the retrain to raise (an all-phishing label oracle makes
        the window single-class) while the *scores* still drift: the loop
        must log an abort, keep serving the old model, and re-arm."""
        harness = loop_harness(label_of=lambda address: 1)
        production_before = harness.store.resolve("production")
        replayer = TimelineReplayer(harness.scanner, rate=None)
        try:
            replayer.replay_records(
                [r for r in base_corpus.records if r.bytecode]
            )
            replayer.replay_records(
                [r for r in drift_corpus.records if r.bytecode]
            )
            harness.scanner.flush()
        finally:
            harness.loop.detach()
            harness.scanner.close()

        status = harness.loop.status()
        assert status["drifts"] >= 1
        assert status["aborts"] == status["drifts"]
        assert status["promotions"] == 0
        assert status["state"] == "watching"
        assert "single-class" in status["last_error"]

        history = read_history(harness.store)
        events = [entry["event"] for entry in history]
        assert events[:2] == ["drift", "abort"]
        abort = history[1]
        assert abort["stage"] == "retrain"
        assert "single-class" in abort["error"]
        assert abort["production"] == production_before

        # The failure changed nothing the fleet can observe.
        assert harness.store.resolve("production") == production_before
        assert "candidate" not in harness.store.tags()
        assert harness.service.artifact_digest == production_before


def _record_fit_pid(pid_file, then):
    """A ``fit_more`` that appends its process id to ``pid_file``, then
    runs ``then`` instead of fitting."""

    def fit_more(self, bytecodes, labels, n_more):
        with open(pid_file, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        then()

    return fit_more


def _reaped(pid: int) -> bool:
    """Whether ``pid`` is gone: a zombie still answers signal 0."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestRetrainChildIsolation:
    @pytest.mark.parametrize("failure, message", [
        (lambda: os._exit(3), "died without reporting (exit code 3)"),
        (lambda: time.sleep(5), "timed out after 0.5s (exit code -9)"),
    ], ids=["child-dies", "child-hangs"])
    def test_lost_child_aborts_and_is_reaped(
            self, loop_harness, base_corpus, drift_corpus, tmp_path,
            monkeypatch, failure, message):
        """A fit that kills its process (segfault, OOM kill) or outlives
        the retrain timeout costs one aborted retrain: production keeps
        serving, the loop re-arms, and no child is left running."""
        pid_file = tmp_path / "fit-pids"
        monkeypatch.setattr(HSCDetector, "fit_more",
                            _record_fit_pid(pid_file, failure))
        monkeypatch.setattr("repro.loop.retrain.RETRAIN_TIMEOUT", 0.5)
        harness = loop_harness()
        production_before = harness.store.resolve("production")
        replayer = TimelineReplayer(harness.scanner, rate=None)
        try:
            replayer.replay_records(
                [r for r in base_corpus.records if r.bytecode]
            )
            replayer.replay_records(
                [r for r in drift_corpus.records if r.bytecode]
            )
            harness.scanner.flush()
        finally:
            harness.loop.detach()
            harness.scanner.close()

        status = harness.loop.status()
        assert status["drifts"] >= 1
        assert status["aborts"] == status["drifts"]
        assert status["state"] == "watching"
        assert message in status["last_error"]
        history = read_history(harness.store)
        assert [entry["event"] for entry in history[:2]] == [
            "drift", "abort",
        ]
        assert history[1]["stage"] == "retrain"
        assert message in history[1]["error"]
        assert harness.store.resolve("production") == production_before
        assert "candidate" not in harness.store.tags()
        assert harness.service.artifact_digest == production_before

        # Every fit ran in a child, and every child is gone.
        pids = [int(line) for line in pid_file.read_text().split()]
        assert len(pids) == status["drifts"]
        assert os.getpid() not in pids
        assert all(_reaped(pid) for pid in pids)


KILL_CHILD = textwrap.dedent("""\
    import sys

    from repro.datagen.corpus import CorpusConfig, build_corpus
    from repro.rollout import ManualHoldPolicy
    from repro.stream import TimelineReplayer

    sys.path.insert(0, {test_root!r})
    from tests.loop.conftest import fit_production  # noqa: E402

    from repro.artifacts import ModelStore  # noqa: E402
    from repro.loop import DriftMonitor, LoopOrchestrator  # noqa: E402
    from repro.serve.cache import FeatureCache  # noqa: E402
    from repro.serve.service import ScanService  # noqa: E402
    from repro.stream import StreamScanner  # noqa: E402

    base = build_corpus(CorpusConfig(
        n_phishing=120, n_benign=120, seed=7, phishing_profile="uniform",
    ))
    drift = build_corpus(CorpusConfig(
        n_phishing=300, n_benign=60, seed=8, phishing_profile="uniform",
    ))
    labels = {{r.address: r.label for c in (base, drift)
              for r in c.records if r.bytecode}}

    store = ModelStore({store_root!r})
    store.put(fit_production(base), model_name="Random Forest",
              tags=("production",))
    service = ScanService.from_artifact(
        "production", store=store, cache=FeatureCache(max_entries=8192),
        threshold=0.5,
    )
    scanner = StreamScanner(service, max_batch=16, max_queue=256,
                            policy="block", auto_flush=True)
    loop = LoopOrchestrator(
        scanner, store,
        label_of=labels.get,
        monitor=DriftMonitor(window=160, blocks=8, alpha=0.05,
                             min_effect=0.2, confirm_checks=2),
        check_every=32, grow=20, holdout=0.25, seed=3,
        policy=ManualHoldPolicy(),   # never reaches a verdict
    )
    replayer = TimelineReplayer(scanner, rate=None)
    replayer.replay_records([r for r in base.records if r.bytecode])
    replayer.replay_records([r for r in drift.records if r.bytecode])
    scanner.flush()
    assert loop.status()["state"] == "shadowing", loop.status()["state"]
    print("SHADOWING", flush=True)
    import time
    time.sleep(120)
""")


class TestHardKillMidShadow:
    def test_sigkill_mid_shadow_leaves_store_consistent(self, tmp_path):
        """kill -9 a process that is mid-shadow (candidate tagged, no
        verdict yet): a fresh process must find a parseable tag table,
        loadable artifacts for both tags, and a history that stops after
        ``retrain`` — no torn line, no phantom promotion."""
        store_root = tmp_path / "store"
        test_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        child = subprocess.Popen(
            [sys.executable, "-c", KILL_CHILD.format(
                store_root=str(store_root), test_root=test_root,
            )],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     [os.path.join(test_root, "src"),
                      os.environ.get("PYTHONPATH", "")]
                 )},
        )
        try:
            line = child.stdout.readline().strip()
            assert line == "SHADOWING", (
                f"child never reached shadow: {line!r}\n"
                f"{child.stderr.read() if child.poll() is not None else ''}"
            )
            child.kill()  # SIGKILL — no atexit, no finally blocks
            child.wait(timeout=30)
            assert child.returncode == -signal.SIGKILL
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)

        # Survivor's view: the store must be fully consistent.
        store = ModelStore(store_root)
        tags = store.tags()             # parses — table is not torn
        assert "production" in tags and "candidate" in tags
        assert tags["production"] != tags["candidate"]
        for tag in ("production", "candidate"):
            model, manifest = store.load(tag)   # digests verify
            assert manifest["digest"] == tags[tag]
        history = read_history(store)
        assert [entry["event"] for entry in history] == [
            "drift", "retrain",
        ]
        assert history[1]["candidate"] == tags["candidate"]
