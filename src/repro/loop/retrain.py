"""Incremental retrain: warm-start production into a ``candidate``.

One retrain = load the production model from the store, grow it with
``fit_more`` on the loop's sliding event window (the incremental-solving
pattern: keep fitted state across related instances instead of refitting
from scratch) and score a deterministic held-out slice. That is
:func:`retrain_candidate`, which writes nothing.

The loop runs it one way, :func:`fork_retrain`: a forked child inherits
the store object and the window, fits, and pickles the grown
:class:`Candidate` back over a pipe. The parent waits for it up to
:data:`RETRAIN_TIMEOUT` seconds — the flush that confirmed the drift
waits too — and registers it with :meth:`Candidate.register`. Only the
parent writes the store, so the one path works on every store scheme,
``memory://`` included. The child is the crash boundary: a fit that
segfaults, is OOM-killed or hangs costs one aborted retrain, not the
serving process.

Failure contract: *nothing* in this module mutates production. A retrain
that raises, dies or times out leaves the production tag, the serving
model and the feature cache exactly as they were; the orchestrator logs
the abort and re-arms.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RETRAIN_TIMEOUT",
    "Candidate",
    "RetrainError",
    "fork_retrain",
    "retrain_candidate",
]

#: Seconds the parent waits for a retrain child before killing it.
RETRAIN_TIMEOUT = 600.0


class RetrainError(RuntimeError):
    """The retrain step failed; production is untouched."""


@dataclass
class Candidate:
    """A grown model and its holdout evidence, not yet registered."""

    model: object
    model_name: str | None
    base: str
    metrics: dict
    seconds: float
    seed: int

    def register(self, store, *, tag: str = "candidate") -> dict:
        """Put the model in ``store`` under ``tag``.

        Returns a JSON-ready result: candidate/base digests, holdout
        metrics and the fit wall seconds (the caller decides what of it
        enters the durable history — wall seconds never do).

        Raises:
            RetrainError: The store refused the artifact or the tag.
        """
        try:
            digest = store.put(
                self.model,
                model_name=self.model_name,
                metrics=self.metrics,
                extra={
                    "warm_started_from": self.base,
                    "grown_trees": self.metrics["grown_trees"],
                    "retrain_seed": self.seed,
                },
                tags=(tag,),
            )
        except Exception as error:
            raise RetrainError(
                f"registering the candidate failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        return {
            "candidate": digest,
            "base": self.base,
            "model_name": self.model_name,
            "metrics": self.metrics,
            "seconds": self.seconds,
        }


def _holdout_split(n: int, holdout: float, seed: int):
    """Deterministic (train, holdout) index split of ``n`` events."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_holdout = max(1, int(round(n * holdout)))
    if n_holdout >= n:
        raise RetrainError(
            f"holdout={holdout} leaves no training events out of {n}"
        )
    return order[n_holdout:], order[:n_holdout]


def _holdout_metrics(model, bytecodes, labels) -> dict:
    probabilities = model.predict_proba(bytecodes)[:, 1]
    predicted = (probabilities >= 0.5).astype(int)
    labels = np.asarray(labels, dtype=int)
    return {
        "holdout_events": int(len(labels)),
        "holdout_accuracy": float((predicted == labels).mean()),
        "holdout_positive_rate": float(labels.mean()),
    }


def retrain_candidate(
    *,
    store,
    bytecodes,
    labels,
    grow: int,
    holdout: float = 0.25,
    seed: int = 0,
    production_tag: str = "production",
) -> Candidate:
    """Warm-start one candidate from the production artifact.

    Reads ``store``, never writes it: the caller registers the returned
    :class:`Candidate`.

    Raises:
        RetrainError: On any failure.
    """
    if len(bytecodes) != len(labels):
        raise RetrainError("bytecodes and labels must be parallel")
    if len(bytecodes) < 4:
        raise RetrainError(
            f"retrain window has only {len(bytecodes)} labeled events"
        )
    if grow < 1:
        raise RetrainError("grow must be >= 1")

    model, manifest = store.load(production_tag)
    if getattr(model, "fit_more", None) is None:
        raise RetrainError(
            f"production model {manifest.get('model_name')!r} does not "
            "support warm-start fit_more"
        )

    train_idx, hold_idx = _holdout_split(len(bytecodes), holdout, seed)
    codes = list(bytecodes)
    marks = list(labels)
    train_codes = [codes[i] for i in train_idx]
    train_labels = [marks[i] for i in train_idx]
    hold_codes = [codes[i] for i in hold_idx]
    hold_labels = [marks[i] for i in hold_idx]
    if len(set(train_labels)) < 2:
        raise RetrainError("retrain window is single-class; cannot fit")

    started = time.perf_counter()
    try:
        model.fit_more(train_codes, train_labels, int(grow))
    except RetrainError:
        raise
    except Exception as error:
        raise RetrainError(
            f"warm-start fit failed: {type(error).__name__}: {error}"
        ) from error
    seconds = time.perf_counter() - started

    metrics = _holdout_metrics(model, hold_codes, hold_labels)
    metrics["grown_trees"] = int(grow)
    metrics["train_events"] = int(len(train_codes))
    return Candidate(
        model=model,
        model_name=manifest.get("model_name"),
        base=manifest["digest"],
        metrics=metrics,
        seconds=seconds,
        seed=int(seed),
    )


def _retrain_child(connection, kwargs: dict) -> None:
    try:
        connection.send({"ok": True,
                         "candidate": retrain_candidate(**kwargs)})
    except BaseException as error:  # noqa: BLE001 - must report, not die
        connection.send(
            {"ok": False, "error": f"{type(error).__name__}: {error}"}
        )
    finally:
        connection.close()


def fork_retrain(**kwargs) -> Candidate:
    """Run :func:`retrain_candidate` in a forked child; see module docs.

    The child inherits ``kwargs`` (the store object, the window's
    bytecodes) by fork, so nothing is pickled on the way in. The parent
    waits on the result pipe up to :data:`RETRAIN_TIMEOUT` seconds and
    reaps the child on every outcome, killing it if it is still running.

    Raises:
        RetrainError: The child's own error, a timeout, or a child that
            died without reporting (segfault, OOM kill, SIGKILL).
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(
        target=_retrain_child, args=(sender, kwargs), daemon=True
    )
    child.start()
    sender.close()
    report = failure = None
    try:
        if receiver.poll(RETRAIN_TIMEOUT):
            report = receiver.recv()
        else:
            failure = f"retrain child timed out after {RETRAIN_TIMEOUT:g}s"
    except EOFError:
        failure = "retrain child died without reporting"
    finally:
        receiver.close()
        if report is not None:
            child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
        child.join()
    if failure is not None:
        raise RetrainError(f"{failure} (exit code {child.exitcode})")
    if not report["ok"]:
        raise RetrainError(report["error"])
    return report["candidate"]
