"""Shadow rollout: candidate-vs-production scoring with auto-promotion.

A serving fleet should never find out a new model is worse *after*
promoting it. This example runs the whole safe-promotion loop in one
process on the synthetic stream:

1. train a production model and a candidate, file both in a
   ``ModelStore`` under their tags,
2. serve ``production`` through a ``StreamScanner``,
3. attach a ``ShadowRollout``: the candidate scores the identical live
   micro-batches through the shared feature cache, accumulating
   agreement / divergence / disagreement-class / latency-overhead
   evidence,
4. let the ``MetricParityPolicy`` promote mid-stream — the store's
   ``production`` tag repoints atomically and the scanner's service
   hot-swaps with zero dropped batches,
5. then do it again with a broken candidate (a simulated label-flip
   training bug) and watch the policy abort with production untouched.

The CLI equivalent (``phishinghook rollout start|status|promote|abort``)
is walked through in docs/operations.md.

Run:  python examples/shadow_rollout.py
"""

import tempfile

from repro.artifacts import ModelStore
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.dataset import Dataset
from repro.models.hsc import HSCDetector
from repro.rollout import MetricParityPolicy, ShadowRollout
from repro.stream.events import ContractEvent
from repro.stream.scanner import StreamScanner

SEED = 41


def fit_forest(dataset, seed, n_estimators=24):
    model = HSCDetector(variant="Random Forest", seed=seed)
    model.set_params(clf__n_estimators=n_estimators)
    model.fit(dataset.bytecodes, dataset.labels)
    return model


def replay(scanner, chain, start=0):
    """Push every deployment on the chain through the scanner."""
    for index, account in enumerate(chain.accounts()):
        scanner.on_event(ContractEvent(
            address=f"0x{start + index:040x}", code=account.code,
            block_number=index, timestamp=account.deployed_at,
            tx_hash=f"0x{index:064x}", sequence=index,
        ))
    scanner.flush()


def report(tag, rollout):
    comparison = rollout.comparison
    print(f"  [{tag}] state={rollout.state}  "
          f"events={comparison.events}  "
          f"agreement={comparison.agreement_rate:.4f}  "
          f"divergence={comparison.mean_divergence:.4f}")
    print(f"  [{tag}] production-only={comparison.production_only}  "
          f"candidate-only={comparison.candidate_only}  "
          f"shadow overhead={comparison.latency_overhead:.2f}x")
    print(f"  [{tag}] decision: {rollout.last_decision.action} — "
          f"{rollout.last_decision.reason}")


def main() -> None:
    corpus = build_corpus(
        CorpusConfig(n_phishing=60, n_benign=60, seed=SEED)
    )
    dataset = Dataset.from_corpus(corpus, seed=SEED)

    with tempfile.TemporaryDirectory(prefix="phook-rollout-") as root:
        store = ModelStore(f"{root}/store")
        production = fit_forest(dataset, seed=SEED)
        candidate = fit_forest(dataset, seed=SEED + 1)
        prod_version = store.put(
            production, model_name="Random Forest", tags=("production",)
        )
        cand_version = store.put(
            candidate, model_name="Random Forest", tags=("candidate",)
        )
        print(f"store stocked: production={prod_version[:12]} "
              f"candidate={cand_version[:12]}")

        # --- parity candidate: shadow, then automatic promotion -------- #
        scanner = StreamScanner.from_artifact(
            "production", store=store, max_batch=16,
        )
        rollout = ShadowRollout(
            scanner, "candidate", store=store,
            policy=MetricParityPolicy(
                min_events=64, promote_agreement=0.95,
                abort_agreement=0.60, max_mean_divergence=0.10,
            ),
        )
        print(f"\nshadow-scoring candidate on live traffic "
              "(shared feature cache)...")
        replay(scanner, corpus.chain)
        report("parity", rollout)
        assert scanner.stats.dropped == 0
        print(f"  store production tag now -> "
              f"{store.tags()['production'][:12]} "
              f"(promoted={rollout.state == 'promoted'}, "
              f"dropped={scanner.stats.dropped})")

        # --- regressed candidate: shadow, then automatic abort --------- #
        # Simulate a training-pipeline bug: the labels were flipped.
        # Offline metrics computed with the same bug would look fine —
        # only comparison against live production traffic catches it.
        broken = HSCDetector(variant="Random Forest", seed=SEED + 9)
        broken.set_params(clf__n_estimators=24)
        broken.fit(
            dataset.bytecodes,
            [1 - label for label in dataset.labels],
        )
        store.put(broken, model_name="Random Forest", tags=("candidate",))
        scanner2 = StreamScanner.from_artifact(
            "production", store=store, max_batch=16,
        )
        rollout2 = ShadowRollout(
            scanner2, "candidate", store=store,
            policy=MetricParityPolicy(
                min_events=64, promote_agreement=0.95,
                abort_agreement=0.60, max_mean_divergence=0.10,
            ),
        )
        print("\nshadow-scoring a label-flipped (regressed) candidate...")
        replay(scanner2, corpus.chain, start=10 ** 6)
        report("regressed", rollout2)
        print(f"  store production tag still -> "
              f"{store.tags()['production'][:12]} "
              f"(aborted={rollout2.state == 'aborted'}, "
              f"production untouched)")


if __name__ == "__main__":
    main()
