"""Quickstart: gather → label → train → classify, in ~30 lines.

Builds a small simulated Ethereum data plane, runs PhishingHook's
extraction pipeline over it, trains the paper's best model (Random Forest
on opcode histograms) in a ``ScanService`` and classifies two addresses
in one batched scan.

Run:  python examples/quickstart.py
"""

from repro.core.pipeline import PhishingHook, PipelineConfig
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.serve import ScanService


def main() -> None:
    # A simulated chain + explorer with 120 unique contracts (60 phishing).
    corpus = build_corpus(CorpusConfig(n_phishing=60, n_benign=60, seed=11))
    hook = PhishingHook(corpus, PipelineConfig(run_post_hoc=False))

    # Fig. 1 ➊–➍: crawl BigQuery rows, scrape Phish/Hack flags, pull
    # bytecode over JSON-RPC, dedup the minimal-proxy clones and balance.
    contracts = hook.gather()
    dataset = hook.build_dataset(contracts)
    print(f"crawled {len(contracts)} deployments "
          f"→ dataset of {len(dataset)} unique contracts "
          f"(benign, phishing = {dataset.class_counts})")

    # Fit once, then scan one known-phishing and one known-benign
    # address, pulling their bytecode over the same JSON-RPC client.
    service = ScanService("Random Forest", train_dataset=dataset,
                          rpc=hook.bem.rpc)
    addresses = [corpus.phishing_records()[0].address,
                 corpus.benign_records()[0].address]
    for result in service.scan_many(addresses):
        verdict = "PHISHING" if result.is_phishing else "benign"
        print(f"{result.address} → {verdict:8s} "
              f"(p = {result.probability:.3f})")


if __name__ == "__main__":
    main()
