"""Tests for the end-to-end pipeline and the CLI."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.pipeline import PhishingHook, PipelineConfig

from tests.core.conftest import fast_hsc_factory


@pytest.fixture(scope="module")
def hook(small_corpus):
    config = PipelineConfig(
        model_names=("Random Forest", "k-NN", "Logistic Regression"),
        n_folds=3,
        n_runs=1,
        seed=0,
        run_post_hoc=True,
    )
    hook = PhishingHook(small_corpus, config)
    # Swap in the fast factory to keep the test quick.
    hook.mem.evaluate_orig = hook.mem.evaluate
    return hook


class TestPipeline:
    def test_gather_and_dataset(self, hook, small_corpus):
        contracts = hook.gather()
        assert len(contracts) == len(small_corpus.records)
        dataset = hook.build_dataset(contracts)
        benign, phishing = dataset.class_counts
        assert benign == phishing  # balanced
        # Dedup leaves exactly the unique records.
        assert len(dataset) <= len(small_corpus.unique_records())

    def test_full_run(self, small_corpus):
        config = PipelineConfig(
            model_names=("Random Forest", "k-NN", "Logistic Regression"),
            n_folds=3,
            run_post_hoc=True,
        )
        hook = PhishingHook(small_corpus, config)
        outcome = hook.run()
        assert len(outcome.evaluation.trials) == 9
        assert outcome.post_hoc is not None
        assert outcome.evaluation.mean_metrics("Random Forest").accuracy > 0.6
        assert set(outcome.post_hoc.kruskal) == {
            "accuracy", "f1", "precision", "recall"
        }

    def test_classify_address_phishing(self, small_corpus):
        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        dataset = hook.build_dataset(hook.gather())
        target = small_corpus.phishing_records()[0].address
        flagged, probability = hook.classify_address(
            target, "Random Forest", train_dataset=dataset
        )
        assert 0.0 <= probability <= 1.0

    def test_classify_unknown_address_raises(self, small_corpus):
        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        dataset = hook.build_dataset(hook.gather())
        with pytest.raises(ValueError):
            hook.classify_address("0x" + "00" * 20, train_dataset=dataset)

    def test_classify_address_reuses_fitted_model(self, small_corpus,
                                                  monkeypatch):
        import repro.core.pipeline as pipeline_module

        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        dataset = hook.build_dataset(hook.gather())
        target = small_corpus.phishing_records()[0].address

        created = []
        real_create = pipeline_module.create_model

        def counting_create(name, seed=0):
            created.append(name)
            return real_create(name, seed=seed)

        monkeypatch.setattr(pipeline_module, "create_model", counting_create)
        first = hook.classify_address(
            target, "Random Forest", train_dataset=dataset
        )
        second = hook.classify_address(
            target, "Random Forest", train_dataset=dataset
        )
        assert created == ["Random Forest"]  # trained once, reused after
        assert first == second
        # A different model name trains its own entry.
        hook.classify_address(target, "k-NN", train_dataset=dataset)
        assert created == ["Random Forest", "k-NN"]
        # reuse_model=False forces the seed retrain-per-call behavior.
        hook.classify_address(
            target, "Random Forest", train_dataset=dataset,
            reuse_model=False,
        )
        assert created == ["Random Forest", "k-NN", "Random Forest"]

    def test_classify_address_accepts_prefitted_model(self, small_corpus):
        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        dataset = hook.build_dataset(hook.gather())
        model = hook.fitted_model("Random Forest", dataset)
        target = small_corpus.phishing_records()[0].address
        flagged, probability = hook.classify_address(target, model=model)
        assert hook.classify_address(
            target, "Random Forest", train_dataset=dataset
        ) == (flagged, probability)

    def test_scan_service_matches_classify_address(self, small_corpus):
        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        dataset = hook.build_dataset(hook.gather())
        addresses = [r.address for r in small_corpus.records[:8]]
        service = hook.scan_service("Random Forest", train_dataset=dataset)
        results = service.scan_many(addresses)
        for address, result in zip(addresses, results):
            flagged, probability = hook.classify_address(
                address, "Random Forest", train_dataset=dataset
            )
            assert result.probability == probability
            assert result.is_phishing == flagged


#: ``scan`` served from a stored production model, and an address that
#: holds no code.
_SCAN_STORE = ["scan", "--contracts", "60", "--store", "{store}",
               "--model-tag", "production"]
_NO_CODE = "0x" + "00" * 16 + "deadbeef"


class TestCLI:
    def test_disasm(self, capsys):
        assert main(["disasm", "0x6080604052"]) == 0
        out = capsys.readouterr().out
        assert "PUSH1" in out and "MSTORE" in out

    @pytest.fixture(scope="class")
    def production_store(self, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("scan-errors") / "store")
        assert main([
            "train", "--model", "Logistic Regression", "--contracts", "60",
            "--store", store, "--tag", "production",
        ]) == 0
        return store

    @pytest.mark.parametrize("argv", [
        ["disasm", "abc"],
        ["disasm", "zz"],
        ["models", "--store", "{tmp}/store", "export", "nosuchref",
         "{tmp}/out.npz"],
        [*_SCAN_STORE, _NO_CODE],
        [*_SCAN_STORE, "--batch", _NO_CODE],
        [*_SCAN_STORE, "0xnothex"],
        [*_SCAN_STORE, "--batch", "0xnothex"],
    ], ids=["odd-hex", "non-hex", "unknown-ref", "scan-no-code",
            "scan-batch-no-code", "scan-malformed", "scan-batch-malformed"])
    def test_bad_input_is_one_line_error(self, argv, capsys, tmp_path,
                                         production_store):
        code = main([
            arg.format(tmp=tmp_path, store=production_store) for arg in argv
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err

    def test_dataset(self, capsys):
        assert main(["dataset", "--contracts", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "2023-10" in out and "total" in out

    def test_demo(self, capsys):
        code = main([
            "demo", "--contracts", "60", "--folds", "2",
            "--models", "k-NN,Logistic Regression",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k-NN" in out and "Accuracy" in out

    def test_scan_random_phishing(self, capsys):
        # Refitting in-process is now an explicit opt-in; the default
        # path serves from a persisted artifact (tested below).
        code = main(["scan", "random-phishing", "--contracts", "60",
                     "--train-on-the-fly"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p=" in out

    def test_scan_without_model_refuses(self, capsys):
        code = main(["scan", "random-phishing", "--contracts", "60"])
        assert code == 2
        err = capsys.readouterr().err
        assert "phishinghook train" in err
        assert "--train-on-the-fly" in err

    def test_scan_batch(self, capsys):
        code = main([
            "scan", "--batch", "random-phishing", "random-phishing",
            "--contracts", "60", "--train-on-the-fly",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("via=") == 2
        assert "cache hit rate" in out

    def test_train_then_scan_artifact_path(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main([
            "train", "--model", "Logistic Regression", "--contracts", "60",
            "--store", store, "--tag", "production",
        ])
        assert code == 0
        assert "artifact" in capsys.readouterr().out

        code = main([
            "scan", "--batch", "random-phishing", "--contracts", "60",
            "--store", store, "--model-tag", "production",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "model=Logistic Regression" in out

        code = main(["models", "--store", store, "list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "production" in out and "Logistic Regression" in out

    def test_monitor_from_artifact(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main([
            "train", "--model", "Logistic Regression", "--contracts", "60",
            "--store", store,
        ]) == 0
        capsys.readouterr()
        code = main([
            "monitor", "--contracts", "60", "--store", store,
            "--model-tag", "latest", "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "latency" in out

    def test_monitor_train_on_the_fly(self, capsys):
        code = main(["monitor", "--contracts", "60", "--train-on-the-fly"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "2 shard(s)" in out
        assert "sink memory" in out

    def test_monitor_without_model_refuses(self, capsys):
        code = main(["monitor", "--contracts", "60"])
        assert code == 2
        assert "phishinghook train" in capsys.readouterr().err

    def test_train_out_rejects_tag(self, capsys, tmp_path):
        # --tag would be silently lost with --out; refuse instead.
        code = main([
            "train", "--model", "k-NN", "--contracts", "60",
            "--out", str(tmp_path / "m.npz"), "--tag", "production",
        ])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_attack(self, capsys):
        code = main([
            "attack", "--contracts", "60", "--strengths", "0,1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "benign-mimicry" in out
        assert "recall lost" in out

    def test_calibrate(self, capsys):
        code = main([
            "calibrate", "--contracts", "60", "--model", "Logistic Regression",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "temperature" in out
        assert "ECE" in out


def _parsers(parser, path=()):
    """``(command path, parser)`` for the CLI and every (sub)subcommand."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, (*path, name))


@pytest.mark.parametrize("parser", [
    pytest.param(parser, id=" ".join(path) or "phishinghook")
    for path, parser in _parsers(build_parser())
])
def test_help_renders(parser):
    # argparse %-formats every help string, and the topology flags'
    # help is knob doc text: a stray % would only fail at --help time.
    text = parser.format_help()
    assert text.startswith("usage: phishinghook")
