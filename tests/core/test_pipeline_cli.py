"""Tests for the end-to-end pipeline and the CLI."""

import argparse

import numpy as np
import pytest

from repro.chain.rpc import JsonRpcClient, JsonRpcServer
from repro.cli import build_parser, main
from repro.core.pipeline import PhishingHook, PipelineConfig
from repro.core.registry import create_model
from repro.serve.service import ScanService

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

    @pytest.fixture(scope="class")
    def offline_dataset(self, small_corpus):
        """The dataset the offline workflow builds (gather, then label)."""
        hook = PhishingHook(small_corpus, PipelineConfig(run_post_hoc=False))
        return hook.build_dataset(hook.gather())

    def test_classify_unknown_address_raises(self, small_corpus,
                                             offline_dataset):
        service = ScanService(
            "Random Forest", train_dataset=offline_dataset,
            rpc=JsonRpcClient(JsonRpcServer(small_corpus.chain)),
        )
        with pytest.raises(ValueError):
            service.scan_many(["0x" + "00" * 20])

    def test_classify_address_accepts_prefitted_model(self, small_corpus,
                                                      offline_dataset):
        """A service handed a pre-fitted model classifies an address as
        one that fits the same model on the same dataset itself."""
        rpc = JsonRpcClient(JsonRpcServer(small_corpus.chain))
        model = create_model("Random Forest", seed=0)
        model.fit(offline_dataset.bytecodes, offline_dataset.labels)
        target = small_corpus.phishing_records()[0].address
        [prefit] = ScanService("Random Forest", model=model,
                               rpc=rpc).scan_many([target])
        [fitted] = ScanService("Random Forest", train_dataset=offline_dataset,
                               seed=0, rpc=rpc).scan_many([target])
        assert (prefit.is_phishing, prefit.probability) == (
            fitted.is_phishing, fitted.probability
        )

    def test_scan_service_matches_classify_address(self, small_corpus,
                                                   offline_dataset):
        """A batched scan over the chain equals classifying each address
        alone: its code fetched over RPC and scored by itself."""
        rpc = JsonRpcClient(JsonRpcServer(small_corpus.chain))
        addresses = [r.address for r in small_corpus.records[:8]]
        service = ScanService("Random Forest",
                              train_dataset=offline_dataset, rpc=rpc)
        results = service.scan_many(addresses)
        for address, result in zip(addresses, results):
            probability = float(
                service.model.predict_proba([rpc.get_code(address)])[0, 1]
            )
            assert result.probability == probability
            assert result.is_phishing == (probability >= 0.5)


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
        [*_SCAN_STORE, "0xnothex"],
    ], ids=["odd-hex", "non-hex", "unknown-ref", "scan-no-code",
            "scan-malformed"])
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
            "scan", "random-phishing", "random-phishing",
            "--contracts", "60", "--train-on-the-fly",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("via=") == 2
        assert "cache hit rate" in out

    @pytest.mark.parametrize("source", ["model-tag", "model-path",
                                        "train-on-the-fly"])
    def test_scan_has_one_path(self, source, capsys, monkeypatch, tmp_path,
                               production_store):
        """Every model source is checked as a deployment config first and
        answers in one shape: a ``via=`` line per address, then the
        cache line."""
        import repro.cli as cli

        exported = str(tmp_path / "production.npz")
        assert main(["models", "--store", production_store, "export",
                     "production", exported]) == 0
        capsys.readouterr()
        checked = []
        launchable = cli._launchable_config

        def spy(config_source, section=""):
            checked.append(config_source)
            return launchable(config_source, section)

        monkeypatch.setattr(cli, "_launchable_config", spy)
        flags = {
            "model-tag": ["--store", production_store,
                          "--model-tag", "production"],
            "model-path": ["--model-path", exported],
            "train-on-the-fly": ["--train-on-the-fly",
                                 "--model", "Logistic Regression"],
        }[source]
        code = main(["scan", "random-phishing", "random-phishing",
                     "--contracts", "60", *flags])
        assert code == 0
        assert len(checked) == 1 and checked[0]["source"]["contracts"] == 60
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert all("model=Logistic Regression" in line and "via=model" in line
                   for line in lines[:2])
        assert lines[2].startswith("batch of 2: 0 served from cache")

    def test_train_then_scan_artifact_path(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main([
            "train", "--model", "Logistic Regression", "--contracts", "60",
            "--store", store, "--tag", "production",
        ])
        assert code == 0
        assert "artifact" in capsys.readouterr().out

        code = main([
            "scan", "random-phishing", "--contracts", "60",
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
            "--model-tag", "latest",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "latency" in out

    def test_monitor_train_on_the_fly(self, capsys):
        code = main(["monitor", "--contracts", "60", "--train-on-the-fly"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "micro-batches" in out
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
