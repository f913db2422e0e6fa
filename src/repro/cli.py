"""Command-line interface: ``phishinghook <command>``.

Commands:

* ``demo`` — build a synthetic corpus, run a reduced Table II evaluation
  and print the results table,
* ``train`` — fit one registry model offline and persist it as a
  versioned artifact (file or :class:`~repro.artifacts.ModelStore`);
  the offline half of "train once, serve anywhere",
* ``scan`` — classify contract addresses on a fresh simulated chain in
  one batched ``ScanService.scan_many`` call (deduped, prediction-cached;
  see :mod:`repro.serve`), serving from a persisted artifact
  (``--model-path`` / ``--model-tag``) through the same checked config
  ``monitor`` launches from; ``--train-on-the-fly`` is the explicit
  fallback that refits in-process,
* ``models`` — inspect and manage the artifact store
  (``list``/``export``/``import``/``tag``/``gc``),
* ``rollout`` — shadow-validate a ``candidate`` artifact against
  ``production`` on live stream traffic and promote on metric parity
  (``start``/``status``/``promote``/``abort``; see :mod:`repro.rollout`
  and ``docs/operations.md``),
* ``disasm`` — disassemble a hex bytecode string to the BDM's CSV rows,
* ``dataset`` — build a corpus and print Fig. 2-style monthly counts,
* ``monitor`` — replay a synthetic campaign through the event-driven
  streaming pipeline (micro-batches, alert sinks; see
  :mod:`repro.stream`), cold-starting one scan service from one artifact,
* ``loop`` — close the learning loop over a config-declared topology:
  drift on live scores triggers a warm-start retrain, the candidate
  shadows production and the rollout policy promotes or aborts, every
  decision logged durably (``start``/``status``/``history``; see
  :mod:`repro.loop` and ``docs/operations.md``),
* ``fleet`` — run a multi-process serving fleet behind an HTTP
  coordinator (``start``/``serve``/``status``/``scan``/``stop``; see
  :mod:`repro.net` and ``docs/architecture.md``),
* ``store-serve`` — publish a model store over HTTP so fleet workers
  (or other hosts) can cold-start from it via an ``http://`` store URL,
* ``attack`` — demonstrate the benign-mimicry evasion sweep against a
  clean-trained Random Forest (extension; see ``repro.robustness``),
* ``calibrate`` — measure a model's probability calibration (ECE/Brier)
  and the repair from temperature scaling.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from repro.artifacts.errors import ArtifactError
from repro.artifacts.store import STORE_ENV
from repro.chain.rpc import JsonRpcError, NoCodeError
from repro.chain.timeline import MONTHS
from repro.core.pipeline import PhishingHook, PipelineConfig
from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.deploy.config import _TABLES, _checked
from repro.evm.disassembler import Disassembler
from repro.evm.errors import EVMError

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1, rejected *at parse time*.

    For counts that set no deployment knob; a knob's flag takes the
    knob's own domain (:func:`_add_knob_flags`).
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type: a float >= 0, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value}"
        )
    return value


#: The flags that set a deployment knob, as ``(flag, "section.knob")``.
#: Each flag's type, default, domain and help come from that knob's
#: field metadata in :mod:`repro.deploy.config`, so a flag and a config
#: file cannot disagree about what a value means or allows.
_SOURCE_FLAGS = (
    ("--contracts", "source.contracts"),
    ("--seed", "source.seed"),
)
_TOPOLOGY_FLAGS = {
    "scan": _SOURCE_FLAGS,
    "monitor": (
        *_SOURCE_FLAGS,
        ("--threshold", "serve.threshold"),
        ("--batch-size", "stream.batch_size"),
        ("--queue", "stream.queue"),
        ("--policy", "stream.policy"),
        ("--deadline", "stream.deadline_seconds"),
        ("--rate", "source.rate"),
    ),
    "rollout start": (
        ("--candidate", "rollout.candidate"),
        ("--production", "rollout.production"),
        *_SOURCE_FLAGS,
        ("--batch-size", "stream.batch_size"),
        ("--threshold", "serve.threshold"),
        ("--policy", "rollout.policy"),
        ("--min-events", "rollout.min_events"),
        ("--promote-agreement", "rollout.promote_agreement"),
        ("--abort-agreement", "rollout.abort_agreement"),
        ("--max-divergence", "rollout.max_divergence"),
        ("--max-lost-rate", "rollout.max_lost_rate"),
    ),
}


def _knob_field(path: str) -> dataclasses.Field:
    section, name = path.split(".")
    table = next(table for field, table in _TABLES if field.name == section)
    return next(f for f in dataclasses.fields(table) if f.name == name)


def _add_knob_flags(parser, flags) -> None:
    """Add each ``(flag, knob)`` typed, defaulted and bounded by its knob.

    A value outside the knob's domain is a usage error at parse time,
    judged by the same check the config parser applies to files.
    """
    for flag, path in flags:
        field = _knob_field(path)
        meta = field.metadata

        def parse(text, kind=field.type, meta=meta, path=path):
            try:
                value = kind(text)
            except ValueError:
                value = text  # _checked names the expected type
            value, problem = _checked(value, kind, meta)
            if problem is not None:
                raise argparse.ArgumentTypeError(
                    f"expected a valid {path}: {problem}"
                )
            return value

        strict = meta["exclusive"]
        bounds = ", ".join(
            f"{sign} {bound:g}" for sign, bound in (
                (">" if strict else ">=", meta["minimum"]),
                ("<" if strict else "<=", meta["maximum"]),
            ) if bound is not None
        )
        help_text = "; ".join(filter(None, (f"sets {path}", bounds,
                                            meta["doc"])))
        parser.add_argument(
            flag, type=parse, default=field.default,
            choices=meta["choices"] or None,
            # argparse %-formats help; knob prose may carry a literal %.
            help=help_text.replace("%", "%%") + " (default: %(default)s)",
        )


def _flag_config(args) -> dict:
    """The deployment mapping a ``scan``/``monitor``/``rollout start``
    command line spells, for :func:`repro.deploy.parse_config`."""
    if args.topology == "rollout start":
        model = {"tag": args.production}
    else:
        # --train-on-the-fly serves a model fitted in-process; its
        # registry name stands in for the store tag it never resolves.
        model = {
            "tag": args.model_tag or ("" if args.model_path else args.model),
            "path": args.model_path,
        }
    sinks = [{"kind": "memory"}]
    if getattr(args, "jsonl", ""):
        sinks.append({"kind": "jsonl", "path": args.jsonl})
    data = {"model": model, "sinks": sinks}
    store = args.store or os.environ.get(STORE_ENV)
    if store:
        data["store"] = {"url": store}
    for flag, path in _TOPOLOGY_FLAGS[args.topology]:
        section, knob = path.split(".")
        dest = flag.removeprefix("--").replace("-", "_")
        data.setdefault(section, {})[knob] = getattr(args, dest)
    return data


def _launchable_config(source, section: str = ""):
    """Parse + statically verify a deployment config before launching.

    ``source`` is a config file path or a :func:`_flag_config` mapping;
    ``section`` names an optional table the launch needs. Returns
    ``(config, 0)`` when launchable. On a parse/validation failure, a
    missing section or any ERROR-severity rule violation, prints the
    full report and returns ``(None, 2)`` — the caller refuses to
    start. WARN-severity violations are printed but do not block.
    """
    from repro.deploy import (
        ConfigError,
        DeploymentBlockedError,
        ensure_launchable,
        load_config,
        parse_config,
    )

    try:
        if isinstance(source, dict):
            config = parse_config(source, origin="<flags>")
        else:
            config = load_config(source)
    except ConfigError as error:
        print(error, file=sys.stderr)
        return None, 2
    if section and getattr(config, section) is None:
        print(f"error: {config.origin} has no [{section}] section "
              "(see docs/configuration.md)", file=sys.stderr)
        return None, 2
    try:
        report = ensure_launchable(config)
    except DeploymentBlockedError as blocked:
        print(blocked.report.render_text(), file=sys.stderr)
        print(
            "refusing to launch: fix the ERROR violations above "
            "(rule catalog: docs/configuration.md)",
            file=sys.stderr,
        )
        return None, 2
    for violation in report.warnings:
        print(violation.render(), file=sys.stderr)
    return config, 0


def _launch_service(args):
    """``(config, corpus, service)`` for a ``scan`` or ``monitor``
    command line, or ``None`` once the refusal is printed.

    ``--config`` or the topology flags build one ``DeployConfig``,
    verified before launch (ERROR violations refuse to start — see
    'phishinghook check-config'); with ``--config`` the flags are
    ignored. The service cold-starts from the configured artifact, or
    with ``--train-on-the-fly`` fits ``--model`` on the config's corpus.
    """
    from repro.deploy import build_replay_corpus, build_service

    config_path = getattr(args, "config", "")
    trained = not (config_path or args.model_tag or args.model_path)
    if trained and not args.train_on_the_fly:
        print(_NO_MODEL_HINT.format(model=args.model,
                                    contracts=args.contracts,
                                    seed=args.seed), file=sys.stderr)
        return None
    config, __ = _launchable_config(config_path or _flag_config(args))
    if config is None:
        return None
    corpus = build_replay_corpus(config)
    if trained:
        from repro.datagen.dataset import Dataset
        from repro.serve.service import ScanService

        seed = config.source.seed
        service = ScanService(
            args.model, train_dataset=Dataset.from_corpus(corpus, seed=seed),
            seed=seed, threshold=config.serve.threshold,
        )
    else:
        service = build_service(config)
    return config, corpus, service


def _corpus(args):
    """The synthetic corpus ``--contracts``/``--seed`` describe."""
    return build_corpus(
        CorpusConfig(n_phishing=args.contracts // 2,
                     n_benign=args.contracts // 2, seed=args.seed)
    )


def _resolve_addresses(corpus, addresses):
    """``addresses`` with each ``random-phishing`` replaced by the next
    phishing record, or ``None`` (error printed) when there is none."""
    phishing = corpus.phishing_records()
    if "random-phishing" in addresses and not phishing:
        print("error: corpus has no phishing records to sample "
              "(raise --contracts)", file=sys.stderr)
        return None
    records = itertools.cycle(phishing)
    return [
        next(records).address if address == "random-phishing" else address
        for address in addresses
    ]


def _cmd_demo(args) -> int:
    hook = PhishingHook(
        _corpus(args),
        PipelineConfig(
            model_names=tuple(args.models.split(",")),
            n_folds=args.folds,
            seed=args.seed,
            run_post_hoc=False,
        ),
    )
    outcome = hook.run()
    print(outcome.evaluation.table())
    return 0


def _store_from(args):
    from repro.artifacts import ModelStore

    # from_url accepts bare paths and file:// / memory:// / bucket://
    # URLs alike, and falls back to $PHOOK_MODEL_STORE / ./phook-models.
    return ModelStore.from_url(args.store or None)


_NO_MODEL_HINT = (
    "error: no model artifact given. Train one offline first\n"
    "  (phishinghook train --model {model!r} --contracts {contracts} "
    "--seed {seed})\n"
    "then serve it with --model-tag/--model-path, or pass "
    "--train-on-the-fly to refit in-process."
)


def _cmd_train(args) -> int:
    from repro.artifacts import save_artifact
    from repro.core.registry import create_model
    from repro.datagen.dataset import Dataset
    from repro.ml.flat import precompile
    from repro.ml.metrics import classification_metrics

    if args.out and args.tag:
        print("error: --tag records a store tag; it cannot be combined "
              "with --out (write to the store instead, or import the "
              "file later with 'phishinghook models import --tag …')",
              file=sys.stderr)
        return 2
    dataset = Dataset.from_corpus(_corpus(args), seed=args.seed)
    holdout = None
    train = dataset
    if args.holdout > 0:
        train, holdout = dataset.train_test_split(args.holdout, seed=args.seed)

    import time as _time

    model = create_model(args.model, seed=args.seed)
    started = _time.perf_counter()
    model.fit(train.bytecodes, train.labels)
    precompile(model)
    fit_seconds = _time.perf_counter() - started

    metrics = None
    if holdout is not None:
        measured = classification_metrics(
            holdout.labels, model.predict(holdout.bytecodes)
        )
        metrics = measured.as_dict()
    meta = dict(
        model_name=args.model,
        dataset_fingerprint=train.fingerprint(),
        metrics=metrics,
        extra={"contracts": args.contracts, "seed": args.seed},
    )
    if args.out:
        info = save_artifact(model, args.out, **meta)
        where = str(info.path)
        version = info.digest
    else:
        store = _store_from(args)
        tags = tuple(args.tag) if args.tag else ("latest",)
        version = store.put(model, tags=tags, **meta)
        where = f"{store.root} [{', '.join(tags)}]"
    print(f"trained {args.model} on {len(train)} contracts "
          f"in {fit_seconds:.2f}s")
    if metrics:
        print(f"holdout accuracy {metrics['accuracy']:.3f}  "
              f"f1 {metrics['f1']:.3f}")
    print(f"artifact {version[:16]} -> {where}")
    return 0


def _cmd_models(args) -> int:
    import json

    store = _store_from(args)
    if args.models_command == "list":
        rows = store.list()
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        if not rows:
            print(f"no artifacts in {store.root}")
            return 0
        print(f"{'VERSION':16s} {'MODEL':24s} {'ACC':>6s} {'SIZE':>9s} TAGS")
        for row in rows:
            accuracy = (row["metrics"] or {}).get("accuracy")
            shown = f"{accuracy:6.3f}" if accuracy is not None else f"{'-':>6s}"
            print(f"{row['version'][:16]:16s} "
                  f"{(row['model_name'] or '?'):24s} "
                  f"{shown} {row['size_bytes']:9d} "
                  f"{','.join(row['tags']) or '-'}")
        return 0
    if args.models_command == "export":
        dest = store.export(args.ref, args.dest, layout=args.layout)
        print(f"exported {args.ref} -> {dest}")
        return 0
    if args.models_command == "import":
        version = store.import_artifact(
            args.source, tags=tuple(args.tag) if args.tag else ()
        )
        print(f"imported {version[:16]} into {store.root}")
        return 0
    if args.models_command == "tag":
        version = store.tag(args.name, args.ref)
        print(f"{args.name} -> {version[:16]}")
        return 0
    if args.models_command == "gc":
        removed = store.gc()
        print(f"removed {len(removed)} untagged version(s)")
        return 0
    raise AssertionError(f"unknown models command {args.models_command!r}")


def _print_rollout_record(record: dict) -> None:
    comparison = record.get("comparison") or {}
    print(f"state      {record.get('state')}")
    print(f"candidate  {(record.get('candidate_version') or '?')[:16]} "
          f"({record.get('candidate_name') or '?'})")
    print(f"production {(record.get('production_version') or '?')[:16]} "
          f"[tag {record.get('production_tag', 'production')}]")
    if comparison.get("events"):
        print(f"evidence   {comparison['events']} events over "
              f"{comparison['batches']} micro-batches: "
              f"agreement {comparison['agreement_rate']:.4f}, "
              f"mean divergence {comparison['mean_divergence']:.4f} "
              f"(max {comparison['max_divergence']:.4f})")
        print(f"disagree   production-only {comparison['production_only']}, "
              f"candidate-only {comparison['candidate_only']}")
        print(f"overhead   shadow scoring added "
              f"{comparison['latency_overhead']:.2f}x of primary "
              f"scoring time")
    print(f"decision   {record.get('decision')}: {record.get('reason')}")


def _cmd_rollout(args) -> int:
    import json

    from repro.rollout import (
        ShadowComparison,
        ShadowRollout,
        load_rollout_state,
        save_rollout_state,
    )

    if args.rollout_command == "start":
        from repro.deploy import (
            build_policy,
            build_replay_corpus,
            build_scanner,
            build_service,
            open_store,
        )
        from repro.stream import TimelineReplayer

        # --config and the topology flags build the same DeployConfig,
        # verified before launch (ERROR violations refuse to start).
        config, code = _launchable_config(
            args.config or _flag_config(args), "rollout"
        )
        if config is None:
            return code
        candidate = config.rollout.candidate
        production = config.rollout.production
        store = open_store(config)
        corpus = build_replay_corpus(config)
        # The scanner serves the production tag; the [model] section
        # names the same ref in a well-formed rollout config.
        service = build_service(config, store=store, source=production)
        scanner = build_scanner(config, service)
        # A still-shadowing record for the same candidate/production
        # pair resumes its accumulated evidence ("rerun with more
        # traffic"); anything else starts a fresh rollout.
        previous = load_rollout_state(store)
        resumed = None
        if (
            previous
            and previous.get("state") == "shadowing"
            and previous.get("candidate_version")
                == store.resolve(candidate)
            and previous.get("production_version")
                == store.resolve(production)
        ):
            resumed = ShadowComparison.from_dict(
                previous.get("comparison") or {}
            )
        rollout = ShadowRollout(
            scanner, candidate, store=store, policy=build_policy(config),
            production_tag=production, comparison=resumed,
        )
        if resumed is not None and resumed.events:
            print(f"resuming shadow evidence: {resumed.events} events "
                  "from the previous run")
        report = TimelineReplayer(scanner).replay_chain(corpus.chain)
        scanner.close()
        record = save_rollout_state(store, rollout.status())
        print(f"shadow-scored {report.scanned} deployments in "
              f"{report.duration_seconds:.3f}s "
              f"({report.batches} micro-batches, "
              f"{report.dropped} dropped)")
        _print_rollout_record(record)
        if rollout.state == "promoted":
            print(f"promoted: tag '{production}' -> "
                  f"{rollout.candidate_version[:16]}; serving model swapped "
                  f"with zero dropped batches")
        elif rollout.state == "aborted":
            print("aborted: production serving untouched")
        else:
            print("holding: rerun with more traffic, or decide with "
                  "'phishinghook rollout promote|abort'")
        return 0

    store = _store_from(args)

    record = load_rollout_state(store)
    if record is None:
        print(f"no rollout recorded in {store.root} "
              "(run 'phishinghook rollout start')", file=sys.stderr)
        return 1
    if args.rollout_command == "status":
        if args.json:
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            _print_rollout_record(record)
        return 0
    if args.rollout_command in ("promote", "abort"):
        if record.get("state") != "shadowing":
            print(f"error: rollout already {record.get('state')}; "
                  "start a new one", file=sys.stderr)
            return 2
        if args.rollout_command == "promote":
            version = record.get("candidate_version")
            if not version:
                print("error: rollout record has no candidate version",
                      file=sys.stderr)
                return 2
            tag = record.get("production_tag", "production")
            store.tag(tag, version)
            record["state"] = "promoted"
            record["decision"] = "promote"
            record["reason"] = "operator promotion"
            save_rollout_state(store, record)
            print(f"{tag} -> {version[:16]} (serving processes pick up "
                  "the new version at next load/swap)")
        else:
            record["state"] = "aborted"
            record["decision"] = "abort"
            record["reason"] = "operator abort"
            save_rollout_state(store, record)
            print("rollout aborted; production tag untouched")
        return 0
    raise AssertionError(
        f"unknown rollout command {args.rollout_command!r}"
    )


def _cmd_check_config(args) -> int:
    import json

    from repro.deploy import ConfigError, check_config, load_config

    try:
        config = load_config(args.config)
    except ConfigError as error:
        if args.json:
            print(json.dumps(error.as_dict(), indent=2, sort_keys=True))
        else:
            print(error, file=sys.stderr)
        return 2
    report = check_config(config)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    if report.errors:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_scan(args) -> int:
    from repro.chain.rpc import JsonRpcClient, JsonRpcServer

    launched = _launch_service(args)
    if launched is None:
        return 2
    __, corpus, service = launched
    addresses = _resolve_addresses(corpus, args.addresses)
    if addresses is None:
        return 2
    service.rpc = JsonRpcClient(JsonRpcServer(corpus.chain))
    results = service.scan_many(addresses)
    for result in results:
        verdict = "PHISHING" if result.is_phishing else "benign"
        via = "cache" if result.from_cache else "model"
        print(f"{result.address}: {verdict} "
              f"(p={result.probability:.3f}, model={service.model_name}, "
              f"via={via})")
    stats = service.stats()
    served = sum(r.from_cache for r in results)
    print(f"batch of {len(results)}: {served} served from cache; "
          f"overall cache hit rate {stats['hit_rate']:.2f} "
          f"({stats['hits']} hits / {stats['misses']} misses)")
    return 0


def _cmd_monitor(args) -> int:
    from repro.deploy import build_scanner
    from repro.stream import TimelineReplayer

    launched = _launch_service(args)
    if launched is None:
        return 2
    config, corpus, service = launched
    scanner = build_scanner(config, service)
    replayer = TimelineReplayer(scanner, rate=config.source.rate or None)
    report = replayer.replay_chain(corpus.chain)
    scanner.close()

    latency = report.latency_seconds
    print(f"replayed {report.events} deployments in "
          f"{report.duration_seconds:.3f}s "
          f"({report.events_per_second:.0f} events/s, "
          f"{report.batches} micro-batches)")
    print(f"scanned {report.scanned}, flagged {report.flagged}, "
          f"dropped {report.dropped}, empty {report.skipped_empty}")
    print(f"latency p50 {latency['p50'] * 1e3:.2f}ms  "
          f"p95 {latency['p95'] * 1e3:.2f}ms  "
          f"p99 {latency['p99'] * 1e3:.2f}ms")
    for sink in scanner.sinks:
        print(f"  sink {sink.name}: {sink.stats.delivered} delivered, "
              f"{sink.stats.failed} failed")
    truth = set(corpus.explorer.flagged_addresses())
    flagged = {alert.address for alert in report.alerts}
    if flagged:
        precision = len(flagged & truth) / len(flagged)
        print(f"alert precision vs ground truth: {precision:.3f} "
              f"({len(flagged & truth)}/{len(flagged)})")
    for sink in config.sinks:
        if sink.kind == "jsonl":
            print(f"alerts appended to {sink.path}")
    return 0


def _cmd_loop(args) -> int:
    import json

    if args.loop_command == "start":
        from repro.deploy import (
            build_loop,
            build_loop_campaigns,
            build_scanner,
            build_service,
            open_store,
        )
        from repro.loop import read_history, save_loop_state
        from repro.stream import TimelineReplayer

        config, code = _launchable_config(args.config, "loop")
        if config is None:
            return code
        store = open_store(config)
        service = build_service(config, store=store)
        scanner = build_scanner(config, service)

        base, drifted = build_loop_campaigns(
            config, drift_contracts=args.drift_contracts,
            drift_seed=args.drift_seed,
        )
        labels = {}
        for corpus in (base, drifted):
            for record in corpus.records:
                labels[record.address] = record.label
        loop = build_loop(config, scanner, store, label_of=labels.get)

        production_before = store.tags().get(config.rollout.production
                                             if config.rollout
                                             else "production")
        replayer = TimelineReplayer(scanner, rate=config.source.rate or None)
        replayer.replay_chain(base.chain)
        replayer.replay_chain(drifted.chain)
        status = loop.status()
        save_loop_state(store, status)
        loop.detach()
        scanner.close()

        history = read_history(store)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(f"loop: {loop.events_seen} events replayed, "
              f"{loop.drifts} drift(s), {loop.promotions} promotion(s), "
              f"{loop.aborts} abort(s)")
        production_after = status.get("production")
        if production_before != production_after:
            print(f"production {str(production_before)[:16]} -> "
                  f"{str(production_after)[:16]}")
        else:
            print(f"production unchanged "
                  f"({str(production_after)[:16]})")
        print(f"history    {len(history)} entries in loop-history.jsonl "
              f"(phishinghook loop history)")
        return 0

    store = _store_from(args)
    if args.loop_command == "history":
        from repro.loop import read_history

        entries = read_history(store)
        if args.tail:
            entries = entries[-args.tail:]
        for entry in entries:
            if args.json:
                print(json.dumps(entry, sort_keys=True))
            else:
                stage = entry.get("stage")
                detail = entry.get("reason") or entry.get("error") or ""
                if entry.get("event") == "drift":
                    detail = (f"p={entry.get('p_value'):.4f} "
                              f"effect={entry.get('effect'):.3f}")
                elif entry.get("event") == "retrain":
                    metrics = entry.get("metrics") or {}
                    detail = (f"candidate {str(entry.get('candidate'))[:12]} "
                              f"holdout_accuracy="
                              f"{metrics.get('holdout_accuracy')}")
                label = entry.get("event", "?")
                if stage:
                    label = f"{label}({stage})"
                print(f"{entry.get('seq'):>4}  {label:<16} {detail}")
        if not entries and not args.json:
            print("no loop history (loop-history.jsonl is empty)")
        return 0

    # status
    from repro.loop import load_loop_state

    record = load_loop_state(store)
    if record is None:
        print("no loop state recorded (run 'phishinghook loop start')",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    print(f"state      {record.get('state')}")
    print(f"events     {record.get('events_seen')} seen, "
          f"{record.get('window_events')} labeled in window")
    print(f"cycles     {record.get('drifts')} drift(s), "
          f"{record.get('promotions')} promotion(s), "
          f"{record.get('aborts')} abort(s)")
    print(f"production {str(record.get('production'))[:16]}")
    monitor = record.get("monitor") or {}
    print(f"monitor    window {monitor.get('window')} x "
          f"{monitor.get('blocks')} blocks, alpha {monitor.get('alpha')}, "
          f"ready {monitor.get('ready')}")
    if record.get("last_error"):
        print(f"last error {record['last_error']}")
    return 0


def _cmd_disasm(args) -> int:
    print(Disassembler(args.bytecode).to_csv(), end="")
    return 0


def _cmd_dataset(args) -> int:
    corpus = _corpus(args)
    obtained = corpus.monthly_counts(label=1)
    unique = corpus.monthly_counts(label=1, unique=True)
    print(f"{'Month':8s} {'Obtained':>9s} {'Unique':>7s}")
    for label, got, uniq in zip(MONTHS, obtained, unique):
        print(f"{label:8s} {got:9d} {uniq:7d}")
    print(f"{'total':8s} {obtained.sum():9d} {unique.sum():7d}")
    return 0


def _train_test_from_args(args):
    from repro.datagen.dataset import Dataset

    dataset = Dataset.from_corpus(_corpus(args), seed=args.seed)
    return dataset.train_test_split(0.3, seed=args.seed)


def _cmd_attack(args) -> int:
    from repro.models.hsc import HSCDetector
    from repro.robustness import (
        evaluate_under_attack,
        mimicry_padding,
        opcode_byte_distribution,
    )

    train, test = _train_test_from_args(args)
    benign_codes = [
        code for code, label in zip(train.bytecodes, train.labels)
        if label == 0
    ]
    distribution = opcode_byte_distribution(benign_codes)

    def attack(bytecode, rng, strength):
        return mimicry_padding(
            bytecode, rng, int(strength * len(bytecode)), distribution
        )

    detector = HSCDetector(variant="Random Forest", seed=args.seed)
    sweep = evaluate_under_attack(
        detector,
        train.bytecodes, train.labels,
        test.bytecodes, test.labels,
        attack,
        strengths=[float(s) for s in args.strengths.split(",")],
        attack_name="benign-mimicry",
        seed=args.seed,
    )
    print(sweep.table())
    print(f"recall lost at max strength: {sweep.recall_drop():.3f}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.analysis.calibration import (
        TemperatureScaler,
        brier_score,
        expected_calibration_error,
    )
    from repro.core.registry import create_model

    train, test = _train_test_from_args(args)
    detector = create_model(args.model, seed=args.seed)
    detector.fit(train.bytecodes, np.asarray(train.labels))
    probabilities = detector.predict_proba(test.bytecodes)[:, 1]
    labels = np.asarray(test.labels)

    # Calibrate on half the test split, report on the other half.
    half = labels.size // 2
    scaler = TemperatureScaler().fit(probabilities[:half], labels[:half])
    raw, scaled = probabilities[half:], scaler.transform(probabilities[half:])
    held = labels[half:]

    print(f"{args.model}: temperature = {scaler.temperature_:.3f}")
    print(f"{'':14s} {'ECE':>7s} {'Brier':>7s}")
    print(f"{'raw':14s} {expected_calibration_error(held, raw):7.4f} "
          f"{brier_score(held, raw):7.4f}")
    print(f"{'temperature':14s} "
          f"{expected_calibration_error(held, scaled):7.4f} "
          f"{brier_score(held, scaled):7.4f}")
    return 0


def _fleet_client(args):
    """A :class:`FleetClient` from ``--url`` or the fleet state file."""
    from repro.net import FleetClient, load_fleet_state

    url = getattr(args, "url", "") or ""
    if not url:
        try:
            url = load_fleet_state(args.state)["url"]
        except FileNotFoundError:
            print(
                f"error: no fleet state file at {args.state}; start a "
                "fleet first ('phishinghook fleet start --config ...') "
                "or pass --url",
                file=sys.stderr,
            )
            return None
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return None
    return FleetClient(url)


def _fleet_serve(args) -> int:
    """Foreground fleet: verify, build, run until SIGTERM/SIGINT."""
    import pathlib
    import signal
    import time

    from repro.deploy import build_fleet
    from repro.net import save_fleet_state

    config, code = _launchable_config(args.config, "fleet")
    if config is None:
        return code
    manager = build_fleet(config)
    try:
        manager.start()
    except Exception as error:  # startup is all-or-nothing
        print(f"error: fleet failed to start: {error}", file=sys.stderr)
        return 1
    save_fleet_state(args.state, url=manager.url)
    print(
        f"fleet up: {manager.workers} worker(s) behind {manager.url} "
        f"(state file: {args.state})",
        flush=True,
    )
    interrupted = {"flag": False}

    def _on_signal(signum, frame):
        interrupted["flag"] = True

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        # POST /shutdown flips manager.stopped; signals flip the flag.
        while not (interrupted["flag"] or manager.stopped):
            time.sleep(0.2)
    finally:
        manager.stop()
        pathlib.Path(args.state).unlink(missing_ok=True)
    print("fleet stopped")
    return 0


def _fleet_start(args) -> int:
    """Daemonize ``fleet serve`` and wait for the fleet to be healthy."""
    import pathlib
    import subprocess
    import time

    from repro.net import FleetClient, load_fleet_state
    from repro.net.client import TransportError

    # Verify locally first: a doomed config fails here in milliseconds
    # with the full report instead of a "check the log" round-trip.
    config, code = _launchable_config(args.config, "fleet")
    if config is None:
        return code
    pathlib.Path(args.state).unlink(missing_ok=True)
    with open(args.log, "ab") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fleet", "serve",
             "--config", args.config, "--state", args.state],
            stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            print(
                f"error: fleet process exited with code "
                f"{process.returncode} before becoming healthy "
                f"(log: {args.log})",
                file=sys.stderr,
            )
            return 1
        try:
            state = load_fleet_state(args.state)
            if FleetClient(state["url"], timeout=2.0).healthz().get("ok"):
                print(f"fleet up: {state['url']} "
                      f"(pid {state['pid']}, log {args.log})")
                return 0
        except (FileNotFoundError, ValueError, TransportError):
            pass
        time.sleep(0.2)
    print(
        f"error: fleet not healthy within {args.timeout:.0f}s "
        f"(log: {args.log})",
        file=sys.stderr,
    )
    return 1


#: How long ``fleet stop`` waits for the daemon to finish draining.
_FLEET_STOP_WAIT_SECONDS = 60.0


def _cmd_fleet(args) -> int:
    import json
    import pathlib
    import time

    from repro.net import FleetRpcError, load_fleet_state
    from repro.net.client import TransportError

    if args.fleet_command == "serve":
        return _fleet_serve(args)
    if args.fleet_command == "start":
        return _fleet_start(args)

    client = _fleet_client(args)
    if client is None:
        return 2

    if args.fleet_command == "status":
        try:
            status = client.status()
        except (FleetRpcError, TransportError) as error:
            print(f"error: coordinator at {client.base_url} unreachable: "
                  f"{error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        counters = status["counters"]
        latency = status["batch_latency_seconds"]
        health = ""
        if status.get("degraded"):
            health += f", {status['degraded']} degraded"
        if status.get("quarantined"):
            health += f", {status['quarantined']} QUARANTINED"
        print(f"coordinator {client.base_url}: "
              f"{status['alive']}/{len(status['workers'])} worker(s) "
              f"alive, overflow={status['overflow']}, "
              f"queue_depth={status['queue_depth']}"
              + health
              + (", draining" if status["draining"] else ""))
        print(f"batches {counters['batches']}  "
              f"scanned {counters['scanned']}  "
              f"flagged {counters['flagged']}  "
              f"shed {counters['shed']}  rerouted {counters['rerouted']}")
        if latency:
            print(f"batch latency p50 {latency['p50'] * 1e3:.2f}ms  "
                  f"p95 {latency['p95'] * 1e3:.2f}ms  "
                  f"p99 {latency['p99'] * 1e3:.2f}ms")
        for worker in status["workers"]:
            state = worker.get("state") or (
                "alive" if worker["alive"] else "dead")
            label = state.upper() if state in ("dead", "quarantined") else state
            extras = ""
            if worker.get("respawns"):
                extras += f" respawns={worker['respawns']}"
            if worker.get("degraded"):
                extras += " degraded"
            print(f"  worker {worker['index']} [{label}] "
                  f"pid={worker['pid']} inflight={worker['inflight']} "
                  f"completed={worker['completed']} "
                  f"failed={worker['failed']}" + extras)
        return 0

    if args.fleet_command == "scan":
        corpus = _corpus(args)
        addresses = _resolve_addresses(corpus, args.addresses)
        if addresses is None:
            return 2
        codes = [corpus.chain.get_code(address) for address in addresses]
        try:
            results = client.scan(addresses, codes)
        except (FleetRpcError, TransportError) as error:
            print(f"error: scan via {client.base_url} failed: {error}",
                  file=sys.stderr)
            return 1
        for result in results:
            verdict = "PHISHING" if result["is_phishing"] else "benign"
            via = "cache" if result["from_cache"] else "model"
            print(f"{result['address']}: {verdict} "
                  f"(p={result['probability']:.3f}, "
                  f"worker={result['worker']}, via={via})")
        return 0

    if args.fleet_command == "stop":
        try:
            alive = client.healthz().get("alive_workers", "?")
        except TransportError:
            print(f"fleet at {client.base_url} is already down")
            return 0
        client.shutdown()
        print(f"fleet at {client.base_url} stopping "
              f"({alive} worker(s) draining)", flush=True)
        try:
            watched = load_fleet_state(args.state)["url"].rstrip("/")
        except (FileNotFoundError, ValueError):
            watched = None
        if watched != client.base_url:
            return 0  # no state file of this fleet: the stop is not awaited
        # The daemon removes its state file once it has drained and
        # closed its sinks, so the alert files are complete after this.
        deadline = time.monotonic() + _FLEET_STOP_WAIT_SECONDS
        while pathlib.Path(args.state).exists():
            if time.monotonic() > deadline:
                print(f"error: fleet did not stop within "
                      f"{_FLEET_STOP_WAIT_SECONDS:.0f}s (state file "
                      f"{args.state} remains)", file=sys.stderr)
                return 1
            time.sleep(0.05)
        print("fleet stopped")
        return 0

    raise AssertionError(  # pragma: no cover - argparse enforces choices
        f"unknown fleet command {args.fleet_command!r}"
    )


def _cmd_store_serve(args) -> int:
    import signal
    import threading

    from repro.net import serve_store

    store = _store_from(args)
    server = serve_store(
        store.backend, args.host, args.port, writable=args.writable
    )
    host, port = server.server_address[:2]
    mode = "read-write" if args.writable else "read-only"
    print(f"serving store {store.backend.url} at http://{host}:{port} "
          f"({mode})", flush=True)

    def _on_signal(signum, frame):
        # shutdown() must not run on the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    print("store server stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phishinghook",
        description="PhishingHook: opcode-based phishing detection "
                    "(DSN 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_option(parser):
        parser.add_argument(
            "--store", default="",
            help="model store path or URL (file://, memory://, bucket://, "
                 f"http://; default: ${STORE_ENV} or ./phook-models)",
        )

    demo = sub.add_parser("demo", help="run a reduced Table II evaluation")
    _add_knob_flags(demo, _SOURCE_FLAGS)
    demo.add_argument("--folds", type=int, default=3)
    demo.add_argument(
        "--models", default="Random Forest,k-NN,Logistic Regression",
        help="comma-separated Table II model names",
    )
    demo.set_defaults(func=_cmd_demo)

    def add_artifact_options(parser):
        parser.add_argument(
            "--model-path", default="",
            help="serve from this artifact file (see 'phishinghook train')",
        )
        parser.add_argument(
            "--model-tag", default="",
            help="serve the store version behind this tag/version/prefix",
        )
        add_store_option(parser)
        parser.add_argument(
            "--train-on-the-fly", action="store_true",
            help="explicit fallback: refit the model in-process instead "
                 "of loading an artifact",
        )

    train = sub.add_parser(
        "train",
        help="fit one model offline and persist it as a versioned artifact",
    )
    train.add_argument("--model", default="Random Forest")
    _add_knob_flags(train, _SOURCE_FLAGS)
    train.add_argument(
        "--holdout", type=float, default=0.25,
        help="holdout fraction for the recorded metrics (0 = train on "
             "everything, no metrics)",
    )
    train.add_argument(
        "--out", default="",
        help="write the artifact to this file instead of the store",
    )
    add_store_option(train)
    train.add_argument(
        "--tag", action="append", default=[],
        help="store tag(s) for the new version (default: latest; "
             "repeatable)",
    )
    train.set_defaults(func=_cmd_train)

    models = sub.add_parser(
        "models", help="inspect and manage the model artifact store"
    )
    add_store_option(models)
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list", help="list stored versions")
    models_list.add_argument("--json", action="store_true",
                             help="machine-readable output")
    models_export = models_sub.add_parser(
        "export", help="copy an artifact out of the store"
    )
    models_export.add_argument("ref", help="tag, version, or version prefix")
    models_export.add_argument("dest", help="destination file or directory")
    models_export.add_argument(
        "--layout", choices=("stored", "deflate"), default=None,
        help="repack on the way out: 'stored' for an mmap-ready file, "
             "'deflate' to shrink a stored artifact for the wire",
    )
    models_import = models_sub.add_parser(
        "import", help="verify an artifact file and add it to the store"
    )
    models_import.add_argument("source", help="artifact file to import")
    models_import.add_argument("--tag", action="append", default=[])
    models_tag = models_sub.add_parser("tag", help="point a tag at a version")
    models_tag.add_argument("name")
    models_tag.add_argument("ref", help="tag, version, or version prefix")
    models_sub.add_parser("gc", help="delete untagged versions")
    models.set_defaults(func=_cmd_models)

    rollout = sub.add_parser(
        "rollout",
        help="shadow-validate a candidate model against production",
    )
    add_store_option(rollout)
    rollout_sub = rollout.add_subparsers(dest="rollout_command",
                                         required=True)
    rollout_start = rollout_sub.add_parser(
        "start",
        help="shadow-score the candidate on replayed stream traffic "
             "and apply the rollout policy",
    )
    rollout_start.add_argument(
        "--config", default="",
        help="declarative deployment file (TOML/JSON) with a [rollout] "
             "section; statically verified first — ERROR violations "
             "refuse to launch (overrides the topology flags below)",
    )
    _add_knob_flags(rollout_start, _TOPOLOGY_FLAGS["rollout start"])
    rollout_start.set_defaults(topology="rollout start")
    rollout_status = rollout_sub.add_parser(
        "status", help="print the recorded rollout state"
    )
    rollout_status.add_argument("--json", action="store_true",
                                help="machine-readable output")
    rollout_sub.add_parser(
        "promote",
        help="manually repoint the production tag at the candidate",
    )
    rollout_sub.add_parser(
        "abort", help="manually end the rollout, production untouched"
    )
    rollout.set_defaults(func=_cmd_rollout)

    scan = sub.add_parser("scan", help="classify contract addresses")
    scan.add_argument(
        "addresses", nargs="+", metavar="address",
        help="0x… addresses, or 'random-phishing' (repeatable)",
    )
    scan.add_argument("--model", default="Random Forest")
    _add_knob_flags(scan, _TOPOLOGY_FLAGS["scan"])
    add_artifact_options(scan)
    scan.set_defaults(func=_cmd_scan, topology="scan")

    monitor = sub.add_parser(
        "monitor",
        help="replay a campaign through the streaming detection pipeline",
    )
    monitor.add_argument(
        "--config", default="",
        help="declarative deployment file (TOML/JSON); statically "
             "verified first — ERROR violations refuse to launch "
             "(overrides the topology flags below)",
    )
    monitor.add_argument("--model", default="Random Forest")
    _add_knob_flags(monitor, _TOPOLOGY_FLAGS["monitor"])
    monitor.add_argument("--jsonl", default="",
                         help="also append alerts to this JSONL file")
    add_artifact_options(monitor)
    monitor.set_defaults(func=_cmd_monitor, topology="monitor")

    loop = sub.add_parser(
        "loop",
        help="run the continuous-learning loop: drift detection, "
             "warm-start retrain, shadow validation, promotion",
    )
    loop_sub = loop.add_subparsers(dest="loop_command", required=True)
    loop_start = loop_sub.add_parser(
        "start",
        help="replay a stationary baseline then a drifted campaign "
             "through a config-declared loop topology",
    )
    loop_start.add_argument(
        "--config", required=True,
        help="declarative deployment file (TOML/JSON) with a [loop] "
             "section; statically verified first — ERROR violations "
             "refuse to launch",
    )
    loop_start.add_argument(
        "--drift-contracts", type=_positive_int, default=0,
        help="deployments in the drifted continuation campaign "
             "(default: source.contracts)",
    )
    loop_start.add_argument(
        "--drift-seed", type=int, default=None,
        help="seed of the drifted campaign (default: source.seed + 1)",
    )
    loop_start.add_argument("--json", action="store_true",
                            help="print the final loop status as JSON")
    loop_status = loop_sub.add_parser(
        "status", help="print the last saved loop state from the store"
    )
    add_store_option(loop_status)
    loop_status.add_argument("--json", action="store_true")
    loop_history = loop_sub.add_parser(
        "history",
        help="print the durable decision log (loop-history.jsonl)",
    )
    add_store_option(loop_history)
    loop_history.add_argument("--tail", type=_positive_int, default=0,
                              help="only the last N entries")
    loop_history.add_argument("--json", action="store_true",
                              help="one canonical JSON entry per line")
    loop.set_defaults(func=_cmd_loop)

    check = sub.add_parser(
        "check-config",
        help="statically verify a deployment config against the "
             "dependency-violation rule catalog without starting anything",
    )
    check.add_argument(
        "config", help="deployment file to verify (TOML or JSON)"
    )
    check.add_argument("--json", action="store_true",
                       help="machine-readable report")
    check.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on WARN-severity violations too",
    )
    check.set_defaults(func=_cmd_check_config)

    fleet = sub.add_parser(
        "fleet",
        help="multi-process serving fleet behind an HTTP coordinator",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def add_fleet_locator(parser):
        parser.add_argument(
            "--state", default="./phook-fleet.json",
            help="fleet state file (written by start/serve, read by "
                 "status/scan/stop)",
        )
        parser.add_argument(
            "--url", default="",
            help="coordinator base URL (overrides the state file)",
        )

    fleet_serve = fleet_sub.add_parser(
        "serve",
        help="run a fleet in the foreground until SIGTERM/Ctrl-C",
    )
    fleet_start = fleet_sub.add_parser(
        "start",
        help="launch a fleet in the background and wait until healthy",
    )
    for launcher in (fleet_serve, fleet_start):
        launcher.add_argument(
            "--config", required=True,
            help="deployment file (TOML/JSON) with a [fleet] section; "
                 "statically verified first — ERROR violations refuse to "
                 "launch",
        )
        launcher.add_argument(
            "--state", default="./phook-fleet.json",
            help="write the coordinator URL + pid here for "
                 "status/scan/stop",
        )
    fleet_start.add_argument(
        "--log", default="phook-fleet.log",
        help="append the daemonized fleet's output here",
    )
    fleet_start.add_argument(
        "--timeout", type=_nonnegative_float, default=90.0,
        help="seconds to wait for every worker's model cold-start",
    )

    fleet_status = fleet_sub.add_parser(
        "status", help="print a running fleet's workers and counters"
    )
    add_fleet_locator(fleet_status)
    fleet_status.add_argument("--json", action="store_true",
                              help="machine-readable output")

    fleet_scan = fleet_sub.add_parser(
        "scan", help="classify contract addresses through the fleet"
    )
    fleet_scan.add_argument(
        "addresses", nargs="+", metavar="address",
        help="0x… addresses, or 'random-phishing' (repeatable)",
    )
    _add_knob_flags(fleet_scan, _SOURCE_FLAGS)
    add_fleet_locator(fleet_scan)

    fleet_stop = fleet_sub.add_parser(
        "stop",
        help="drain and shut down a running fleet, and wait until the "
             "daemon has closed its sinks and removed its state file "
             "(with --url and no state file of that fleet, the stop is "
             "requested, not awaited)",
    )
    add_fleet_locator(fleet_stop)
    fleet.set_defaults(func=_cmd_fleet)

    store_serve = sub.add_parser(
        "store-serve",
        help="publish a model store over HTTP (http:// store backend)",
    )
    add_store_option(store_serve)
    store_serve.add_argument("--host", default="127.0.0.1")
    store_serve.add_argument(
        "--port", type=int, default=8700,
        help="bind port (0 = ephemeral)",
    )
    store_serve.add_argument(
        "--writable", action="store_true",
        help="accept PUT/DELETE too (default: read-only, writes get 405)",
    )
    store_serve.set_defaults(func=_cmd_store_serve)

    disasm = sub.add_parser("disasm", help="disassemble hex bytecode to CSV")
    disasm.add_argument("bytecode", help="hex string, 0x prefix optional")
    disasm.set_defaults(func=_cmd_disasm)

    dataset = sub.add_parser("dataset", help="print Fig. 2 monthly counts")
    _add_knob_flags(dataset, _SOURCE_FLAGS)
    dataset.set_defaults(func=_cmd_dataset)

    attack = sub.add_parser(
        "attack", help="benign-mimicry evasion sweep against Random Forest"
    )
    _add_knob_flags(attack, _SOURCE_FLAGS)
    attack.add_argument(
        "--strengths", default="0,0.5,1,2",
        help="comma-separated padding strengths (x contract length)",
    )
    attack.set_defaults(func=_cmd_attack)

    calibrate = sub.add_parser(
        "calibrate", help="probability calibration report for one model"
    )
    calibrate.add_argument("--model", default="Random Forest")
    _add_knob_flags(calibrate, _SOURCE_FLAGS)
    calibrate.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EVMError, ArtifactError, NoCodeError, JsonRpcError) as error:
        # Bad user input (undecodable hex, unknown store ref, damaged
        # artifact, an address with no code or one the node rejects) is
        # one line on stderr, not a traceback.
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
