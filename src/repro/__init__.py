"""PhishingHook reproduction (DSN 2025).

Opcode-based phishing detection for Ethereum smart contracts, rebuilt from
scratch: EVM substrate, simulated data plane, synthetic labeled corpus,
classical ML + numpy autograd NN stacks, the 16 detection models, the
statistical post-hoc battery and every evaluation artifact of the paper.

Entry points:

* :class:`repro.core.pipeline.PhishingHook` — the end-to-end framework,
* :func:`repro.core.registry.create_model` — any Table II model by name,
* :func:`repro.datagen.corpus.build_corpus` — the synthetic data plane,
* :mod:`repro.artifacts` — versioned model persistence: save/load any
  fitted detector as a single verified ``.npz`` artifact, manage
  versions and tags in a content-addressed
  :class:`repro.artifacts.ModelStore`,
* :class:`repro.serve.ScanService` — fit-once batched scanning over the
  content-addressed :class:`repro.serve.FeatureCache`, artifact cold
  starts (``from_artifact``) and zero-downtime ``swap_model`` (see
  :mod:`repro.serve` for the design notes and cache knobs),
* :mod:`repro.stream` — event-driven streaming detection (event bus,
  micro-batching scanner, alert sinks, timeline replay) with artifact
  cold starts and live version ``rollout``; a scanner subscribed to
  ``EventBus.attach(chain)`` scores deployments as they land,
* ``phishinghook`` (CLI) — demo / train / models / scan / monitor /
  disasm / dataset / attack / calibrate commands; ``scan``/``monitor``
  serve persisted artifacts via ``--model-tag``/``--model-path``.

See DESIGN.md for the architecture and EXPERIMENTS.md for results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
