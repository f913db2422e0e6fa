"""Deployment-config static verification (``repro.deploy``).

Misconfiguration — not code — is the main outage risk once a serving
stack has this many knobs. This package makes the deployment
description *declarative* and *verifiable before launch*, following the
QoS-Guard approach of checking declarative profiles against
dependency-violation rules offline (PAPERS.md: *Dependency Chain
Analysis of ROS 2 DDS QoS Policies*; the ROSA analyser statically
analyses process specifications rather than executing them):

* :mod:`repro.deploy.config` — one TOML/JSON file describing the full
  stream + serve + rollout + store topology, parsed into typed
  dataclasses with per-knob domain validation
  (:func:`load_config` / :class:`DeployConfig`),
* :mod:`repro.deploy.rules` — the cross-knob rule catalog
  (:data:`RULES`, stable ``D###`` IDs, WARN/ERROR severities) and the
  pure :func:`check_config` analyser behind
  ``phishinghook check-config``,
* :mod:`repro.deploy.launch` — the only bridge from a verified config
  to live objects; :func:`ensure_launchable` refuses ERROR-severity
  topologies before anything starts.

Operator documentation — every knob and every rule, with rationale and
fix — lives in ``docs/configuration.md``.
"""

from repro.deploy.config import (
    ConfigError,
    ConfigProblem,
    DeployConfig,
    FleetConfig,
    LoopConfig,
    ModelConfig,
    RolloutConfig,
    ServeConfig,
    SinkConfig,
    SourceConfig,
    StoreConfig,
    StreamConfig,
    load_config,
    parse_config,
)
from repro.deploy.launch import (
    DeploymentBlockedError,
    build_fleet,
    build_loop,
    build_loop_campaigns,
    build_policy,
    build_replay_corpus,
    build_scanner,
    build_service,
    build_sinks,
    ensure_launchable,
    open_store,
)
from repro.deploy.rules import (
    ERROR,
    RULES,
    WARN,
    CheckReport,
    Rule,
    Violation,
    check_config,
    rule_catalog,
)

__all__ = [
    # config
    "ConfigError",
    "ConfigProblem",
    "DeployConfig",
    "StoreConfig",
    "ModelConfig",
    "ServeConfig",
    "StreamConfig",
    "SinkConfig",
    "SourceConfig",
    "RolloutConfig",
    "FleetConfig",
    "LoopConfig",
    "load_config",
    "parse_config",
    # rules
    "ERROR",
    "WARN",
    "Rule",
    "Violation",
    "RULES",
    "CheckReport",
    "check_config",
    "rule_catalog",
    # launch
    "DeploymentBlockedError",
    "ensure_launchable",
    "open_store",
    "build_sinks",
    "build_service",
    "build_scanner",
    "build_fleet",
    "build_policy",
    "build_loop",
    "build_loop_campaigns",
    "build_replay_corpus",
]
