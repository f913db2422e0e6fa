"""Simulated Ethereum data plane.

PhishingHook's data-gathering phase talks to three external services:
Google BigQuery (raw contract lists), etherscan.io (labels) and a JSON-RPC
endpoint (``eth_getCode``). This subpackage provides offline, deterministic
stand-ins exposing the same surfaces (substitutions S1/S2 in DESIGN.md):

* :mod:`repro.chain.blockchain` — a minimal ledger holding contract
  accounts, creation transactions, blocks and timestamps,
* :mod:`repro.chain.bigquery` — the public-dataset query service,
* :mod:`repro.chain.explorer` — the label service (``Phish/Hack`` flags),
* :mod:`repro.chain.rpc` — an in-process JSON-RPC server and client.
"""

from repro.chain.bigquery import BigQueryClient, ContractRow
from repro.chain.blockchain import (
    Account,
    Block,
    Blockchain,
    ChainError,
    DeployEvent,
    Transaction,
)
from repro.chain.explorer import Explorer, PHISH_HACK_LABEL
from repro.chain.rpc import (
    JsonRpcClient,
    JsonRpcError,
    JsonRpcServer,
    NoCodeError,
)
from repro.chain.timeline import (
    MONTHS,
    month_index,
    month_label,
    month_to_timestamp,
    timestamp_to_month,
)

__all__ = [
    "Account",
    "Block",
    "Blockchain",
    "ChainError",
    "DeployEvent",
    "Transaction",
    "BigQueryClient",
    "ContractRow",
    "Explorer",
    "PHISH_HACK_LABEL",
    "JsonRpcClient",
    "JsonRpcError",
    "JsonRpcServer",
    "NoCodeError",
    "MONTHS",
    "month_index",
    "month_label",
    "month_to_timestamp",
    "timestamp_to_month",
]
