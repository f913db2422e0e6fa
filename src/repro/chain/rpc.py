"""In-process JSON-RPC endpoint (the ``eth_getCode`` surface).

The BEM extracts bytecode "via a JSON-RPC API" (Fig. 1-➌). To exercise the
identical code path offline, :class:`JsonRpcServer` implements the JSON-RPC
2.0 envelope over a simulated chain, and :class:`JsonRpcClient` provides
the typed convenience wrappers the BEM calls. Requests and responses are
real JSON strings, so (de)serialization bugs are caught the same way they
would be against a live node.

Supported methods: ``eth_getCode``, ``eth_blockNumber``, ``eth_chainId``,
``eth_getTransactionByHash``, ``web3_clientVersion``, plus the
subscription plane the streaming pipeline consumes: ``eth_subscribe`` /
``eth_unsubscribe`` (kinds ``newHeads`` and ``newContracts``) and
``eth_getFilterChanges`` to drain a subscription's buffered events. The
transport is pull-based (no socket to push on), so subscriptions follow
the filter protocol: subscribe once, poll for changes; each buffer is
bounded and drops its oldest events under backpressure (the drop count is
reported alongside every drain).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any

from repro.chain.blockchain import Blockchain, ChainError, DeployEvent

__all__ = ["JsonRpcServer", "JsonRpcClient", "JsonRpcError", "NoCodeError"]

_PARSE_ERROR = -32700
_INVALID_REQUEST = -32600
_METHOD_NOT_FOUND = -32601
_INVALID_PARAMS = -32602
_SERVER_ERROR = -32000
_FILTER_NOT_FOUND = -32001

#: Subscription kinds accepted by ``eth_subscribe``.
SUBSCRIPTION_KINDS = ("newHeads", "newContracts")


class _RpcMethodError(Exception):
    """Internal: a handler failing with an explicit JSON-RPC error code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Subscription:
    """One filter: a bounded buffer of pending events plus a drop count."""

    def __init__(self, kind: str, max_pending: int):
        self.kind = kind
        self.pending: deque = deque(maxlen=max_pending)
        self.dropped = 0

    def push(self, payload: dict) -> None:
        if len(self.pending) == self.pending.maxlen:
            self.dropped += 1
        self.pending.append(payload)

    def drain(self) -> list[dict]:
        events = list(self.pending)
        self.pending.clear()
        return events


class JsonRpcError(Exception):
    """Raised by the client when the server answers with an error object."""

    def __init__(self, code: int, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class NoCodeError(ValueError):
    """An address holds no deployed code, so there is nothing to scan."""

    def __init__(self, address: str):
        super().__init__(f"no deployed code at {address}")
        self.address = address


class JsonRpcServer:
    """Serve JSON-RPC 2.0 requests against a simulated chain."""

    CLIENT_VERSION = "PhishingHookSim/1.0.0"

    def __init__(
        self,
        chain: Blockchain,
        chain_id: int = 1,
        max_pending_per_filter: int = 4096,
        max_filters: int = 1024,
    ):
        if max_pending_per_filter < 1:
            raise ValueError("max_pending_per_filter must be positive")
        if max_filters < 1:
            raise ValueError("max_filters must be positive")
        self._chain = chain
        self._chain_id = chain_id
        self._max_pending = max_pending_per_filter
        self._max_filters = max_filters
        self._subscriptions: dict[str, _Subscription] = {}
        self._next_subscription = 0
        self._listening = False

    def handle(self, request_text: str) -> str:
        """Process one JSON-RPC request string, return the response string."""
        try:
            request = json.loads(request_text)
        except json.JSONDecodeError:
            return self._error(None, _PARSE_ERROR, "parse error")
        if not isinstance(request, dict) or request.get("jsonrpc") != "2.0":
            return self._error(None, _INVALID_REQUEST, "invalid request")
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params", [])
        if not isinstance(method, str):
            return self._error(request_id, _INVALID_REQUEST, "missing method")
        handler = self._dispatch_table().get(method)
        if handler is None:
            return self._error(
                request_id, _METHOD_NOT_FOUND, f"method {method!r} not found"
            )
        try:
            result = handler(params)
        except _RpcMethodError as exc:
            return self._error(request_id, exc.code, exc.message)
        except (ChainError, ValueError, IndexError, TypeError) as exc:
            return self._error(request_id, _INVALID_PARAMS, str(exc))
        except Exception as exc:  # noqa: BLE001 - report as server error
            return self._error(request_id, _SERVER_ERROR, str(exc))
        return json.dumps({"jsonrpc": "2.0", "id": request_id, "result": result})

    # ------------------------------------------------------------------ #

    def _dispatch_table(self):
        return {
            "eth_getCode": self._eth_get_code,
            "eth_blockNumber": self._eth_block_number,
            "eth_chainId": self._eth_chain_id,
            "eth_getTransactionByHash": self._eth_get_transaction,
            "web3_clientVersion": self._client_version,
            "eth_subscribe": self._eth_subscribe,
            "eth_unsubscribe": self._eth_unsubscribe,
            "eth_getFilterChanges": self._eth_get_filter_changes,
        }

    # Subscription plane ------------------------------------------------- #

    def _on_deploy(self, event: DeployEvent) -> None:
        for subscription in self._subscriptions.values():
            if subscription.kind == "newHeads":
                if event.block_is_new:
                    subscription.push(
                        {
                            "number": hex(event.block.number),
                            "timestamp": hex(event.block.timestamp),
                        }
                    )
            else:  # newContracts
                subscription.push(
                    {
                        "address": event.account.address,
                        "code": event.account.code_hex,
                        "blockNumber": hex(event.transaction.block_number),
                        "timestamp": hex(event.transaction.timestamp),
                        "transactionHash": event.transaction.tx_hash,
                        "sequence": event.sequence,
                    }
                )

    def _eth_subscribe(self, params: list[Any]) -> str:
        if not params or not isinstance(params[0], str):
            raise ValueError("eth_subscribe requires [kind]")
        kind = params[0]
        if kind not in SUBSCRIPTION_KINDS:
            raise ValueError(
                f"unknown subscription kind {kind!r}; "
                f"supported: {', '.join(SUBSCRIPTION_KINDS)}"
            )
        if len(self._subscriptions) >= self._max_filters:
            # Real nodes expire idle filters; offline we stay deterministic
            # and instead refuse new ones once abandoned filters pile up.
            raise _RpcMethodError(
                _SERVER_ERROR,
                f"too many filters (max {self._max_filters}); "
                "unsubscribe unused ones",
            )
        if not self._listening:
            self._chain.add_listener(self._on_deploy)
            self._listening = True
        self._next_subscription += 1
        subscription_id = hex(self._next_subscription)
        self._subscriptions[subscription_id] = _Subscription(
            kind, self._max_pending
        )
        return subscription_id

    def _eth_unsubscribe(self, params: list[Any]) -> bool:
        if not params:
            raise ValueError("eth_unsubscribe requires [subscription_id]")
        removed = self._subscriptions.pop(params[0], None) is not None
        if not self._subscriptions and self._listening:
            self._chain.remove_listener(self._on_deploy)
            self._listening = False
        return removed

    def _eth_get_filter_changes(self, params: list[Any]) -> dict[str, Any]:
        if not params:
            raise ValueError("eth_getFilterChanges requires [subscription_id]")
        subscription = self._subscriptions.get(params[0])
        if subscription is None:
            raise _RpcMethodError(
                _FILTER_NOT_FOUND, f"filter {params[0]!r} not found"
            )
        dropped = subscription.dropped
        subscription.dropped = 0
        return {"events": subscription.drain(), "dropped": dropped}

    def _eth_get_code(self, params: list[Any]) -> str:
        if not params:
            raise ValueError("eth_getCode requires [address, block]")
        address = params[0]
        code = self._chain.get_code(address)
        return "0x" + code.hex()

    def _eth_block_number(self, params: list[Any]) -> str:
        return hex(self._chain.head_block)

    def _eth_chain_id(self, params: list[Any]) -> str:
        return hex(self._chain_id)

    def _eth_get_transaction(self, params: list[Any]) -> dict[str, Any] | None:
        if not params:
            raise ValueError("eth_getTransactionByHash requires [hash]")
        try:
            transaction = self._chain.get_transaction(params[0])
        except ChainError:
            return None
        return {
            "hash": transaction.tx_hash,
            "from": transaction.sender,
            "to": None,
            "creates": transaction.contract_address,
            "blockNumber": hex(transaction.block_number),
        }

    def _client_version(self, params: list[Any]) -> str:
        return self.CLIENT_VERSION

    @staticmethod
    def _error(request_id: Any, code: int, message: str) -> str:
        return json.dumps(
            {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": {"code": code, "message": message},
            }
        )


class JsonRpcClient:
    """Typed wrappers over a :class:`JsonRpcServer` (or compatible handler).

    ``transport`` is any callable mapping a request string to a response
    string, so tests can interpose fault injection.
    """

    def __init__(self, server: JsonRpcServer | None = None, transport=None):
        if (server is None) == (transport is None):
            raise ValueError("provide exactly one of server / transport")
        self._transport = transport or server.handle
        self._next_id = 0

    def call(self, method: str, params: list[Any] | None = None) -> Any:
        """Issue one JSON-RPC call, returning the decoded ``result``."""
        self._next_id += 1
        request = json.dumps(
            {
                "jsonrpc": "2.0",
                "id": self._next_id,
                "method": method,
                "params": params or [],
            }
        )
        response = json.loads(self._transport(request))
        if "error" in response:
            error = response["error"]
            raise JsonRpcError(error.get("code", 0), error.get("message", ""))
        return response.get("result")

    # Convenience wrappers ------------------------------------------------ #

    def get_code(self, address: str, block: str = "latest") -> bytes:
        result = self.call("eth_getCode", [address, block])
        return bytes.fromhex(result[2:])

    def block_number(self) -> int:
        return int(self.call("eth_blockNumber"), 16)

    def chain_id(self) -> int:
        return int(self.call("eth_chainId"), 16)

    def client_version(self) -> str:
        return self.call("web3_clientVersion")

    def get_transaction(self, tx_hash: str) -> dict[str, Any] | None:
        return self.call("eth_getTransactionByHash", [tx_hash])

    def subscribe(self, kind: str) -> str:
        """Open a ``newHeads`` / ``newContracts`` filter; returns its id."""
        return self.call("eth_subscribe", [kind])

    def unsubscribe(self, subscription_id: str) -> bool:
        return self.call("eth_unsubscribe", [subscription_id])

    def filter_changes(self, subscription_id: str) -> tuple[list, int]:
        """Drain a filter: ``(events, dropped_since_last_drain)``."""
        result = self.call("eth_getFilterChanges", [subscription_id])
        return result["events"], result["dropped"]
