"""Seeded inputs for the scan benchmark: a trained model and scan traffic.

Everything here derives from the workload seed, so one seed always gives
the same model artifact and the same sequence of requests. Nothing in
this module is timed.

Traffic mimics what a chain monitor sees: most deployments are EIP-1167
minimal-proxy clones of a few base contracts. A request is one scanner
micro-batch of :data:`BATCH` deployments. Every request holds the same
mix — the traffic corpus's share of base contracts, rounded — drawn in
a shuffled order, so no seed or request is dominated by whatever
campaign filled one month of the timeline. Base contracts carry a
Solidity-style CBOR metadata trailer,
as compiled contracts do; a *fresh* deployment of the same source differs
from earlier ones only in that trailer (and a fresh clone only in the
address it delegates to), which is how the workloads make bytecodes the
program has never seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.datagen.corpus import CorpusConfig, build_corpus
from repro.datagen.mutation import minimal_proxy
from repro.deploy.config import StreamConfig

#: Unique contracts per class in the training corpus.
TRAIN_PER_CLASS = 150
#: Unique contracts per class in the traffic corpus (clones come on top).
TRAFFIC_PER_CLASS = 300
#: Contracts per scan request: the shipped ``[stream] batch_size``, the
#: micro-batch a scanner hands its service (or fleet) in one call.
BATCH = StreamConfig.batch_size

_TRAILER_HEAD = b"\xa2\x64ipfs\x58\x22"
_TRAILER_TAIL = b"\x64solc\x43\x00\x08\x13\x00\x33"
_TRAILER_LEN = len(_TRAILER_HEAD) + 34 + len(_TRAILER_TAIL)


def trailer(rng: np.random.Generator) -> bytes:
    """A solc-shaped metadata trailer with a random 34-byte IPFS hash."""
    return _TRAILER_HEAD + rng.bytes(34) + _TRAILER_TAIL


@dataclass(frozen=True)
class Contract:
    """One deployment of the traffic corpus."""

    code: bytes
    label: int
    is_proxy: bool


@dataclass
class Inputs:
    """The model training set and the shuffled traffic pools."""

    seed: int
    train_codes: list[bytes]
    train_labels: list[int]
    bases: list[Contract]
    clones: list[Contract]

    def novel(self, contract: Contract, rng: np.random.Generator) -> bytes:
        """A fresh deployment of ``contract``: same program, new bytes."""
        if contract.is_proxy:
            return minimal_proxy(int.from_bytes(rng.bytes(20), "big") | 1)
        return contract.code[:-_TRAILER_LEN] + trailer(rng)


def _deployments(corpus, rng: np.random.Generator) -> list[Contract]:
    """The corpus's deployments; each base gets one trailer, shared by
    every redeployment of the same bytecode."""
    trailers: dict[bytes, bytes] = {}
    contracts = []
    for record in corpus.records:
        if record.kind == "proxy":
            contracts.append(Contract(record.bytecode, record.label, True))
            continue
        if record.bytecode not in trailers:
            trailers[record.bytecode] = record.bytecode + trailer(rng)
        contracts.append(Contract(trailers[record.bytecode], record.label, False))
    return contracts


def build_inputs(seed: int) -> Inputs:
    """Training set and traffic for one workload seed."""
    rng = np.random.default_rng([seed, 0])
    train = build_corpus(CorpusConfig(
        n_phishing=TRAIN_PER_CLASS, n_benign=TRAIN_PER_CLASS,
        seed=2 * seed, validate=False,
    ))
    seen: set[bytes] = set()
    train_codes, train_labels = [], []
    for contract in _deployments(train, rng):
        if contract.code in seen:
            continue
        seen.add(contract.code)
        train_codes.append(contract.code)
        train_labels.append(contract.label)
    traffic = build_corpus(CorpusConfig(
        n_phishing=TRAFFIC_PER_CLASS, n_benign=TRAFFIC_PER_CLASS,
        seed=2 * seed + 1, validate=False,
    ))
    deployments = _deployments(traffic, rng)
    shuffled = [deployments[i] for i in rng.permutation(len(deployments))]
    return Inputs(
        seed, train_codes, train_labels,
        bases=[c for c in shuffled if not c.is_proxy],
        clones=[c for c in shuffled if c.is_proxy],
    )


class Requests:
    """Endless scan requests of :data:`BATCH` contracts, cycling the pools.

    ``mode`` picks how much of the traffic the program has seen before:
    ``"repeat"`` replays the pool, ``"novel"`` makes every contract a
    fresh deployment, and ``"mixed"`` makes base contracts fresh while
    clones repeat. Every contract gets a new address.
    """

    def __init__(self, inputs: Inputs, mode: str):
        self.inputs = inputs
        self.mode = mode
        self._rng = np.random.default_rng([inputs.seed, 1])
        self._prefix = f"{inputs.seed & 0xFFFFFFFF:08x}"
        self._cursors = {False: 0, True: 0}
        self._issued = 0
        bases, clones = len(inputs.bases), len(inputs.clones)
        #: Base contracts per request; the rest are clones.
        self.bases = min(max(round(BATCH * bases / (bases + clones)), 1),
                         BATCH - 1)

    def pass_length(self) -> int:
        """Requests that show every contract of both pools at least once."""
        return max(math.ceil(len(self.inputs.bases) / self.bases),
                   math.ceil(len(self.inputs.clones) / (BATCH - self.bases)))

    def next(self) -> tuple[list[str], list[bytes], list[int | None]]:
        """``(addresses, codes, labels)`` of the next request."""
        addresses, codes, labels = [], [], []
        for slot in range(BATCH):
            is_clone = slot * self.bases % BATCH >= self.bases
            pool = self.inputs.clones if is_clone else self.inputs.bases
            contract = pool[self._cursors[is_clone]]
            self._cursors[is_clone] = (self._cursors[is_clone] + 1) % len(pool)
            fresh = self.mode == "novel" or (
                self.mode == "mixed" and not is_clone
            )
            codes.append(
                self.inputs.novel(contract, self._rng) if fresh else contract.code
            )
            # Every clone is the same 45-byte program whatever it
            # delegates to, so opcodes cannot tell phishing clones from
            # benign ones: clones carry no label to check against.
            labels.append(None if is_clone else contract.label)
            addresses.append(f"0x{self._prefix}{self._issued:032x}")
            self._issued += 1
        return addresses, codes, labels


def train_artifact(inputs: Inputs, path) -> None:
    """Fit the paper's HSC Random Forest and persist it as an artifact."""
    from repro.artifacts import save_artifact
    from repro.models.hsc import HSCDetector

    model = HSCDetector(variant="Random Forest", seed=inputs.seed)
    model.fit(inputs.train_codes, inputs.train_labels)
    save_artifact(model, path, model_name="Random Forest")
