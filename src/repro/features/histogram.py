"""Opcode histograms — the HSC feature pipeline (§IV-B).

"For each contract bytecode, a histogram of the occurrences of opcodes is
created. It builds a vector of length equal to the number of unique opcodes
inside the training set. The vector is directly served as input (i.e.,
without normalized nor standardized steps)."

The extractor works on the disassembler's compact mnemonic-ID arrays. A
batch's rows come from one ``np.bincount`` over the concatenated IDs, each
offset by its row times the mnemonic count, so the whole matrix is one
numpy call instead of one per contract; the fitted column index is built
once, by ``fit`` or ``load_state``, not on every ``transform``.
:meth:`OpcodeHistogramExtractor.set_decoder` swaps the decode for a
content-addressed cache's (see :mod:`repro.serve.cache`), so a shadow
candidate reuses the decode of the primary it shadows.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.evm.disassembler import (
    MNEMONIC_COUNT,
    MNEMONIC_IDS,
    MNEMONIC_TABLE,
    decode_mnemonic_ids,
)

__all__ = ["OpcodeHistogramExtractor"]

#: Rows counted per offset ``np.bincount``: bounds its index array (one
#: ``intp`` per instruction) when a large training corpus is counted.
_BLOCK_ROWS = 256


class OpcodeHistogramExtractor:
    """Count opcode mnemonics against a training-set vocabulary.

    Opcodes never seen during :meth:`fit` are ignored at transform time
    (their column does not exist), mirroring the paper's construction.
    """

    def __init__(self):
        self.vocabulary_: dict[str, int] | None = None
        self._columns: np.ndarray | None = None
        self._decoder: Callable[[bytes], np.ndarray] | None = None

    def set_decoder(
        self, decoder: Callable[[bytes], np.ndarray] | None
    ) -> Callable[[bytes], np.ndarray] | None:
        """Install (or, with ``None``, clear) a ``bytecode -> uint8
        mnemonic-ID array`` decoder, e.g. a cache's; returns the one it
        replaces."""
        previous, self._decoder = self._decoder, decoder
        return previous

    def _decode(self, bytecode: bytes) -> np.ndarray:
        if self._decoder is not None:
            return self._decoder(bytecode)
        return decode_mnemonic_ids(bytecode)

    @property
    def is_fitted(self) -> bool:
        return self.vocabulary_ is not None

    @property
    def feature_names(self) -> list[str]:
        """Vocabulary mnemonics in column order."""
        self._check_fitted()
        ordered = sorted(self.vocabulary_, key=self.vocabulary_.get)
        return ordered

    def _set_vocabulary(self, present_ids: np.ndarray) -> None:
        # Global ids are assigned over the sorted mnemonic table, so
        # ascending-id order *is* the sorted-mnemonic column order the
        # original dict-based construction produced.
        self.vocabulary_ = {
            MNEMONIC_TABLE[gid]: column
            for column, gid in enumerate(present_ids)
        }
        self._columns = np.asarray(present_ids, dtype=np.intp)

    def _counts(self, bytecodes: list[bytes]) -> np.ndarray:
        """Per-contract mnemonic counts, shape ``(n, MNEMONIC_COUNT)``.

        Bytecodes are decoded once each, in order. Each block of rows is
        one ``np.bincount`` over its concatenated IDs, the IDs of row
        ``r`` shifted by ``r * MNEMONIC_COUNT``.
        """
        ids = [self._decode(bytecode) for bytecode in bytecodes]
        counts = np.empty((len(ids), MNEMONIC_COUNT), dtype=np.int64)
        for start in range(0, len(ids), _BLOCK_ROWS):
            block = ids[start:start + _BLOCK_ROWS]
            rows = len(block)
            flat = np.concatenate(block).astype(np.intp)
            flat += np.repeat(
                np.arange(0, rows * MNEMONIC_COUNT, MNEMONIC_COUNT),
                [len(row) for row in block],
            )
            counts[start:start + rows] = np.bincount(
                flat, minlength=rows * MNEMONIC_COUNT
            ).reshape(rows, MNEMONIC_COUNT)
        return counts

    def fit(self, bytecodes: list[bytes]) -> "OpcodeHistogramExtractor":
        """Learn the vocabulary: unique opcodes in the training set."""
        self._set_vocabulary(np.flatnonzero(self._counts(bytecodes).any(axis=0)))
        return self

    def transform(self, bytecodes: list[bytes]) -> np.ndarray:
        """Histogram matrix of shape ``(n_samples, vocabulary size)``."""
        self._check_fitted()
        # ``take`` keeps the rows C-ordered (a fancy column index would
        # return them F-ordered), and the BLAS-backed classifiers round
        # the two layouts differently.
        counts = self._counts(bytecodes).take(self._columns, axis=1)
        return counts.astype(np.float64)

    def fit_transform(self, bytecodes: list[bytes]) -> np.ndarray:
        """Learn the vocabulary and build the matrix in one decode pass.

        Each bytecode is decoded exactly once (the seed implementation
        disassembled everything twice: once in ``fit``, once in
        ``transform``).
        """
        counts = self._counts(bytecodes)
        self._set_vocabulary(np.flatnonzero(counts.any(axis=0)))
        # F-ordered, the layout the classifiers have always been fitted
        # on: switching to ``take`` would move LR and SVM artifacts.
        return counts[:, self._columns].astype(np.float64)

    def _check_fitted(self) -> None:
        if self.vocabulary_ is None:
            raise RuntimeError("extractor is not fitted; call fit() first")

    # ------------------------------------------------------------------ #
    # Persistence (see repro.artifacts)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Fitted vocabulary as an artifact-ready state tree."""
        self._check_fitted()
        return {"vocabulary": dict(self.vocabulary_)}

    def load_state(self, state: dict) -> "OpcodeHistogramExtractor":
        self.vocabulary_ = {
            str(name): int(column)
            for name, column in state["vocabulary"].items()
        }
        self._columns = np.array(
            [MNEMONIC_IDS[name] for name in self.feature_names], dtype=np.intp
        )
        return self
