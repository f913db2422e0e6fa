"""Hex n-gram sequences — SCSGuard's input pipeline (§IV-B).

"Each hexadecimal string within the bytecode is read as a bigram (sequences
of 6 characters). These bigrams are numerically encoded to create a
vocabulary (i.e., a list of integers), and the sequences are padded to
uniform lengths to enable processing by the model."

Tokens are therefore 6-hex-character windows (3 bytes). The vocabulary is
learned on the training set, capped to the most frequent entries; rare or
unseen tokens map to ``UNK`` and sequences are padded/truncated to
``max_length`` with ``PAD``.

Internally each token is a base-16 integer code over its nibbles, computed
vectorized from the raw bytes (no hex-string materialization); fitting and
transforming reduce to ``np.unique``/``np.searchsorted`` over those code
arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HexNgramEncoder"]

PAD_ID = 0
UNK_ID = 1
_RESERVED = 2

#: Widest token (in hex chars) whose codes fit an int64 (16**15 < 2**63).
_MAX_VECTOR_WIDTH = 15


class HexNgramEncoder:
    """Fixed-length integer sequences of 6-hex-char tokens.

    Args:
        max_length: Output sequence length (pad/truncate).
        vocab_size: Maximum vocabulary size including PAD/UNK.
        chars_per_token: Hex characters per token (paper: 6).
        stride: Hop between token starts, in hex characters; equal to
            ``chars_per_token`` for non-overlapping windows.
    """

    def __init__(
        self,
        max_length: int = 512,
        vocab_size: int = 4096,
        chars_per_token: int = 6,
        stride: int | None = None,
    ):
        if chars_per_token <= 0 or chars_per_token % 2:
            raise ValueError("chars_per_token must be a positive even number")
        if vocab_size <= _RESERVED:
            raise ValueError("vocab_size must exceed the 2 reserved ids")
        self.max_length = max_length
        self.vocab_size = vocab_size
        self.chars_per_token = chars_per_token
        self.stride = stride or chars_per_token
        self.vocabulary_: dict[str, int] | None = None

    @property
    def is_fitted(self) -> bool:
        return self.vocabulary_ is not None

    # ------------------------------------------------------------------ #
    # Tokenization
    # ------------------------------------------------------------------ #

    def tokens(self, bytecode: bytes) -> list[str]:
        """Split a bytecode's hex string into n-gram tokens."""
        text = bytecode.hex()
        width = self.chars_per_token
        return [
            text[i : i + width]
            for i in range(0, max(len(text) - width + 1, 0), self.stride)
        ]

    def token_codes(self, bytecode: bytes) -> np.ndarray:
        """Vectorized base-16 integer code per token (int64 array).

        ``int(token, 16)`` of every window of :meth:`tokens`, computed from
        the raw bytes without building hex strings.
        """
        width = self.chars_per_token
        if width > _MAX_VECTOR_WIDTH:
            return np.array(
                [int(t, 16) for t in self.tokens(bytecode)], dtype=np.int64
            )
        raw = np.frombuffer(bytecode, dtype=np.uint8)
        nibbles = np.empty(2 * raw.size, dtype=np.int64)
        nibbles[0::2] = raw >> 4
        nibbles[1::2] = raw & 0x0F
        if nibbles.size < width:
            return np.empty(0, dtype=np.int64)
        windows = np.lib.stride_tricks.sliding_window_view(nibbles, width)
        windows = windows[:: self.stride]
        powers = 16 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return windows @ powers

    def _code_to_token(self, code: int) -> str:
        return format(code, f"0{self.chars_per_token}x")

    # ------------------------------------------------------------------ #
    # Fit / transform
    # ------------------------------------------------------------------ #

    def fit(self, bytecodes: list[bytes]) -> "HexNgramEncoder":
        all_codes = [self.token_codes(code) for code in bytecodes]
        stream = (
            np.concatenate(all_codes) if all_codes
            else np.empty(0, dtype=np.int64)
        )
        if stream.size == 0:
            self.vocabulary_ = {}
            return self
        codes, first_seen, counts = np.unique(
            stream, return_index=True, return_counts=True
        )
        # Count-descending with ties broken by first occurrence in the
        # stream — exactly Counter.most_common over sequentially-updated
        # counts, which the dict-based implementation used.
        order = np.lexsort((first_seen, -counts))
        kept = codes[order][: self.vocab_size - _RESERVED]
        self.vocabulary_ = {
            self._code_to_token(int(code)): index + _RESERVED
            for index, code in enumerate(kept)
        }
        return self

    def _lookup_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted vocabulary codes, their ids) for searchsorted lookup."""
        items = sorted(
            (int(token, 16), token_id)
            for token, token_id in self.vocabulary_.items()
        )
        codes = np.array([code for code, __ in items], dtype=np.int64)
        ids = np.array([token_id for __, token_id in items], dtype=np.int64)
        return codes, ids

    def transform(self, bytecodes: list[bytes]) -> np.ndarray:
        """Integer id matrix of shape ``(n_samples, max_length)``."""
        if self.vocabulary_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        vocab_codes, vocab_ids = self._lookup_tables()
        matrix = np.full(
            (len(bytecodes), self.max_length), PAD_ID, dtype=np.int64
        )
        for row, bytecode in enumerate(bytecodes):
            codes = self.token_codes(bytecode)[: self.max_length]
            if codes.size == 0:
                continue
            position = np.searchsorted(vocab_codes, codes)
            position = np.minimum(position, max(vocab_codes.size - 1, 0))
            if vocab_codes.size:
                known = vocab_codes[position] == codes
                ids = np.where(known, vocab_ids[position], UNK_ID)
            else:
                ids = np.full(codes.size, UNK_ID, dtype=np.int64)
            matrix[row, : ids.size] = ids
        return matrix

    def fit_transform(self, bytecodes: list[bytes]) -> np.ndarray:
        return self.fit(bytecodes).transform(bytecodes)

    @property
    def effective_vocab_size(self) -> int:
        """Actual number of ids in use (reserved + learned)."""
        if self.vocabulary_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        return _RESERVED + len(self.vocabulary_)

    # ------------------------------------------------------------------ #
    # Persistence (see repro.artifacts)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Fitted token vocabulary as an artifact-ready state tree."""
        if self.vocabulary_ is None:
            raise RuntimeError("encoder is not fitted; call fit() first")
        return {"vocabulary": dict(self.vocabulary_)}

    def load_state(self, state: dict) -> "HexNgramEncoder":
        self.vocabulary_ = {
            str(token): int(token_id)
            for token, token_id in state["vocabulary"].items()
        }
        return self
