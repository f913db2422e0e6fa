"""SCSGuard: attention + GRU scam detector (Hu et al., §IV-B).

Pipeline exactly as the paper describes: hex n-gram ids → embedding layer →
multi-head self-attention capturing long-range dependencies → GRU modelling
sequential patterns → fully connected layer producing the logits. N-gram
inputs make the model independent of the α/β token-limit policies ("SCSGuard,
relying on n-grams, remains unaffected").
"""

from __future__ import annotations

import numpy as np

from repro.features.ngrams import PAD_ID, HexNgramEncoder
from repro.models.detector import PhishingDetector
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Embedding, Linear, Module
from repro.nn.recurrent import GRU
from repro.nn.tensor import Tensor, no_grad
from repro.nn.trainer import Trainer, TrainingConfig

__all__ = ["SCSGuardClassifier"]


class _SCSGuardNetwork(Module):
    def __init__(self, vocab_size, embed_dim, hidden_dim, n_heads, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.embed = Embedding(vocab_size, embed_dim, rng=rng)
        self.attention = MultiHeadAttention(embed_dim, n_heads, seed=seed)
        self.gru = GRU(embed_dim, hidden_dim, seed=seed + 1)
        self.head = Linear(hidden_dim, 2, rng=rng)

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        padding = ids == PAD_ID
        hidden = self.embed(ids)
        hidden = hidden + self.attention(hidden, key_padding_mask=padding)
        __, last = self.gru(hidden, mask=padding)
        return self.head(last)

    def loss(self, ids, labels) -> Tensor:
        return F.cross_entropy(self.forward(ids), labels)


class SCSGuardClassifier(PhishingDetector):
    """SCSGuard over 6-hex-char n-gram sequences."""

    category = "LM"
    name = "SCSGuard"

    def __init__(
        self,
        max_length: int = 128,
        vocab_size: int = 1024,
        embed_dim: int = 32,
        hidden_dim: int = 32,
        n_heads: int = 2,
        epochs: int = 8,
        batch_size: int = 32,
        lr: float = 1e-3,
        seed: int = 0,
    ):
        self.max_length = max_length
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.n_heads = n_heads
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed

    def fit(self, bytecodes, labels) -> "SCSGuardClassifier":
        self.encoder_ = HexNgramEncoder(
            max_length=self.max_length, vocab_size=self.vocab_size
        )
        ids = self.encoder_.fit_transform(bytecodes)
        self.network_ = _SCSGuardNetwork(
            self.encoder_.effective_vocab_size, self.embed_dim,
            self.hidden_dim, self.n_heads, self.seed,
        )
        self.trainer_ = Trainer(
            self.network_,
            TrainingConfig(
                epochs=self.epochs, batch_size=self.batch_size, lr=self.lr,
                seed=self.seed,
            ),
        ).fit(ids, np.asarray(labels))
        return self

    def predict_proba(self, bytecodes) -> np.ndarray:
        ids = self.encoder_.transform(bytecodes)
        with no_grad():
            logits = self.network_.forward(ids)
        return F.softmax(Tensor(logits.data)).data

    # ------------------------------------------------------------------ #
    # Persistence (see repro.artifacts)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        from repro.nn import serialize

        if getattr(self, "network_", None) is None:
            raise RuntimeError("SCSGuard is not fitted; call fit() first")
        return {
            "encoder": self.encoder_.state_dict(),
            "network": serialize.state_dict(self.network_),
        }

    def load_state(self, state: dict) -> "SCSGuardClassifier":
        from repro.nn import serialize

        self.encoder_ = HexNgramEncoder(
            max_length=self.max_length, vocab_size=self.vocab_size
        ).load_state(state["encoder"])
        self.network_ = _SCSGuardNetwork(
            self.encoder_.effective_vocab_size, self.embed_dim,
            self.hidden_dim, self.n_heads, self.seed,
        )
        serialize.load_state_dict(self.network_, state["network"])
        return self
