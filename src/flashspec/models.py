"""Conditional next-token models: the abstract interface plus seeded
synthetic realizations used as draft/target pairs.

Every model is immutable after construction and reproducible bit-for-bit
given its seed.  Every model exposes ``order``: its output depends only on
the padded last-``order`` tokens of the prefix, so outputs are memoized per
padded tail: tabular rows, and for the layered target one full forward pass
(every layer's hidden state, the logits and the softmax).  The layered
target computes the passes of many missing tails as one batch; a memoized
value is exactly what a fresh evaluation returns, which keeps the models
usable as exact oracles.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError
from .tree import CandidateSet


class ProbModel(abc.ABC):
    """Conditional distribution over the next token given a prefix that
    matters only through its padded last-``order`` tokens."""

    vocab_size: int
    order: int

    @abc.abstractmethod
    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        """Probability vector over the vocabulary; non-negative, sums to 1."""


def _padded_tail(prefix: Sequence[int], order: int) -> tuple[int, ...]:
    """Last ``order`` tokens, left-padded with token 0 for short prefixes."""
    tail = tuple(int(t) for t in prefix[-order:])
    if len(tail) < order:
        tail = (0,) * (order - len(tail)) + tail
    return tail


class TabularMarkovModel(ProbModel):
    """Order-m conditional table over a vocabulary of size V.

    Rows of the V^m x V table are materialized lazily but depend only on
    (seed, row index), so evaluation order never affects results.  The
    ``concentration`` parameter shapes row peakedness (gamma-normalized
    draws; small values give near-deterministic rows).
    """

    def __init__(
        self,
        vocab_size: int,
        order: int,
        seed: int,
        concentration: float = 0.3,
    ) -> None:
        if vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if order < 1:
            raise ConfigError("order must be >= 1")
        if concentration <= 0:
            raise ConfigError("concentration must be > 0")
        self.vocab_size = int(vocab_size)
        self.order = int(order)
        self.seed = int(seed)
        self.concentration = float(concentration)
        self._rows: dict[int, np.ndarray] = {}

    def row_index(self, key: tuple[int, ...]) -> int:
        idx = 0
        for t in key:
            if not (0 <= t < self.vocab_size):
                raise ContractError(f"token {t} outside vocabulary")
            idx = idx * self.vocab_size + t
        return idx

    def row(self, key: tuple[int, ...]) -> np.ndarray:
        idx = self.row_index(key)
        cached = self._rows.get(idx)
        if cached is None:
            rng = np.random.default_rng([self.seed, idx])
            raw = rng.gamma(self.concentration, size=self.vocab_size)
            raw = np.maximum(raw, 1e-300)
            cached = raw / raw.sum()
            self._rows[idx] = cached
        return cached

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        return self.row(_padded_tail(prefix, self.order))


# (hidden state after each layer, logits, softmax) of one layered forward pass
_ForwardPass = tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]


class LayeredTargetModel(ProbModel):
    """Deterministic D-layer tanh network over an embedding of the last m
    tokens, exposing intermediate hidden states for early-exit probes.

    ``hidden_at(depth, prefix)`` followed by the output projection reproduces
    ``logits(prefix)`` exactly.  Weights use unit-variance init scaled by
    1/sqrt(d) so activations stay tame.
    """

    def __init__(
        self,
        vocab_size: int,
        order: int,
        depth: int,
        hidden_dim: int,
        seed: int,
        logit_scale: float = 4.0,
    ) -> None:
        if vocab_size < 1:
            raise ConfigError("vocab_size must be >= 1")
        if order < 1:
            raise ConfigError("order must be >= 1")
        if depth < 2:
            raise ConfigError("depth must be >= 2 (need a strictly-interior layer)")
        if hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        self.vocab_size = int(vocab_size)
        self.order = int(order)
        self.depth = int(depth)
        self.hidden_dim = int(hidden_dim)
        self.seed = int(seed)
        self.logit_scale = float(logit_scale)

        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden_dim)
        self.embedding = rng.standard_normal((vocab_size, hidden_dim))
        self.layer_weights = [
            rng.standard_normal((hidden_dim, hidden_dim)) * scale
            for _ in range(depth)
        ]
        self.layer_biases = [np.zeros(hidden_dim) for _ in range(depth)]
        self.output_proj = rng.standard_normal((vocab_size, hidden_dim)) * scale
        self._passes: dict[tuple[int, ...], _ForwardPass] = {}

    def forward_tails(self, prefixes: Sequence[Sequence[int]]) -> list[_ForwardPass]:
        """(hidden state of every layer, logits, softmax) for each prefix's
        padded tail.  Tails without a memoized pass are computed together in
        one batch, once each; the arrays are read-only."""
        tails = [_padded_tail(p, self.order) for p in prefixes]
        missing = list(dict.fromkeys(t for t in tails if t not in self._passes))
        if missing:
            self._compute(missing)
        return [self._passes[t] for t in tails]

    def _forward(self, prefix: Sequence[int]) -> _ForwardPass:
        tail = _padded_tail(prefix, self.order)
        cached = self._passes.get(tail)
        if cached is None:
            self._compute([tail])
            cached = self._passes[tail]
        return cached

    def _compute(self, tails: list[tuple[int, ...]]) -> None:
        """Memoize the forward pass of each tail, computed as one batch."""
        for tail in tails:
            for t in tail:
                if not (0 <= t < self.vocab_size):
                    raise ContractError(f"token {t} outside vocabulary")
        # One matrix-vector product per tail (batched), not H @ W.T: the two
        # round differently, and a batch must equal a batch of one.
        h = self.embedding[np.array(tails, dtype=np.intp)].mean(axis=1)
        hidden = []
        for W, b in zip(self.layer_weights, self.layer_biases):
            h = np.tanh((W @ h[:, :, None])[:, :, 0] + b)
            hidden.append(h)
        z = self.logit_scale * (self.output_proj @ h[:, :, None])[:, :, 0]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        dist = e / e.sum(axis=1, keepdims=True)
        for arr in (*hidden, z, dist):
            arr.flags.writeable = False
        for i, tail in enumerate(tails):
            self._passes[tail] = (tuple(layer[i] for layer in hidden), z[i], dist[i])

    def hidden_at(self, layer: int, prefix: Sequence[int]) -> np.ndarray:
        if not (1 <= layer <= self.depth):
            raise ContractError(f"layer {layer} outside [1, {self.depth}]")
        return self._forward(prefix)[0][layer - 1]

    def logits(self, prefix: Sequence[int]) -> np.ndarray:
        return self._forward(prefix)[1]

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        return self._forward(prefix)[2]


class MixtureDraftModel(ProbModel):
    """Draft derived from a target by mixing in seeded noise.

    ``agreement`` = 1 reproduces the target distribution exactly; lower
    values blend toward an independent noise model over the same vocabulary.
    """

    def __init__(self, target: ProbModel, noise: ProbModel, agreement: float) -> None:
        if not (0.0 <= agreement <= 1.0):
            raise ConfigError("agreement must lie in [0, 1]")
        if target.vocab_size != noise.vocab_size:
            raise ConfigError("target and noise vocabularies differ")
        self.target = target
        self.noise = noise
        self.agreement = float(agreement)
        self.vocab_size = target.vocab_size
        self.order = max(target.order, noise.order)

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        a = self.agreement
        if a >= 1.0:
            return self.target.next_dist(prefix)
        if a <= 0.0:
            return self.noise.next_dist(prefix)
        return a * self.target.next_dist(prefix) + (1.0 - a) * self.noise.next_dist(prefix)


def derive_draft(
    target: ProbModel,
    agreement: float,
    noise_seed: int,
    noise_order: int | None = None,
    noise_concentration: float = 0.3,
) -> MixtureDraftModel:
    """Build a draft of controlled quality for ``target``.

    Peaked noise (small concentration) makes disagreements confident ones,
    which is what separates chain drafting from tree drafting.
    """
    order = noise_order if noise_order is not None else target.order
    noise = TabularMarkovModel(
        target.vocab_size, order, noise_seed, concentration=noise_concentration
    )
    return MixtureDraftModel(target, noise, agreement)


def draft_candidates(
    model: ProbModel, prefix: Sequence[int], k: int, parent: int | None = None
) -> CandidateSet:
    """Top-k tokens by draft probability, descending; ties break toward the
    smaller token id.  ``parent`` is the tree node the set expands."""
    if model.vocab_size < 1:
        raise ConfigError("model has an empty vocabulary")
    if not (1 <= k <= model.vocab_size):
        raise ContractError(f"k={k} outside [1, {model.vocab_size}]")
    p = model.next_dist(prefix)
    # Stable sort of -p keeps equal-probability tokens in ascending-id order.
    order = np.argsort(-p, kind="stable")[:k]
    return CandidateSet(tuple((int(t), float(p[t])) for t in order), parent=parent)


def target_greedy_decode(
    model: ProbModel, prompt: Sequence[int], horizon: int
) -> list[int]:
    """Deterministic argmax continuation; the losslessness oracle.

    Argmax ties break toward the smaller token id (np.argmax convention),
    identically in every consumer of this module.
    """
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    out: list[int] = []
    prefix = list(prompt)
    for _ in range(horizon):
        t = int(np.argmax(model.next_dist(prefix)))
        out.append(t)
        prefix.append(t)
    return out
