"""Conditional next-token models: the abstract interface plus seeded
synthetic realizations used as draft/target pairs.

Every model is immutable after construction and reproducible bit-for-bit
given its seed.  Every model exposes ``order``: its output depends only on
the padded last-``order`` tokens of the prefix, so outputs are memoized per
padded tail: tabular rows, and for the layered target one full forward pass
(every layer's hidden state, the logits and the softmax).  ``next_dists``
reads many prefixes at once: the layered target computes the passes of its
missing tails as one batch, and the tabular model normalizes its missing
rows as one batch.  A memoized value is exactly what a fresh evaluation
returns, which keeps the models usable as exact oracles.

For the same reason :func:`draft_candidates` computes one immutable
:class:`~flashspec.tree.CandidateSet` per ``(padded tail, k)`` and stores it
with the model, so a tree that reaches a drafted tail again (in the same
cycle or a later one) reuses the set instead of re-reading and re-sorting
the distribution.
"""

from __future__ import annotations

import abc
from functools import cache
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

    @abc.abstractmethod
    def next_dists(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """``next_dist`` of each prefix, one row per prefix: shape (n, V),
        byte-equal to the stacked single reads."""


def _stacked(rows: list[np.ndarray], width: int) -> np.ndarray:
    """``rows`` as one (n, width) array; no rows give shape (0, width)."""
    return np.stack(rows) if rows else np.empty((0, width))


def _padded_tail(prefix: Sequence[int], order: int) -> tuple[int, ...]:
    """Last ``order`` tokens, left-padded with token 0 for short prefixes."""
    tail = tuple(map(int, prefix[-order:]))
    if len(tail) < order:
        tail = (0,) * (order - len(tail)) + tail
    return tail


@cache
def _seeding():
    """:mod:`flashspec.seeding`, imported on first use: it loads
    numpy.random, which importing flashspec otherwise does not."""
    from . import seeding

    return seeding


# Rows per block of tabular generator states.  A power of two, so no block
# crosses a 2**32 boundary of the row index (where its entropy widens).
ROW_BLOCK = 1024


class TabularMarkovModel(ProbModel):
    """Order-m conditional table over a vocabulary of size V.

    Rows of the V^m x V table are materialized lazily but depend only on
    (seed, row index): row ``idx`` is a gamma draw from the stream of
    ``default_rng([seed, idx])``, so evaluation order never affects results.
    The generator states come from a lazily built table, one per block of
    ``ROW_BLOCK`` consecutive row indices: the first read in a block derives
    the PCG64 state words of all its rows in one vectorized pass
    (:func:`flashspec.seeding.block_states`), and every row of the block
    then starts its generator from its own words.  ``row`` and
    ``next_dists`` share this path; ``next_dists`` normalizes all its
    missing rows as one batch, with the same bytes as single reads.
    The ``concentration`` parameter shapes row peakedness (gamma-normalized
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
        self._states: dict[int, np.ndarray] = {}   # block -> (ROW_BLOCK, 4) words

    def row_index(self, key: tuple[int, ...]) -> int:
        idx = 0
        for t in key:
            if not (0 <= t < self.vocab_size):
                raise ContractError(f"token {t} outside vocabulary")
            idx = idx * self.vocab_size + t
        return idx

    def _gamma(self, idx: int) -> np.ndarray:
        """Unnormalized gamma row ``idx``, drawn from the generator that
        ``default_rng([seed, idx])`` would build."""
        seeding = _seeding()
        block, offset = divmod(idx, ROW_BLOCK)
        states = self._states.get(block)
        if states is None:
            start = block * ROW_BLOCK
            count = min(ROW_BLOCK, self.vocab_size**self.order - start)
            states = self._states[block] = seeding.block_states(self.seed, start, count)
        return seeding.generator(states[offset]).gamma(self.concentration, size=self.vocab_size)

    def row(self, key: tuple[int, ...]) -> np.ndarray:
        idx = self.row_index(key)
        cached = self._rows.get(idx)
        if cached is None:
            cached = self._rows[idx] = self._gamma(idx)
            np.maximum(cached, 1e-300, out=cached)
            cached /= cached.sum()
        return cached

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        return self.row(_padded_tail(prefix, self.order))

    def next_dists(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        idxs = [self.row_index(_padded_tail(p, self.order)) for p in prefixes]
        missing = list(dict.fromkeys(i for i in idxs if i not in self._rows))
        if missing:
            raw = np.maximum([self._gamma(i) for i in missing], 1e-300)   # row's arithmetic
            raw /= raw.sum(axis=1, keepdims=True)
            self._rows.update(zip(missing, raw))
        return _stacked([self._rows[i] for i in idxs], self.vocab_size)


# (hidden state after each layer, logits, softmax) of one layered forward pass
_ForwardPass = tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]


class LayeredTargetModel(ProbModel):
    """Deterministic D-layer tanh network over an embedding of the last m
    tokens, exposing intermediate hidden states for early-exit probes.

    ``hidden_at(depth, prefix)`` followed by the output projection reproduces
    the forward pass's logits exactly.  Weights use unit-variance init scaled by
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

    def next_dists(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        return _stacked([dist for _, _, dist in self.forward_tails(prefixes)], self.vocab_size)

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

    def next_dists(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        a = self.agreement
        if a >= 1.0:
            return self.target.next_dists(prefixes)
        if a <= 0.0:
            return self.noise.next_dists(prefixes)
        target, noise = self.target.next_dists(prefixes), self.noise.next_dists(prefixes)
        return a * target + (1.0 - a) * noise


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


def draft_candidates(model: ProbModel, prefix: Sequence[int], k: int) -> CandidateSet:
    """Top-k tokens by draft probability, descending; ties break toward the
    smaller token id.

    The set depends only on ``k`` and the prefix's padded last-``order``
    tokens, so it is computed once per ``(tail, k)`` and memoized with the
    model; equal tails return the same object.
    """
    if model.vocab_size < 1:
        raise ConfigError("model has an empty vocabulary")
    if not (1 <= k <= model.vocab_size):
        raise ContractError(f"k={k} outside [1, {model.vocab_size}]")
    memo = getattr(model, "_candidate_sets", None)
    if memo is None:
        memo = model._candidate_sets = {}
    key = (_padded_tail(prefix, model.order), k)
    cand = memo.get(key)
    if cand is None:
        p = model.next_dist(key[0])   # the padded tail: all the model reads
        # Stable sort of -p keeps equal-probability tokens in ascending-id order.
        order = np.argsort(-p, kind="stable")[:k]
        cand = CandidateSet(tuple((int(t), float(p[t])) for t in order))
        memo[key] = cand
    return cand


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
