"""Conditional next-token models: the abstract interface plus seeded
synthetic realizations used as draft/target pairs.

Every model is immutable after construction and reproducible bit-for-bit
given its seed.  Every model exposes ``order``: its output depends only on
the padded last-``order`` tokens of the prefix, so outputs are memoized per
padded tail: tabular rows, and for the layered target one row of a pass
table (every layer's hidden state, the logits and the softmax of each
computed tail).  Every model is read one prefix at a time through
``next_dist``; the layered target's table is also read many rows at a time
by index (:meth:`LayeredTargetModel.slots`), which computes the passes of
the missing tails as one batch.  A single missing tail (every cold
``next_dist``) is computed on 1-D vectors with the same matrix-vector
product per layer, so it equals a batch row bitwise.  A memoized value is
exactly what a fresh evaluation returns, which keeps the models usable as
exact oracles.

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


def _stacked(rows: list[np.ndarray], width: int) -> np.ndarray:
    """``rows`` as one (n, width) array; no rows give shape (0, width)."""
    return np.stack(rows) if rows else np.empty((0, width))


def _padded_tail(prefix: Sequence[int], order: int) -> tuple[int, ...]:
    """Last ``order`` tokens, left-padded with token 0 for short prefixes.

    A tuple of exactly ``order`` tokens is a padded tail already (every
    tail this function returns is one) and comes back as it is, so a tail
    handed on to another model is not padded again.
    """
    if type(prefix) is tuple and len(prefix) == order:
        return prefix
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
    then starts its generator from its own words.
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
            raw = np.maximum(self._gamma(idx), 1e-300)
            cached = self._rows[idx] = raw / raw.sum()
        return cached

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        return self.row(_padded_tail(prefix, self.order))


class LayeredTargetModel(ProbModel):
    """Deterministic D-layer tanh network over an embedding of the last m
    tokens, exposing intermediate hidden states for early-exit probes.

    Layers have no bias.  Weights use unit-variance init scaled by
    1/sqrt(d) so activations stay tame.

    Forward passes are memoized in one table: each computed padded tail
    has a slot, a row of the arrays ``hidden`` (depth, slots, d),
    ``logits`` (slots, V) and ``dist`` (slots, V).  The arrays grow by
    reallocation and a slot is never rewritten, so a row handed out before
    a growth keeps its values.  Missing tails are computed as one stacked
    batch; a single missing tail is computed on 1-D vectors instead, one
    matrix-vector product per layer, the same product the batch makes per
    tail, so its row equals a batch row bitwise; its results are written
    straight into the tail's row.
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
        self.output_proj = rng.standard_normal((vocab_size, hidden_dim)) * scale
        self._slot: dict[tuple[int, ...], int] = {}
        self._grow(0)

    def _grow(self, slots: int) -> None:
        """Reallocate the table with room for twice ``slots`` rows, copying
        the filled rows.  The old arrays are never written again, so rows
        read from them stay valid."""
        used = len(self._slot)
        hidden = np.empty((self.depth, 2 * slots, self.hidden_dim))
        logits = np.empty((2 * slots, self.vocab_size))
        dist = np.empty((2 * slots, self.vocab_size))
        if used:
            hidden[:, :used] = self._hidden[:, :used]
            logits[:used] = self._logits[:used]
            dist[:used] = self._dist[:used]
        self._hidden, self._logits, self._dist = hidden, logits, dist

    def slots(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Table slot of each prefix's padded tail.  Tails without a slot
        are computed together in one batch, once each.  Read the arrays
        only after this call: it may reallocate them."""
        tails = [_padded_tail(p, self.order) for p in prefixes]
        slot = self._slot
        try:
            found = [slot[t] for t in tails]
        except KeyError:
            self._compute([t for t in dict.fromkeys(tails) if t not in slot])
            found = [slot[t] for t in tails]
        return np.array(found, dtype=np.intp)

    def hidden_rows(self, layer: int, slots: np.ndarray) -> np.ndarray:
        """Hidden state after ``layer`` (1 to ``depth``) at each slot, one
        read-only row per slot."""
        rows = self._hidden[layer - 1].take(slots, axis=0)
        rows.flags.writeable = False
        return rows

    def logit_rows(self, slots: np.ndarray) -> np.ndarray:
        """Final logits at each slot, one read-only row per slot."""
        rows = self._logits.take(slots, axis=0)
        rows.flags.writeable = False
        return rows

    def _compute(self, tails: list[tuple[int, ...]]) -> None:
        """Give each tail (distinct, none with a slot yet) the next slot and
        write its forward pass there, all computed as one batch; a batch of
        one is computed on 1-D vectors."""
        if len(tails) == 1:
            self._compute_one(tails[0])
            return
        try:
            idx = np.array(tails, dtype=np.intp)
            inside = bool(((idx >= 0) & (idx < self.vocab_size)).all())
        except OverflowError:   # a token beyond the index type
            inside = False
        if not inside:
            bad = next(t for tail in tails for t in tail if not 0 <= t < self.vocab_size)
            raise ContractError(f"token {bad} outside vocabulary")
        lo = len(self._slot)
        hi = lo + len(tails)
        if hi > len(self._dist):
            self._grow(hi)
        # One matrix-vector product per tail (batched), not H @ W.T: the two
        # round differently, and a batch must equal a batch of one, which
        # _compute_one makes with the same product on 1-D vectors.
        h = self.embedding[idx].mean(axis=1)
        for ell, W in enumerate(self.layer_weights):
            h = np.tanh((W @ h[:, :, None])[:, :, 0])
            self._hidden[ell, lo:hi] = h
        z = self.logit_scale * (self.output_proj @ h[:, :, None])[:, :, 0]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        self._logits[lo:hi] = z
        self._dist[lo:hi] = e / e.sum(axis=1, keepdims=True)
        self._slot.update(zip(tails, range(lo, hi)))

    def _compute_one(self, tail: tuple[int, ...]) -> None:
        """The batch pass of :meth:`_compute` for a single tail, without its
        per-call array overhead.  The embedding rows are summed in tail
        order and divided by ``order``, which is what ``mean`` does, and each
        layer is the same matrix-vector product the batch makes per tail, so
        the row equals a batch row bitwise."""
        for t in tail:
            if not 0 <= t < self.vocab_size:
                raise ContractError(f"token {t} outside vocabulary")
        slot = len(self._slot)
        if slot == len(self._dist):
            self._grow(slot + 1)
        emb = self.embedding
        h = emb[tail[0]]
        for t in tail[1:]:
            h = h + emb[t]
        h = h / self.order
        # Each result is written straight into its table row.  For these
        # C-contiguous weights np.dot reaches the gemv that ``W @ h`` does.
        hidden = self._hidden
        for ell, W in enumerate(self.layer_weights):
            h = np.tanh(np.dot(W, h), out=hidden[ell, slot])
        z = np.multiply(self.logit_scale, np.dot(self.output_proj, h), out=self._logits[slot])
        e = np.exp(z - z.max())
        np.divide(e, e.sum(), out=self._dist[slot])
        self._slot[tail] = slot

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        """The softmax row of the prefix's padded tail, read-only."""
        tail = _padded_tail(prefix, self.order)
        slot = self._slot.get(tail)
        if slot is None:
            self._compute([tail])
            slot = self._slot[tail]
        row = self._dist[slot]
        row.flags.writeable = False
        return row


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
        # Pad once; each component reads its own last ``order`` tokens of
        # the tail, which is already its padded tail.
        tail = _padded_tail(prefix, self.order)
        # rows are finite and non-negative: bitwise the target at a = 1, the noise at 0
        a = self.agreement
        target = self.target.next_dist(tail[-self.target.order:])
        return a * target + (1.0 - a) * self.noise.next_dist(tail[-self.noise.order:])


def derive_draft(
    target: ProbModel,
    agreement: float,
    noise_seed: int,
    noise_concentration: float = 0.3,
) -> MixtureDraftModel:
    """Build a draft of controlled quality for ``target``: a mixture with
    tabular noise of the target's order.

    Peaked noise (small concentration) makes disagreements confident ones,
    which is what separates chain drafting from tree drafting.
    """
    noise = TabularMarkovModel(
        target.vocab_size, target.order, noise_seed, concentration=noise_concentration
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
        cand = CandidateSet(tuple(zip(order.tolist(), p[order].tolist())))
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
