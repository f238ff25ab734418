"""Early-exit predictor: a linear probe on intermediate hidden states.

The probe scores candidate tokens from a parent's layer-L hidden state and
is trained offline against the frozen target model with two distillation
terms: a full-vocabulary KL and a candidate-set-restricted KL.  Training
touches only the probe weights.

Training reads a :class:`DistillationSet`: one (hidden state, logits,
candidate set) row per distinct context tail and each example's row index.
:meth:`EarlyExitPredictor.fit` is a ridge least-squares fit of the
mean-centred target logits on the hidden states; it reads no candidate sets,
so the run path fits on :func:`distillation_rows`.  :func:`train` refines a
probe by mini-batch SGD on the set expanded to one row per example, and its
losses, gradients and weights keep the rounding of a per-example evaluation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ContractError, TrainingDiverged
from .models import LayeredTargetModel, ProbModel, _padded_tail, _stacked

# Ridge penalty of the closed-form fit, per training example: lambda is
# RIDGE_PER_EXAMPLE * N for a set of N examples.
RIDGE_PER_EXAMPLE = 1e-4
# SGD stops after the first epoch whose loss drop is at least 0 but below
# this fraction of the loss before it.  A rising loss never stops it.
CONVERGED_DROP = 0.01


@dataclass(frozen=True)
class EarlyExitPredictor:
    """Scoring matrix (one row per vocabulary token) attached at ``layer``."""

    weights: np.ndarray                  # shape (V, d)
    layer: int

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ConfigError("weights must be a (V, d) matrix")
        if not np.all(np.isfinite(self.weights)):
            raise ConfigError("weights must be finite")
        if self.layer < 1:
            raise ConfigError("layer must be >= 1")

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def fit(cls, data: "DistillationSet", layer: int) -> "EarlyExitPredictor":
        """Ridge least-squares fit of the mean-centred target logits on the
        hidden states, each distinct row weighted by its example count, with
        penalty ``RIDGE_PER_EXAMPLE * N`` on the weights.  Softmax ignores a
        per-row shift, so centring spends no weight on one."""
        _check_set(data)
        H, Z, _, example = data
        n, d = len(example), H.shape[1]
        root = np.sqrt(np.bincount(example, minlength=len(H)))[:, None]
        A = np.vstack([root * H, np.sqrt(RIDGE_PER_EXAMPLE * n) * np.eye(d)])
        Y = Z - Z.mean(axis=1, keepdims=True)
        B = np.vstack([root * Y, np.zeros((d, Z.shape[1]))])
        return cls(np.linalg.lstsq(A, B, rcond=None)[0].T, layer)

    @classmethod
    def identity_probe(cls, vocab_size: int) -> "EarlyExitPredictor":
        """Exact probe for models without intermediate layers: paired with
        log-probability 'hidden' vectors, scores equal log target
        probabilities."""
        return cls(np.eye(vocab_size), layer=1)


@dataclass(frozen=True)
class TrainConfig:
    tau_kd: float = 2.0
    tau_cand: float = 1.0
    lambda_cand: float = 0.5
    learning_rate: float = 0.05
    epochs: int = 20
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tau_kd <= 0 or self.tau_cand <= 0:
            raise ConfigError("temperatures must be positive")
        if self.lambda_cand < 0:
            raise ConfigError("lambda_cand must be >= 0")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("invalid optimization settings")
        if self.seed < 0:
            raise ConfigError("training seed must be >= 0")


class DistillationSet(NamedTuple):
    """(hidden state, final logits, drafted candidate set) rows, one per
    distinct context tail, and the row of each training example."""

    hidden: np.ndarray                   # layer-L hidden states, (U, d)
    logits: np.ndarray                   # final target logits, (U, V)
    candidates: np.ndarray               # drafted candidate tokens, (U, k)
    example: np.ndarray                  # each example's row, (N,)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


# The array core below works on stacked examples, one row each.  Its
# arithmetic follows the per-example formulation operation for operation, so
# losses, gradients and trained weights do not depend on how examples are
# stacked.


def _kl(s: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise ``KL(softmax(z / tau) || softmax(s))`` of the teacher logits
    ``z`` and the student scores ``s`` (already divided by ``tau``)."""
    log_p = _log_softmax(z / tau)
    return (np.exp(log_p) * (log_p - _log_softmax(s))).sum(axis=1)


def _total_loss(
    W: np.ndarray, H: np.ndarray, Z: np.ndarray, C: np.ndarray, cfg: TrainConfig
) -> float:
    """The training loss summed over the examples."""
    # The full-vocabulary term takes one product over every example, as the
    # per-example evaluation does: BLAS rounds a product's row differently
    # with the row count and position, so rows with equal values can differ.
    kd = _kl(H @ W.T / cfg.tau_kd, Z, cfg.tau_kd)
    loss = float(cfg.tau_kd * cfg.tau_kd * kd.sum())
    if cfg.lambda_cand > 0:
        # One matrix-vector product per example (batched), not a gather
        # from H @ W.T: the two round differently.
        s = (W[C] @ H[:, :, None])[:, :, 0] / cfg.tau_cand
        kl = _kl(s, np.take_along_axis(Z, C, 1), cfg.tau_cand)
        # Sequential float sum in example order (accumulate adds one value
        # at a time): numpy's pairwise sum would round differently.
        cand = float(np.add.accumulate(kl)[-1])
        loss += cfg.lambda_cand * (cfg.tau_cand * cfg.tau_cand * cand)
    return loss


def _total_loss_grad(
    W: np.ndarray, H: np.ndarray, Z: np.ndarray, C: np.ndarray, cfg: TrainConfig
) -> np.ndarray:
    """Analytic gradient of the loss summed over the examples."""
    S = H @ W.T
    p = np.exp(_log_softmax(Z / cfg.tau_kd))
    q = np.exp(_log_softmax(S / cfg.tau_kd))
    grad = cfg.tau_kd * (q - p).T @ H

    if cfg.lambda_cand > 0:
        # Candidate scores are gathered from S, as the per-example gradient
        # reads them.
        q_e = np.exp(_log_softmax(np.take_along_axis(S, C, 1) / cfg.tau_cand))
        q_t = np.exp(_log_softmax(np.take_along_axis(Z, C, 1) / cfg.tau_cand))
        scale = cfg.lambda_cand * cfg.tau_cand
        rows = scale * ((q_e - q_t)[:, :, None] * H[:, None, :])
        # One scatter over the flat gradient (grad is a fresh matmul result,
        # so reshape(-1) is a view).  add.at applies its indices in order,
        # so every element receives its additions example by example, as
        # the per-example loop added them.
        d = H.shape[1]
        np.add.at(grad.reshape(-1), (C[:, :, None] * d + np.arange(d)).ravel(), rows.ravel())
    return grad


def _check_set(data: DistillationSet) -> None:
    rows = len(data.hidden)
    if len(data.example) == 0:
        raise ContractError("dataset must be non-empty")
    if len(data.logits) != rows or len(data.candidates) != rows:
        raise ContractError("hidden, logits and candidates need one row per tail")
    if data.example.min() < 0 or data.example.max() >= rows:
        raise ContractError(f"example index outside the {rows} rows")


def train(
    pred: EarlyExitPredictor, data: DistillationSet, cfg: TrainConfig
) -> tuple[EarlyExitPredictor, list[float]]:
    """Mini-batch gradient descent on the probe weights only.

    The set is expanded to one row per example once; each step gathers its
    mini-batch's rows from them.  Per-step updates use the batch-mean
    gradient.  ``cfg.epochs`` is a cap: training stops after the first
    epoch whose loss drop is at least 0 but below ``CONVERGED_DROP`` of the
    loss before it.  The returned curve holds the summed loss over the
    examples before training and after every epoch run.  Raises
    :class:`TrainingDiverged` on a non-finite loss.
    """
    _check_set(data)
    if data.candidates.shape[1] == 0:
        raise ContractError("train needs candidate sets; these rows have none")
    H, Z, C = (a[data.example] for a in data[:3])
    n = len(H)
    rng = np.random.default_rng(cfg.seed)
    W = pred.weights.copy()
    curve = [_total_loss(W, H, Z, C, cfg)]

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            grad = _total_loss_grad(W, H[rows], Z[rows], C[rows], cfg)
            W = W - cfg.learning_rate * grad / len(rows)
            if not np.all(np.isfinite(W)):
                raise TrainingDiverged(
                    f"non-finite weights during epoch {epoch + 1} "
                    f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
                )
        loss = _total_loss(W, H, Z, C, cfg)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss after epoch {epoch + 1} "
                f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
            )
        curve.append(loss)
        if 0 <= curve[-2] - loss < CONVERGED_DROP * curve[-2]:
            break
    return EarlyExitPredictor(W, pred.layer), curve


def default_exit_layer(depth: int) -> int:
    """Middle layer, rounding up."""
    return (depth + 1) // 2


@lru_cache(maxsize=8)
def _sampled_tails(
    seed: int, n_examples: int, vocab: int, order: int, min_len: int, max_len: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The distinct padded tails of the seeded random prefixes, in order of
    first occurrence, and each example's index into them."""
    rng = np.random.default_rng(seed)
    index: dict[tuple[int, ...], int] = {}
    of_example = []
    for _ in range(n_examples):
        length = int(rng.integers(min_len, max_len + 1))
        prefix = rng.integers(0, vocab, size=length).tolist()
        of_example.append(index.setdefault(_padded_tail(prefix, order), len(index)))
    return tuple(index), tuple(of_example)


def distillation_rows(
    target: LayeredTargetModel, layer: int, n_examples: int, seed: int, order: int,
    min_len: int = 1, max_len: int = 16,
) -> tuple[DistillationSet, tuple[tuple[int, ...], ...]]:
    """The rows that :meth:`EarlyExitPredictor.fit` reads, with empty candidate
    columns, and their tails: one row per distinct tail of the seeded prefixes
    padded to ``order``, in order of first occurrence.  The hidden and logit
    rows are read from the target's pass table by slot, one index each, and
    are read-only."""
    if not (1 <= layer <= target.depth):
        raise ContractError(f"layer {layer} outside [1, {target.depth}]")
    if n_examples < 1:
        raise ContractError("n_examples must be >= 1")
    if not (1 <= min_len <= max_len):
        raise ContractError(f"need 1 <= min_len <= max_len, got {min_len}, {max_len}")
    tails, of_example = _sampled_tails(
        seed, n_examples, target.vocab_size, order, min_len, max_len
    )
    slots = target.slots(tails)
    return DistillationSet(
        target.hidden_rows(layer, slots),
        target.logit_rows(slots),
        np.zeros((len(tails), 0), dtype=np.intp),
        np.array(of_example, dtype=np.intp),
    ), tails


def build_distillation_dataset(
    target: LayeredTargetModel,
    draft: ProbModel,
    layer: int,
    n_examples: int,
    k: int,
    seed: int,
    min_len: int = 1,
    max_len: int = 16,
) -> DistillationSet:
    """:func:`distillation_rows` at tails padded for both models, with each
    row's drafted candidate set: the top ``k`` of the draft's read of the tail."""
    if not (1 <= k <= draft.vocab_size):
        raise ContractError(f"k={k} outside [1, {draft.vocab_size}]")
    rows, tails = distillation_rows(
        target, layer, n_examples, seed, max(target.order, draft.order), min_len, max_len
    )
    P = _stacked([draft.next_dist(tail) for tail in tails], draft.vocab_size)
    # Top-k by draft probability with ties toward the smaller id (stable sort
    # of -P), then in token order: restriction is a set, and a neutral order
    # keeps the zero-initialized predictor at chance-level agreement.
    top_k = np.argsort(-P, axis=1, kind="stable")[:, :k]
    return rows._replace(candidates=np.sort(top_k, axis=1))


def save_checkpoint(pred: EarlyExitPredictor, path: str) -> None:
    payload = {
        "vocab_size": pred.vocab_size,
        "hidden_dim": pred.hidden_dim,
        "layer": pred.layer,
        "weights": pred.weights.reshape(-1).tolist(),  # row-major
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def save_loss_curve(curve: Sequence[float], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(curve):
            fh.write(f"{i},{loss!r}\n")


class LayeredHiddenSource:
    """Hidden states from an intermediate layer of the target network."""

    def __init__(self, model: LayeredTargetModel, layer: int) -> None:
        if not (1 <= layer < model.depth):
            raise ConfigError("exit layer must be strictly before the final layer")
        self.model = model
        self.layer = layer

    @property
    def exit_fraction(self) -> float:
        return self.layer / self.model.depth

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Layer-``layer`` hidden state of each prefix, one read-only row
        per prefix, read from the model's pass table by slot with one index."""
        return self.model.hidden_rows(self.layer, self.model.slots(prefixes))


class ExactProbeSource:
    """Log-probability feature rows for models without intermediate layers.

    Paired with :meth:`EarlyExitPredictor.identity_probe`, edge scores equal
    log target probabilities, so score normalization reduces to renormalized
    target probabilities over each candidate set.  Those rows are the
    target's final distributions, read one prefix at a time through
    ``next_dist``, so scoring is priced at the full depth.
    """

    exit_fraction = 1.0

    def __init__(self, target: ProbModel) -> None:
        self.target = target

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Log target probabilities after each prefix, one row per prefix."""
        dists = [self.target.next_dist(p) for p in prefixes]
        return np.log(np.maximum(_stacked(dists, self.target.vocab_size), 1e-300))
