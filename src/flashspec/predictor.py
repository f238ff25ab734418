"""Early-exit predictor: a linear probe on intermediate hidden states.

The probe scores candidate tokens from a parent's layer-L hidden state and
is trained offline against the frozen target model with two distillation
terms: a full-vocabulary KL and a candidate-set-restricted KL.  Training
touches only the probe weights.

Training stacks the dataset once into hidden states ``H (N, d)``, target
logits ``Z (N, V)`` and candidate tokens ``C (N, k)`` (every candidate set
has size k) and computes the teacher terms, the softmaxes of ``Z`` that do
not depend on the probe weights, once; each mini-batch is a row slice of
those arrays.  The losses and the gradient work on whole batches with the
rounding of a per-example evaluation, so results do not depend on batching.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, ContractError, TrainingDiverged
from .models import LayeredTargetModel, ProbModel, _padded_tail


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
    def zeros(cls, vocab_size: int, hidden_dim: int, layer: int) -> "EarlyExitPredictor":
        return cls(np.zeros((vocab_size, hidden_dim)), layer)

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


@dataclass(frozen=True)
class TrainingExample:
    hidden: np.ndarray                   # layer-L hidden state, shape (d,)
    logits: np.ndarray                   # final target logits, shape (V,)
    candidates: tuple[int, ...]          # drafted candidate tokens, size k


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _stacked(
    batch: Sequence[TrainingExample],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hidden states ``H (N, d)``, target logits ``Z (N, V)`` and candidate
    tokens ``C (N, k)``; every candidate set must have the same size k."""
    if not batch:
        raise ContractError("batch must be non-empty")
    if len({len(ex.candidates) for ex in batch}) != 1:
        raise ContractError("candidate sets must all have the same size")
    H = np.stack([ex.hidden for ex in batch])
    Z = np.stack([ex.logits for ex in batch])
    C = np.array([ex.candidates for ex in batch], dtype=np.intp)
    return H, Z, C


# The array core below works on stacked rows.  Its arithmetic follows the
# per-example formulation operation for operation, so losses, gradients and
# trained weights do not depend on how examples are grouped.  The teacher
# terms (softmaxes of the target logits) do not depend on the weights; they
# are computed once per dataset as a _Teacher and sliced per mini-batch.


def _soft(z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``log_softmax(z / tau)`` and its exp."""
    log_p = _log_softmax(z / tau)
    return log_p, np.exp(log_p)


class _Teacher(NamedTuple):
    """Weight-independent terms of the training loss, one row per example."""

    log_p: np.ndarray                    # log_softmax(Z / tau_kd)
    p: np.ndarray
    log_pc: np.ndarray | None            # log_softmax(Z[C] / tau_cand); None if unused
    pc: np.ndarray | None

    @classmethod
    def of(cls, Z: np.ndarray, C: np.ndarray, cfg: TrainConfig) -> "_Teacher":
        cand = (None, None)
        if cfg.lambda_cand > 0:
            cand = _soft(np.take_along_axis(Z, C, 1), cfg.tau_cand)
        return cls(*_soft(Z, cfg.tau_kd), *cand)

    def rows(self, idx: np.ndarray) -> "_Teacher":
        return _Teacher(*(None if a is None else a[idx] for a in self))


def _kd_loss(S: np.ndarray, log_p: np.ndarray, p: np.ndarray, tau: float) -> float:
    log_q = _log_softmax(S / tau)
    kl = (p * (log_p - log_q)).sum(axis=1)
    return float(tau * tau * kl.sum())


def _cand_loss(
    W: np.ndarray,
    H: np.ndarray,
    C: np.ndarray,
    log_p: np.ndarray,
    p: np.ndarray,
    tau: float,
) -> float:
    # One matrix-vector product per example (batched), not a gather from
    # H @ W.T: the two round differently.
    s = (W[C] @ H[:, :, None])[:, :, 0] / tau
    log_q = _log_softmax(s)
    total = 0.0
    # Sequential float sum: numpy's pairwise sum would round differently.
    for kl in (p * (log_p - log_q)).sum(axis=1).tolist():
        total += kl
    return tau * tau * total


def _total_loss(
    W: np.ndarray, H: np.ndarray, C: np.ndarray, teacher: _Teacher, cfg: TrainConfig
) -> float:
    loss = _kd_loss(H @ W.T, teacher.log_p, teacher.p, cfg.tau_kd)
    if cfg.lambda_cand > 0:
        loss += cfg.lambda_cand * _cand_loss(
            W, H, C, teacher.log_pc, teacher.pc, cfg.tau_cand
        )
    return loss


def _total_loss_grad(
    W: np.ndarray, H: np.ndarray, C: np.ndarray, teacher: _Teacher, cfg: TrainConfig
) -> np.ndarray:
    S = H @ W.T
    q = np.exp(_log_softmax(S / cfg.tau_kd))
    grad = cfg.tau_kd * (q - teacher.p).T @ H

    if cfg.lambda_cand > 0:
        s = np.take_along_axis(S, C, 1) / cfg.tau_cand
        q_e = np.exp(_log_softmax(s))
        rows = (cfg.lambda_cand * cfg.tau_cand) * (
            (q_e - teacher.pc)[:, :, None] * H[:, None, :]
        )
        # One scatter over the flat gradient (a fresh matmul result, so
        # reshape(-1) is a view).  add.at applies its indices in order, so
        # every element receives its additions example by example, as the
        # per-example loop added them.
        d = H.shape[1]
        np.add.at(grad.reshape(-1), (C[:, :, None] * d + np.arange(d)).ravel(), rows.ravel())
    return grad


def train(
    pred: EarlyExitPredictor,
    dataset: Sequence[TrainingExample],
    cfg: TrainConfig,
) -> tuple[EarlyExitPredictor, list[float]]:
    """Mini-batch gradient descent on the probe weights only.

    The dataset is stacked once and its teacher terms are computed once;
    each mini-batch is a row slice of both.  Per-step updates use the
    batch-mean gradient; the returned curve holds the summed dataset loss
    before training and after every epoch.  Raises
    :class:`TrainingDiverged` on a non-finite loss.
    """
    if not dataset:
        raise ContractError("dataset must be non-empty")
    H, Z, C = _stacked(dataset)
    teacher = _Teacher.of(Z, C, cfg)
    rng = np.random.default_rng(cfg.seed)
    W = pred.weights.copy()
    curve = [_total_loss(W, H, C, teacher, cfg)]

    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            grad = _total_loss_grad(W, H[idx], C[idx], teacher.rows(idx), cfg)
            W = W - cfg.learning_rate * grad / len(idx)
            if not np.all(np.isfinite(W)):
                raise TrainingDiverged(
                    f"non-finite weights during epoch {epoch + 1} "
                    f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
                )
        loss = _total_loss(W, H, C, teacher, cfg)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss after epoch {epoch + 1} "
                f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
            )
        curve.append(loss)
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


def build_distillation_dataset(
    target: LayeredTargetModel,
    draft: ProbModel,
    layer: int,
    n_examples: int,
    k: int,
    seed: int,
    min_len: int = 1,
    max_len: int = 16,
) -> list[TrainingExample]:
    """Record (hidden state, final logits, drafted candidate set) triples
    over seeded random prefixes.

    Both models read a prefix only through its padded tail, so each distinct
    tail is evaluated once: one batched target forward pass, one batched
    draft read and one stacked top-k sort of its rows.  Examples that share
    a tail share one :class:`TrainingExample`."""
    if not (1 <= layer <= target.depth):
        raise ContractError(f"layer {layer} outside [1, {target.depth}]")
    if not (1 <= k <= draft.vocab_size):
        raise ContractError(f"k={k} outside [1, {draft.vocab_size}]")
    if n_examples < 1:
        raise ContractError("n_examples must be >= 1")
    if not (1 <= min_len <= max_len):
        raise ContractError(f"need 1 <= min_len <= max_len, got {min_len}, {max_len}")
    tails, of_example = _sampled_tails(
        seed,
        n_examples,
        target.vocab_size,
        max(target.order, draft.order),
        min_len,
        max_len,
    )
    passes = target.forward_tails(tails)
    P = draft.next_dists(tails)
    # Top-k by draft probability with ties toward the smaller id (stable sort
    # of -P), then in token order: restriction is a set, and a neutral order
    # keeps the zero-initialized predictor at chance-level agreement.
    C = np.sort(np.argsort(-P, axis=1, kind="stable")[:, :k], axis=1)
    per_tail = [
        TrainingExample(hidden=hidden[layer - 1], logits=z, candidates=tuple(cand))
        for (hidden, z, _), cand in zip(passes, C.tolist())
    ]
    return [per_tail[i] for i in of_example]


def save_checkpoint(pred: EarlyExitPredictor, path: str) -> None:
    payload = {
        "vocab_size": pred.vocab_size,
        "hidden_dim": pred.hidden_dim,
        "layer": pred.layer,
        "weights": pred.weights.reshape(-1).tolist(),  # row-major
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path: str) -> EarlyExitPredictor:
    with open(path) as fh:
        payload = json.load(fh)
    v, d = int(payload["vocab_size"]), int(payload["hidden_dim"])
    W = np.asarray(payload["weights"], dtype=float).reshape(v, d)
    return EarlyExitPredictor(W, int(payload["layer"]))


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
        """Layer-``layer`` hidden state of each prefix, one row per prefix."""
        out = np.empty((len(prefixes), self.model.hidden_dim))
        for i, prefix in enumerate(prefixes):
            out[i] = self.model.hidden_at(self.layer, prefix)
        return out


class ExactProbeSource:
    """Log-probability feature rows for models without intermediate layers.

    Paired with :meth:`EarlyExitPredictor.identity_probe`, edge scores equal
    log target probabilities, so score normalization reduces to renormalized
    target probabilities over each candidate set.  ``exit_fraction`` is a
    pricing surrogate only.
    """

    def __init__(self, target: ProbModel, exit_fraction: float = 0.5) -> None:
        if not (0.0 < exit_fraction <= 1.0):
            raise ConfigError("exit_fraction must lie in (0, 1]")
        self.target = target
        self.exit_fraction = exit_fraction

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """Log target probabilities after each prefix, one row per prefix."""
        out = np.empty((len(prefixes), self.target.vocab_size))
        for i, prefix in enumerate(prefixes):
            dist = self.target.next_dist(prefix)
            out[i] = np.log(np.maximum(dist, 1e-300))
        return out
