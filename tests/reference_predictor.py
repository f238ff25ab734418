"""Slow reference for probe training.

The functions below are the loss, gradient and training loop as they stood
before training ran on stacked (N, k) arrays: ``cand_loss`` and the
candidate-restricted part of ``total_loss_grad`` loop over examples, and
``train`` restacks every mini-batch from example objects.  The property
tests check that :mod:`flashspec.predictor` returns identical losses,
gradients, trained weights and loss curves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from flashspec.errors import ContractError, TrainingDiverged
from flashspec.predictor import (
    EarlyExitPredictor,
    TrainConfig,
    TrainingExample,
)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _stack(batch: Sequence[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
    H = np.stack([ex.hidden for ex in batch])
    Z = np.stack([ex.logits for ex in batch])
    return H, Z


def kd_loss(pred: EarlyExitPredictor, batch: Sequence[TrainingExample], tau: float) -> float:
    """Temperature-scaled full-vocabulary distillation loss (summed over the
    batch), computed with log-sum-exp stabilization."""
    if not batch:
        raise ContractError("batch must be non-empty")
    H, Z = _stack(batch)
    S = H @ pred.weights.T
    log_p = _log_softmax(Z / tau)
    log_q = _log_softmax(S / tau)
    p = np.exp(log_p)
    kl = (p * (log_p - log_q)).sum(axis=1)
    return float(tau * tau * kl.sum())


def cand_loss(pred: EarlyExitPredictor, batch: Sequence[TrainingExample], tau: float) -> float:
    """Distillation loss restricted to each example's candidate set."""
    if not batch:
        raise ContractError("batch must be non-empty")
    total = 0.0
    for ex in batch:
        idx = np.asarray(ex.candidates)
        s = (pred.weights[idx] @ ex.hidden) / tau
        z = ex.logits[idx] / tau
        log_q = _log_softmax(s)
        log_p = _log_softmax(z)
        p = np.exp(log_p)
        total += float((p * (log_p - log_q)).sum())
    return tau * tau * total


def total_loss(
    pred: EarlyExitPredictor, batch: Sequence[TrainingExample], cfg: TrainConfig
) -> float:
    loss = kd_loss(pred, batch, cfg.tau_kd)
    if cfg.lambda_cand > 0:
        loss += cfg.lambda_cand * cand_loss(pred, batch, cfg.tau_cand)
    return loss


def total_loss_grad(
    pred: EarlyExitPredictor, batch: Sequence[TrainingExample], cfg: TrainConfig
) -> np.ndarray:
    """Analytic gradient of the summed training loss with respect to the
    probe weights."""
    H, Z = _stack(batch)
    S = H @ pred.weights.T
    p = np.exp(_log_softmax(Z / cfg.tau_kd))
    q = np.exp(_log_softmax(S / cfg.tau_kd))
    grad = cfg.tau_kd * (q - p).T @ H

    if cfg.lambda_cand > 0:
        for i, ex in enumerate(batch):
            idx = np.asarray(ex.candidates)
            s = S[i, idx] / cfg.tau_cand
            z = Z[i, idx] / cfg.tau_cand
            q_e = np.exp(_log_softmax(s))
            q_t = np.exp(_log_softmax(z))
            grad[idx] += (
                cfg.lambda_cand * cfg.tau_cand * np.outer(q_e - q_t, H[i])
            )
    return grad


def train(
    pred: EarlyExitPredictor,
    dataset: Sequence[TrainingExample],
    cfg: TrainConfig,
) -> tuple[EarlyExitPredictor, list[float]]:
    """Mini-batch gradient descent on the probe weights only.

    Per-step updates use the batch-mean gradient; the returned curve holds
    the summed dataset loss before training and after every epoch.  Raises
    :class:`TrainingDiverged` on a non-finite loss.
    """
    if not dataset:
        raise ContractError("dataset must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    W = pred.weights.copy()
    current = EarlyExitPredictor(W, pred.layer)
    curve = [total_loss(current, dataset, cfg)]

    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
            grad = total_loss_grad(current, batch, cfg)
            W = W - cfg.learning_rate * grad / len(batch)
            if not np.all(np.isfinite(W)):
                raise TrainingDiverged(
                    f"non-finite weights during epoch {epoch + 1} "
                    f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
                )
            current = EarlyExitPredictor(W, pred.layer)
        loss = total_loss(current, dataset, cfg)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss after epoch {epoch + 1} "
                f"(lr={cfg.learning_rate}, batch={cfg.batch_size})"
            )
        curve.append(loss)
    return current, curve
