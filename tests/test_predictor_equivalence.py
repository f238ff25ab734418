"""Probe training on stacked arrays, and the distillation dataset built per
distinct context tail, against the per-example references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_predictor as ref
from flashspec.errors import TrainingDiverged
from flashspec.models import LayeredTargetModel, derive_draft
from flashspec.predictor import (
    EarlyExitPredictor,
    TrainConfig,
    TrainingExample,
    build_distillation_dataset,
    cand_loss,
    default_exit_layer,
    kd_loss,
    total_loss,
    total_loss_grad,
    train,
)


@st.composite
def problems(draw):
    """A probe, a dataset and a training config.  Candidate sets draw k
    tokens from a shared pool, so examples often share candidates; the
    dataset size is a whole number of batches plus a drawn remainder."""
    vocab = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(5, vocab)))
    pool = draw(
        st.lists(st.integers(0, vocab - 1), min_size=k, max_size=vocab, unique=True)
    )
    batch_size = draw(st.integers(1, 16))
    n = draw(st.integers(0, 3)) * batch_size + draw(st.integers(0, batch_size - 1))
    n = max(n, 1)
    cands = [tuple(draw(st.permutations(pool))[:k]) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    dataset = [
        TrainingExample(
            rng.standard_normal(dim) * scale, rng.standard_normal(vocab) * scale, c
        )
        for c in cands
    ]
    weights = np.zeros((vocab, dim))
    if draw(st.booleans()):
        weights = rng.standard_normal((vocab, dim)) * 0.3
    cfg = TrainConfig(
        tau_kd=draw(st.sampled_from([0.5, 1.0, 2.0, 3.7])),
        tau_cand=draw(st.sampled_from([0.3, 1.0, 2.5])),
        lambda_cand=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
        learning_rate=draw(st.sampled_from([0.01, 0.05, 0.3])),
        epochs=draw(st.integers(1, 3)),
        batch_size=batch_size,
        seed=draw(st.integers(0, 1000)),
    )
    return EarlyExitPredictor(weights, layer=1), dataset, cfg


@settings(max_examples=200)
@given(problems())
def test_array_core_matches_reference(problem):
    pred, dataset, cfg = problem
    assert kd_loss(pred, dataset, cfg.tau_kd) == ref.kd_loss(pred, dataset, cfg.tau_kd)
    assert cand_loss(pred, dataset, cfg.tau_cand) == ref.cand_loss(
        pred, dataset, cfg.tau_cand
    )
    assert total_loss(pred, dataset, cfg) == ref.total_loss(pred, dataset, cfg)
    assert np.array_equal(
        total_loss_grad(pred, dataset, cfg), ref.total_loss_grad(pred, dataset, cfg)
    )
    fast, fast_curve = train(pred, dataset, cfg)
    slow, slow_curve = ref.train(pred, dataset, cfg)
    assert np.array_equal(fast.weights, slow.weights)
    assert fast.layer == slow.layer
    assert fast_curve == slow_curve


def _outcome(train_fn, pred, dataset, cfg):
    try:
        trained, curve = train_fn(pred, dataset, cfg)
    except TrainingDiverged as exc:
        return type(exc), str(exc)
    return trained.weights.tolist(), curve


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "lr, message",
    [
        (1e308, "non-finite weights during epoch 1"),
        (1e306, "non-finite loss after epoch 1"),
    ],
)
@pytest.mark.parametrize("lambda_cand", [0.0, 0.5])
def test_divergence_matches_reference(lr, message, lambda_cand):
    rng = np.random.default_rng(4)
    dataset = [
        TrainingExample(
            rng.standard_normal(6) * 3,
            rng.standard_normal(10) * 3,
            tuple(rng.choice(10, size=3, replace=False).tolist()),
        )
        for _ in range(21)
    ]
    pred = EarlyExitPredictor.zeros(10, 6, layer=2)
    cfg = TrainConfig(
        learning_rate=lr, epochs=3, batch_size=8, seed=3, lambda_cand=lambda_cand
    )
    fast = _outcome(train, pred, dataset, cfg)
    assert fast == (TrainingDiverged, f"{message} (lr={lr}, batch=8)")
    assert fast == _outcome(ref.train, pred, dataset, cfg)


def test_layered_dataset_matches_reference():
    """Benchmark-sized rows (hidden 32, vocabulary 32, k 4) from a real
    distillation dataset, trained for two epochs."""
    target = LayeredTargetModel(32, 2, depth=6, hidden_dim=32, seed=3)
    draft = derive_draft(target, 0.45, noise_seed=104)
    layer = default_exit_layer(target.depth)
    dataset = build_distillation_dataset(target, draft, layer, 300, 4, seed=0)
    pred = EarlyExitPredictor.zeros(32, 32, layer)
    cfg = TrainConfig(epochs=2)
    fast, fast_curve = train(pred, dataset, cfg)
    slow, slow_curve = ref.train(pred, dataset, cfg)
    assert np.array_equal(fast.weights, slow.weights)
    assert fast_curve == slow_curve


@st.composite
def dataset_problems(draw):
    """Model arguments and builder arguments.  The draft's noise order may
    differ from the target's, and ``max_len`` may be shorter than either
    order, so padded tails are common."""
    vocab = draw(st.integers(2, 12))
    depth = draw(st.integers(2, 5))
    target_args = (
        vocab,
        draw(st.integers(1, 3)),
        depth,
        draw(st.one_of(st.integers(1, 8), st.sampled_from([32, 64]))),
        draw(st.integers(0, 10_000)),
    )
    draft_args = (
        draw(st.sampled_from([0.0, 0.45, 0.8, 1.0])),
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 3)),
    )
    min_len = draw(st.integers(1, 3))
    build_args = dict(
        layer=draw(st.integers(1, depth)),
        n_examples=draw(st.integers(1, 300)),
        k=draw(st.integers(1, min(5, vocab))),
        seed=draw(st.integers(0, 2**32 - 1)),
        min_len=min_len,
        max_len=draw(st.integers(min_len, 6)),
    )
    reads = draw(st.lists(st.lists(st.integers(0, vocab - 1), max_size=5), max_size=6))
    return target_args, draft_args, build_args, reads


def _models(target_args, draft_args):
    target = LayeredTargetModel(*target_args)
    agreement, noise_seed, noise_order = draft_args
    return target, derive_draft(target, agreement, noise_seed, noise_order=noise_order)


@settings(max_examples=200)
@given(dataset_problems())
def test_dataset_matches_reference(problem):
    target_args, draft_args, build_args, reads = problem
    target, draft = _models(target_args, draft_args)
    fast = build_distillation_dataset(target, draft, **build_args)
    slow = ref.build_distillation_dataset(*_models(target_args, draft_args), **build_args)
    assert len(fast) == len(slow) == build_args["n_examples"]
    for a, b in zip(fast, slow):
        assert a.hidden.tobytes() == b.hidden.tobytes()
        assert a.logits.tobytes() == b.logits.tobytes()
        assert a.candidates == b.candidates
        assert all(type(t) is int for t in a.candidates)
    # passes memoized by the batch read exactly as a fresh model computes them
    fresh = LayeredTargetModel(*target_args)
    for prefix in reads:
        assert target.next_dist(prefix).tobytes() == fresh.next_dist(prefix).tobytes()
        for layer in range(1, target.depth + 1):
            assert (
                target.hidden_at(layer, prefix).tobytes()
                == fresh.hidden_at(layer, prefix).tobytes()
            )
