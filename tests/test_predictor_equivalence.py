"""Probe training, which expands a distillation set of distinct rows to one
row per example, and the set built per distinct context tail, against the
per-example references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_predictor as ref
from flashspec.errors import TrainingDiverged
from flashspec.models import LayeredTargetModel, derive_draft
from flashspec.predictor import (
    DistillationSet,
    EarlyExitPredictor,
    TrainConfig,
    build_distillation_dataset,
    default_exit_layer,
    train,
)
from helpers import (
    cand_loss,
    hidden_at,
    kd_loss,
    total_loss,
    total_loss_grad,
    training_examples,
    zero_probe,
)


@st.composite
def problems(draw):
    """A probe, a distillation set and a training config.  Candidate sets
    draw k tokens from a shared pool, so rows often share candidates; the
    example count is a whole number of batches plus a drawn remainder, so
    the final batch is often partial and ``batch_size`` often exceeds it.
    Half the sets draw every example's row index, so rows repeat, in any
    order (``build_distillation_dataset`` numbers rows by first occurrence)."""
    vocab = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(5, vocab)))
    pool = draw(
        st.lists(st.integers(0, vocab - 1), min_size=k, max_size=vocab, unique=True)
    )
    batch_size = draw(st.integers(1, 16))
    n = draw(st.integers(0, 3)) * batch_size + draw(st.integers(0, batch_size - 1))
    n = max(n, 1)
    example = list(range(n))
    if draw(st.booleans()):
        rows = draw(st.integers(1, n))
        example = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    rows = max(example) + 1
    cands = [tuple(draw(st.permutations(pool))[:k]) for _ in range(rows)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 5.0]))
    data = DistillationSet(
        rng.standard_normal((rows, dim)) * scale,
        rng.standard_normal((rows, vocab)) * scale,
        np.array(cands, dtype=np.intp),
        np.array(example, dtype=np.intp),
    )
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
    return EarlyExitPredictor(weights, layer=1), data, cfg


@settings(max_examples=200)
@given(problems())
def test_array_core_matches_reference(problem):
    pred, data, cfg = problem
    examples = training_examples(data)
    assert kd_loss(pred, data, cfg.tau_kd) == ref.kd_loss(pred, examples, cfg.tau_kd)
    assert cand_loss(pred, data, cfg.tau_cand) == ref.cand_loss(
        pred, examples, cfg.tau_cand
    )
    assert total_loss(pred, data, cfg) == ref.total_loss(pred, examples, cfg)
    assert np.array_equal(
        total_loss_grad(pred, data, cfg), ref.total_loss_grad(pred, examples, cfg)
    )
    fast, fast_curve = train(pred, data, cfg)
    slow, slow_curve = ref.train(pred, examples, cfg)
    assert fast.weights.tobytes() == slow.weights.tobytes()
    assert fast.layer == slow.layer
    assert fast_curve == slow_curve
    assert all(type(loss) is float for loss in fast_curve)


@settings(max_examples=200)
@given(problems())
def test_fit_matches_reference(problem):
    """The fit over distinct rows weighted by example count solves the
    ridge problem over every example; so does a set with one row per
    example.  Weights agree to 1e-9 of the largest weight."""
    _, data, _ = problem
    want = ref.fit(training_examples(data), layer=2).weights
    tol = dict(rtol=1e-9, atol=1e-9 * np.abs(want).max())
    got = EarlyExitPredictor.fit(data, layer=2)
    assert got.layer == 2
    assert np.allclose(got.weights, want, **tol)
    own_rows = DistillationSet(
        *(a[data.example] for a in data[:3]), np.arange(len(data.example))
    )
    assert np.allclose(EarlyExitPredictor.fit(own_rows, layer=2).weights, want, **tol)


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
    # 21 examples over 9 distinct rows: repeats, in no particular order
    data = DistillationSet(
        rng.standard_normal((9, 6)) * 3,
        rng.standard_normal((9, 10)) * 3,
        np.array([rng.choice(10, size=3, replace=False) for _ in range(9)]),
        rng.integers(0, 9, size=21),
    )
    pred = zero_probe(10, 6, layer=2)
    cfg = TrainConfig(
        learning_rate=lr, epochs=3, batch_size=8, seed=3, lambda_cand=lambda_cand
    )
    fast = _outcome(train, pred, data, cfg)
    assert fast == (TrainingDiverged, f"{message} (lr={lr}, batch=8)")
    assert fast == _outcome(ref.train, pred, training_examples(data), cfg)


def test_layered_dataset_matches_reference():
    """Benchmark-sized rows (hidden 32, vocabulary 32, k 4) from a real
    distillation dataset, trained for two epochs."""
    target = LayeredTargetModel(32, 2, depth=6, hidden_dim=32, seed=3)
    draft = derive_draft(target, 0.45, noise_seed=104)
    layer = default_exit_layer(target.depth)
    data = build_distillation_dataset(target, draft, layer, 300, 4, seed=0)
    assert len(data.hidden) < len(data.example)
    pred = zero_probe(32, 32, layer)
    cfg = TrainConfig(epochs=2)
    fast, fast_curve = train(pred, data, cfg)
    slow, slow_curve = ref.train(pred, training_examples(data), cfg)
    assert fast.weights.tobytes() == slow.weights.tobytes()
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
    data = build_distillation_dataset(target, draft, **build_args)
    slow = ref.build_distillation_dataset(*_models(target_args, draft_args), **build_args)
    # one row per distinct tail, numbered in order of first occurrence
    assert list(dict.fromkeys(data.example.tolist())) == list(range(len(data.hidden)))
    assert data.candidates.dtype == np.intp
    fast = training_examples(data)
    assert len(fast) == len(slow) == build_args["n_examples"]
    for a, b in zip(fast, slow):
        assert a.hidden.tobytes() == b.hidden.tobytes()
        assert a.logits.tobytes() == b.logits.tobytes()
        assert a.candidates == b.candidates
    # passes memoized by the batch read exactly as a fresh model computes them
    fresh = LayeredTargetModel(*target_args)
    for prefix in reads:
        assert target.next_dist(prefix).tobytes() == fresh.next_dist(prefix).tobytes()
        for layer in range(1, target.depth + 1):
            assert (
                hidden_at(target, layer, prefix).tobytes()
                == hidden_at(fresh, layer, prefix).tobytes()
            )
