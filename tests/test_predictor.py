import math

import numpy as np
import pytest

from flashspec.errors import ContractError, TrainingDiverged
from flashspec.models import LayeredTargetModel, derive_draft
from flashspec.predictor import (
    EarlyExitPredictor,
    TrainConfig,
    TrainingExample,
    build_distillation_dataset,
    cand_loss,
    default_exit_layer,
    kd_loss,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    total_loss_grad,
    train,
)
from flashspec.pruning import normalize_scores
from flashspec.tree import ROOT_ID, TokenTree
from helpers import candidate_top1_agreement


def example(h, z, cands):
    return TrainingExample(np.asarray(h, float), np.asarray(z, float), tuple(cands))


def root_scores(pred, h, tokens, tau=1.0):
    """Normalized scores of ``tokens`` drafted under the root, whose hidden
    row is ``h``."""
    tree = TokenTree()
    for t in tokens:
        tree.insert(ROOT_ID, t, 0.5)
    scores = normalize_scores(pred, np.atleast_2d(h), tree, [ROOT_ID], tau)
    return [scores[(ROOT_ID, t)] for t in tokens]


class TestScore:
    """The probe's edge scores, as the prune step reads them."""

    def test_dot_product(self):
        pred = EarlyExitPredictor(np.array([[1.0, 0.0], [0.0, 2.0]]), layer=1)
        # raw scores 0.5 and 4.0
        got = root_scores(pred, np.array([0.5, 2.0]), [0, 1])
        assert got[0] == pytest.approx(math.exp(0.5) / (math.exp(0.5) + math.exp(4.0)))
        assert got[1] == pytest.approx(math.exp(4.0) / (math.exp(0.5) + math.exp(4.0)))

    def test_zero_matrix_scores_zero(self):
        pred = EarlyExitPredictor.zeros(4, 3, layer=1)
        h = np.array([1.0, -2.0, 3.0])
        assert root_scores(pred, h, range(4)) == [0.25] * 4

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((6, 5))
        h = rng.standard_normal(5)
        pred = EarlyExitPredictor(W, layer=2)
        naive = [sum(W[t, j] * h[j] for j in range(5)) / 0.5 for t in range(6)]
        e = [math.exp(x - max(naive)) for x in naive]
        for got, want in zip(root_scores(pred, h, range(6), tau=0.5), e):
            assert abs(got - want / sum(e)) < 1e-12

    def test_dimension_mismatch(self):
        pred = EarlyExitPredictor.zeros(4, 3, layer=1)
        with pytest.raises(ContractError, match="hidden state shape"):
            root_scores(pred, np.zeros(2), [0])

    def test_token_outside_vocabulary(self):
        pred = EarlyExitPredictor.zeros(4, 3, layer=1)
        with pytest.raises(ContractError, match="outside vocabulary"):
            root_scores(pred, np.zeros(3), [1, 4])


class TestKDLoss:
    def test_zero_when_student_equals_teacher(self):
        # probe output Wh equals the target logits for every example
        W = np.eye(3)
        pred = EarlyExitPredictor(W, layer=1)
        batch = [example([1.0, 0.0, -1.0], [1.0, 0.0, -1.0], (0, 1))]
        assert kd_loss(pred, batch, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_token_closed_form(self):
        # teacher z=[1,0], student Wh=[0,0], tau=1
        pred = EarlyExitPredictor(np.zeros((2, 1)), layer=1)
        batch = [example([1.0], [1.0, 0.0], (0, 1))]
        p = np.array([math.e / (math.e + 1), 1 / (math.e + 1)])
        expect = float((p * np.log(p / 0.5)).sum())
        assert kd_loss(pred, batch, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_temperature_scaling_matches_reevaluation(self):
        rng = np.random.default_rng(1)
        pred = EarlyExitPredictor(rng.standard_normal((5, 3)), layer=1)
        batch = [
            example(rng.standard_normal(3), rng.standard_normal(5), (0, 1, 2))
            for _ in range(4)
        ]
        for tau in (0.5, 1.0, 3.0):
            got = kd_loss(pred, batch, tau)
            # independent re-evaluation of tau^2 * sum KL(tempered || tempered)
            total = 0.0
            for ex in batch:
                p = np.exp(ex.logits / tau)
                p /= p.sum()
                s = pred.weights @ ex.hidden
                q = np.exp(s / tau)
                q /= q.sum()
                total += float((p * np.log(p / q)).sum())
            assert got == pytest.approx(tau * tau * total, rel=1e-9)


class TestCandLoss:
    def test_zero_on_restricted_agreement(self):
        # values agree on the candidate set, differ elsewhere
        W = np.diag([1.0, 1.0, 5.0])
        pred = EarlyExitPredictor(W, layer=1)
        batch = [example([1.0, 2.0, 3.0], [1.0, 2.0, 99.0], (0, 1))]
        assert cand_loss(pred, batch, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_candidate_closed_form(self):
        pred = EarlyExitPredictor(np.zeros((3, 1)), layer=1)
        batch = [example([1.0], [2.0, 0.0, -1.0], (0, 1))]
        # restricted teacher softmax over {0,1} of [2,0]; student uniform
        p0 = math.exp(2.0) / (math.exp(2.0) + 1.0)
        p = np.array([p0, 1 - p0])
        expect = float((p * np.log(p / 0.5)).sum())
        assert cand_loss(pred, batch, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_full_vocab_agreement_implies_zero(self):
        rng = np.random.default_rng(2)
        W = rng.standard_normal((4, 4))
        h = rng.standard_normal(4)
        pred = EarlyExitPredictor(W, layer=1)
        batch = [example(h, W @ h, (1, 2, 3))]
        assert cand_loss(pred, batch, 2.0) == pytest.approx(0.0, abs=1e-12)


class TestGradient:
    def _random_batch(self, rng, n, v, d, k):
        return [
            example(
                rng.standard_normal(d),
                rng.standard_normal(v),
                tuple(sorted(rng.choice(v, size=k, replace=False).tolist())),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        v, d = 6, 4
        W = rng.standard_normal((v, d)) * 0.3
        pred = EarlyExitPredictor(W, layer=1)
        batch = self._random_batch(rng, 5, v, d, 3)
        cfg = TrainConfig(tau_kd=2.0, tau_cand=1.0, lambda_cand=0.5)
        grad = total_loss_grad(pred, batch, cfg)
        step = 1e-4
        for _ in range(10):
            i = int(rng.integers(0, v))
            j = int(rng.integers(0, d))
            w_plus = W.copy()
            w_plus[i, j] += step
            w_minus = W.copy()
            w_minus[i, j] -= step
            fd = (
                total_loss(EarlyExitPredictor(w_plus, 1), batch, cfg)
                - total_loss(EarlyExitPredictor(w_minus, 1), batch, cfg)
            ) / (2 * step)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            assert abs(grad[i, j] - fd) / denom < 1e-4

    def test_lambda_zero_reduces_to_kd_gradient(self):
        rng = np.random.default_rng(7)
        pred = EarlyExitPredictor(rng.standard_normal((5, 3)), layer=1)
        batch = self._random_batch(rng, 4, 5, 3, 2)
        kd_only = TrainConfig(lambda_cand=0.0)
        g = total_loss_grad(pred, batch, kd_only)
        assert np.all(np.isfinite(g))
        assert total_loss(pred, batch, kd_only) == pytest.approx(
            kd_loss(pred, batch, kd_only.tau_kd)
        )


class TestDistillationDataset:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(k=0), "k=0"),
            (dict(k=9), "k=9"),
            (dict(n_examples=0), "n_examples"),
            (dict(min_len=0), "min_len"),
            (dict(min_len=4, max_len=3), "min_len"),
        ],
        ids=["k-zero", "k-above-vocab", "no-examples", "min-len-zero", "max-below-min"],
    )
    def test_argument_contract(self, overrides, message):
        target = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        draft = derive_draft(target, 0.5, noise_seed=2)
        args = dict(layer=2, n_examples=10, k=3, seed=0, min_len=1, max_len=5)
        assert len(build_distillation_dataset(target, draft, **args)) == 10
        with pytest.raises(ContractError, match=message):
            build_distillation_dataset(target, draft, **{**args, **overrides})


class TestTraining:
    def _setup(self, n=400, seed=5):
        target = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=seed)
        draft = derive_draft(target, 0.8, noise_seed=seed + 1)
        layer = default_exit_layer(target.depth)
        dataset = build_distillation_dataset(
            target, draft, layer, n, k=4, seed=seed
        )
        return target, layer, dataset

    def test_loss_decreases(self):
        _, layer, dataset = self._setup()
        pred = EarlyExitPredictor.zeros(32, 16, layer)
        cfg = TrainConfig(epochs=5, seed=1)
        trained, curve = train(pred, dataset, cfg)
        assert curve[-1] < curve[0]
        assert len(curve) == cfg.epochs + 1

    def test_zero_init_initial_loss_is_uniform_student(self):
        _, layer, dataset = self._setup(n=50)
        pred = EarlyExitPredictor.zeros(32, 16, layer)
        cfg = TrainConfig(lambda_cand=0.0, tau_kd=2.0)
        got = kd_loss(pred, dataset, cfg.tau_kd)
        # uniform student: KL(p || uniform) = log V - H(p)
        total = 0.0
        for ex in dataset:
            p = np.exp(ex.logits / cfg.tau_kd)
            p /= p.sum()
            total += math.log(32) + float((p * np.log(p)).sum())
        assert got == pytest.approx(cfg.tau_kd**2 * total, rel=1e-9)

    def test_agreement_improves_over_zero_init(self):
        _, layer, dataset = self._setup(n=600)
        pred = EarlyExitPredictor.zeros(32, 16, layer)
        before = candidate_top1_agreement(pred, dataset)
        trained, _ = train(pred, dataset, TrainConfig(epochs=10, seed=2))
        after = candidate_top1_agreement(trained, dataset)
        assert after > before

    def test_training_deterministic(self):
        _, layer, dataset = self._setup(n=100)
        pred = EarlyExitPredictor.zeros(32, 16, layer)
        cfg = TrainConfig(epochs=3, seed=9)
        a, curve_a = train(pred, dataset, cfg)
        b, curve_b = train(pred, dataset, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert curve_a == curve_b

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostic(self):
        _, layer, dataset = self._setup(n=50)
        pred = EarlyExitPredictor.zeros(32, 16, layer)
        with pytest.raises(TrainingDiverged, match="lr="):
            train(pred, dataset, TrainConfig(epochs=3, learning_rate=1e308, seed=0))

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        pred = EarlyExitPredictor(rng.standard_normal((8, 4)), layer=3)
        path = str(tmp_path / "pred.json")
        save_checkpoint(pred, path)
        again = load_checkpoint(path)
        assert np.array_equal(again.weights, pred.weights)
        assert again.layer == 3
