import math

import numpy as np
import pytest

from flashspec.errors import ContractError, TrainingDiverged
from flashspec.models import LayeredTargetModel, derive_draft
from flashspec.predictor import (
    CONVERGED_DROP,
    DistillationSet,
    EarlyExitPredictor,
    TrainConfig,
    build_distillation_dataset,
    default_exit_layer,
    distillation_rows,
    save_checkpoint,
    train,
)
from flashspec.pruning import normalize_scores
from flashspec.tree import ROOT_ID, TokenTree
from helpers import (
    TrainingExample,
    cand_loss,
    candidate_set,
    candidate_top1_agreement,
    distillation_set,
    kd_loss,
    load_checkpoint,
    total_loss,
    total_loss_grad,
    zero_probe,
)


def example(h, z, cands):
    return TrainingExample(np.asarray(h, float), np.asarray(z, float), tuple(cands))


def one_example(h, z, cands):
    return distillation_set([example(h, z, cands)])


def root_scores(pred, h, tokens):
    """Normalized scores of ``tokens`` drafted under the root, whose hidden
    row is ``h``."""
    tree = TokenTree()
    kids = [tree.insert(ROOT_ID, t, 0.5) for t in tokens]
    sets = {ROOT_ID: candidate_set(tokens)}
    scores = normalize_scores(pred, np.atleast_2d(h), tree, [ROOT_ID], sets)
    return [scores[cid] for cid in kids]


class TestScore:
    """The probe's edge scores, as the prune step reads them."""

    def test_dot_product(self):
        pred = EarlyExitPredictor(np.array([[1.0, 0.0], [0.0, 2.0]]), layer=1)
        # raw scores 0.5 and 4.0
        got = root_scores(pred, np.array([0.5, 2.0]), [0, 1])
        assert got[0] == pytest.approx(math.exp(0.5) / (math.exp(0.5) + math.exp(4.0)))
        assert got[1] == pytest.approx(math.exp(4.0) / (math.exp(0.5) + math.exp(4.0)))

    def test_zero_matrix_scores_zero(self):
        pred = zero_probe(4, 3, layer=1)
        h = np.array([1.0, -2.0, 3.0])
        assert root_scores(pred, h, range(4)) == [0.25] * 4

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        W = rng.standard_normal((6, 5))
        h = rng.standard_normal(5)
        pred = EarlyExitPredictor(W, layer=2)
        naive = [sum(W[t, j] * h[j] for j in range(5)) for t in range(6)]
        e = [math.exp(x - max(naive)) for x in naive]
        for got, want in zip(root_scores(pred, h, range(6)), e):
            assert abs(got - want / sum(e)) < 1e-12

    def test_dimension_mismatch(self):
        pred = zero_probe(4, 3, layer=1)
        with pytest.raises(ContractError, match="hidden state shape"):
            root_scores(pred, np.zeros(2), [0])

    def test_token_outside_vocabulary(self):
        pred = zero_probe(4, 3, layer=1)
        with pytest.raises(ContractError, match="outside vocabulary"):
            root_scores(pred, np.zeros(3), [1, 4])


class TestKDLoss:
    def test_zero_when_student_equals_teacher(self):
        # probe output Wh equals the target logits for every example
        W = np.eye(3)
        pred = EarlyExitPredictor(W, layer=1)
        batch = one_example([1.0, 0.0, -1.0], [1.0, 0.0, -1.0], (0, 1))
        assert kd_loss(pred, batch, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_token_closed_form(self):
        # teacher z=[1,0], student Wh=[0,0], tau=1
        pred = EarlyExitPredictor(np.zeros((2, 1)), layer=1)
        batch = one_example([1.0], [1.0, 0.0], (0, 1))
        p = np.array([math.e / (math.e + 1), 1 / (math.e + 1)])
        expect = float((p * np.log(p / 0.5)).sum())
        assert kd_loss(pred, batch, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_temperature_scaling_matches_reevaluation(self):
        rng = np.random.default_rng(1)
        pred = EarlyExitPredictor(rng.standard_normal((5, 3)), layer=1)
        examples = [
            example(rng.standard_normal(3), rng.standard_normal(5), (0, 1, 2))
            for _ in range(4)
        ]
        batch = distillation_set(examples)
        for tau in (0.5, 1.0, 3.0):
            got = kd_loss(pred, batch, tau)
            # independent re-evaluation of tau^2 * sum KL(tempered || tempered)
            total = 0.0
            for ex in examples:
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
        batch = one_example([1.0, 2.0, 3.0], [1.0, 2.0, 99.0], (0, 1))
        assert cand_loss(pred, batch, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_candidate_closed_form(self):
        pred = EarlyExitPredictor(np.zeros((3, 1)), layer=1)
        batch = one_example([1.0], [2.0, 0.0, -1.0], (0, 1))
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
        batch = one_example(h, W @ h, (1, 2, 3))
        assert cand_loss(pred, batch, 2.0) == pytest.approx(0.0, abs=1e-12)


class TestGradient:
    def _random_batch(self, rng, n, v, d, k):
        return distillation_set(
            [
                example(
                    rng.standard_normal(d),
                    rng.standard_normal(v),
                    tuple(sorted(rng.choice(v, size=k, replace=False).tolist())),
                )
                for _ in range(n)
            ]
        )

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
            (dict(layer=0), "layer 0"),
            (dict(layer=5), "layer 5"),
            (dict(n_examples=0), "n_examples"),
            (dict(min_len=0), "min_len"),
            (dict(min_len=4, max_len=3), "min_len"),
        ],
        ids=[
            "k-zero", "k-above-vocab", "layer-zero", "layer-past-depth", "no-examples",
            "min-len-zero", "max-below-min",
        ],
    )
    def test_argument_contract(self, overrides, message):
        target = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        draft = derive_draft(target, 0.5, noise_seed=2)
        args = dict(layer=2, n_examples=10, k=3, seed=0, min_len=1, max_len=5)
        assert len(build_distillation_dataset(target, draft, **args).example) == 10
        with pytest.raises(ContractError, match=message):
            build_distillation_dataset(target, draft, **{**args, **overrides})

    def test_the_set_is_the_rows_with_candidate_sets(self):
        """The full set's hidden states, logits and example rows are the
        fit's rows at the same padding; only the candidate columns differ."""
        target = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        draft = derive_draft(target, 0.5, noise_seed=2, noise_order=3)
        data = build_distillation_dataset(target, draft, 2, 50, k=3, seed=4)
        rows, tails = distillation_rows(target, 2, 50, seed=4, order=3)
        assert len(tails) == len(rows.hidden)
        assert rows.candidates.shape == (len(tails), 0)
        assert data.candidates.shape == (len(tails), 3)
        for name in ("hidden", "logits", "example"):
            assert np.array_equal(getattr(data, name), getattr(rows, name))


class TestTraining:
    def _setup(self, n=400, seed=5):
        target = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=seed)
        draft = derive_draft(target, 0.8, noise_seed=seed + 1)
        layer = default_exit_layer(target.depth)
        data = build_distillation_dataset(target, draft, layer, n, k=4, seed=seed)
        return target, layer, data

    def test_loss_decreases(self):
        _, layer, data = self._setup()
        pred = zero_probe(32, 16, layer)
        cfg = TrainConfig(epochs=5, seed=1)
        trained, curve = train(pred, data, cfg)
        assert curve[-1] < curve[0]
        assert len(curve) == cfg.epochs + 1

    def test_zero_init_initial_loss_is_uniform_student(self):
        _, layer, data = self._setup(n=50)
        pred = zero_probe(32, 16, layer)
        cfg = TrainConfig(lambda_cand=0.0, tau_kd=2.0)
        got = kd_loss(pred, data, cfg.tau_kd)
        # uniform student: KL(p || uniform) = log V - H(p)
        total = 0.0
        for z in data.logits[data.example]:
            p = np.exp(z / cfg.tau_kd)
            p /= p.sum()
            total += math.log(32) + float((p * np.log(p)).sum())
        assert got == pytest.approx(cfg.tau_kd**2 * total, rel=1e-9)

    def test_agreement_improves_over_zero_init(self):
        _, layer, data = self._setup(n=600)
        pred = zero_probe(32, 16, layer)
        before = candidate_top1_agreement(pred, data)
        trained, _ = train(pred, data, TrainConfig(epochs=10, seed=2))
        after = candidate_top1_agreement(trained, data)
        assert after > before

    def test_training_deterministic(self):
        _, layer, data = self._setup(n=100)
        pred = zero_probe(32, 16, layer)
        cfg = TrainConfig(epochs=3, seed=9)
        a, curve_a = train(pred, data, cfg)
        b, curve_b = train(pred, data, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert curve_a == curve_b

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_diagnostic(self):
        _, layer, data = self._setup(n=50)
        pred = zero_probe(32, 16, layer)
        with pytest.raises(TrainingDiverged, match="lr="):
            train(pred, data, TrainConfig(epochs=3, learning_rate=1e308, seed=0))

    @pytest.mark.parametrize(
        "rows, logits_rows, example, message",
        [
            (2, 2, [], "non-empty"),
            (3, 2, [0, 1], "one row per tail"),
            (2, 2, [0, 2], "outside the 2 rows"),
            (2, 2, [-1, 0], "outside the 2 rows"),
        ],
        ids=["empty", "rows-differ", "index-above", "index-negative"],
    )
    def test_set_contract(self, rows, logits_rows, example, message):
        data = DistillationSet(
            np.zeros((rows, 3)),
            np.zeros((logits_rows, 4)),
            np.zeros((rows, 2), dtype=np.intp),
            np.array(example, dtype=np.intp),
        )
        with pytest.raises(ContractError, match=message):
            train(zero_probe(4, 3, layer=1), data, TrainConfig(epochs=1))
        with pytest.raises(ContractError, match=message):
            EarlyExitPredictor.fit(data, layer=1)

    def test_rows_without_candidate_sets_fit_but_do_not_train(self):
        target = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        rows, _ = distillation_rows(target, 2, 20, seed=0, order=2)
        assert EarlyExitPredictor.fit(rows, layer=2).weights.shape == (8, 4)
        with pytest.raises(ContractError, match="candidate sets"):
            train(zero_probe(8, 4, layer=2), rows, TrainConfig(epochs=1))

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        pred = EarlyExitPredictor(rng.standard_normal((8, 4)), layer=3)
        path = str(tmp_path / "pred.json")
        save_checkpoint(pred, path)
        again = load_checkpoint(path)
        assert np.array_equal(again.weights, pred.weights)
        assert again.layer == 3


@pytest.fixture(scope="module")
def criterion_06():
    """Criterion 06's probe problem (seed 5, hidden 16, 2000 examples) and
    its 20 SGD epochs from zero weights."""
    target = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=5)
    draft = derive_draft(target, 0.8, noise_seed=6)
    layer = default_exit_layer(target.depth)
    data = build_distillation_dataset(target, draft, layer, 2000, k=4, seed=5)
    cfg = TrainConfig(epochs=20, seed=1)
    trained, curve = train(zero_probe(32, 16, layer), data, cfg)
    return data, layer, cfg, trained, curve


class TestFit:
    def test_fit_beats_twenty_sgd_epochs_from_zero(self, criterion_06):
        data, layer, cfg, sgd, _ = criterion_06
        fitted = EarlyExitPredictor.fit(data, layer)
        assert fitted.layer == layer
        assert total_loss(fitted, data, cfg) < total_loss(sgd, data, cfg)
        assert candidate_top1_agreement(fitted, data) >= 0.9

    def test_sgd_from_zero_runs_every_epoch(self, criterion_06):
        # every epoch from zero weights lowers the loss by more than 1%
        *_, curve = criterion_06
        assert len(curve) == 21
        assert all(b < (1 - CONVERGED_DROP) * a for a, b in zip(curve, curve[1:]))

    def test_rising_loss_does_not_stop_training(self):
        # one example, so each step is a full-batch step; a rate this large
        # overshoots and the loss rises, which is not convergence
        data = one_example([3.0, -2.0], [4.0, 0.0, -4.0], (0, 1))
        pred = zero_probe(3, 2, layer=1)
        _, curve = train(pred, data, TrainConfig(learning_rate=50.0, epochs=4))
        assert curve[1] > curve[0]
        assert len(curve) == 5
