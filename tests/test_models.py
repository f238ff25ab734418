import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.errors import ConfigError, ContractError
from flashspec.models import (
    LayeredTargetModel,
    MixtureDraftModel,
    TabularMarkovModel,
    derive_draft,
    draft_candidates,
    target_greedy_decode,
)
from flashspec.predictor import ExactProbeSource, LayeredHiddenSource
from flashspec.tree import ROOT_ID, TokenTree, flatten


class FixedModel:
    """Hand-specified rows for exact-value tests."""

    def __init__(self, rows, default=None):
        self.rows = {tuple(k): np.asarray(v, dtype=float) for k, v in rows.items()}
        first = next(iter(self.rows.values()))
        self.vocab_size = len(first)
        self.default = (
            np.asarray(default, dtype=float)
            if default is not None
            else np.full(self.vocab_size, 1.0 / self.vocab_size)
        )

    def next_dist(self, prefix):
        return self.rows.get(tuple(prefix[-1:]), self.default)


class TestDraftCandidates:
    def test_sorted_head(self):
        m = FixedModel({(0,): [0.5, 0.3, 0.2]})
        cand = draft_candidates(m, [0], 2)
        assert cand.entries == ((0, 0.5), (1, 0.3))

    def test_uniform_tie_break(self):
        m = FixedModel({(0,): [0.25, 0.25, 0.25, 0.25]})
        cand = draft_candidates(m, [0], 3)
        assert cand.tokens() == (0, 1, 2)

    def test_matches_full_sort_oracle(self):
        model = TabularMarkovModel(16, 2, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prefix = rng.integers(0, 16, size=4).tolist()
            cand = draft_candidates(model, prefix, 4)
            p = model.next_dist(prefix)
            oracle = sorted(range(16), key=lambda t: (-p[t], t))[:4]
            assert list(cand.tokens()) == oracle

    def test_k_bounds(self):
        model = TabularMarkovModel(8, 1, seed=1)
        with pytest.raises(ContractError):
            draft_candidates(model, [0], 0)
        with pytest.raises(ContractError):
            draft_candidates(model, [0], 9)


class TestGreedyDecode:
    def test_deterministic_row(self):
        row = np.zeros(8)
        row[7] = 1.0
        m = FixedModel({(0,): row})
        assert target_greedy_decode(m, [0], 1) == [7]

    def test_alpha_one_draft_decodes_identically(self):
        target = TabularMarkovModel(16, 2, seed=9)
        draft = derive_draft(target, 1.0, noise_seed=42)
        assert target_greedy_decode(draft, [3, 1], 20) == target_greedy_decode(
            target, [3, 1], 20
        )

    def test_matches_table_walk(self):
        model = TabularMarkovModel(12, 2, seed=4)
        prompt = [5, 2]
        out = target_greedy_decode(model, prompt, 16)
        # oracle: explicit step-by-step walk on the stored table
        prefix = list(prompt)
        for got in out:
            row = model.row(tuple(prefix[-2:]))
            expect = int(np.argmax(row))
            assert got == expect
            prefix.append(expect)


class TestTabularModel:
    def test_rows_are_distributions(self):
        model = TabularMarkovModel(32, 2, seed=7)
        rng = np.random.default_rng(1)
        for _ in range(200):
            prefix = rng.integers(0, 32, size=3).tolist()
            p = model.next_dist(prefix)
            assert p.min() >= 0
            assert abs(p.sum() - 1.0) < 1e-9

    def test_reproducible_across_instances_and_call_order(self):
        a = TabularMarkovModel(16, 2, seed=5)
        b = TabularMarkovModel(16, 2, seed=5)
        # touch rows in different orders
        pa = [a.next_dist([i, j]) for i in range(4) for j in range(4)]
        pb = [b.next_dist([i, j]) for i in reversed(range(4)) for j in reversed(range(4))]
        pb_reordered = list(reversed(pb))
        for x, y in zip(pa, pb_reordered):
            assert np.array_equal(x, y)

    def test_short_prefix_padded(self):
        model = TabularMarkovModel(8, 3, seed=2)
        assert np.array_equal(model.next_dist([5]), model.next_dist([0, 0, 5]))


class TestLayeredModel:
    def test_full_depth_hidden_reproduces_logits(self):
        model = LayeredTargetModel(16, 2, depth=5, hidden_dim=8, seed=3)
        prefix = [1, 4, 2]
        h = model.hidden_at(model.depth, prefix)
        assert np.array_equal(model.logit_scale * (model.output_proj @ h),
                              model.logits(prefix))

    def test_dist_sums_to_one(self):
        model = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prefix = rng.integers(0, 32, size=5).tolist()
            p = model.next_dist(prefix)
            assert abs(p.sum() - 1.0) < 1e-9
            assert p.min() >= 0

    def test_layer_out_of_range(self):
        model = LayeredTargetModel(8, 1, depth=4, hidden_dim=8, seed=1)
        with pytest.raises(ContractError):
            model.hidden_at(0, [1])
        with pytest.raises(ContractError):
            model.hidden_at(5, [1])

    @pytest.mark.parametrize("token", [-1, 8])
    def test_out_of_vocabulary_token_rejected(self, token):
        model = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        with pytest.raises(ContractError, match="outside vocabulary"):
            model.next_dist([3, token])
        with pytest.raises(ContractError, match="outside vocabulary"):
            model.forward_tails([[1, 2], [token, 3], [4]])
        # the valid tails of a rejected batch still evaluate
        for p, (_, _, dist) in zip([[1, 2], [4]], model.forward_tails([[1, 2], [4]])):
            assert np.array_equal(dist, reference_dist(model, p))

    def test_order_below_one_rejected(self):
        with pytest.raises(ConfigError, match="order"):
            LayeredTargetModel(8, 0, depth=4, hidden_dim=4, seed=1)

    def test_deterministic_given_seed(self):
        a = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=11)
        b = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=11)
        assert np.array_equal(a.next_dist([3, 2]), b.next_dist([3, 2]))


def reference_hidden(model, layer, prefix):
    """A fresh forward pass: embed the padded tail, then ``layer`` layers."""
    tail = [int(t) for t in prefix[-model.order:]]
    tail = [0] * (model.order - len(tail)) + tail
    h = model.embedding[tail].mean(axis=0)
    for ell in range(layer):
        h = np.tanh(model.layer_weights[ell] @ h + model.layer_biases[ell])
    return h


def reference_logits(model, prefix):
    h = reference_hidden(model, model.depth, prefix)
    return model.logit_scale * (model.output_proj @ h)


def reference_dist(model, prefix):
    z = reference_logits(model, prefix)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


@st.composite
def memo_sessions(draw):
    """A layered model and a call sequence over a small prefix pool, so calls
    repeat tails, extend them and include prefixes shorter than the order."""
    vocab = draw(st.integers(2, 8))
    model = LayeredTargetModel(
        vocab,
        draw(st.integers(1, 3)),
        depth=draw(st.integers(2, 5)),
        hidden_dim=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 10_000)),
    )
    token = st.integers(0, vocab - 1)
    pool = draw(st.lists(st.lists(token, max_size=5), min_size=1, max_size=4))
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["hidden_at", "logits", "next_dist", "source_rows", "forward_tails"]
                ),
                st.one_of(st.sampled_from(pool), st.lists(token, max_size=5)),
                st.integers(1, model.depth),
                st.lists(token, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return model, calls


class TestLayeredMemo:
    @settings(max_examples=200)
    @given(memo_sessions())
    def test_every_call_matches_a_fresh_forward_pass(self, session):
        model, calls = session
        for kind, prefix, layer, path in calls:
            if kind == "source_rows":
                # the exit layer must lie strictly before the final layer
                source = LayeredHiddenSource(model, min(layer, model.depth - 1))
                prefixes = [prefix + path[:i] for i in range(len(path) + 1)]
                rows = source.rows(prefixes)
                assert rows.shape == (len(prefixes), model.hidden_dim)
                for row, p in zip(rows, prefixes):
                    assert np.array_equal(row, reference_hidden(model, source.layer, p))
                continue
            if kind == "forward_tails":
                prefixes = [prefix + path[:i] for i in range(len(path) + 1)]
                passes = model.forward_tails(prefixes)
                assert len(passes) == len(prefixes)
                for (hidden, z, dist), p in zip(passes, prefixes):
                    assert len(hidden) == model.depth
                    for ell, h in enumerate(hidden, start=1):
                        assert np.array_equal(h, reference_hidden(model, ell, p))
                    assert np.array_equal(z, reference_logits(model, p))
                    assert np.array_equal(dist, reference_dist(model, p))
                    for arr in (*hidden, z, dist):
                        assert not arr.flags.writeable
                continue
            if kind == "hidden_at":
                got = model.hidden_at(layer, prefix)
                expect = reference_hidden(model, layer, prefix)
            elif kind == "logits":
                got, expect = model.logits(prefix), reference_logits(model, prefix)
            else:
                got, expect = model.next_dist(prefix), reference_dist(model, prefix)
            assert np.array_equal(got, expect)
            with pytest.raises(ValueError):
                got[0] = 0.0
            assert np.array_equal(got, expect)

    def test_one_forward_pass_per_padded_tail(self):
        model = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        dist = model.next_dist([5])
        assert model.next_dist([0, 5]) is dist
        assert model.next_dist([3, 0, 5]) is dist
        assert model.logits([5]) is model.logits([1, 0, 5])
        assert model.hidden_at(2, [0, 5]) is model.hidden_at(2, [7, 0, 5])
        assert model.next_dist([1, 5]) is not dist


class TestHiddenStates:
    def _tree(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        b = tree.insert(ROOT_ID, 2, 0.8)
        c = tree.insert(a, 3, 0.5)
        tree.insert(c, 4, 0.4)
        tree.insert(b, 5, 0.3)
        return tree

    def _row_prefixes(self, ctx):
        layout = flatten(self._tree())
        return [ctx + layout.path_tokens(i) for i in range(layout.n_rows)]

    def test_single_row_equals_direct_call(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        ctx = [1, 2]
        rows = LayeredHiddenSource(model, 2).rows([ctx])
        assert np.array_equal(rows[0], model.hidden_at(2, ctx))

    def test_batch_equals_sequential_oracle_exactly(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        prefixes = self._row_prefixes([7, 3])
        rows = LayeredHiddenSource(model, 3).rows(prefixes)
        assert rows.shape == (6, 8)
        for row, prefix in zip(rows, prefixes):
            assert np.array_equal(row, model.hidden_at(3, prefix))

    def test_full_depth_rows_reproduce_next_dist(self):
        # rows from the last exit layer, pushed through the final layer
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        prefixes = self._row_prefixes([7, 3])
        rows = LayeredHiddenSource(model, model.depth - 1).rows(prefixes)
        for row, prefix in zip(rows, prefixes):
            h = np.tanh(model.layer_weights[-1] @ row + model.layer_biases[-1])
            logits = model.logit_scale * (model.output_proj @ h)
            assert np.array_equal(logits, model.logits(prefix))
            e = np.exp(logits - logits.max())
            assert np.array_equal(e / e.sum(), model.next_dist(prefix))

    def test_empty_prefix_list_gives_no_rows(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        assert LayeredHiddenSource(model, 2).rows([]).shape == (0, 8)
        assert ExactProbeSource(model).rows([]).shape == (0, 16)


class TestDraftDerivation:
    def test_alpha_one_identical(self):
        target = TabularMarkovModel(16, 1, seed=1)
        draft = derive_draft(target, 1.0, noise_seed=2)
        for prefix in ([0], [5], [9]):
            assert np.array_equal(draft.next_dist(prefix), target.next_dist(prefix))

    def test_monotone_top1_agreement(self):
        target = TabularMarkovModel(24, 2, seed=13)
        rng = np.random.default_rng(6)
        prefixes = [rng.integers(0, 24, size=3).tolist() for _ in range(1000)]
        target_top = [int(np.argmax(target.next_dist(p))) for p in prefixes]
        rates = []
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            draft = MixtureDraftModel(
                target, TabularMarkovModel(24, 2, seed=99, concentration=0.3), alpha
            )
            agree = sum(
                int(np.argmax(draft.next_dist(p))) == t
                for p, t in zip(prefixes, target_top)
            )
            rates.append(agree / len(prefixes))
        assert all(a <= b for a, b in zip(rates, rates[1:]))
