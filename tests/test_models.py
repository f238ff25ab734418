import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashspec.errors import ConfigError, ContractError
from flashspec.models import (
    ROW_BLOCK,
    LayeredTargetModel,
    MixtureDraftModel,
    ProbModel,
    TabularMarkovModel,
    _padded_tail,
    derive_draft,
    draft_candidates,
    target_greedy_decode,
)
from flashspec.predictor import ExactProbeSource, LayeredHiddenSource, distillation_rows
from flashspec.seeding import block_states, generator
from flashspec.tree import ROOT_ID, TokenTree
from helpers import candidate_tokens, hidden_at, layered_logits, path_tokens, tabular_row


class FixedModel:
    """Hand-specified rows for exact-value tests."""

    def __init__(self, rows, default=None):
        self.rows = {tuple(k): np.asarray(v, dtype=float) for k, v in rows.items()}
        first = next(iter(self.rows.values()))
        self.vocab_size = len(first)
        self.order = 1
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
        assert candidate_tokens(cand) == (0, 1, 2)

    def test_matches_full_sort_oracle(self):
        model = TabularMarkovModel(16, 2, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prefix = rng.integers(0, 16, size=4).tolist()
            cand = draft_candidates(model, prefix, 4)
            p = model.next_dist(prefix)
            oracle = sorted(range(16), key=lambda t: (-p[t], t))[:4]
            assert list(candidate_tokens(cand)) == oracle

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
        h = hidden_at(model, model.depth, prefix)
        assert np.array_equal(model.logit_scale * (model.output_proj @ h),
                              layered_logits(model, prefix))

    def test_dist_sums_to_one(self):
        model = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            prefix = rng.integers(0, 32, size=5).tolist()
            p = model.next_dist(prefix)
            assert abs(p.sum() - 1.0) < 1e-9
            assert p.min() >= 0

    @pytest.mark.parametrize("token", [-1, 8, 2**64])
    def test_out_of_vocabulary_token_rejected(self, token):
        model = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        with pytest.raises(ContractError, match=f"token {token} outside vocabulary"):
            model.next_dist([3, token])
        # a rejected one-tail pass stores nothing: the next valid tail takes slot 0
        assert model.slots([[1, 2]]).tolist() == [0]
        with pytest.raises(ContractError, match=f"token {token} outside vocabulary"):
            model.slots([[1, 2], [token, 3], [4], [5]])
        # a rejected batch stores nothing, and its valid tails still evaluate
        assert model.slots([[1, 2], [4], [5]]).tolist() == [0, 1, 2]
        for p in ([1, 2], [4], [5]):
            assert np.array_equal(model.next_dist(p), reference_dist(model, p))

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
        h = np.tanh(model.layer_weights[ell] @ h)
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
    repeat tails, extend them and include prefixes shorter than the order.
    Hidden-source reads take zero to three prefixes, so some are empty, and
    distillation reads bring up to 48 seeded prefixes at once, so the pass
    table grows mid-session."""
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
                    ["hidden_at", "logits", "next_dist", "source_rows", "distillation_rows"]
                ),
                st.one_of(st.sampled_from(pool), st.lists(token, max_size=5)),
                st.integers(1, model.depth),
                st.lists(token, max_size=3),
                st.integers(1, 48),
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
        handed_out = []    # (array, its fresh-pass value) of every read so far
        for kind, prefix, layer, path, n in calls:
            if kind == "source_rows":
                # the exit layer must lie strictly before the final layer
                source = LayeredHiddenSource(model, min(layer, model.depth - 1))
                prefixes = [prefix + path[:i] for i in range(len(path))]
                rows = source.rows(prefixes)
                expect = [reference_hidden(model, source.layer, p) for p in prefixes]
                handed_out.append((rows, np.reshape(expect, (len(prefixes), model.hidden_dim))))
            elif kind == "distillation_rows":
                # seeded prefixes padded to the model's order or one more
                order = model.order + n % 2
                data, tails = distillation_rows(model, layer, n, len(path), order)
                assert len(tails) == len(set(tails)) == len(data.hidden) == len(data.logits)
                handed_out.append(
                    (data.hidden, np.stack([reference_hidden(model, layer, t) for t in tails]))
                )
                handed_out.append(
                    (data.logits, np.stack([reference_logits(model, t) for t in tails]))
                )
            elif kind == "hidden_at":
                handed_out.append(
                    (hidden_at(model, layer, prefix), reference_hidden(model, layer, prefix))
                )
            elif kind == "logits":
                handed_out.append((layered_logits(model, prefix), reference_logits(model, prefix)))
            else:
                handed_out.append((model.next_dist(prefix), reference_dist(model, prefix)))
            # every array read so far, before any growth of the table too,
            # still holds its fresh-pass bytes and is still read-only
            for got, expect in handed_out:
                assert got.shape == expect.shape
                assert np.array_equal(got, expect)
                assert not got.flags.writeable

    def test_a_memoized_tail_is_computed_once(self):
        model = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        computed = []
        compute = model._compute

        def counted(tails):
            computed.extend(tails)
            compute(tails)

        model._compute = counted
        dist = model.next_dist([5])
        assert np.array_equal(model.next_dist([0, 5]), dist)
        assert np.array_equal(model.next_dist([3, 0, 5]), dist)
        assert np.array_equal(layered_logits(model, [5]), layered_logits(model, [1, 0, 5]))
        assert np.array_equal(hidden_at(model, 2, [0, 5]), hidden_at(model, 2, [7, 0, 5]))
        assert computed == [(0, 5)]
        # a batch computes only its tails without a slot, each once
        LayeredHiddenSource(model, 2).rows([[5], [2, 3], [4, 0, 5], [1, 2, 3]])
        assert computed == [(0, 5), (2, 3)]
        _, tails = distillation_rows(model, 2, 200, 0, model.order)
        distillation_rows(model, 3, 200, 0, model.order)
        assert sorted(computed) == sorted({(0, 5), (2, 3), *tails})
        assert not np.array_equal(model.next_dist([1, 5]), dist)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 3),
        st.integers(2, 6),
        st.integers(1, 40),
        st.integers(0, 10_000),
        st.integers(2, 9),
    )
    @example(vocab=39, order=3, depth=6, hidden_dim=39, seed=1, n=9)
    @example(vocab=7, order=3, depth=3, hidden_dim=1, seed=2, n=5)
    def test_one_tail_passes_equal_batch_rows(self, vocab, order, depth, hidden_dim, seed, n):
        """A tail computed alone (every cold ``next_dist``) is byte-equal to
        the same tail's row of a stacked batch and to a fresh forward pass,
        at odd sizes too, where BLAS kernels take their remainder paths."""
        single, batch = (
            LayeredTargetModel(vocab, order, depth=depth, hidden_dim=hidden_dim, seed=seed)
            for _ in range(2)
        )
        # distinct tails, so the batch twin computes them all in one stacked pass
        rows = np.random.default_rng(seed).choice(vocab**order, min(n, vocab**order), replace=False)
        tails = [[r // vocab**i % vocab for i in range(order)] for r in rows.tolist()]
        for tail in tails:
            single.next_dist(tail)
        slots = batch.slots(tails)
        assert slots.tolist() == list(range(len(tails)))
        for layer in range(1, depth + 1):
            expect = np.stack([reference_hidden(single, layer, t) for t in tails])
            assert single.hidden_rows(layer, slots).tobytes() == expect.tobytes()
            assert batch.hidden_rows(layer, slots).tobytes() == expect.tobytes()
        expect = np.stack([reference_logits(single, t) for t in tails])
        assert single.logit_rows(slots).tobytes() == expect.tobytes()
        assert batch.logit_rows(slots).tobytes() == expect.tobytes()
        for tail in tails:
            expect = reference_dist(single, tail).tobytes()
            assert single.next_dist(tail).tobytes() == expect
            assert batch.next_dist(tail).tobytes() == expect

    def test_rows_read_before_a_growth_keep_their_values(self):
        model = LayeredTargetModel(8, 2, depth=4, hidden_dim=4, seed=1)
        before = [
            (model.next_dist([1]), reference_dist(model, [1])),
            (hidden_at(model, 4, [1]), reference_hidden(model, 4, [1])),
        ]
        model.slots([[a, b] for a in range(8) for b in range(8)])
        # the table moved: a fresh read of the same tail is a new array
        assert not np.shares_memory(model.next_dist([1]), before[0][0])
        for got, expect in before:
            assert np.array_equal(got, expect)
            assert not got.flags.writeable


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
        tree = self._tree()
        return [ctx + path_tokens(tree, nid) for nid in tree.ids()]

    def test_single_row_equals_direct_call(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        ctx = [1, 2]
        rows = LayeredHiddenSource(model, 2).rows([ctx])
        assert np.array_equal(rows[0], hidden_at(model, 2, ctx))

    def test_batch_equals_sequential_oracle_exactly(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        prefixes = self._row_prefixes([7, 3])
        rows = LayeredHiddenSource(model, 3).rows(prefixes)
        assert rows.shape == (6, 8)
        for row, prefix in zip(rows, prefixes):
            assert np.array_equal(row, hidden_at(model, 3, prefix))

    def test_full_depth_rows_reproduce_next_dist(self):
        # rows from the last exit layer, pushed through the final layer
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        prefixes = self._row_prefixes([7, 3])
        rows = LayeredHiddenSource(model, model.depth - 1).rows(prefixes)
        for row, prefix in zip(rows, prefixes):
            h = np.tanh(model.layer_weights[-1] @ row)
            logits = model.logit_scale * (model.output_proj @ h)
            assert np.array_equal(logits, layered_logits(model, prefix))
            e = np.exp(logits - logits.max())
            assert np.array_equal(e / e.sum(), model.next_dist(prefix))

    def test_empty_prefix_list_gives_no_rows(self):
        model = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
        assert LayeredHiddenSource(model, 2).rows([]).shape == (0, 8)
        assert ExactProbeSource(model).rows([]).shape == (0, 16)


class TestDraftDerivation:
    def test_alpha_one_identical(self):
        """At agreement 1 the mixture row is the target's row byte for byte,
        and at 0 the noise row, for tabular and layered targets and a noise
        order above the target's."""
        targets = (
            TabularMarkovModel(16, 1, seed=1),
            LayeredTargetModel(16, 2, depth=3, hidden_dim=8, seed=4),
        )
        for target in targets:
            for noise_order in (target.order, target.order + 1):
                for agreement in (0.0, 1.0):
                    noise = TabularMarkovModel(16, noise_order, 2)
                    draft = MixtureDraftModel(target, noise, agreement)
                    component = draft.target if agreement == 1.0 else draft.noise
                    for prefix in ([0], [5], [9], [3, 7, 1, 12]):
                        row = draft.next_dist(prefix)
                        assert row.tobytes() == component.next_dist(prefix).tobytes()

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


# Seeds whose entropy is one word, one word at the top of the range, two
# words, and more words than the hash pool holds.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**130 + 5]


@st.composite
def tabular_sessions(draw):
    """A tabular model and an interleaved sequence of batch and single
    reads.  Keys include the first and last row index and repeat; some
    prefixes are shorter than the order (padded), some longer."""
    vocab = draw(st.integers(1, 40))
    order = draw(st.integers(1, 3))
    seed = draw(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**64)))
    last = vocab**order - 1
    index = st.one_of(st.sampled_from([0, last]), st.integers(0, last))

    def prefix(idx):
        tail = [(idx // vocab**i) % vocab for i in reversed(range(order))]
        if draw(st.booleans()):
            while len(tail) > 1 and tail[0] == 0:
                tail.pop(0)
            return tail
        return draw(st.lists(st.integers(0, vocab - 1), max_size=2)) + tail

    keys = draw(st.lists(index, min_size=1, max_size=6))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.one_of(st.sampled_from(keys), index), min_size=1, max_size=8))
        steps.append((draw(st.booleans()), [prefix(i) for i in picks]))
    return (vocab, order, seed), steps


@settings(max_examples=200)
@given(tabular_sessions())
def test_batched_tabular_rows_equal_single_reads(session):
    """Batched reads (the exact probe's stacked rows) interleaved with
    single ``next_dist`` reads on one model have the bytes of a fresh
    model's rows, and every row read by either path is drawn once and
    cached by its index."""
    args, steps = session
    model = TabularMarkovModel(*args)
    fresh = TabularMarkovModel(*args)
    source = ExactProbeSource(model)
    read = set()
    for batched, prefixes in steps:
        if batched:
            rows = source.rows(prefixes)
            assert rows.shape == (len(prefixes), model.vocab_size)
        else:
            rows = [model.next_dist(p) for p in prefixes]
        for row, p in zip(rows, prefixes):
            idx = model.row_index(_padded_tail(p, model.order))
            want = tabular_row(model, idx)
            assert want.tobytes() == fresh.next_dist(p).tobytes()
            if batched:
                want = np.log(np.maximum(want, 1e-300))
            assert row.tobytes() == want.tobytes()
        read |= {model.row_index(_padded_tail(p, model.order)) for p in prefixes}
        assert set(model._rows) == read


@settings(max_examples=100)
@given(tabular_sessions())
def test_exact_probe_rows_equal_per_row_log_reads(session):
    """The exact probe's one batched read, logged at once, has the bytes of
    a per-row ``np.log(np.maximum(next_dist(p), 1e-300))`` on a fresh model."""
    args, steps = session
    source = ExactProbeSource(TabularMarkovModel(*args))
    fresh = TabularMarkovModel(*args)
    for _, prefixes in steps:
        rows = source.rows(prefixes)
        assert rows.shape == (len(prefixes), fresh.vocab_size)
        for row, p in zip(rows, prefixes):
            assert row.tobytes() == np.log(np.maximum(fresh.next_dist(p), 1e-300)).tobytes()


def _tail_of(idx, vocab, order):
    """The padded tail whose row index is ``idx``."""
    return tuple((idx // vocab**i) % vocab for i in reversed(range(order)))


@st.composite
def tabular_block_reads(draw):
    """A tabular model and row indices at block edges: the last row of the
    first block and both ends of the second, a partial last block (V^m not a
    multiple of the block) and indices at or above 2**32, where the key's
    entropy widens to two words."""
    vocab, order = draw(
        st.one_of(
            st.sampled_from([(40, 2), (13, 3), (2, 11), (2, 33), (3, 21), (5, 14)]),
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
        )
    )
    seed = draw(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**64)))
    last = vocab**order - 1
    edges = [0, 1023, 1024, 2047, 2048, last - ROW_BLOCK, last - 1, last,
             2**32 - 1, 2**32, 2**32 + 1023, 2**32 + 1024]
    index = st.one_of(
        st.sampled_from([i for i in edges if 0 <= i <= last]), st.integers(0, last)
    )
    return (vocab, order, seed), draw(st.lists(index, min_size=1, max_size=8))


@settings(max_examples=200)
@given(tabular_block_reads())
def test_tabular_rows_equal_their_default_rng_reference(case):
    """Reads by ``row`` and by ``next_dist`` give, byte for byte, row idx
    drawn from its own ``np.random.default_rng([seed, idx])``."""
    args, idxs = case
    vocab, order, _ = args
    tails = [_tail_of(i, vocab, order) for i in idxs]
    single = TabularMarkovModel(*args)
    read = TabularMarkovModel(*args)
    rows = [read.next_dist(tail) for tail in tails]
    for idx, tail, row in zip(idxs, tails, rows):
        want = tabular_row(single, idx).tobytes()
        assert single.row(tail).tobytes() == want
        assert row.shape == (vocab,)
        assert row.tobytes() == want


@settings(max_examples=200)
@given(
    st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**140)),
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1), st.integers(0, 2**80)
            ),
            st.integers(0, 10),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_block_states_match_seed_sequence(seed, keys):
    """The vectorized pass over an aligned block of 2**bits keys gives, for
    the drawn key and both ends of its block, the PCG64 state words numpy
    derives from ``SeedSequence([seed, idx])``, and the generators built
    from them start where ``default_rng([seed, idx])`` does; a change in
    numpy's seeding fails here."""
    for idx, bits in keys:
        start, count = idx - idx % 2**bits, 2**bits
        states = block_states(seed, start, count)
        assert states.shape == (count, 4)
        for i in dict.fromkeys((idx, start, start + count - 1)):
            want = np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
            assert states[i - start].dtype == want.dtype
            assert states[i - start].tobytes() == want.tobytes()
            got = generator(states[i - start]).bit_generator.state
            assert got == np.random.default_rng([seed, i]).bit_generator.state


@pytest.mark.parametrize("start, count", [(2**32 - 1, 2), (2**64 - 512, 1024), (0, 0)])
def test_block_states_refuse_a_range_of_two_widths_or_none(start, count):
    with pytest.raises(ValueError):
        block_states(7, start, count)


@pytest.mark.parametrize("agreement", [0.0, 0.45, 1.0])
def test_empty_read_gives_zero_rows(agreement):
    tabular = TabularMarkovModel(16, 2, seed=1)
    layered = LayeredTargetModel(16, 2, depth=4, hidden_dim=8, seed=2)
    for model in (tabular, layered, derive_draft(tabular, agreement, 3),
                  derive_draft(layered, agreement, 3)):
        rows = ExactProbeSource(model).rows([])
        assert rows.shape == (0, 16)
        assert rows.dtype == np.float64
    rows = LayeredHiddenSource(layered, 2).rows([])
    assert rows.shape == (0, 8)
    assert rows.dtype == np.float64


def _mixture(target_args, draft_args):
    kind, vocab, order, seed, *layered = target_args
    if kind == "tabular":
        target = TabularMarkovModel(vocab, order, seed)
    else:
        target = LayeredTargetModel(vocab, order, layered[0], layered[1], seed)
    agreement, noise_seed, noise_order = draft_args
    return MixtureDraftModel(target, TabularMarkovModel(vocab, noise_order, noise_seed), agreement)


@st.composite
def mixture_reads(draw):
    vocab = draw(st.integers(2, 16))
    order = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        target_args = ("tabular", vocab, order, seed)
    else:
        target_args = ("layered", vocab, order, seed, draw(st.integers(2, 4)), draw(st.integers(1, 8)))
    draft_args = (
        draw(st.sampled_from([0.0, 0.45, 1.0])),
        draw(st.one_of(st.sampled_from(SEEDS), st.integers(0, 10_000))),
        draw(st.integers(1, 3)),
    )
    prefixes = draw(
        st.lists(st.lists(st.integers(0, vocab - 1), max_size=5), min_size=1, max_size=10)
    )
    return target_args, draft_args, prefixes


@settings(max_examples=200)
@given(mixture_reads())
def test_batched_mixture_rows_equal_stacked_next_dist(case):
    """A mixture draft read as one stacked block, over a layered target
    whose passes were first computed as one batch by ``slots``, has the
    bytes of a fresh draft's single reads."""
    target_args, draft_args, prefixes = case
    draft = _mixture(target_args, draft_args)
    fresh = _mixture(target_args, draft_args)
    if isinstance(draft.target, LayeredTargetModel):
        draft.target.slots(prefixes)
    got = ExactProbeSource(draft).rows(prefixes)
    want = np.log(np.maximum(np.stack([fresh.next_dist(p) for p in prefixes]), 1e-300))
    assert got.tobytes() == want.tobytes()
    assert got.shape == want.shape


@st.composite
def candidate_sessions(draw):
    """Recipes for a tabular, a layered and a mixture model over one
    vocabulary, and interleaved ``draft_candidates`` calls over a small
    prefix pool, so calls repeat tails, share a last token with a different
    tail and include prefixes shorter than the order."""
    vocab = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 10_000))
    order = st.integers(1, 3)
    tabular = ("tabular", vocab, draw(order), seed)
    layered = ("layered", vocab, draw(order), seed, draw(st.integers(2, 4)), draw(st.integers(1, 6)))
    mixture = (
        draw(st.sampled_from([tabular, layered])),
        (draw(st.sampled_from([0.0, 0.45, 1.0])), draw(st.integers(0, 10_000)), draw(order)),
    )
    recipes = [tabular, layered, mixture]
    token = st.integers(0, vocab - 1)
    pool = draw(st.lists(st.lists(token, max_size=4), min_size=1, max_size=4))
    calls = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.one_of(st.sampled_from(pool), st.lists(token, max_size=4)),
                token,
                st.integers(1, vocab),
            ),
            min_size=1,
            max_size=16,
        )
    )
    return recipes, calls


def _model(recipe):
    if recipe[0] == "tabular":
        _, vocab, order, seed = recipe
        return TabularMarkovModel(vocab, order, seed)
    if recipe[0] == "layered":
        _, vocab, order, seed, depth, hidden = recipe
        return LayeredTargetModel(vocab, order, depth, hidden, seed)
    return _mixture(*recipe)


@settings(max_examples=200, derandomize=True)
@given(candidate_sessions())
def test_candidate_sets_are_memoized_per_padded_tail(session):
    """Every call returns the top-k a separate model of the same recipe
    drafts without the memo, and the same object for an equal padded tail
    and ``k``."""
    recipes, calls = session
    models = [_model(r) for r in recipes]
    fresh = [_model(r) for r in recipes]
    first = {}
    for i, prefix, last, k in calls:
        prefix = prefix + [last]
        model = models[i]
        got = draft_candidates(model, prefix, k)
        p = fresh[i].next_dist(prefix)
        top = np.argsort(-p, kind="stable")[:k]
        assert got.entries == tuple((int(t), float(p[t])) for t in top)
        tail = tuple(([0] * model.order + prefix)[-model.order:])
        assert got is first.setdefault((i, tail, k), got)


class RecordingModel(ProbModel):
    """A tabular model that records every prefix ``next_dist`` reads."""

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.order = model.order
        self.reads = []

    def next_dist(self, prefix):
        self.reads.append(prefix)
        return self.model.next_dist(prefix)


@pytest.mark.parametrize("order", [1, 3])
def test_cold_candidate_set_reads_the_padded_tail(order):
    """A cold read hands the model the padded tail the memo is keyed by, a
    tuple of ``order`` tokens; a warm read of an equal tail reads nothing
    and returns the same object."""
    model = RecordingModel(TabularMarkovModel(8, order, 5))
    cases = [([3], 2), ([6, 1, 2, 7], 3), ([5, 1, 2, 7], 3), ([2, 7], 2)]
    for prefix, k in cases:
        reads = len(model.reads)
        got = draft_candidates(model, prefix, k)
        tail = tuple(([0] * order + prefix)[-order:])
        if len(model.reads) > reads:
            assert model.reads[-1] == tail
            assert type(model.reads[-1]) is tuple and len(model.reads[-1]) == order
        assert got is draft_candidates(model, list(tail), k)
        assert got.entries == draft_candidates(model.model, prefix, k).entries
    # at either order the third prefix's tail and k equal the second's
    assert len(model.reads) == 3


def _outcome(model, prefix, k):
    """A call's entries, or the ``ContractError`` it raised."""
    try:
        return draft_candidates(model, prefix, k).entries
    except ContractError as exc:
        return ContractError, str(exc)


@settings(max_examples=200, derandomize=True)
@given(candidate_sessions())
def test_out_of_vocabulary_tail_raises_with_a_warm_memo(session):
    """A warm memo answers an out-of-vocabulary tail as a cold model does
    (the tabular and layered models raise wherever the token sits in the
    tail; a mixture raises when a component it reads does), and still checks
    ``k``."""
    recipes, calls = session
    models = [_model(r) for r in recipes]
    cold = [_model(r) for r in recipes]
    for i, prefix, last, k in calls:
        draft_candidates(models[i], prefix + [last], k)
    for i, prefix, last, _ in calls:
        model = models[i]
        vocab = model.vocab_size
        for bad in (vocab, -1):
            for probe in (prefix + [bad], prefix + [bad, last]):
                got = _outcome(model, probe, 1)
                assert got == _outcome(cold[i], probe, 1)
                if i < 2 and bad in probe[-model.order:]:
                    assert got[0] is ContractError
        for k in (0, vocab + 1):
            with pytest.raises(ContractError):
                draft_candidates(model, prefix + [last], k)
