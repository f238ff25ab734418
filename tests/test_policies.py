from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import DraftConfig
from flashspec.errors import ConfigError
from flashspec.models import (
    LayeredTargetModel,
    TabularMarkovModel,
    _padded_tail,
    derive_draft,
    target_greedy_decode,
)
from flashspec.policies import (
    RELIABILITY_FLOOR,
    BalancedTreePolicy,
    ChainPolicy,
    GainCostPolicy,
    RootOnlyPolicy,
)
from flashspec.simulator import load_preset
from flashspec.tree import ROOT_ID, flatten
from flashspec.verification import VerificationResult, run_decode
from helpers import affine_profile, candidate_tokens, path_tokens, tree_json

HW = load_preset("llama31-8b")


def models(seed=9, agreement=0.8):
    target = TabularMarkovModel(16, 2, seed=seed)
    return target, derive_draft(target, agreement, noise_seed=seed + 1)


class TestRootOnly:
    def test_builds_bare_root(self):
        policy = RootOnlyPolicy(HW)
        out = policy.build([4, 2])
        assert out.tree.node_count == 1
        assert out.expansion_counts == []
        assert out.estimate.gain == 1.0


class TestGainCostObserve:
    """The reliability is an EMA of candidate-set hits: decay
    ``RELIABILITY_DECAY``, clamped to [``RELIABILITY_FLOOR``, 1]."""

    def _policy(self):
        _, draft = models()
        policy = GainCostPolicy(
            draft, DraftConfig(k=3, max_depth=3, b_min=0.01),
            affine_profile(900.0, 3.0, 1.0, 64, 32),
        )
        out = policy.build([4, 2])
        root = candidate_tokens(out.candidate_sets[ROOT_ID])
        miss = next(t for t in range(16) if t not in root)
        # acceptance stopped at the root, where the fallback was drafted or not
        return policy, VerificationResult((), (root[0],)), VerificationResult((), (miss,))

    def test_starts_at_one(self):
        policy, _, _ = self._policy()
        assert policy.rel == 1.0

    def test_hit_moves_toward_one(self):
        policy, hit, _ = self._policy()
        policy.rel = 0.5
        policy.observe(hit)
        assert policy.rel == pytest.approx(0.55)

    def test_miss_decays(self):
        policy, _, miss = self._policy()
        policy.observe(miss)
        assert policy.rel == pytest.approx(0.90)

    def test_all_hit_stream_converges_geometrically(self):
        policy, hit, _ = self._policy()
        policy.rel = 0.3
        gaps = []
        for _ in range(30):
            policy.observe(hit)
            gaps.append(1.0 - policy.rel)
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(0.9 * a, rel=1e-9)

    def test_floor_clamp(self):
        policy, _, miss = self._policy()
        policy.rel = RELIABILITY_FLOOR + 0.01
        for _ in range(50):
            policy.observe(miss)
        assert policy.rel == RELIABILITY_FLOOR

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), max_size=60))
    def test_stays_within_floor_and_one(self, hits):
        # 60 cycles: a run of misses long enough to reach the floor fits
        policy, hit, miss = self._policy()
        for h in hits:
            policy.observe(hit if h else miss)
            assert RELIABILITY_FLOOR <= policy.rel <= 1.0
        policy.rel = 1.0
        policy.observe(hit)
        assert policy.rel == 1.0

    def test_never_expanded_stop_node_gives_no_update(self):
        policy, _, miss = self._policy()
        tree, sets = policy._last.tree, policy._last.candidate_sets
        leaf = next(n for n in tree.ids() if n != ROOT_ID and n not in sets)
        path = []
        node = leaf
        while node != ROOT_ID:
            path.append(node)
            node = tree.node(node).parent
        emitted = (*path_tokens(tree, leaf), miss.fallback)
        policy.rel = 0.5
        policy.observe(VerificationResult(tuple(reversed(path)), emitted))
        assert policy.rel == 0.5


class TestChain:
    def test_chain_shape_and_counts(self):
        _, draft = models()
        out = ChainPolicy(draft, HW, length=8).build([4, 2])
        assert out.tree.node_count == 9
        assert out.tree.leaf_count == 1
        assert out.expansion_counts == [1] * 8

    def test_chain_follows_draft_argmax(self):
        target, draft = models()
        out = ChainPolicy(draft, HW, length=4).build([4, 2])
        _, tokens = flatten(out.tree)
        prefix = [4, 2]
        import numpy as np

        for token in tokens[1:]:
            assert token == int(np.argmax(draft.next_dist(prefix)))
            prefix.append(token)

    def test_reaches_are_path_draft_probabilities(self):
        _, draft = models()
        out = ChainPolicy(draft, HW, length=3).build([4, 2])
        tree = out.tree
        prefix, reach = [4, 2], 1.0
        for nid in tree.ids():
            if nid == ROOT_ID:
                continue
            node = tree.node(nid)
            reach *= float(draft.next_dist(prefix)[node.token])
            assert node.reach == reach
            prefix.append(node.token)

    def test_bad_length_is_refused_at_construction(self):
        _, draft = models()
        with pytest.raises(ConfigError, match="chain length"):
            ChainPolicy(draft, HW, length=0)


class TestBalanced:
    @pytest.mark.parametrize(
        "fanout,budget,depth", [(2, 16, 3), (2, 6, 2), (2, 2, 1), (3, 10, 1), (3, 12, 2)]
    )
    def test_depth_fits_budget(self, fanout, budget, depth):
        _, draft = models()
        policy = BalancedTreePolicy(draft, HW, fanout, budget)
        assert policy.depth == depth
        nodes = sum(fanout ** (d + 1) for d in range(depth))
        assert nodes <= budget

    def test_level_counts_are_batchable(self):
        _, draft = models()
        out = BalancedTreePolicy(draft, HW, 2, 16).build([4, 2])
        assert out.expansion_counts == [1, 2, 4]
        assert out.tree.node_count == 15   # root + 2 + 4 + 8
        assert out.tree.leaf_count == 8

    def test_children_are_top_k_of_draft(self):
        import numpy as np

        _, draft = models()
        out = BalancedTreePolicy(draft, HW, 2, 6).build([4, 2])
        tree = out.tree
        p = draft.next_dist([4, 2])
        top2 = sorted(range(16), key=lambda t: (-p[t], t))[:2]
        got = [tree.node(c).token for c in tree.children(ROOT_ID)]
        assert got == top2

    def test_every_parent_records_its_candidate_set(self):
        # pruning normalizes each parent's scores over its recorded set
        _, draft = models()
        out = BalancedTreePolicy(draft, HW, 2, 16).build([4, 2])
        tree = out.tree
        parents = [nid for nid in tree.ids() if tree.children(nid)]
        assert sorted(out.candidate_sets) == parents
        for parent in parents:
            kids = tuple(tree.node(c).token for c in tree.children(parent))
            assert kids == candidate_tokens(out.candidate_sets[parent])

    @pytest.mark.parametrize("fanout,budget", [(0, 16), (2, 0)])
    def test_bad_shape_is_refused_at_construction(self, fanout, budget):
        _, draft = models()
        with pytest.raises(ConfigError, match="fanout and node_budget"):
            BalancedTreePolicy(draft, HW, fanout, budget)

    @pytest.mark.parametrize("fanout,budget", [(4, 3), (2, 1), (16, 15)])
    def test_first_level_over_budget_is_refused(self, fanout, budget):
        # a first level wider than the budget would draft past it
        _, draft = models()
        with pytest.raises(
            ConfigError, match=f"fanout={fanout} exceeds node_budget={budget}"
        ):
            BalancedTreePolicy(draft, HW, fanout, budget)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10_000),
    agreement=st.floats(0.0, 1.0),
    length=st.integers(1, 10),
    context=st.lists(st.integers(0, 15), min_size=1, max_size=4),
    draft_cpu_ms=st.floats(0.0, 30.0),
)
def test_chain_is_the_one_wide_balanced_tree(seed, agreement, length, context, draft_cpu_ms):
    _, draft = models(seed, agreement)
    hw = replace(HW, draft_cpu_ms=draft_cpu_ms)
    chain = ChainPolicy(draft, hw, length).build(context)
    tree = BalancedTreePolicy(draft, hw, 1, length).build(context)
    assert tree_json(chain.tree) == tree_json(tree.tree)
    assert chain.estimate == tree.estimate
    assert chain.stop == tree.stop
    assert chain.expansion_counts == tree.expansion_counts


class RecordingDraft:
    """A draft that logs the padded tail of every ``next_dist`` read.  It
    keeps no candidate-set memo (``draft_candidates`` stores its sets in a
    dict that this property hands out fresh on each access), so every
    expansion of a build shows up as one read."""

    def __init__(self, base):
        self.base = base
        self.vocab_size = base.vocab_size
        self.order = base.order
        self.reads: list[tuple[int, ...]] = []

    @property
    def _candidate_sets(self):
        return {}

    def next_dist(self, prefix):
        self.reads.append(tuple(prefix))
        return self.base.next_dist(prefix)


class FreshEachCycle:
    """A fixed-shape policy that never memoizes: every cycle builds with a
    new policy made by ``make``."""

    def __init__(self, make):
        self.make = make

    def build(self, context):
        return self.make().build(context)

    def observe(self, result):
        pass


@st.composite
def fixed_shape_trials(draw):
    """A tabular or layered target, its mixture draft, a chain or balanced
    policy factory, and contexts whose padded draft tails repeat: each is a
    random head (possibly empty, so short contexts pad) followed by one of a
    few shared endings."""
    vocab = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 10_000))
    order = draw(st.integers(1, 3))
    if draw(st.booleans()):
        target = TabularMarkovModel(vocab, order, seed=seed)
    else:
        target = LayeredTargetModel(
            vocab, order, depth=draw(st.integers(2, 3)), hidden_dim=draw(st.integers(2, 6)),
            seed=seed,
        )
    draft = derive_draft(
        target, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])), noise_seed=seed + 1,
        noise_order=draw(st.integers(1, 3)),
    )
    if draw(st.booleans()):
        length = draw(st.integers(1, 6))
        make = lambda d: ChainPolicy(d, HW, length)  # noqa: E731
    else:
        fanout = draw(st.integers(1, min(3, vocab)))
        budget = draw(st.integers(fanout, 24))
        make = lambda d: BalancedTreePolicy(d, HW, fanout, budget)  # noqa: E731
    token = st.integers(0, vocab - 1)
    endings = draw(st.lists(st.lists(token, min_size=1, max_size=3), min_size=1, max_size=4))
    contexts = draw(
        st.lists(
            st.builds(lambda head, end: head + end,
                      st.lists(token, max_size=5), st.sampled_from(endings)),
            min_size=2, max_size=12,
        )
    )
    return target, draft, make, contexts


def build_fields(out):
    return (
        tree_json(out.tree), out.candidate_sets, out.estimate, out.stop, out.expansion_counts
    )


class TestFixedShapeMemo:
    @settings(max_examples=150, deadline=None)
    @given(fixed_shape_trials())
    def test_every_build_equals_a_fresh_first_build(self, trial):
        _, draft, make, contexts = trial
        policy = make(draft)
        for context in contexts:
            got = policy.build(context)
            want = make(draft).build(context)
            assert build_fields(got) == build_fields(want)

    @settings(max_examples=100, deadline=None)
    @given(fixed_shape_trials())
    def test_a_repeated_tail_reads_the_draft_zero_times(self, trial):
        _, draft, make, contexts = trial
        recording = RecordingDraft(draft)
        policy = make(recording)
        seen = set()
        for context in contexts:
            tail = _padded_tail(context, draft.order)
            before = len(recording.reads)
            policy.build(context)
            reads = len(recording.reads) - before
            if tail in seen:
                assert reads == 0
            else:
                # the root is expanded first, from the tail itself
                assert reads >= 1 and recording.reads[before] == tail
            seen.add(tail)

    @settings(max_examples=60, deadline=None)
    @given(fixed_shape_trials(), st.integers(1, 40))
    def test_decode_equals_a_policy_that_never_memoizes(self, trial, horizon):
        target, draft, make, contexts = trial
        memo = run_decode(target, contexts[0], horizon, make(draft))
        fresh = run_decode(target, contexts[0], horizon, FreshEachCycle(lambda: make(draft)))
        assert memo.tokens == fresh.tokens == target_greedy_decode(target, contexts[0], horizon)
        assert memo.cycles == fresh.cycles

    def test_each_policy_instance_keeps_its_own_builds(self):
        _, draft = models()
        first, second = ChainPolicy(draft, HW, 4), ChainPolicy(draft, HW, 4)
        out = first.build([4, 2])
        assert first.build([7, 4, 2]) is out
        assert second.build([4, 2]) is not out
        assert build_fields(second.build([4, 2])) == build_fields(out)
