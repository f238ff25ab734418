from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import DraftConfig
from flashspec.errors import ConfigError
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.policies import BalancedTreePolicy, ChainPolicy, GainCostPolicy, RootOnlyPolicy
from flashspec.simulator import load_preset
from flashspec.tree import ROOT_ID, flatten
from flashspec.verification import VerificationResult
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
    """The reliability is an EMA of candidate-set hits: decay ``cfg.beta``,
    clamped to [``cfg.r_min``, 1]."""

    def _policy(self, **cfg):
        _, draft = models()
        policy = GainCostPolicy(
            draft, DraftConfig(k=3, max_depth=3, b_min=0.01, **cfg),
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
        policy, _, miss = self._policy(r_min=0.05)
        policy.rel = 0.06
        for _ in range(50):
            policy.observe(miss)
        assert policy.rel == 0.05

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.99), st.lists(st.booleans(), max_size=30))
    def test_stays_within_floor_and_one(self, beta, hits):
        policy, hit, miss = self._policy(beta=beta, r_min=0.2)
        for h in hits:
            policy.observe(hit if h else miss)
            assert 0.2 <= policy.rel <= 1.0
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
        assert policy.depth() == depth
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
