import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.errors import ConfigError
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.policies import BalancedTreePolicy, ChainPolicy, RootOnlyPolicy
from flashspec.tree import ROOT_ID, flatten
from helpers import tree_json


def models(seed=9, agreement=0.8):
    target = TabularMarkovModel(16, 2, seed=seed)
    return target, derive_draft(target, agreement, noise_seed=seed + 1)


class TestRootOnly:
    def test_builds_bare_root(self):
        policy = RootOnlyPolicy()
        out = policy.build([4, 2])
        assert out.tree.node_count == 1
        assert out.expansion_counts == []
        assert out.estimate.gain == 1.0


class TestChain:
    def test_chain_shape_and_counts(self):
        _, draft = models()
        out = ChainPolicy(draft, length=8).build([4, 2])
        assert out.tree.node_count == 9
        assert out.tree.leaf_count == 1
        assert out.expansion_counts == [1] * 8

    def test_chain_follows_draft_argmax(self):
        target, draft = models()
        out = ChainPolicy(draft, length=4).build([4, 2])
        layout = flatten(out.tree)
        prefix = [4, 2]
        import numpy as np

        for token in layout.tokens[1:]:
            assert token == int(np.argmax(draft.next_dist(prefix)))
            prefix.append(token)

    def test_reaches_are_path_draft_probabilities(self):
        _, draft = models()
        out = ChainPolicy(draft, length=3).build([4, 2])
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
            ChainPolicy(draft, length=0)


class TestBalanced:
    @pytest.mark.parametrize(
        "fanout,budget,depth", [(2, 16, 3), (2, 6, 2), (2, 2, 1), (3, 10, 1), (3, 12, 2)]
    )
    def test_depth_fits_budget(self, fanout, budget, depth):
        _, draft = models()
        policy = BalancedTreePolicy(draft, fanout, budget)
        assert policy.depth() == depth
        nodes = sum(fanout ** (d + 1) for d in range(depth))
        assert nodes <= max(budget, fanout)

    def test_level_counts_are_batchable(self):
        _, draft = models()
        out = BalancedTreePolicy(draft, 2, 16).build([4, 2])
        assert out.expansion_counts == [1, 2, 4]
        assert out.tree.node_count == 15   # root + 2 + 4 + 8
        assert out.tree.leaf_count == 8

    def test_children_are_top_k_of_draft(self):
        import numpy as np

        _, draft = models()
        out = BalancedTreePolicy(draft, 2, 6).build([4, 2])
        tree = out.tree
        p = draft.next_dist([4, 2])
        top2 = sorted(range(16), key=lambda t: (-p[t], t))[:2]
        got = [tree.node(c).token for c in tree.children(ROOT_ID)]
        assert got == top2

    @pytest.mark.parametrize("fanout,budget", [(0, 16), (2, 0)])
    def test_bad_shape_is_refused_at_construction(self, fanout, budget):
        _, draft = models()
        with pytest.raises(ConfigError, match="fanout and node_budget"):
            BalancedTreePolicy(draft, fanout, budget)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 10_000),
    agreement=st.floats(0.0, 1.0),
    length=st.integers(1, 10),
    context=st.lists(st.integers(0, 15), min_size=1, max_size=4),
    draft_ms=st.floats(0.0, 30.0),
)
def test_chain_is_the_one_wide_balanced_tree(seed, agreement, length, context, draft_ms):
    _, draft = models(seed, agreement)
    chain = ChainPolicy(draft, length, draft_ms=draft_ms).build(context)
    tree = BalancedTreePolicy(draft, 1, length, draft_ms=draft_ms).build(context)
    assert tree_json(chain.tree) == tree_json(tree.tree)
    assert chain.estimate == tree.estimate
    assert chain.stop == tree.stop
    assert chain.expansion_counts == tree.expansion_counts
