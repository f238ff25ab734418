"""The cost-class builder against the per-entry reference builder, and the
fixed-shape builds, which carry draft tails, against the full-prefix
reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import (
    DraftConfig,
    LatencyProfile,
    build_tree,
)
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.policies import BalancedTreePolicy, ChainPolicy
from flashspec.simulator import load_preset
from helpers import affine_profile, grid_shapes, tree_json
from reference_builder import build_tree as reference_build_tree
from reference_builder import grow_levels


class CoarseDraft:
    """Draft probabilities rounded to quarters, so candidates tie on reach
    and ratio and the tie-break decides."""

    def __init__(self, base):
        self.base = base
        self.vocab_size = base.vocab_size
        self.order = base.order

    def next_dist(self, prefix):
        return np.round(self.base.next_dist(prefix) * 4) / 4


@st.composite
def profiles(draw):
    """A recipe for a dense affine grid or a grid of random, non-affine
    prices, both small enough that builds run off their edges and pay the
    miss penalty; each builder gets its own profile from the same recipe."""
    if draw(st.booleans()):
        args = (
            draw(st.floats(50.0, 1000.0)),
            draw(st.sampled_from([0.0, 0.5, 3.0, 10.0])),
            draw(st.sampled_from([0.0, 1.0, 4.0])),
            draw(st.integers(2, 40)),
            draw(st.integers(1, 16)),
        )
        return lambda: affine_profile(*args)
    max_nodes, max_leaves = draw(st.integers(1, 14)), draw(st.integers(1, 6))
    prices = {s: draw(st.floats(10.0, 2000.0)) for s in grid_shapes(max_nodes, max_leaves)}
    return lambda: LatencyProfile(lambda n, l: prices[n, l], max_nodes, max_leaves)


@st.composite
def instances(draw):
    vocab = draw(st.integers(6, 12))
    target = TabularMarkovModel(
        vocab, draw(st.integers(1, 3)), draw(st.integers(0, 10_000)),
        concentration=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    draft = derive_draft(
        target, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10_000))
    )
    if draw(st.booleans()):
        draft = CoarseDraft(draft)
    max_nodes = draw(st.one_of(st.none(), st.integers(1, 24)))
    cfg = DraftConfig(
        k=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(1, 5)),
        # without a node budget, a reach floor keeps the trees small
        b_min=draw(st.floats(0.0 if max_nodes else 0.01, 0.2)),
        max_nodes=max_nodes,
    )
    rel = draw(st.floats(0.05, 1.0))
    # Contexts shorter than the draft order (padded) and far longer: the
    # builder drafts from each node's carried tail, the reference from the
    # full prefix.
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=40))
    draft_ms = draw(st.floats(0.0, 30.0))
    return draft, cfg, rel, context, draw(profiles()), draft_ms


@settings(max_examples=200)
@given(instances())
def test_fast_builder_matches_reference(instance):
    draft, cfg, rel, context, make_profile, draft_ms = instance
    fast = build_tree(context, draft, cfg, rel, make_profile(), draft_ms=draft_ms)
    slow, _ = reference_build_tree(
        context, draft, cfg, rel, make_profile(), draft_ms=draft_ms
    )
    # tree JSON lists nodes in insertion order: equal JSON means the same
    # sequence of chosen entries
    assert tree_json(fast.tree) == tree_json(slow.tree)
    assert fast.stop == slow.stop
    assert fast.estimate == slow.estimate
    assert fast.expansion_counts == slow.expansion_counts
    assert fast.candidate_sets == slow.candidate_sets


@st.composite
def fixed_shape_instances(draw):
    vocab = draw(st.integers(6, 12))
    target = TabularMarkovModel(
        vocab, draw(st.integers(1, 3)), draw(st.integers(0, 10_000)),
        concentration=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    draft = derive_draft(
        target, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 10_000))
    )
    if draw(st.booleans()):
        draft = CoarseDraft(draft)
    hw = load_preset("llama31-8b")
    if draw(st.booleans()):
        policy = ChainPolicy(draft, hw, draw(st.integers(1, 8)))
        fanout, depth = 1, policy.length
    else:
        fanout = draw(st.integers(1, 4))
        policy = BalancedTreePolicy(draft, hw, fanout, draw(st.integers(fanout, 40)))
        depth = policy.depth()
    # contexts shorter than the draft order (padded) and far longer
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=40))
    return policy, draft, context, fanout, depth


@settings(max_examples=100)
@given(fixed_shape_instances())
def test_fixed_shape_tails_match_full_prefix_reference(instance):
    policy, draft, context, fanout, depth = instance
    out = policy.build(context)
    tree, candidate_sets, counts, gain = grow_levels(draft, context, fanout, depth)
    assert tree_json(out.tree) == tree_json(tree)
    assert out.candidate_sets == candidate_sets
    assert out.expansion_counts == counts
    assert out.estimate.gain == gain
