"""The cost-class builder against the per-entry reference builder."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import (
    DraftConfig,
    LatencyProfile,
    ReliabilityState,
    build_tree,
)
from flashspec.models import TabularMarkovModel, derive_draft
from helpers import affine_profile
from reference_builder import build_tree as reference_build_tree


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
    """A recipe for a dense affine grid or a sparse table whose misses pay
    the miss penalty; each builder gets its own profile from the same
    recipe."""
    if draw(st.booleans()):
        args = (
            draw(st.floats(50.0, 1000.0)),
            draw(st.sampled_from([0.0, 0.5, 3.0, 10.0])),
            draw(st.sampled_from([0.0, 1.0, 4.0])),
            draw(st.integers(2, 40)),
            draw(st.integers(1, 16)),
        )
        return lambda: affine_profile(*args)
    rows = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 14), st.integers(1, 6)),
            st.floats(10.0, 2000.0),
            min_size=1,
            max_size=20,
        )
    )
    return lambda: LatencyProfile(rows)


@st.composite
def instances(draw):
    vocab = draw(st.integers(6, 12))
    target = TabularMarkovModel(
        vocab, draw(st.integers(1, 2)), draw(st.integers(0, 10_000)),
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
    rel = ReliabilityState(value=draw(st.floats(0.05, 1.0)))
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=4))
    draft_ms = draw(st.floats(0.0, 30.0))
    return draft, cfg, rel, context, draw(profiles()), draft_ms


def _assert_same(fast, slow):
    assert fast.tree.to_json() == slow.tree.to_json()
    assert fast.steps == slow.steps
    assert fast.stop == slow.stop
    assert fast.estimate == slow.estimate
    assert fast.expansion_counts == slow.expansion_counts
    assert fast.candidate_sets == slow.candidate_sets


@settings(max_examples=200)
@given(instances())
def test_fast_builder_matches_reference(instance):
    draft, cfg, rel, context, make_profile, draft_ms = instance
    for record_frontier in (False, True):
        kwargs = dict(draft_ms=draft_ms, record_frontier=record_frontier)
        fast = build_tree(context, draft, cfg, rel, make_profile(), **kwargs)
        slow = reference_build_tree(context, draft, cfg, rel, make_profile(), **kwargs)
        _assert_same(fast, slow)
