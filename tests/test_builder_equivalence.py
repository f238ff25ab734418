"""The cost-class builder against the per-entry reference builder."""

from itertools import count

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
from reference_builder import build_tree as reference_build_tree


class CoarseDraft:
    """Draft probabilities rounded to quarters, so candidates tie on reach
    and ratio and the tie-break decides."""

    def __init__(self, base):
        self.base = base
        self.vocab_size = base.vocab_size

    def next_dist(self, prefix):
        return np.round(self.base.next_dist(prefix) * 4) / 4


@st.composite
def profiles(draw):
    """A recipe for a dense affine grid or a sparse table whose misses pay
    a penalty; each builder gets its own profile from the same recipe."""
    if draw(st.booleans()):
        args = (
            draw(st.floats(50.0, 1000.0)),
            draw(st.sampled_from([0.0, 0.5, 3.0, 10.0])),
            draw(st.sampled_from([0.0, 1.0, 4.0])),
            draw(st.integers(2, 40)),
            draw(st.integers(1, 16)),
        )
        return lambda: LatencyProfile.affine(*args)
    penalty = draw(st.floats(1.01, 2.0))
    rows = draw(
        st.lists(
            st.tuples(st.integers(1, 14), st.integers(1, 6), st.floats(10.0, 2000.0)),
            min_size=1,
            max_size=20,
        )
    )

    def sparse() -> LatencyProfile:
        profile = LatencyProfile(penalty=penalty)
        for nodes, leaves, ms in rows:
            profile.set_entry((nodes, leaves), ms)
        return profile

    return sparse


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
        draft_ms_seed=draw(st.floats(0.5, 5.0)),
        ma_window=draw(st.integers(1, 8)),
        max_nodes=max_nodes,
    )
    rel = ReliabilityState(value=draw(st.floats(0.05, 1.0)))
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=4))
    # a timer whose readings vary keeps the draft moving average moving
    timer_ms = draw(
        st.one_of(st.none(), st.lists(st.floats(0.5, 6.0), min_size=1, max_size=5))
    )
    return draft, cfg, rel, context, draw(profiles()), timer_ms


def _timer(readings):
    if readings is None:
        return None
    steps = count()
    return lambda n: readings[next(steps) % len(readings)] * n


def _assert_same(fast, slow):
    assert fast.tree.to_json() == slow.tree.to_json()
    assert fast.steps == slow.steps
    assert fast.stop == slow.stop
    assert fast.estimate == slow.estimate
    assert fast.expansion_counts == slow.expansion_counts
    assert fast.candidate_sets == slow.candidate_sets


@settings(max_examples=200)
@given(instances(), st.booleans())
def test_fast_builder_matches_reference(instance, add_shadows):
    draft, cfg, rel, context, make_profile, timer_ms = instance
    for record_frontier in (False, True):
        kwargs = dict(record_frontier=record_frontier, add_shadows=add_shadows)
        fast = build_tree(
            context, draft, cfg, rel, make_profile(),
            draft_timer=_timer(timer_ms), **kwargs,
        )
        slow = reference_build_tree(
            context, draft, cfg, rel, make_profile(),
            draft_timer=_timer(timer_ms), **kwargs,
        )
        _assert_same(fast, slow)
