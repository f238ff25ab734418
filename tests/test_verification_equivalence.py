"""Path-only verification and parent-only prune rows against the all-rows
reference in ``reference_verification``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.models import LayeredTargetModel, TabularMarkovModel
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource, LayeredHiddenSource
from flashspec.pruning import PruneConfig, TreePruner
from flashspec.tree import ROOT_ID, TokenTree
from flashspec.verification import verify_tree
import reference_verification as ref


class CountingTarget:
    """Counts the target evaluations of one model."""

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.calls = 0

    def next_dist(self, prefix):
        self.calls += 1
        return self.model.next_dist(prefix)


class RecordingSource:
    """Passes prefixes through to a hidden source and records them."""

    def __init__(self, source):
        self.source = source
        self.exit_fraction = source.exit_fraction
        self.prefixes = []

    def rows(self, prefixes):
        self.prefixes.extend(list(p) for p in prefixes)
        return self.source.rows(prefixes)


@st.composite
def targets(draw):
    vocab = draw(st.integers(2, 8))
    order = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        return TabularMarkovModel(
            vocab, order, seed, concentration=draw(st.sampled_from([0.1, 0.3, 1.0]))
        )
    return LayeredTargetModel(
        vocab, order, depth=draw(st.integers(2, 5)),
        hidden_dim=draw(st.integers(1, 6)), seed=seed,
    )


@st.composite
def cases(draw):
    """A target, a context, a random tree with shadows (some tokens are the
    target's greedy choice, so paths get accepted) and a pruner recipe."""
    target = draw(targets())
    vocab = target.vocab_size
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
    tree = TokenTree()
    handles = [ROOT_ID]
    for _ in range(draw(st.integers(0, 30))):
        parent = handles[draw(st.integers(0, len(handles) - 1))]
        if tree.node(parent).shadow:
            continue
        if draw(st.booleans()):
            prefix = context + tree.path_tokens(parent)
            token = int(np.argmax(target.next_dist(prefix)))
        else:
            token = draw(st.integers(0, vocab - 1))
        taken = tree.children(parent) + tree.shadow_children(parent)
        if any(tree.node(c).token == token for c in taken):
            continue
        reach = tree.node(parent).reach * draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]))
        handles.append(tree.insert(parent, token, reach, draw(st.booleans())))

    cfg = PruneConfig(
        theta=draw(st.sampled_from([0.1, 0.3, 0.5, 0.8])),
        tau=draw(st.sampled_from([0.5, 1.0, 2.0])),
        root_keep=draw(st.integers(0, 2)),
        min_keep_frac=draw(st.sampled_from([0.0, 0.1, 0.4])),
        min_leaves=draw(st.integers(0, 2)),
    )
    if isinstance(target, LayeredTargetModel) and draw(st.booleans()):
        layer = draw(st.integers(1, target.depth - 1))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        pred = EarlyExitPredictor(rng.standard_normal((vocab, target.hidden_dim)), layer)
        sources = (LayeredHiddenSource(target, layer), ref.LayeredHiddenSource(target, layer))
    else:
        pred = EarlyExitPredictor.identity_probe(vocab)
        sources = (ExactProbeSource(target), ref.ExactProbeSource(target))
    return target, context, tree, pred, sources, cfg


@settings(max_examples=250)
@given(cases())
def test_fast_stages_match_reference(case):
    target, context, tree, pred, (source, ref_source), cfg = case

    recording = RecordingSource(source)
    pruned, summary = TreePruner(pred, recording, cfg).apply(tree, context)
    ref_pruned, ref_summary = ref.TreePruner(pred, ref_source, cfg).apply(tree, context)
    assert pruned.to_json() == ref_pruned.to_json()
    assert summary == ref_summary
    assert recording.prefixes == [
        context + tree.path_tokens(nid) for nid in tree.ids() if tree.children(nid)
    ]

    for verified in (tree, pruned):
        counting = CountingTarget(target)
        got = verify_tree(counting, context, verified)
        want = ref.verify_tree(target, context, verified)
        assert got.accepted_nodes == want.accepted_nodes
        assert got.accepted_len == want.accepted_len
        assert got.emitted == want.emitted
        assert got.fallback == want.fallback
        assert counting.calls == got.accepted_len + 1
