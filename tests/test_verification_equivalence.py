"""Path-only verification, parent-only prune rows, one-pass edge scoring,
the prune decision, compaction by remapping and the edge index against the
slow references in ``reference_verification``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.models import LayeredTargetModel, TabularMarkovModel
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource, LayeredHiddenSource
from flashspec.pruning import PruneConfig, TreePruner, normalize_scores, prune
from flashspec.tree import ROOT_ID, TokenTree, compact_with_map
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


def grow_tree(draw, vocab, max_inserts):
    """A random tree with shadows: parents get uneven candidate groups
    (children only, children plus some shadows, shadows only)."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    tree = TokenTree()
    handles = [ROOT_ID]
    for _ in range(draw(st.integers(0, max_inserts))):
        # favour early handles so that some parents get wide groups
        parent = handles[int(rng.integers(len(handles))) // 2]
        token = int(rng.integers(vocab))
        taken = tree.children(parent) + tree.shadow_children(parent)
        if tree.node(parent).shadow or any(tree.node(c).token == token for c in taken):
            continue
        reach = tree.node(parent).reach * float(rng.choice([0.5, 0.9, 1.0]))
        handles.append(tree.insert(parent, token, reach, bool(rng.integers(2))))
    return tree


@st.composite
def score_cases(draw):
    """A tree, its parents' hidden rows from a real source, a probe on
    them (identity on log-probabilities, or a random probe on a layered
    target's intermediate layer) and a temperature."""
    vocab = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 10_000))
    tree = grow_tree(draw, vocab, 60)
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=4))
    if draw(st.booleans()):
        target = TabularMarkovModel(vocab, draw(st.integers(1, 2)), seed, concentration=0.3)
        pred = EarlyExitPredictor.identity_probe(vocab)
        source = ExactProbeSource(target)
    else:
        target = LayeredTargetModel(
            vocab, draw(st.integers(1, 2)), depth=3,
            hidden_dim=draw(st.integers(1, 8)), seed=seed,
        )
        layer = draw(st.integers(1, 2))
        rng = np.random.default_rng(seed)
        pred = EarlyExitPredictor(rng.standard_normal((vocab, target.hidden_dim)), layer)
        source = LayeredHiddenSource(target, layer)
    parents = [nid for nid in tree.ids() if tree.children(nid)]
    hidden = source.rows([context + tree.path_tokens(p) for p in parents])
    tau = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return pred, hidden, tree, parents, tau


@settings(max_examples=200)
@given(score_cases())
def test_one_pass_scores_match_per_edge_reference(case):
    pred, hidden, tree, parents, tau = case
    got = normalize_scores(pred, hidden, tree, parents, tau)
    want = ref.normalize_parent_scores(pred, hidden, tree, parents, tau)
    assert got == want
    assert list(got) == list(want)


@st.composite
def prune_cases(draw):
    """A tree, a score for every edge (drawn from a few values, so ties on
    score and on reach are common) and a prune config."""
    tree = grow_tree(draw, draw(st.integers(2, 12)), 40)
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    levels = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    scores = {
        (tree.node(nid).parent, tree.node(nid).token): float(rng.choice(levels))
        for nid in tree.ids(include_shadow=True)
        if nid != ROOT_ID
    }
    cfg = PruneConfig(
        theta=draw(st.sampled_from([0.1, 0.3, 0.5, 0.8])),
        root_keep=draw(st.integers(0, 3)),
        min_keep_frac=draw(st.sampled_from([0.0, 0.1, 0.4, 0.9])),
        min_leaves=draw(st.integers(0, 4)),
    )
    return tree, scores, cfg


@settings(max_examples=200)
@given(prune_cases())
def test_prune_matches_reference(case):
    tree, scores, cfg = case
    assert prune(tree, scores, cfg) == ref.prune(tree, scores, cfg)


@st.composite
def keep_cases(draw):
    """A tree and a random ancestor-closed set of its non-shadow nodes."""
    tree = grow_tree(draw, draw(st.integers(2, 12)), 40)
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    keep = {ROOT_ID}
    for nid in tree.ids():
        if rng.integers(2):
            while nid not in keep:
                keep.add(nid)
                nid = tree.node(nid).parent
    return tree, keep


@settings(max_examples=200)
@given(keep_cases())
def test_compaction_by_remapping_matches_reinsertion(case):
    tree, keep = case
    got, mapping = compact_with_map(tree, keep)
    want, want_mapping = ref.compact_with_map(tree, keep)
    assert got.to_json() == want.to_json()
    assert mapping == want_mapping
    assert got.shape == want.shape == got.recount()


@st.composite
def indexed_trees(draw):
    vocab = draw(st.integers(2, 12))
    return grow_tree(draw, vocab, 40), vocab


@settings(max_examples=200)
@given(indexed_trees())
def test_edge_index_matches_linear_scan(case):
    """The ``(parent, token)`` index behind insertion's duplicate and shadow
    checks agrees with a scan of the child and shadow lists."""
    tree, vocab = case
    for nid in tree.ids(include_shadow=True):
        members = tree.children(nid) + tree.shadow_children(nid)
        for token in range(-1, vocab + 1):
            scan = [(c, tree.node(c).shadow) for c in members if tree.node(c).token == token]
            assert tree._edges.get((nid, token)) == (scan[0] if scan else None)
