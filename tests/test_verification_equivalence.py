"""Path-only verification through a keep set, parent-only prune rows,
one-pass edge scoring, the prune decision, compaction by remapping, the edge
index and child lookup against the slow references in
``reference_verification`` and ``helpers``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flashspec.errors import ContractError
from flashspec.models import LayeredTargetModel, TabularMarkovModel
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource, LayeredHiddenSource
from flashspec.pruning import PruneConfig, TreePruner, normalize_scores, prune
from flashspec.tree import ROOT_ID, TokenTree
from flashspec.verification import verify_tree
from helpers import child_by_token, compact_with_map, recount, tree_json
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
def target_trees(draw):
    """A target, a context and a random tree with shadows (some tokens are
    the target's greedy choice, so paths get accepted)."""
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
    return target, context, tree


@st.composite
def cases(draw):
    """A target, a context, a random tree and a pruner recipe."""
    target, context, tree = draw(target_trees())
    vocab = target.vocab_size
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
    pruner = TreePruner(pred, recording, cfg)
    decision = pruner.apply(tree, context)
    ref_pruned, new_to_old, ref_decision = ref.TreePruner(pred, ref_source, cfg).apply(
        tree, context
    )
    assert tree_json(compact_with_map(tree, decision.keep)[0]) == tree_json(ref_pruned)
    assert decision == ref_decision
    assert (len(decision.keep), decision.leaves) == ref_pruned.shape
    assert pruner.exit_fraction == ref_source.exit_fraction
    assert recording.prefixes == [
        context + tree.path_tokens(nid) for nid in tree.ids() if tree.children(nid)
    ]

    identity = {nid: nid for nid in tree.ids()}
    for keep, verified, to_built in (
        (None, tree, identity),
        (decision.keep, ref_pruned, new_to_old),
    ):
        counting = CountingTarget(target)
        got = verify_tree(counting, context, tree, keep)
        want = ref.verify_tree(target, context, verified)
        assert got.accepted_nodes == tuple(to_built[n] for n in want.accepted_nodes)
        assert got.accepted_len == want.accepted_len
        assert got.emitted == want.emitted
        assert got.fallback == want.fallback
        assert counting.calls == got.accepted_len + 1


def closed_keep(tree, rng):
    """A random ancestor-closed set of the tree's non-shadow nodes."""
    keep = {ROOT_ID}
    for nid in tree.ids():
        if rng.integers(2):
            while nid not in keep:
                keep.add(nid)
                nid = tree.node(nid).parent
    return keep


@st.composite
def walk_cases(draw):
    """A target, a context, a random tree and an ancestor-closed keep set:
    the root only, every non-shadow node, or a random closed subset."""
    target, context, tree = draw(target_trees())
    kind = draw(st.sampled_from(["root", "all", "random"]))
    if kind == "root":
        keep = {ROOT_ID}
    elif kind == "all":
        keep = set(tree.ids())
    else:
        keep = closed_keep(tree, np.random.default_rng(draw(st.integers(0, 10_000))))
    return target, context, tree, frozenset(keep)


@settings(max_examples=200, derandomize=True)
@given(walk_cases())
def test_keep_set_walk_matches_verifying_the_compacted_tree(case):
    """Walking the built tree restricted to a keep set accepts the nodes
    that verifying the compacted copy accepts, mapped back to built ids."""
    target, context, tree, keep = case
    compacted, old_to_new = compact_with_map(tree, keep)
    new_to_old = {new: old for old, new in old_to_new.items()}
    counting = CountingTarget(target)
    got = verify_tree(counting, context, tree, keep)
    want = ref.verify_tree(target, context, compacted)
    assert got.accepted_nodes == tuple(new_to_old[n] for n in want.accepted_nodes)
    assert set(got.accepted_nodes) <= keep
    assert got.accepted_len == want.accepted_len
    assert got.emitted == want.emitted
    assert got.fallback == want.fallback
    assert counting.calls == got.accepted_len + 1


def ancestors(tree, nid):
    out = set()
    while nid != ROOT_ID:
        nid = tree.node(nid).parent
        out.add(nid)
    return out


@st.composite
def malformed_keeps(draw):
    """A tree and a keep set with exactly one fault: the root missing, an
    unknown id, a shadow node, or a node kept without its parent."""
    tree = grow_tree(draw, draw(st.integers(2, 12)), 40)
    keep = closed_keep(tree, np.random.default_rng(draw(st.integers(0, 10_000))))
    fault = draw(st.sampled_from(["root", "unknown", "shadow", "ancestor"]))
    if fault == "root":
        keep.discard(ROOT_ID)
    elif fault == "unknown":
        keep.add(draw(st.sampled_from([len(tree), len(tree) + 7, -1, -3])))
    elif fault == "shadow":
        shadows = [nid for nid in tree.ids(include_shadow=True) if tree.node(nid).shadow]
        assume(shadows)
        keep.add(draw(st.sampled_from(shadows)))
    else:
        deep = [nid for nid in tree.ids() if tree.node(nid).depth >= 2]
        assume(deep)
        orphan = draw(st.sampled_from(deep))
        cut = tree.node(orphan).parent
        # drop the parent and everything kept below it, then keep the orphan
        keep = {nid for nid in keep if cut not in ancestors(tree, nid) | {nid}}
        keep.add(orphan)
    return tree, frozenset(keep)


@settings(max_examples=200, derandomize=True)
@given(malformed_keeps())
def test_malformed_keep_set_raises_the_compaction_error(case):
    tree, keep = case
    with pytest.raises(ContractError) as compacting:
        compact_with_map(tree, keep)
    target = TabularMarkovModel(12, 1, 0)
    with pytest.raises(ContractError) as verifying:
        verify_tree(target, [0], tree, keep)
    assert str(verifying.value) == str(compacting.value)


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
    return tree, closed_keep(tree, np.random.default_rng(draw(st.integers(0, 10_000))))


@settings(max_examples=200)
@given(keep_cases())
def test_compaction_by_remapping_matches_reinsertion(case):
    tree, keep = case
    got, mapping = compact_with_map(tree, keep)
    want, want_mapping = ref.compact_with_map(tree, keep)
    assert tree_json(got) == tree_json(want)
    assert mapping == want_mapping
    assert got.shape == want.shape == recount(got)


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


@settings(max_examples=200, derandomize=True)
@given(indexed_trees())
def test_child_matches_linear_scan(case):
    """``TokenTree.child`` finds the non-shadow child a scan finds, and
    nothing for shadow tokens, absent tokens and shadow parents."""
    tree, vocab = case
    for nid in tree.ids(include_shadow=True):
        for token in range(-1, vocab + 1):
            assert tree.child(nid, token) == child_by_token(tree, nid, token)
