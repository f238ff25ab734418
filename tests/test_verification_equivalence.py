"""Path-only verification through a keep set, parent-only prune rows,
one-pass edge scoring over recorded candidate sets, the prune decision,
the edge index, child lookup and the decode loop with policy-owned feedback
against the slow references in
``reference_verification``, ``reference_builder`` and ``helpers``."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flashspec.drafting import DraftConfig, build_tree
from flashspec.errors import ContractError
from flashspec.models import LayeredTargetModel, TabularMarkovModel, derive_draft
from flashspec.policies import GainCostPolicy
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource, LayeredHiddenSource
from flashspec.pruning import PruneConfig, TreePruner, normalize_scores, prune
from flashspec.tree import ROOT_ID, TokenTree
from flashspec.verification import run_decode, verify_tree
from helpers import (
    affine_profile,
    candidate_set,
    child_by_token,
    compact_with_map,
    path_tokens,
    scores_by_id,
    tree_json,
)
from reference_builder import build_tree as reference_build_tree
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


def candidate_sets_for(tree, vocab, rng, mixed=False):
    """A valid candidate set for every parent: its children's tokens plus
    other tokens, in random order.  Every set has one size k, as every
    build records them, unless ``mixed``: then each set adds a random
    number of other tokens.  Some leaves get a set of their own, as a
    builder's expanded leaves do."""
    widest = max(len(tree.children(nid)) for nid in tree.ids())
    k = int(rng.integers(max(widest, 1), vocab + 1))
    sets = {}
    for nid in tree.ids():
        tokens = [tree.node(c).token for c in tree.children(nid)]
        if not tokens and rng.integers(2):
            continue
        others = [t for t in range(vocab) if t not in tokens]
        extra = rng.integers(len(others) + 1) if mixed else k - len(tokens)
        tokens += [int(t) for t in rng.permutation(others)[:extra]]
        if not tokens:
            continue
        rng.shuffle(tokens)
        sets[nid] = candidate_set(tokens)
    return sets


def member_counts_differ(tree, sets):
    """Whether two parents have different member counts: each parent's set
    holds its children's tokens, so its size is the count."""
    return len({len(sets[nid].entries) for nid in tree.ids() if tree.children(nid)}) > 1


def assert_scores_match(tree, got, want):
    """``got[nid]`` has the bytes of the reference's ``want[(parent, token)]``
    for every non-root node, and the root scores 1.0."""
    assert len(got) == tree.node_count
    assert np.array(got).tobytes() == np.array(scores_by_id(tree, want)).tobytes()


@st.composite
def target_trees(draw):
    """A target, a context, a random tree (some tokens are the target's
    greedy choice, so paths get accepted) and its candidate sets, of one
    size or, half the time, of mixed sizes."""
    target = draw(targets())
    vocab = target.vocab_size
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
    tree = TokenTree()
    handles = [ROOT_ID]
    for _ in range(draw(st.integers(0, 30))):
        parent = handles[draw(st.integers(0, len(handles) - 1))]
        if draw(st.booleans()):
            prefix = context + path_tokens(tree, parent)
            token = int(np.argmax(target.next_dist(prefix)))
        else:
            token = draw(st.integers(0, vocab - 1))
        if tree.child(parent, token) is not None:
            continue
        reach = tree.node(parent).reach * draw(st.sampled_from([0.25, 0.5, 0.9, 1.0]))
        handles.append(tree.insert(parent, token, reach))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    return target, context, tree, candidate_sets_for(tree, vocab, rng, draw(st.booleans()))


def draw_pruner(draw, target):
    """A prune config, a probe and its engine and reference hidden sources:
    a random probe on a layered target's intermediate layer, or the
    identity probe on exact log-probabilities."""
    vocab = target.vocab_size
    cfg = PruneConfig(theta=draw(st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.5, 0.8])))
    if isinstance(target, LayeredTargetModel) and draw(st.booleans()):
        layer = draw(st.integers(1, target.depth - 1))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        pred = EarlyExitPredictor(rng.standard_normal((vocab, target.hidden_dim)), layer)
        sources = (LayeredHiddenSource(target, layer), ref.LayeredHiddenSource(target, layer))
    else:
        pred = EarlyExitPredictor.identity_probe(vocab)
        sources = (ExactProbeSource(target), ref.ExactProbeSource(target))
    return cfg, pred, sources


@st.composite
def cases(draw):
    """A target, a context, a random tree, its candidate sets and a pruner
    recipe."""
    target, context, tree, sets = draw(target_trees())
    cfg, pred, sources = draw_pruner(draw, target)
    return target, context, tree, sets, pred, sources, cfg


@settings(max_examples=250)
@given(cases())
def test_fast_stages_match_reference(case):
    target, context, tree, sets, pred, (source, ref_source), cfg = case

    recording = RecordingSource(source)
    pruner = TreePruner(pred, recording, cfg)
    identity = {nid: nid for nid in tree.ids()}
    walks = [(None, tree, identity)]
    if member_counts_differ(tree, sets):
        with pytest.raises(ContractError, match="members"):
            pruner.apply(tree, sets, context)
    else:
        decision = pruner.apply(tree, sets, context)
        ref_pruned, new_to_old, ref_decision = ref.TreePruner(pred, ref_source, cfg).apply(
            tree, ref.leftovers(tree, sets), context
        )
        assert tree_json(compact_with_map(tree, decision.keep)[0]) == tree_json(ref_pruned)
        assert decision == ref_decision
        assert (len(decision.keep), decision.leaves) == ref_pruned.shape
        walks.append((decision.keep, ref_pruned, new_to_old))
    assert pruner.exit_fraction == ref_source.exit_fraction
    assert recording.prefixes == [
        context + path_tokens(tree, nid) for nid in tree.ids() if tree.children(nid)
    ]

    for keep, verified, to_built in walks:
        counting = CountingTarget(target)
        got = verify_tree(counting, context, tree, keep)
        want = ref.verify_tree(target, context, verified)
        assert got.accepted_nodes == tuple(to_built[n] for n in want.accepted_nodes)
        assert got.accepted_len == want.accepted_len
        assert got.emitted == want.emitted
        assert got.fallback == want.fallback
        assert counting.calls == got.accepted_len + 1


def closed_keep(tree, rng):
    """A random ancestor-closed set of the tree's nodes."""
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
    the root only, every node, or a random closed subset."""
    target, context, tree, _ = draw(target_trees())
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
    unknown id, or a node kept without its parent."""
    tree = grow_tree(draw, draw(st.integers(2, 12)), 40)
    keep = closed_keep(tree, np.random.default_rng(draw(st.integers(0, 10_000))))
    fault = draw(st.sampled_from(["root", "unknown", "ancestor"]))
    if fault == "root":
        keep.discard(ROOT_ID)
    elif fault == "unknown":
        n = tree.node_count
        keep.add(draw(st.sampled_from([n, n + 7, -1, -3])))
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
    """A random tree whose parents get uneven numbers of children."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    tree = TokenTree()
    handles = [ROOT_ID]
    for _ in range(draw(st.integers(0, max_inserts))):
        # favour early handles so that some parents get wide groups
        parent = handles[int(rng.integers(len(handles))) // 2]
        token = int(rng.integers(vocab))
        if tree.child(parent, token) is not None:
            continue
        reach = tree.node(parent).reach * float(rng.choice([0.5, 0.9, 1.0]))
        handles.append(tree.insert(parent, token, reach))
    return tree


@st.composite
def score_cases(draw):
    """A tree, candidate sets of one size or, half the time, sets that add
    uneven numbers of childless tokens to its parents, the parents' hidden
    rows from a real source and a probe on them (identity on
    log-probabilities, or a random probe on a layered target's intermediate
    layer)."""
    vocab = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 10_000))
    tree = grow_tree(draw, vocab, 60)
    sets = candidate_sets_for(tree, vocab, np.random.default_rng(seed), draw(st.booleans()))
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
    hidden = source.rows([context + path_tokens(tree, p) for p in parents])
    return pred, hidden, tree, parents, sets


@settings(max_examples=200)
@given(score_cases())
def test_one_pass_scores_match_per_edge_reference(case):
    pred, hidden, tree, parents, sets = case
    if member_counts_differ(tree, sets):
        with pytest.raises(ContractError, match="members"):
            normalize_scores(pred, hidden, tree, parents, sets)
        return
    got = normalize_scores(pred, hidden, tree, parents, sets)
    want = ref.normalize_parent_scores(pred, hidden, tree, parents, ref.leftovers(tree, sets))
    assert_scores_match(tree, got, want)


@st.composite
def build_cases(draw):
    """A gain-cost build recipe on a tabular or layered target (mixture
    draft, drafting config, reliability, profile, draft cost, context) and
    a pruner recipe."""
    target = draw(targets())
    vocab = target.vocab_size
    draft = derive_draft(
        target,
        draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0])),
        draw(st.integers(0, 10_000)),
        noise_concentration=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    cfg = DraftConfig(
        k=draw(st.integers(1, vocab)),
        max_depth=draw(st.integers(1, 5)),
        b_min=draw(st.sampled_from([0.0, 0.01, 0.1])),
        max_nodes=draw(st.sampled_from([None, 4, 16])),
    )
    rel = draw(st.sampled_from([0.05, 0.5, 1.0]))
    profile_args = (
        draw(st.floats(50.0, 1000.0)),
        draw(st.sampled_from([0.0, 3.0, 10.0])),
        draw(st.sampled_from([0.0, 1.0])),
        draw(st.integers(2, 40)),
        draw(st.integers(1, 16)),
    )
    draft_ms = draw(st.sampled_from([0.0, 2.0, 20.0]))
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=5))
    build = (draft, cfg, rel, profile_args, draft_ms)
    return (build, context, *draw_pruner(draw, target))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(build_cases())
def test_candidate_set_scores_match_the_leftover_frontier_reference(case):
    """Scoring a build over its recorded candidate sets matches the
    reference's scores over each parent's children plus its leftover
    frontier entries, byte for byte at every node id, and so do the prune
    decisions."""
    (draft, cfg, rel, profile_args, draft_ms), context, prune_cfg, pred, sources = case
    source, ref_source = sources
    fast = build_tree(context, draft, cfg, rel, affine_profile(*profile_args), draft_ms)
    slow, audit = reference_build_tree(
        context, draft, cfg, rel, affine_profile(*profile_args), draft_ms
    )
    assert tree_json(fast.tree) == tree_json(slow.tree)
    extras = {}
    for entry in audit.leftover:
        extras.setdefault(entry.parent, []).append(entry.token)

    tree = fast.tree
    parents = [nid for nid in tree.ids() if tree.children(nid)]
    hidden = source.rows([context + path_tokens(tree, p) for p in parents])
    got = normalize_scores(pred, hidden, tree, parents, fast.candidate_sets)
    want = ref.normalize_parent_scores(pred, hidden, slow.tree, parents, extras)
    assert_scores_match(tree, got, want)
    assert prune(tree, got, prune_cfg) == ref.prune(slow.tree, want, prune_cfg)

    decision = TreePruner(pred, source, prune_cfg).apply(tree, fast.candidate_sets, context)
    _, _, ref_decision = ref.TreePruner(pred, ref_source, prune_cfg).apply(
        slow.tree, extras, context
    )
    assert decision == ref_decision


@st.composite
def prune_cases(draw):
    """A tree, a score for every edge (drawn from a few values, so ties on
    score and on reach are common) and a prune config whose threshold may
    equal a score, so that posteriors land on it."""
    tree = grow_tree(draw, draw(st.integers(2, 12)), 40)
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    scores = {
        (tree.node(nid).parent, tree.node(nid).token): float(rng.choice(levels))
        for nid in tree.ids()
        if nid != ROOT_ID
    }
    thetas = [0.01, 0.05, 0.1, 0.3, 0.5, 0.8] + [x for x in levels if 0.0 < x < 1.0]
    return tree, scores, PruneConfig(theta=draw(st.sampled_from(thetas)))


@settings(max_examples=200)
@given(prune_cases())
def test_prune_matches_reference(case):
    tree, scores, cfg = case
    assert prune(tree, scores_by_id(tree, scores), cfg) == ref.prune(tree, scores, cfg)


@st.composite
def indexed_trees(draw):
    vocab = draw(st.integers(2, 12))
    return grow_tree(draw, vocab, 40), vocab


@settings(max_examples=200)
@given(indexed_trees())
def test_edge_index_matches_linear_scan(case):
    """The ``(parent, token)`` index behind insertion's duplicate check
    agrees with a scan of the child lists."""
    tree, vocab = case
    for nid in tree.ids():
        for token in range(-1, vocab + 1):
            scan = [c for c in tree.children(nid) if tree.node(c).token == token]
            assert tree._edges.get((nid, token)) == (scan[0] if scan else None)


@settings(max_examples=200, derandomize=True)
@given(indexed_trees())
def test_child_matches_linear_scan(case):
    """``TokenTree.child`` finds the child a scan finds, and nothing for
    absent tokens."""
    tree, vocab = case
    for nid in tree.ids():
        for token in range(-1, vocab + 1):
            assert tree.child(nid, token) == child_by_token(tree, nid, token)


class RecordingPolicy:
    """Passes build and observe through to a policy and keeps every build."""

    def __init__(self, policy):
        self.policy = policy
        self.builds = []

    def build(self, context):
        self.builds.append(self.policy.build(context))
        return self.builds[-1]

    def observe(self, result):
        self.policy.observe(result)


@st.composite
def decode_cases(draw):
    """A tabular or layered target, a mixture draft, a lever drafting
    config, a profile recipe, a context and horizon, and whether (and with
    which probe) the cycle is pruned."""
    target = draw(targets())
    vocab = target.vocab_size
    draft = derive_draft(
        target,
        draw(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0])),
        draw(st.integers(0, 10_000)),
        noise_concentration=draw(st.sampled_from([0.1, 0.3, 1.0])),
    )
    cfg = DraftConfig(
        k=draw(st.integers(1, vocab)),
        max_depth=draw(st.integers(1, 5)),
        b_min=draw(st.sampled_from([0.0, 0.01, 0.1])),
        max_nodes=draw(st.sampled_from([None, 4, 16])),
    )
    profile_args = (
        draw(st.floats(50.0, 1000.0)),
        draw(st.sampled_from([0.0, 3.0, 10.0])),
        draw(st.sampled_from([0.0, 1.0])),
        draw(st.integers(2, 40)),
        draw(st.integers(1, 16)),
    )
    draft_ms = draw(st.sampled_from([0.0, 2.0, 20.0]))
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=5))
    horizon = draw(st.integers(1, 24))
    prune_kind = draw(st.sampled_from(["none", "exact", "probe"]))
    pruner = None
    if prune_kind == "probe" and isinstance(target, LayeredTargetModel):
        layer = draw(st.integers(1, target.depth - 1))
        rng = np.random.default_rng(draw(st.integers(0, 10_000)))
        pred = EarlyExitPredictor(rng.standard_normal((vocab, target.hidden_dim)), layer)
        pruner = TreePruner(pred, LayeredHiddenSource(target, layer), PruneConfig())
    elif prune_kind != "none":
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(vocab), ExactProbeSource(target), PruneConfig()
        )
    return target, draft, cfg, profile_args, draft_ms, context, horizon, pruner


@settings(max_examples=150, derandomize=True, deadline=None)
@given(decode_cases())
def test_policy_owned_feedback_matches_the_loop_owned_reference(case):
    """The gain-cost policy that keeps its reliability and learns in
    ``observe`` decodes exactly as the old loop that passed the reliability
    and profile to every build and updated the reliability itself."""
    target, draft, cfg, profile_args, draft_ms, context, horizon, pruner = case
    policy = RecordingPolicy(
        GainCostPolicy(draft, cfg, affine_profile(*profile_args), draft_ms=draft_ms)
    )
    got = run_decode(target, context, horizon, policy, pruner=pruner)
    want = ref.run_decode(
        target, context, horizon, ref.GainCostBuild(draft, cfg, draft_ms=draft_ms),
        1.0, affine_profile(*profile_args), pruner=pruner,
    )
    assert got.tokens == want.tokens
    assert len(got.cycles) == len(want.cycles) == len(policy.builds)
    for new, old, built, ref_built in zip(got.cycles, want.cycles, policy.builds, want.builds):
        assert tree_json(built.tree) == tree_json(ref_built.tree)
        assert built.stop == ref_built.stop
        assert built.estimate == ref_built.estimate
        assert new.prune == old.prune
        assert new.expansion_counts == old.expansion_counts
        assert new.emitted == old.emitted
        assert (new.tree_nodes, new.tree_leaves) == (old.tree_nodes, old.tree_leaves)
        assert (new.rows_verified, new.leaves_verified, new.accepted_len) == (
            old.rows_verified, old.leaves_verified, old.accepted_len
        )
        assert new.gain_estimate == old.gain_estimate
    assert policy.policy.rel == want.reliability
