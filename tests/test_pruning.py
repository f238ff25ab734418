from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec import pruning
from flashspec.drafting import DraftConfig, build_tree
from flashspec.errors import ContractError
from flashspec.models import TabularMarkovModel, derive_draft, target_greedy_decode
from flashspec.policies import BalancedTreePolicy, ChainPolicy, GainCostPolicy, RootOnlyPolicy
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource
from flashspec.pruning import (
    PruneConfig,
    TreePruner,
    backbone_path,
    normalize_scores,
    prune,
)
from flashspec.simulator import load_preset
from flashspec.tree import ROOT_ID, ROOT_PARENT, TokenTree, flatten
from flashspec.verification import run_decode, verify_tree
from helpers import (
    affine_profile,
    candidate_set,
    candidate_tokens,
    compact_with_map,
    path_tokens,
    recount,
    scores_by_id,
    tree_json,
)
import reference_verification as ref
from reference_verification import path_posterior

HW = load_preset("llama31-8b")


def one_hot_pred(vocab_size):
    return EarlyExitPredictor(np.eye(vocab_size), layer=1)


class TestNormalizeScores:
    def test_direct_softmax_values(self):
        # two children with raw scores 2 and 1
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        b = tree.insert(ROOT_ID, 1, 0.8)
        pred = one_hot_pred(2)
        hidden = np.array([[2.0, 1.0]])
        scores = normalize_scores(
            pred, hidden, tree, [ROOT_ID], {ROOT_ID: candidate_set([0, 1])}
        )
        assert scores[ROOT_ID] == 1.0
        assert scores[a] == pytest.approx(0.73105857, abs=1e-6)
        assert scores[b] == pytest.approx(0.26894143, abs=1e-6)

    def test_childless_candidate_balances_single_child(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        pred = one_hot_pred(2)
        hidden = np.array([[1.5, 1.5]])
        scores = normalize_scores(
            pred, hidden, tree, [ROOT_ID], {ROOT_ID: candidate_set([1, 0])}
        )
        assert len(scores) == tree.node_count
        assert scores[a] == pytest.approx(0.5)
        # the childless token 1 holds the rest of the root's mass
        assert 1.0 - scores[a] == pytest.approx(0.5)

    def test_large_raw_scores_equal_their_shifted_softmax(self):
        # per-parent max subtraction: raw scores near 1000 neither overflow
        # nor differ from the same scores shifted down by 1000
        tree = TokenTree()
        kids = [tree.insert(ROOT_ID, t, 0.9) for t in range(3)]
        pred = one_hot_pred(3)
        sets = {ROOT_ID: candidate_set([0, 1, 2])}
        big = normalize_scores(pred, np.array([[1002.0, 1001.0, 1000.0]]), tree, [ROOT_ID], sets)
        small = normalize_scores(pred, np.array([[2.0, 1.0, 0.0]]), tree, [ROOT_ID], sets)
        e = np.exp([2.0, 1.0, 0.0])
        for cid, want in zip(kids, e / e.sum()):
            assert big[cid] == pytest.approx(small[cid], abs=1e-12)
            assert big[cid] == pytest.approx(want, abs=1e-12)

    def test_members_are_children_then_childless_candidates(self):
        # the member order fixes the rounding of the softmax sum: the bytes
        # are those of the reference's children, then leftovers, in order
        tree = TokenTree()
        tree.insert(ROOT_ID, 2, 0.9)
        tree.insert(ROOT_ID, 0, 0.8)
        pred = one_hot_pred(4)
        hidden = np.array([[0.5, 0.25, 1.5, 2.0]])   # the leftover order shows in the bytes
        sets = {ROOT_ID: candidate_set([3, 0, 1, 2])}
        scores = normalize_scores(pred, hidden, tree, [ROOT_ID], sets)
        extras = ref.leftovers(tree, sets)
        assert extras == {ROOT_ID: [3, 1]}
        want = ref.normalize_parent_scores(pred, hidden, tree, [ROOT_ID], extras)
        assert list(want) == [(ROOT_ID, 2), (ROOT_ID, 0), (ROOT_ID, 3), (ROOT_ID, 1)]
        assert np.array(scores).tobytes() == np.array(scores_by_id(tree, want)).tobytes()

    def test_mismatched_hidden_rows_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 0, 0.9)
        pred = one_hot_pred(2)
        sets = {ROOT_ID: candidate_set([0])}
        with pytest.raises(ContractError):
            normalize_scores(pred, np.zeros((0, 2)), tree, [ROOT_ID], sets)
        with pytest.raises(ContractError):
            normalize_scores(pred, np.zeros((2, 2)), tree, [ROOT_ID], sets)

    def test_parent_without_children_rejected(self):
        tree = TokenTree()
        leaf = tree.insert(ROOT_ID, 0, 0.9)
        pred = one_hot_pred(2)
        with pytest.raises(ContractError):
            normalize_scores(
                pred, np.zeros((1, 2)), tree, [leaf], {leaf: candidate_set([1])}
            )

    def test_parent_without_candidate_set_rejected(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        tree.insert(a, 1, 0.5)
        pred = one_hot_pred(2)
        with pytest.raises(ContractError, match=f"node {a} has no recorded candidate set"):
            normalize_scores(
                pred, np.zeros((2, 2)), tree, [ROOT_ID, a], {ROOT_ID: candidate_set([0])}
            )

    def test_parents_with_different_member_counts_rejected(self):
        # the root has two members (child 0, childless 2), a has one
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        tree.insert(a, 1, 0.5)
        pred = one_hot_pred(3)
        sets = {ROOT_ID: candidate_set([0, 2]), a: candidate_set([1])}
        with pytest.raises(ContractError, match=f"node {a} has 1 members, node 0 has 2"):
            normalize_scores(pred, np.zeros((2, 3)), tree, [ROOT_ID, a], sets)
        sets[a] = candidate_set([1, 2])
        assert len(normalize_scores(pred, np.zeros((2, 3)), tree, [ROOT_ID, a], sets)) == 3


class TestBackbone:
    def test_chain_tree_entire_chain(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        b = tree.insert(a, 1, 0.8)
        scores = {(ROOT_ID, 0): 1.0, (a, 1): 1.0}
        assert backbone_path(tree, scores_by_id(tree, scores)) == [ROOT_ID, a, b]

    def test_takes_higher_scored_child(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        b = tree.insert(ROOT_ID, 1, 0.8)
        scores = {(ROOT_ID, 0): 0.3, (ROOT_ID, 1): 0.7}
        assert backbone_path(tree, scores_by_id(tree, scores)) == [ROOT_ID, b]

    def test_matches_per_depth_argmax_walk_oracle(self):
        rng = np.random.default_rng(4)
        tree = TokenTree()
        ids = [ROOT_ID]
        for t in range(12):
            parent = int(rng.choice(ids))
            ids.append(tree.insert(parent, t, tree.node(parent).reach * 0.9))
        scores = {}
        for nid in ids:
            for c in tree.children(nid):
                scores[(nid, tree.node(c).token)] = float(rng.uniform())
        got = backbone_path(tree, scores_by_id(tree, scores))
        # oracle: explicit best-first walk
        cur, path = ROOT_ID, [ROOT_ID]
        while tree.children(cur):
            best = None
            for c in tree.children(cur):
                key = (
                    -scores[(cur, tree.node(c).token)],
                    -tree.node(c).reach,
                    tree.node(c).token,
                )
                if best is None or key < best[0]:
                    best = (key, c)
            cur = best[1]
            path.append(cur)
        assert got == path


def scored_tree():
    """Root with two subtrees; scores chosen so pruning has work to do."""
    tree = TokenTree()
    a = tree.insert(ROOT_ID, 0, 0.9)
    b = tree.insert(ROOT_ID, 1, 0.5)
    c = tree.insert(a, 2, 0.8)
    d = tree.insert(a, 3, 0.1)
    scores = {
        (ROOT_ID, 0): 0.8,
        (ROOT_ID, 1): 0.2,
        (a, 2): 0.9,
        (a, 3): 0.05,
    }
    return tree, scores, (a, b, c, d)


class TestPrune:
    def test_all_above_threshold_keeps_everything(self):
        tree, scores, _ = scored_tree()
        decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=0.01))
        assert decision.keep == frozenset(tree.ids())
        assert decision.leaves == tree.leaf_count

    def test_single_low_edge_removed(self):
        tree, scores, (a, b, c, d) = scored_tree()
        decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=0.1))
        assert d not in decision.keep
        assert decision.keep == frozenset({ROOT_ID, a, b, c})
        assert decision.leaves == 2

    def test_threshold_reads_the_path_not_the_edge(self):
        # e's own edge scores 0.95, but verification reaches it only
        # through b: its posterior is 0.2 * 0.95 = 0.19
        tree, scores, (a, b, c, d) = scored_tree()
        e = tree.insert(b, 5, 0.4)
        scores[(b, 5)] = 0.95
        assert e in prune(tree, scores_by_id(tree, scores), PruneConfig(theta=0.15)).keep
        decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=0.3))
        assert decision.keep == frozenset({ROOT_ID, a, c})
        assert decision.leaves == 1

    def test_backbone_immune_for_any_threshold(self):
        tree, scores, (a, b, c, d) = scored_tree()
        for theta in (0.1, 0.5, 0.9, 0.99):
            decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=theta))
            assert set(decision.backbone) <= decision.keep
        assert decision.keep == frozenset({ROOT_ID, a, c})

    def test_keep_always_ancestor_closed(self):
        tree, scores, _ = scored_tree()
        for theta in (0.05, 0.3, 0.6, 0.9):
            decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=theta))
            for nid in decision.keep:
                if nid != ROOT_ID:
                    assert tree.node(nid).parent in decision.keep


@st.composite
def scored_trees(draw):
    """A random tree and a score in [0, 1] for every edge."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    tree = TokenTree()
    for _ in range(draw(st.integers(0, 30))):
        parent = int(rng.integers(tree.node_count))
        token = int(rng.integers(6))
        if tree.child(parent, token) is None:
            tree.insert(parent, token, tree.node(parent).reach * 0.9)
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    scores = {
        (tree.node(nid).parent, tree.node(nid).token): float(rng.choice(levels))
        for nid in tree.ids()
        if nid != ROOT_ID
    }
    return tree, scores


thetas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestPruneProperties:
    @settings(max_examples=100)
    @given(scored_trees(), thetas)
    def test_keep_is_ancestor_closed(self, case, theta):
        tree, scores = case
        keep = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=theta)).keep
        assert ROOT_ID in keep
        for nid in keep - {ROOT_ID}:
            assert tree.node(nid).parent in keep

    @settings(max_examples=100)
    @given(scored_trees(), thetas, thetas)
    def test_raising_theta_never_adds_a_node(self, case, t1, t2):
        tree, scores = case
        low, high = sorted((t1, t2))
        assert (
            prune(tree, scores_by_id(tree, scores), PruneConfig(theta=high)).keep
            <= prune(tree, scores_by_id(tree, scores), PruneConfig(theta=low)).keep
        )

    @settings(max_examples=100)
    @given(scored_trees(), thetas)
    def test_kept_off_backbone_iff_posterior_reaches_theta(self, case, theta):
        tree, scores = case
        decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=theta))
        assert set(decision.backbone) <= decision.keep
        for nid in set(tree.ids()) - set(decision.backbone):
            posterior = path_posterior(tree, scores, nid)
            assert (nid in decision.keep) == (posterior >= theta)

    @settings(max_examples=100)
    @given(scored_trees(), thetas)
    def test_leaves_equal_a_recount(self, case, theta):
        tree, scores = case
        decision = prune(tree, scores_by_id(tree, scores), PruneConfig(theta=theta))
        kept, _ = compact_with_map(tree, decision.keep)
        assert recount(kept) == (len(decision.keep), decision.leaves)


class TestTreePruner:
    def _setup(self, seed=41, agreement=0.6):
        target = TabularMarkovModel(16, 2, seed=seed)
        draft = derive_draft(target, agreement, noise_seed=seed + 1)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, 1.0, profile)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(),
        )
        return target, out, pruner

    def test_decision_shape_is_the_compacted_tree_shape(self):
        target, out, pruner = self._setup()
        tree = out.tree
        summary = pruner.apply(tree, out.candidate_sets, [4, 9])
        pruned, _ = compact_with_map(tree, summary.keep)
        assert pruned.node_count <= tree.node_count
        assert pruned.shape == (len(summary.keep), summary.leaves)

    def test_childless_candidates_share_each_parents_softmax(self):
        # the tokens a parent left without a child take part of its mass
        target, out, pruner = self._setup()
        tree = out.tree
        parents = [nid for nid in tree.ids() if tree.children(nid)]
        hidden = pruner.hidden_source.rows(
            [[4, 9] + path_tokens(tree, nid) for nid in parents]
        )
        scores = normalize_scores(pruner.pred, hidden, tree, parents, out.candidate_sets)
        extras = ref.leftovers(tree, out.candidate_sets)
        want = ref.normalize_parent_scores(pruner.pred, hidden, tree, parents, extras)
        short = 0
        for parent in parents:
            members = candidate_tokens(out.candidate_sets[parent])
            kids = sum(scores[c] for c in tree.children(parent))
            # the childless tokens hold the rest of the parent's mass
            rest = sum(want[(parent, t)] for t in extras[parent])
            assert kids + rest == pytest.approx(1.0)
            if len(tree.children(parent)) < len(members):
                short += 1
                assert kids < 1.0
            else:
                assert kids == pytest.approx(1.0)
        assert short > 0

    def test_losslessness_with_pruning(self):
        target = TabularMarkovModel(16, 2, seed=43)
        draft = derive_draft(target, 0.5, noise_seed=44)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        policy = GainCostPolicy(draft, DraftConfig(k=3, max_depth=4, b_min=0.01), profile)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(),
        )
        ctx = [2, 7, 1]
        res = run_decode(target, ctx, 48, policy, pruner=pruner)
        assert res.tokens == target_greedy_decode(target, ctx, 48)

    @pytest.mark.parametrize("fanout, budget", [(2, 16), (3, 30)])
    def test_balanced_tree_pruning_is_lossless(self, fanout, budget):
        # the fixed-shape builds record their candidate sets, so their trees prune
        target = TabularMarkovModel(16, 2, seed=47)
        draft = derive_draft(target, 0.5, noise_seed=48)
        policy = BalancedTreePolicy(draft, HW, fanout=fanout, node_budget=budget)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(theta=0.3),
        )
        ctx = [5, 1, 8]
        res = run_decode(target, ctx, 48, policy, pruner=pruner)
        assert res.tokens == target_greedy_decode(target, ctx, 48)
        assert any(c.rows_verified < c.tree_nodes for c in res.cycles)

    @pytest.mark.parametrize("shape", ["chain", "balanced"])
    def test_served_fixed_shape_builds_stay_unchanged(self, shape):
        # a fixed-shape policy serves one BuildResult object for every cycle
        # whose tail repeats; neither the pruner nor verification may change it
        target = TabularMarkovModel(6, 2, seed=49)
        draft = derive_draft(target, 0.5, noise_seed=50)
        if shape == "chain":
            policy = ChainPolicy(draft, HW, length=4)
        else:
            policy = BalancedTreePolicy(draft, HW, fanout=2, node_budget=14)
        served = {}                  # id -> (result, snapshot at first serve, serves)

        def snapshot(out):
            return (
                tree_json(out.tree), out.tree.shape, dict(out.candidate_sets),
                list(out.expansion_counts), out.estimate, out.stop,
            )

        class Serving:
            def build(self, context):
                out = policy.build(context)
                first = served.setdefault(id(out), [out, snapshot(out), 0])
                first[2] += 1
                return out

            def observe(self, result):
                policy.observe(result)

        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(6),
            ExactProbeSource(target),
            PruneConfig(theta=0.3),
        )
        ctx = [3, 1]
        pruned = run_decode(target, ctx, 96, Serving(), pruner=pruner)
        full = run_decode(target, ctx, 96, Serving())
        assert pruned.tokens == full.tokens == target_greedy_decode(target, ctx, 96)
        assert all(c.prune is not None for c in pruned.cycles)
        # a chain is its own backbone, so only the balanced tree loses rows
        assert any(c.rows_verified < c.tree_nodes for c in pruned.cycles) == (shape == "balanced")
        assert max(serves for _, _, serves in served.values()) > 2
        for out, before, _ in served.values():
            assert snapshot(out) == before

    def test_pruned_accept_never_exceeds_full_accept(self):
        # replay both verifications on identical cycles
        target = TabularMarkovModel(16, 2, seed=45)
        draft = derive_draft(target, 0.5, noise_seed=46)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(theta=0.3),
        )
        prefix = [3, 3]
        for _ in range(12):
            out = build_tree(prefix, draft, cfg, 1.0, profile)
            summary = pruner.apply(out.tree, out.candidate_sets, prefix)
            full = verify_tree(target, prefix, out.tree)
            cut = verify_tree(target, prefix, out.tree, summary.keep)
            assert cut.accepted_len <= full.accepted_len
            prefix = prefix + list(full.emitted)


@st.composite
def policy_builds(draw):
    """A tabular target, a context and one build of a random policy: root
    only, chain, balanced tree or gain-cost."""
    vocab = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 10_000))
    target = TabularMarkovModel(vocab, draw(st.integers(1, 2)), seed=seed)
    draft = derive_draft(target, draw(st.sampled_from([0.3, 0.8])), noise_seed=seed + 1)
    context = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=5))
    kind = draw(st.sampled_from(["root_only", "chain", "balanced", "gain_cost"]))
    if kind == "root_only":
        policy = RootOnlyPolicy(HW)
    elif kind == "chain":
        policy = ChainPolicy(draft, HW, length=draw(st.integers(1, 6)))
    elif kind == "balanced":
        fanout = draw(st.integers(1, 3))
        policy = BalancedTreePolicy(draft, HW, fanout, draw(st.integers(fanout, 24)))
    else:
        cfg = DraftConfig(k=draw(st.integers(1, 4)), max_depth=draw(st.integers(1, 5)),
                          b_min=0.01)
        policy = GainCostPolicy(draft, cfg, affine_profile(900.0, 3.0, 1.0, 64, 32))
    return target, context, policy.build(context)


class TestFlattenContract:
    @given(policy_builds())
    @settings(max_examples=80, deadline=None)
    def test_rows_are_ids_and_the_scored_parents_are_the_branching_ids(self, case):
        target, context, out = case
        tree = out.tree
        nodes = [tree.node(nid) for nid in tree.ids()]
        assert list(zip(*flatten(tree))) == [(node.parent, node.token) for node in nodes]
        assert flatten(tree)[0][ROOT_ID] == ROOT_PARENT
        scored = []

        def recording(pred, hidden, scored_tree, parents, *rest):
            scored.append(list(parents))
            return normalize_scores(pred, hidden, scored_tree, parents, *rest)

        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(target.vocab_size),
            ExactProbeSource(target),
            PruneConfig(),
        )
        with mock.patch.object(pruning, "normalize_scores", recording):
            pruner.apply(tree, out.candidate_sets, context)
        assert scored == [[nid for nid in tree.ids() if tree.children(nid)]]
