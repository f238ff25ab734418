import numpy as np
import pytest

from flashspec.drafting import DraftConfig, ReliabilityState, build_tree
from flashspec.errors import ContractError
from flashspec.models import TabularMarkovModel, derive_draft, target_greedy_decode
from flashspec.policies import GainCostPolicy
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource
from flashspec.pruning import (
    PruneConfig,
    TreePruner,
    backbone_path,
    normalize_scores,
    prune,
)
from flashspec.tree import ROOT_ID, TokenTree, flatten
from flashspec.verification import run_decode, verify_tree
from helpers import affine_profile, compact_with_map


def one_hot_pred(vocab_size):
    return EarlyExitPredictor(np.eye(vocab_size), layer=1)


class TestNormalizeScores:
    def test_direct_softmax_values(self):
        # two children with raw scores 2 and 1 at tau=1
        tree = TokenTree()
        tree.insert(ROOT_ID, 0, 0.9)
        tree.insert(ROOT_ID, 1, 0.8)
        pred = one_hot_pred(2)
        hidden = np.array([[2.0, 1.0]])
        scores = normalize_scores(pred, hidden, tree, [ROOT_ID], 1.0)
        assert scores[(ROOT_ID, 0)] == pytest.approx(0.73105857, abs=1e-6)
        assert scores[(ROOT_ID, 1)] == pytest.approx(0.26894143, abs=1e-6)

    def test_shadow_token_balances_single_child(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 0, 0.9)
        tree.insert(ROOT_ID, 1, 0.5, shadow=True)
        pred = one_hot_pred(2)
        hidden = np.array([[1.5, 1.5]])
        scores = normalize_scores(pred, hidden, tree, [ROOT_ID], 1.0)
        assert scores[(ROOT_ID, 0)] == pytest.approx(0.5)
        assert scores[(ROOT_ID, 1)] == pytest.approx(0.5)

    def test_high_temperature_flattens(self):
        tree = TokenTree()
        for t in range(3):
            tree.insert(ROOT_ID, t, 0.9)
        pred = one_hot_pred(3)
        hidden = np.array([[3.0, 1.0, 1.0]])
        scores = normalize_scores(pred, hidden, tree, [ROOT_ID], 1e6)
        for t in range(3):
            assert scores[(ROOT_ID, t)] == pytest.approx(1 / 3, abs=1e-6)

    def test_mismatched_hidden_rows_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 0, 0.9)
        pred = one_hot_pred(2)
        with pytest.raises(ContractError):
            normalize_scores(pred, np.zeros((0, 2)), tree, [ROOT_ID], 1.0)
        with pytest.raises(ContractError):
            normalize_scores(pred, np.zeros((2, 2)), tree, [ROOT_ID], 1.0)

    def test_parent_without_children_rejected(self):
        tree = TokenTree()
        leaf = tree.insert(ROOT_ID, 0, 0.9)
        pred = one_hot_pred(2)
        with pytest.raises(ContractError):
            normalize_scores(pred, np.zeros((1, 2)), tree, [leaf], 1.0)


class TestBackbone:
    def test_chain_tree_entire_chain(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        b = tree.insert(a, 1, 0.8)
        scores = {(ROOT_ID, 0): 1.0, (a, 1): 1.0}
        assert backbone_path(tree, scores) == [ROOT_ID, a, b]

    def test_takes_higher_scored_child(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 0, 0.9)
        b = tree.insert(ROOT_ID, 1, 0.8)
        scores = {(ROOT_ID, 0): 0.3, (ROOT_ID, 1): 0.7}
        assert backbone_path(tree, scores) == [ROOT_ID, b]

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
        got = backbone_path(tree, scores)
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
        cfg = PruneConfig(theta=0.01, root_keep=2, min_keep_frac=0.0, min_leaves=1)
        decision = prune(tree, scores, cfg)
        assert decision.keep == frozenset(tree.ids())
        assert not decision.rejected

    def test_single_low_edge_removed(self):
        tree, scores, (a, b, c, d) = scored_tree()
        cfg = PruneConfig(theta=0.1, root_keep=2, min_keep_frac=0.0, min_leaves=1)
        decision = prune(tree, scores, cfg)
        assert d not in decision.keep
        assert decision.keep == frozenset({ROOT_ID, a, b, c})
        assert not decision.rejected

    def test_aggressive_threshold_rejected(self):
        tree, scores, _ = scored_tree()
        cfg = PruneConfig(theta=0.95, root_keep=0, min_keep_frac=0.0, min_leaves=2)
        decision = prune(tree, scores, cfg)
        assert decision.rejected
        assert decision.keep == frozenset(tree.ids())

    def test_min_keep_frac_safeguard(self):
        tree, scores, _ = scored_tree()
        cfg = PruneConfig(theta=0.85, root_keep=1, min_keep_frac=0.9, min_leaves=1)
        decision = prune(tree, scores, cfg)
        assert decision.rejected

    def test_backbone_immune_for_any_threshold(self):
        tree, scores, _ = scored_tree()
        for theta in (0.1, 0.5, 0.9, 0.99):
            cfg = PruneConfig(
                theta=theta, root_keep=0, min_keep_frac=0.0, min_leaves=1
            )
            decision = prune(tree, scores, cfg)
            assert set(decision.backbone) <= decision.keep

    def test_keep_always_ancestor_closed(self):
        tree, scores, _ = scored_tree()
        for theta in (0.05, 0.3, 0.6, 0.9):
            cfg = PruneConfig(
                theta=theta, root_keep=1, min_keep_frac=0.0, min_leaves=1
            )
            decision = prune(tree, scores, cfg)
            for nid in decision.keep:
                if nid != ROOT_ID:
                    assert tree.node(nid).parent in decision.keep


class TestTreePruner:
    def _setup(self, seed=41, agreement=0.6):
        target = TabularMarkovModel(16, 2, seed=seed)
        draft = derive_draft(target, agreement, noise_seed=seed + 1)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, ReliabilityState(), profile)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(),
        )
        return target, out.tree, pruner

    def test_compacted_tree_has_no_shadows(self):
        target, tree, pruner = self._setup()
        summary = pruner.apply(tree, [4, 9])
        assert all(not tree.node(n).shadow for n in summary.keep)
        pruned, _ = compact_with_map(tree, summary.keep)
        assert all(not pruned.node(n).shadow for n in range(len(pruned)))
        assert pruned.node_count <= tree.node_count
        assert pruned.shape == (len(summary.keep), summary.leaves)

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

    def test_pruned_accept_never_exceeds_full_accept(self):
        # replay both verifications on identical cycles
        target = TabularMarkovModel(16, 2, seed=45)
        draft = derive_draft(target, 0.5, noise_seed=46)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        pruner = TreePruner(
            EarlyExitPredictor.identity_probe(16),
            ExactProbeSource(target),
            PruneConfig(theta=0.3, min_keep_frac=0.0, min_leaves=1),
        )
        prefix = [3, 3]
        rel = ReliabilityState()
        for _ in range(12):
            out = build_tree(prefix, draft, cfg, rel, profile)
            summary = pruner.apply(out.tree, prefix)
            full = verify_tree(target, prefix, out.tree)
            cut = verify_tree(target, prefix, out.tree, summary.keep)
            assert cut.accepted_len <= full.accepted_len
            prefix = prefix + list(full.emitted)

    def test_rejected_decision_keeps_identical_rows(self):
        target, tree, pruner_base = self._setup()
        pruner = TreePruner(
            pruner_base.pred,
            pruner_base.hidden_source,
            PruneConfig(theta=0.95, min_keep_frac=0.99, min_leaves=2),
        )
        summary = pruner.apply(tree, [4, 9])
        assert summary.rejected
        assert summary.keep == frozenset(tree.ids())
        assert summary.leaves == tree.leaf_count
        pruned, _ = compact_with_map(tree, summary.keep)
        assert pruned.node_count == tree.node_count
        assert flatten(pruned).tokens == flatten(tree).tokens
