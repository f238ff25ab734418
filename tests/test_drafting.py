from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import (
    COST_FLOOR_MS,
    MISS_PENALTY,
    DraftConfig,
    LatencyProfile,
    build_tree,
)
from flashspec.errors import ContractError
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.tree import ROOT_ID, TokenTree
from helpers import (
    FrontierEntry,
    affine_profile,
    candidate_tokens,
    estimate_gain,
    grid_shapes,
    is_expandable,
    marginal_cost,
    tree_json,
)
from reference_builder import build_tree as reference_build_tree


def scan_lookup(entries, q):
    """Linear-scan oracle for LatencyProfile.lookup: the L1-nearest stored
    shape (ties to fewer nodes, then fewer leaves), penalized on a miss."""
    best = min(
        entries,
        key=lambda s: (abs(s[0] - q[0]) + abs(s[1] - q[1]), s[0], s[1]),
    )
    return entries[best] * (MISS_PENALTY if best != q else 1.0)


class TestReach:
    """A child's reach is its parent's times ``rel * p_draft``."""

    def _built(self, rel, seed=21, agreement=0.7):
        target = TabularMarkovModel(16, 2, seed=seed)
        draft = derive_draft(target, agreement, noise_seed=5)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        return build_tree([4, 9], draft, cfg, rel, affine_profile(900.0, 3.0, 1.0, 64, 32))

    def _children(self, out, parent):
        """(reach, draft probability) of each inserted child, in candidate order."""
        tree = out.tree
        return [
            (tree.node(child).reach, p)
            for token, p in out.candidate_sets[parent].entries
            for child in (tree.child(parent, token),)
            if child is not None
        ]

    def test_rel_one_keeps_draft_probabilities(self):
        out = self._built(1.0)
        children = self._children(out, ROOT_ID)
        assert children
        assert all(reach == p for reach, p in children)

    def test_multiplicative(self):
        out = self._built(0.8)
        tree = out.tree
        assert tree.node_count > 2
        for parent in out.candidate_sets:
            base = tree.node(parent).reach
            for reach, p in self._children(out, parent):
                assert reach == base * (0.8 * p)

    def test_preserves_ranking(self):
        for r in (0.05, 0.3, 0.77, 1.0):
            out = self._built(r)
            for parent in out.candidate_sets:
                reaches = [reach for reach, _ in self._children(out, parent)]
                assert reaches == sorted(reaches, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.05, 1.0), st.integers(0, 200), st.floats(0.0, 1.0))
    def test_stays_in_unit_interval(self, r, seed, agreement):
        out = self._built(r, seed, agreement)
        tree = out.tree
        for nid in tree.ids():
            node = tree.node(nid)
            assert 0.0 <= node.reach <= 1.0
            if nid != ROOT_ID:
                assert node.reach <= tree.node(node.parent).reach


class TestGain:
    def test_root_only(self):
        assert estimate_gain(TokenTree()) == 1.0

    def test_two_nodes(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.6)
        tree.insert(ROOT_ID, 2, 0.3)
        assert estimate_gain(tree) == pytest.approx(1.9)

    def test_matches_resummation_of_serialized_tree(self):
        rng = np.random.default_rng(3)
        tree = TokenTree()
        ids = [ROOT_ID]
        for t in range(10):
            parent = int(rng.choice(ids))
            reach = tree.node(parent).reach * float(rng.uniform(0.1, 0.99))
            ids.append(tree.insert(parent, t, reach))
        import json

        payload = json.loads(tree_json(tree))
        oracle = 1.0 + sum(
            row["reach"]
            for row in payload["nodes"]
            if row["id"] != 0
        )
        assert estimate_gain(tree) == pytest.approx(oracle, rel=1e-12)


@st.composite
def random_grids(draw):
    """Random bounds (<= 12) and random positive, non-affine prices."""
    max_nodes, max_leaves = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    table = {s: draw(st.floats(1.0, 2000.0)) for s in grid_shapes(max_nodes, max_leaves)}
    return table, max_nodes, max_leaves


class TestLatencyProfile:
    def test_exact_hit(self):
        p = LatencyProfile(lambda n, l: 900.0, 8, 3)
        assert p.lookup((8, 3)) == 900.0

    def test_miss_applies_penalty(self):
        p = LatencyProfile(lambda n, l: 900.0, 8, 3)
        assert p.lookup((9, 3)) == pytest.approx(990.0)

    @pytest.mark.parametrize("ms", [0.0, -1.0, float("nan")])
    def test_a_price_that_is_not_positive_is_refused(self, ms):
        p = LatencyProfile(lambda n, l: ms, 8, 3)
        with pytest.raises(ContractError, match="must be positive"):
            p.lookup((2, 1))

    @settings(max_examples=150)
    @given(
        random_grids(),
        st.lists(st.tuples(st.integers(1, 19), st.integers(1, 19)), max_size=30),
    )
    def test_clamp_matches_nearest_scan_over_the_grid(self, grid, queries):
        table, max_nodes, max_leaves = grid
        p = LatencyProfile(lambda n, l: table[n, l], max_nodes, max_leaves)
        # on the grid, just off each edge, and leaves > nodes; the second pass
        # over the queries reads the memo
        edge = [(n, l) for n in range(1, max_nodes + 3) for l in range(1, max_leaves + 3)]
        for q in queries + edge + queries:
            assert p.lookup(q) == scan_lookup(table, q)
        assert len(p) == len(table)
        assert p.entries() == table

    def test_each_shape_is_priced_once(self):
        calls = Counter()

        def cost(n, l):
            return 100.0 + n * n + 3.0 * l

        def price(n, l):
            calls[n, l] += 1
            return cost(n, l)

        p = LatencyProfile(price, 6, 3)
        queries = [(1, 1), (6, 3), (9, 3), (9, 5), (6, 3), (4, 6), (2, 1), (9, 5)]
        for q in queries * 2:
            p.lookup(q)
        assert p.entries() == {s: cost(*s) for s in grid_shapes(6, 3)}
        assert len(calls) == len(p) and set(calls.values()) == {1}

    def test_tie_prefers_smaller_node_count(self):
        # (3, 3), (4, 4) and (5, 5) all lie at L1 distance 2 from (3, 5)
        p = LatencyProfile(lambda n, l: 100.0 * n, 10, 10)
        assert p.lookup((3, 5)) == pytest.approx(300.0 * MISS_PENALTY)

    def test_affine_seed_monotone(self):
        p = affine_profile(100.0, 2.0, 1.0, 10, 5)
        assert p.lookup((1, 1)) < p.lookup((2, 1)) < p.lookup((3, 1))
        assert p.lookup((5, 2)) < p.lookup((5, 3))


class TestMarginalCost:
    def _tree_one_child(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.6)
        return tree

    def test_affine_difference_plus_draft_term(self):
        profile = affine_profile(100.0, 2.0, 0.0, 20, 10)
        tree = self._tree_one_child()
        cfg = DraftConfig(k=2, max_depth=4, b_min=0.0)
        # child under the current leaf: leaves unchanged, nodes +1
        entry = FrontierEntry(parent=1, token=5, reach=0.3, depth=2)
        assert marginal_cost(entry, tree, profile, 3.0, cfg) == pytest.approx(2.0 + 3.0)

    def test_non_expandable_has_no_draft_term(self):
        profile = affine_profile(100.0, 2.0, 0.0, 20, 10)
        tree = self._tree_one_child()
        cfg = DraftConfig(k=2, max_depth=2, b_min=0.0)
        entry = FrontierEntry(parent=1, token=5, reach=0.3, depth=2)
        assert not is_expandable(entry, cfg)
        assert marginal_cost(entry, tree, profile, 3.0, cfg) == pytest.approx(2.0)

    def test_matches_recompute_both_shapes_oracle(self):
        rng = np.random.default_rng(8)
        prices = rng.uniform(50, 500, size=(21, 9))
        profile = LatencyProfile(lambda n, l: prices[n, l], 20, 8)
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(ROOT_ID, 2, 0.7)
        tree.insert(a, 3, 0.5)
        cfg = DraftConfig(k=2, max_depth=5, b_min=0.01)
        for parent, depth in ((ROOT_ID, 1), (a, 2), (3, 3)):
            entry = FrontierEntry(parent, 9, 0.2, depth)
            nodes, leaves = tree.shape
            after_leaves = leaves + (1 if tree.children(parent) else 0)
            delta = profile.lookup((nodes + 1, after_leaves)) - profile.lookup(
                (nodes, leaves)
            )
            if is_expandable(entry, cfg):
                delta += 2.5
            expect = max(delta, COST_FLOOR_MS)
            assert marginal_cost(entry, tree, profile, 2.5, cfg) == pytest.approx(expect)

    def test_floor_applies_on_flat_profile(self):
        profile = LatencyProfile(lambda n, l: 500.0, 9, 9)
        tree = self._tree_one_child()
        cfg = DraftConfig(k=2, max_depth=2, b_min=0.0)
        entry = FrontierEntry(parent=1, token=5, reach=0.3, depth=2)
        assert marginal_cost(entry, tree, profile, 2.0, cfg) == COST_FLOOR_MS


class DeterministicDraft:
    """p=1 on the token after the last one (mod V): a single certain
    continuation."""

    def __init__(self, vocab_size=8):
        self.vocab_size = vocab_size
        self.order = 1

    def next_dist(self, prefix):
        p = np.zeros(self.vocab_size)
        p[(prefix[-1] + 1) % self.vocab_size] = 1.0
        return p


class TestBuildTree:
    def test_immediate_stop_returns_root_only(self):
        profile = LatencyProfile(lambda n, l: 10.0 if n == 1 else 10000.0, 2, 1)
        draft = TabularMarkovModel(8, 1, seed=1)
        cfg = DraftConfig(k=2, max_depth=3, b_min=0.0)
        out = build_tree([3], draft, cfg, 1.0, profile, draft_ms=2.0)
        assert out.tree.node_count == 1
        assert out.estimate.gain == 1.0
        assert out.stop.reason == "stop_rule"

    def test_deterministic_chain_stop_depth_matches_inequality_replay(self):
        # Certain draft, decayed reach via r<1, affine per-row cost: the
        # stopping inequality can be replayed in closed form step by step.
        r = 0.8
        draft_ms = 2.0
        c0, c_node = 50.0, 4.0
        profile = affine_profile(c0, c_node, 0.0, 40, 40)
        cfg = DraftConfig(k=1, max_depth=30, b_min=0.0)
        draft = DeterministicDraft()
        out = build_tree([0], draft, cfg, r, profile, draft_ms=draft_ms)

        depth = 0
        gain = 1.0
        draft_cost = draft_ms  # root expansion
        while True:
            reach = r ** (depth + 1)
            expandable = depth + 1 < cfg.max_depth
            delta = c_node + (draft_ms if expandable else 0.0)
            ratio = reach / max(delta, COST_FLOOR_MS)
            cycle = draft_cost + (c0 + c_node * (depth + 1))
            if ratio <= gain / cycle:
                break
            depth += 1
            gain += reach
            if expandable:
                draft_cost += draft_ms
        assert out.tree.node_count - 1 == depth
        assert out.stop.reason == "stop_rule"
        assert out.estimate.gain == pytest.approx(gain)

    def test_free_insertions_are_priced_at_the_cost_floor(self):
        # A flat profile and free expansions: every marginal cost is 0 and
        # the builder prices it at COST_FLOOR_MS, so each ratio is finite
        # and the stopping inequality replays as reach / COST_FLOOR_MS.
        r, cycle = 0.5, 1.0
        profile = LatencyProfile(lambda n, l: cycle, 40, 40)
        cfg = DraftConfig(k=1, max_depth=30, b_min=0.0)
        out = build_tree([0], DeterministicDraft(), cfg, r, profile, draft_ms=0.0)

        depth, gain = 0, 1.0
        while (ratio := r ** (depth + 1) / COST_FLOOR_MS) > gain / cycle:
            depth += 1
            gain += r ** depth
        assert out.tree.node_count - 1 == depth
        assert out.stop.reason == "stop_rule"
        assert out.stop.best_ratio == pytest.approx(ratio)
        assert out.estimate.gain == pytest.approx(gain)
        assert out.estimate.cycle_cost == cycle

    def test_every_insertion_maximizes_ratio_at_its_instant(self):
        target = TabularMarkovModel(16, 2, seed=21)
        draft = derive_draft(target, 0.7, noise_seed=5)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, 1.0, profile)
        ref, audit = reference_build_tree([4, 9], draft, cfg, 1.0, profile)
        # equal JSON (insertion order) means the fast builder made the
        # reference's recorded choices
        assert tree_json(out.tree) == tree_json(ref.tree)
        assert audit.steps, "expected at least one insertion"
        for step in audit.steps:
            best = max(step.frontier, key=lambda row: row[4])
            assert step.chosen_ratio == pytest.approx(best[4])
            # the chosen entry is ranked first under the full tie-break
            ranked = sorted(
                step.frontier, key=lambda row: (-row[4], -row[2], row[1], row[0])
            )
            assert (ranked[0][0], ranked[0][1]) == step.chosen

    def test_stop_rule_soundness_at_termination(self):
        target = TabularMarkovModel(16, 2, seed=22)
        draft = derive_draft(target, 0.6, noise_seed=6)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, 1.0, profile)
        if out.stop.reason == "stop_rule":
            assert out.stop.best_ratio <= out.estimate.gain / out.estimate.cycle_cost

    def test_greedy_replay_is_deterministic(self):
        target = TabularMarkovModel(16, 2, seed=23)
        draft = derive_draft(target, 0.5, noise_seed=7)
        profile_a = affine_profile(900.0, 3.0, 1.0, 64, 32)
        profile_b = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        a = build_tree([4, 9], draft, cfg, 0.9, profile_a)
        b = build_tree([4, 9], draft, cfg, 0.9, profile_b)
        assert tree_json(a.tree) == tree_json(b.tree)
        assert a.estimate == b.estimate

    def test_reach_monotone_along_edges(self):
        target = TabularMarkovModel(24, 2, seed=29)
        draft = derive_draft(target, 0.6, noise_seed=8)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=5, b_min=0.005)
        out = build_tree([4, 9, 2], draft, cfg, 0.8, profile)
        tree = out.tree
        for nid in tree.ids():
            node = tree.node(nid)
            if nid != ROOT_ID:
                assert node.reach <= tree.node(node.parent).reach + 1e-12

    def test_children_come_from_their_parent_candidate_set(self):
        # pruning normalizes a parent's scores over its recorded set
        target = TabularMarkovModel(16, 2, seed=31)
        draft = derive_draft(target, 0.7, noise_seed=9)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, 1.0, profile)
        tree = out.tree
        parents = [nid for nid in tree.ids() if tree.children(nid)]
        assert len(parents) > 1
        for parent in parents:
            kids = {tree.node(c).token for c in tree.children(parent)}
            assert kids <= set(candidate_tokens(out.candidate_sets[parent]))

    def test_node_budget_respected(self):
        target = TabularMarkovModel(16, 2, seed=33)
        draft = derive_draft(target, 0.9, noise_seed=10)
        profile = affine_profile(900.0, 0.1, 0.0, 128, 64)
        cfg = DraftConfig(k=3, max_depth=6, b_min=0.005, max_nodes=5)
        out = build_tree([4, 9], draft, cfg, 1.0, profile)
        assert out.tree.node_count - 1 <= 5

    # dyadic latencies: n repeated additions equal one product exactly
    @pytest.mark.parametrize("draft_ms", [0.0, 2.0, 2.5, 12.25])
    def test_draft_cost_is_draft_ms_per_expansion(self, draft_ms):
        target = TabularMarkovModel(16, 2, seed=35)
        draft = derive_draft(target, 0.7, noise_seed=11)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=5, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, 0.8, profile, draft_ms=draft_ms)
        assert len(out.expansion_counts) > 1
        assert out.expansion_counts == [1] * len(out.expansion_counts)
        assert out.estimate.draft_cost == draft_ms * len(out.expansion_counts)
