import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.drafting import (
    MISS_PENALTY,
    DraftConfig,
    FrontierEntry,
    LatencyProfile,
    ReliabilityState,
    build_tree,
    calibrate,
    is_expandable,
    update_reliability,
)
from flashspec.errors import ConfigError
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.tree import ROOT_ID, TokenTree
from helpers import affine_profile, estimate_gain, marginal_cost


def scan_lookup(entries, q):
    """Linear-scan oracle for LatencyProfile.lookup: the L1-nearest stored
    shape (ties to fewer nodes, then fewer leaves), penalized on a miss."""
    best = min(
        entries,
        key=lambda s: (abs(s[0] - q[0]) + abs(s[1] - q[1]), s[0], s[1]),
    )
    return entries[best] * (MISS_PENALTY if best != q else 1.0)


def rel(value=1.0, beta=0.9, floor=0.05):
    return ReliabilityState(value=value, beta=beta, floor=floor)


class TestCalibrate:
    def test_r_one_identity(self):
        assert calibrate(0.6, rel(1.0)) == 0.6

    def test_multiplicative(self):
        assert calibrate(0.5, rel(0.8)) == pytest.approx(0.4)

    def test_preserves_ranking(self):
        for r in (0.05, 0.3, 0.77, 1.0):
            out = [calibrate(p, rel(r)) for p in (0.5, 0.3, 0.2)]
            assert out[0] > out[1] > out[2]

    @given(st.floats(0.0, 1.0), st.floats(0.05, 1.0))
    def test_stays_in_unit_interval(self, p, r):
        assert 0.0 <= calibrate(p, rel(r)) <= 1.0


class TestReliability:
    def test_hit_update(self):
        out = update_reliability(rel(0.5), True)
        assert out.value == pytest.approx(0.55)

    def test_miss_update(self):
        out = update_reliability(rel(1.0), False)
        assert out.value == pytest.approx(0.90)

    def test_all_hit_stream_converges_geometrically(self):
        state = rel(0.3)
        gaps = []
        for _ in range(30):
            state = update_reliability(state, True)
            gaps.append(1.0 - state.value)
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(0.9 * a, rel=1e-9)

    def test_floor_clamp(self):
        state = rel(0.06, floor=0.05)
        for _ in range(50):
            state = update_reliability(state, False)
        assert state.value == 0.05


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
            ids.append(tree.insert(parent, t, reach, shadow=bool(t % 4 == 3)))
        import json

        payload = json.loads(tree.to_json())
        oracle = 1.0 + sum(
            row["reach"]
            for row in payload["nodes"]
            if row["id"] != 0 and not row["shadow"]
        )
        assert estimate_gain(tree) == pytest.approx(oracle, rel=1e-12)


class TestLatencyProfile:
    def test_exact_hit(self):
        p = LatencyProfile({(8, 3): 900.0})
        assert p.lookup((8, 3)) == 900.0

    def test_miss_applies_penalty(self):
        p = LatencyProfile({(8, 3): 900.0})
        assert p.lookup((9, 3)) == pytest.approx(990.0)

    def test_nearest_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(11)
        entries = {}
        for _ in range(40):
            shape = (int(rng.integers(1, 30)), int(rng.integers(1, 12)))
            entries[shape] = float(rng.uniform(100, 2000))
        p = LatencyProfile(entries)
        for _ in range(100):
            q = (int(rng.integers(1, 35)), int(rng.integers(1, 15)))
            assert p.lookup(q) == pytest.approx(scan_lookup(entries, q))

    @given(
        st.dictionaries(
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            st.floats(10.0, 1000.0),
            min_size=1,
            max_size=20,
        ),
        st.lists(st.tuples(st.integers(1, 14), st.integers(1, 7)), max_size=30),
    )
    def test_memo_matches_linear_scan_after_every_operation(self, entries, queries):
        p = LatencyProfile(entries)
        for query in queries:
            p.lookup(query)
            for q in ((n, l) for n in range(1, 15) for l in range(1, 8)):
                assert p.lookup(q) == scan_lookup(entries, q)
        assert p.entries() == entries

    def test_tie_prefers_smaller_node_count(self):
        p = LatencyProfile({(4, 1): 100.0, (6, 1): 500.0})
        assert p.lookup((5, 1)) == pytest.approx(100.0 * MISS_PENALTY)

    def test_empty_profile_is_config_error(self):
        with pytest.raises(ConfigError):
            LatencyProfile({})

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
        entry = FrontierEntry(parent=1, token=5, p_draft=0.5, reach=0.3, depth=2)
        assert marginal_cost(entry, tree, profile, 3.0, cfg) == pytest.approx(2.0 + 3.0)

    def test_non_expandable_has_no_draft_term(self):
        profile = affine_profile(100.0, 2.0, 0.0, 20, 10)
        tree = self._tree_one_child()
        cfg = DraftConfig(k=2, max_depth=2, b_min=0.0)
        entry = FrontierEntry(parent=1, token=5, p_draft=0.5, reach=0.3, depth=2)
        assert not is_expandable(entry, cfg)
        assert marginal_cost(entry, tree, profile, 3.0, cfg) == pytest.approx(2.0)

    def test_matches_recompute_both_shapes_oracle(self):
        rng = np.random.default_rng(8)
        profile = LatencyProfile(
            {
                (int(rng.integers(1, 20)), int(rng.integers(1, 8))): float(
                    rng.uniform(50, 500)
                )
                for _ in range(30)
            }
        )
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(ROOT_ID, 2, 0.7)
        tree.insert(a, 3, 0.5)
        cfg = DraftConfig(k=2, max_depth=5, b_min=0.01)
        for parent, depth in ((ROOT_ID, 1), (a, 2), (3, 3)):
            entry = FrontierEntry(parent, 9, 0.4, 0.2, depth)
            nodes, leaves = tree.shape
            after_leaves = leaves + (1 if tree.children(parent) else 0)
            delta = profile.lookup((nodes + 1, after_leaves)) - profile.lookup(
                (nodes, leaves)
            )
            if is_expandable(entry, cfg):
                delta += 2.5
            expect = max(delta, cfg.cost_floor_ms)
            assert marginal_cost(entry, tree, profile, 2.5, cfg) == pytest.approx(expect)

    def test_floor_applies_on_flat_profile(self):
        profile = LatencyProfile(
            {(n, l): 500.0 for n in range(1, 10) for l in range(1, n + 1)}
        )
        tree = self._tree_one_child()
        cfg = DraftConfig(k=2, max_depth=2, b_min=0.0)
        entry = FrontierEntry(parent=1, token=5, p_draft=0.5, reach=0.3, depth=2)
        assert marginal_cost(entry, tree, profile, 2.0, cfg) == cfg.cost_floor_ms


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
        profile = LatencyProfile({(1, 1): 10.0, (2, 1): 10000.0})
        draft = TabularMarkovModel(8, 1, seed=1)
        cfg = DraftConfig(k=2, max_depth=3, b_min=0.0)
        out = build_tree([3], draft, cfg, rel(), profile, draft_ms=2.0)
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
        out = build_tree([0], draft, cfg, rel(r), profile, draft_ms=draft_ms)

        depth = 0
        gain = 1.0
        draft_cost = draft_ms  # root expansion
        while True:
            reach = r ** (depth + 1)
            expandable = depth + 1 < cfg.max_depth
            delta = c_node + (draft_ms if expandable else 0.0)
            ratio = reach / max(delta, cfg.cost_floor_ms)
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

    def test_every_insertion_maximizes_ratio_at_its_instant(self):
        target = TabularMarkovModel(16, 2, seed=21)
        draft = derive_draft(target, 0.7, noise_seed=5)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, rel(), profile, record_frontier=True)
        assert out.steps, "expected at least one insertion"
        for step in out.steps:
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
        out = build_tree([4, 9], draft, cfg, rel(), profile)
        if out.stop.reason == "stop_rule":
            assert out.stop.best_ratio <= out.stop.gain / out.stop.cycle_cost

    def test_greedy_replay_is_deterministic(self):
        target = TabularMarkovModel(16, 2, seed=23)
        draft = derive_draft(target, 0.5, noise_seed=7)
        profile_a = affine_profile(900.0, 3.0, 1.0, 64, 32)
        profile_b = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        a = build_tree([4, 9], draft, cfg, rel(0.9), profile_a)
        b = build_tree([4, 9], draft, cfg, rel(0.9), profile_b)
        assert [s.chosen for s in a.steps] == [s.chosen for s in b.steps]
        assert a.tree.to_json() == b.tree.to_json()

    def test_reach_monotone_along_edges(self):
        target = TabularMarkovModel(24, 2, seed=29)
        draft = derive_draft(target, 0.6, noise_seed=8)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=5, b_min=0.005)
        out = build_tree([4, 9, 2], draft, cfg, rel(0.8), profile)
        tree = out.tree
        for nid in tree.ids(include_shadow=True):
            node = tree.node(nid)
            if nid != ROOT_ID:
                assert node.reach <= tree.node(node.parent).reach + 1e-12

    def test_shadows_complete_candidate_sets(self):
        target = TabularMarkovModel(16, 2, seed=31)
        draft = derive_draft(target, 0.7, noise_seed=9)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, rel(), profile)
        tree = out.tree
        for parent, cand in out.candidate_sets.items():
            kids = tree.children(parent)
            if not kids:
                continue
            present = {tree.node(c).token for c in kids}
            present |= {tree.node(c).token for c in tree.shadow_children(parent)}
            assert present == set(cand.tokens())

    def test_node_budget_respected(self):
        target = TabularMarkovModel(16, 2, seed=33)
        draft = derive_draft(target, 0.9, noise_seed=10)
        profile = affine_profile(900.0, 0.1, 0.0, 128, 64)
        cfg = DraftConfig(k=3, max_depth=6, b_min=0.005, max_nodes=5)
        out = build_tree([4, 9], draft, cfg, rel(), profile)
        assert out.tree.node_count - 1 <= 5

    # dyadic latencies: n repeated additions equal one product exactly
    @pytest.mark.parametrize("draft_ms", [0.0, 2.0, 2.5, 12.25])
    def test_draft_cost_is_draft_ms_per_expansion(self, draft_ms):
        target = TabularMarkovModel(16, 2, seed=35)
        draft = derive_draft(target, 0.7, noise_seed=11)
        profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
        cfg = DraftConfig(k=3, max_depth=5, b_min=0.01)
        out = build_tree([4, 9], draft, cfg, rel(0.8), profile, draft_ms=draft_ms)
        assert len(out.expansion_counts) > 1
        assert out.expansion_counts == [1] * len(out.expansion_counts)
        assert out.estimate.draft_cost == draft_ms * len(out.expansion_counts)
