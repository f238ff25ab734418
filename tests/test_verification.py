import numpy as np
import pytest

from flashspec.drafting import DraftConfig, LatencyProfile, ReliabilityState
from flashspec.models import (
    TabularMarkovModel,
    derive_draft,
    target_greedy_decode,
)
from flashspec.policies import ChainPolicy, GainCostPolicy, RootOnlyPolicy
from flashspec.tree import ROOT_ID, TokenTree
from flashspec.verification import run_decode, verify_tree


class ScriptedModel:
    """Target that emits a fixed greedy sequence from any aligned prefix."""

    def __init__(self, script, vocab_size=16):
        self.script = list(script)
        self.vocab_size = vocab_size
        self.base_len = None

    def next_dist(self, prefix):
        if self.base_len is None:
            raise RuntimeError("set base_len before use")
        pos = len(prefix) - self.base_len
        p = np.zeros(self.vocab_size)
        token = self.script[pos] if 0 <= pos < len(self.script) else 0
        p[token] = 1.0
        return p


class RecordingModel:
    """Wraps a model and records every prefix it is asked about."""

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size
        self.prefixes = []

    def next_dist(self, prefix):
        self.prefixes.append(list(prefix))
        return self.model.next_dist(prefix)


def profile_flat():
    p = LatencyProfile()
    for n in range(1, 80):
        for l in range(1, min(n, 20) + 1):
            p.set_entry((n, l), 1000.0)
    return p


class TestVerifyTree:
    def test_matching_chain_prefix_accepted(self):
        # target greedily says a,b,c; the tree drafts the chain a->b->x
        target = ScriptedModel([5, 6, 7])
        target.base_len = 1
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 5, 0.9)
        b = tree.insert(a, 6, 0.8)
        tree.insert(b, 9, 0.7)  # wrong third token
        res = verify_tree(target, [0], tree)
        assert res.accepted_len == 2
        assert res.fallback == 7
        assert res.emitted == (5, 6, 7)

    def test_no_match_at_root_emits_fallback_only(self):
        target = ScriptedModel([5])
        target.base_len = 1
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.9)
        res = verify_tree(target, [0], tree)
        assert res.accepted_len == 0
        assert res.emitted == (5,)

    def test_branch_selection_follows_argmax(self):
        target = ScriptedModel([5, 6])
        target.base_len = 1
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.9)
        good = tree.insert(ROOT_ID, 5, 0.8)
        tree.insert(good, 6, 0.7)
        res = verify_tree(target, [0], tree)
        assert res.accepted_len == 2
        assert res.emitted == (5, 6, 0)

    def test_shadow_children_never_accepted(self):
        target = ScriptedModel([5])
        target.base_len = 1
        tree = TokenTree()
        tree.insert(ROOT_ID, 5, 0.9, shadow=True)
        tree.insert(ROOT_ID, 3, 0.8)
        res = verify_tree(target, [0], tree)
        assert res.accepted_len == 0
        assert res.emitted == (5,)

    def test_target_read_only_on_the_walked_path(self):
        target = RecordingModel(TabularMarkovModel(16, 2, seed=14))
        tree = TokenTree()
        ctx = [7, 2]
        # draft the target's own greedy chain one level deep, plus a sibling
        first = int(np.argmax(target.model.next_dist(ctx)))
        a = tree.insert(ROOT_ID, first, 0.9)
        tree.insert(ROOT_ID, (first + 1) % 16, 0.8)
        tree.insert(a, 3, 0.6)
        res = verify_tree(target, ctx, tree)
        assert res.accepted_len >= 1
        assert target.prefixes == [
            ctx + list(res.emitted[:i]) for i in range(res.accepted_len + 1)
        ]

    def test_emitted_length_is_accepted_plus_one(self):
        target = TabularMarkovModel(16, 2, seed=15)
        draft = derive_draft(target, 0.5, noise_seed=3)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.01)
        from flashspec.drafting import build_tree

        out = build_tree([1, 2], draft, cfg, ReliabilityState(), profile_flat())
        res = verify_tree(target, [1, 2], out.tree)
        assert len(res.emitted) == res.accepted_len + 1


class TestRunDecode:
    def _run(self, policy, target, horizon=40, seed=0):
        rng = np.random.default_rng(seed)
        ctx = rng.integers(0, target.vocab_size, size=4).tolist()
        res = run_decode(
            target, ctx, horizon, policy,
            ReliabilityState(), profile_flat(),
        )
        return ctx, res

    def test_noise_draft_still_lossless(self):
        target = TabularMarkovModel(16, 2, seed=17)
        draft = derive_draft(target, 0.0, noise_seed=4)
        policy = GainCostPolicy(draft, DraftConfig(k=3, max_depth=4, b_min=0.01))
        ctx, res = self._run(policy, target)
        assert res.tokens == target_greedy_decode(target, ctx, 40)

    def test_identical_draft_accepts_more_than_one(self):
        target = TabularMarkovModel(16, 2, seed=18, concentration=0.3)
        draft = derive_draft(target, 1.0, noise_seed=4)
        policy = ChainPolicy(draft, length=8)
        ctx, res = self._run(policy, target)
        mean_accepted = sum(c.accepted_len for c in res.cycles) / len(res.cycles)
        assert mean_accepted > 1.0

    def test_horizon_truncation(self):
        target = TabularMarkovModel(16, 2, seed=19, concentration=0.3)
        draft = derive_draft(target, 1.0, noise_seed=4)
        policy = ChainPolicy(draft, length=8)
        for horizon in (1, 5, 128):
            rng = np.random.default_rng(2)
            ctx = rng.integers(0, 16, size=4).tolist()
            res = run_decode(
                target, ctx, horizon, policy, ReliabilityState(), profile_flat()
            )
            assert len(res.tokens) == horizon

    def test_tokens_per_cycle_at_least_one(self):
        target = TabularMarkovModel(16, 2, seed=20)
        draft = derive_draft(target, 0.3, noise_seed=5)
        policy = GainCostPolicy(draft, DraftConfig(k=2, max_depth=3, b_min=0.01))
        _, res = self._run(policy, target)
        assert all(len(c.emitted) >= 1 for c in res.cycles)
        assert len(res.cycles) <= 40

    def test_flash_ar_one_token_per_cycle(self):
        target = TabularMarkovModel(16, 2, seed=21)
        ctx, res = self._run(RootOnlyPolicy(), target, horizon=16)
        assert len(res.cycles) == 16
        assert res.tokens == target_greedy_decode(target, ctx, 16)

    def test_reliability_updates_from_feedback(self):
        target = TabularMarkovModel(16, 2, seed=22)
        draft = derive_draft(target, 0.2, noise_seed=6)
        policy = GainCostPolicy(draft, DraftConfig(k=2, max_depth=3, b_min=0.01))
        _, res = self._run(policy, target)
        hits = [c.hit for c in res.cycles if c.hit is not None]
        assert hits, "expected at least one reliability observation"
        assert res.reliability.value < 1.0 or all(hits)

    def test_profile_observes_verified_shapes(self):
        target = TabularMarkovModel(16, 2, seed=23)
        draft = derive_draft(target, 0.5, noise_seed=7)
        policy = GainCostPolicy(draft, DraftConfig(k=2, max_depth=3, b_min=0.01))
        profile = profile_flat()
        before = dict(profile.entries())
        rng = np.random.default_rng(1)
        ctx = rng.integers(0, 16, size=4).tolist()
        run_decode(
            target, ctx, 24, policy, ReliabilityState(), profile,
            verify_pricer=lambda shape: 1234.5,
        )
        changed = {
            s: ms for s, ms in profile.entries().items() if before.get(s) != ms
        }
        assert changed, "expected online profile updates"
