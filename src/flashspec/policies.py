"""Draft-tree policies.

Every policy produces a :class:`~flashspec.drafting.BuildResult` so all of
them share one verification path.  The chain baseline is the degenerate tree
(k=1, fixed depth, no stopping rule); the balanced baseline expands a fixed
branching factor level by level, which is what makes its expansion steps
batchable; the gain-cost policy wraps the greedy builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .drafting import (
    BuildResult,
    DraftConfig,
    GainCostEstimate,
    LatencyProfile,
    ReliabilityState,
    StopRecord,
    build_tree,
    calibrate,
)
from .errors import ConfigError
from .models import ProbModel, draft_candidates
from .tree import CandidateSet, ROOT_ID, TokenTree


@dataclass
class RootOnlyPolicy:
    """Plain flash-backed autoregressive decoding: no drafting at all."""

    name: str = "flash_ar"

    def build(
        self,
        context: Sequence[int],
        rel: ReliabilityState,
        profile: LatencyProfile,
    ) -> BuildResult:
        tree = TokenTree(root_token=int(context[-1]))
        return BuildResult(
            tree=tree,
            estimate=GainCostEstimate(gain=1.0, draft_cost=0.0, verify_cost=0.0),
            steps=[],
            stop=StopRecord("frontier_empty", None, 1.0, 0.0),
            expansion_counts=[],
            candidate_sets={},
        )


@dataclass
class ChainPolicy:
    """Fixed-length single-sequence drafting (one greedy chain per cycle)."""

    draft: ProbModel
    length: int = 8
    draft_ms: float = 2.0
    name: str = "chain_sd"

    def build(
        self,
        context: Sequence[int],
        rel: ReliabilityState,
        profile: LatencyProfile,
    ) -> BuildResult:
        if self.length < 1:
            raise ConfigError("chain length must be >= 1")
        tree = TokenTree(root_token=int(context[-1]))
        candidate_sets: dict[int, CandidateSet] = {}
        prefix = list(context)
        parent = ROOT_ID
        reach = 1.0
        counts = []
        for _ in range(self.length):
            cand = draft_candidates(self.draft, prefix, 1, parent=parent)
            candidate_sets[parent] = cand
            counts.append(1)
            token, p = cand.entries[0]
            reach *= calibrate(p, rel)
            parent = tree.insert(parent, token, reach)
            prefix.append(token)
        return BuildResult(
            tree=tree,
            estimate=GainCostEstimate(
                gain=1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID),
                draft_cost=self.draft_ms * self.length,
                verify_cost=0.0,
            ),
            steps=[],
            stop=StopRecord("frontier_empty", None, 0.0, 0.0),
            expansion_counts=counts,
            candidate_sets=candidate_sets,
        )


@dataclass
class BalancedTreePolicy:
    """Fixed-topology tree: branching ``fanout`` per node, depth chosen to
    fit the node budget.  Levels are expanded together, so each level is one
    batchable draft step."""

    draft: ProbModel
    fanout: int = 2
    node_budget: int = 16
    draft_ms: float = 2.0
    name: str = "balanced_tree"

    def depth(self) -> int:
        total = 0
        d = 0
        while True:
            total += self.fanout ** (d + 1)
            if total > self.node_budget:
                return max(d, 1)
            d += 1

    def build(
        self,
        context: Sequence[int],
        rel: ReliabilityState,
        profile: LatencyProfile,
    ) -> BuildResult:
        if self.fanout < 1 or self.node_budget < 1:
            raise ConfigError("fanout and node_budget must be >= 1")
        tree = TokenTree(root_token=int(context[-1]))
        candidate_sets: dict[int, CandidateSet] = {}
        counts: list[int] = []
        level = [ROOT_ID]
        for _ in range(self.depth()):
            counts.append(len(level))
            next_level: list[int] = []
            for parent in level:
                prefix = list(context) + tree.path_tokens(parent)
                cand = draft_candidates(self.draft, prefix, self.fanout, parent=parent)
                candidate_sets[parent] = cand
                for token, p in cand.entries:
                    reach = tree.node(parent).reach * calibrate(p, rel)
                    next_level.append(tree.insert(parent, token, reach))
            level = next_level
        return BuildResult(
            tree=tree,
            estimate=GainCostEstimate(
                gain=1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID),
                draft_cost=self.draft_ms * sum(counts),
                verify_cost=0.0,
            ),
            steps=[],
            stop=StopRecord("frontier_empty", None, 0.0, 0.0),
            expansion_counts=counts,
            candidate_sets=candidate_sets,
        )


@dataclass
class GainCostPolicy:
    """Greedy reach-per-marginal-latency construction with the stopping rule."""

    draft: ProbModel
    cfg: DraftConfig
    draft_timer: Callable[[int], float] | None = None
    record_frontier: bool = False
    name: str = "gain_cost"

    def build(
        self,
        context: Sequence[int],
        rel: ReliabilityState,
        profile: LatencyProfile,
    ) -> BuildResult:
        return build_tree(
            context,
            self.draft,
            self.cfg,
            rel,
            profile,
            draft_timer=self.draft_timer,
            record_frontier=self.record_frontier,
        )
