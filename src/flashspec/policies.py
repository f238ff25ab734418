"""Draft-tree policies.

Every policy produces a :class:`~flashspec.drafting.BuildResult` from the
context alone and is told each cycle's
:class:`~flashspec.verification.VerificationResult` through ``observe``, so
all of them share one verification path and each keeps its own planning
state.  The chain baseline is the degenerate tree (k=1, fixed depth, no
stopping rule); the balanced baseline expands a fixed branching factor level
by level, which is what makes its expansion steps batchable.  Neither reads
feedback.  The gain-cost policy wraps the greedy builder and owns the
reliability factor that scales its reach estimates.  Like the greedy
builder, the fixed-shape builds draft from each node's carried padded tail.

Every estimate is the simulator's price of its cycle on the trial's
hardware (the gain-cost builder reads it through its profile), without
projection: on-demand projection charges the accepted path, known only
after verification, and an expected term would change the gain-cost trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .drafting import (
    BuildResult,
    DraftConfig,
    GainCostEstimate,
    LatencyProfile,
    StopRecord,
    build_tree,
)
from .errors import ConfigError
from .models import ProbModel, _padded_tail, draft_candidates
from .simulator import HardwareConfig, ar_step_latency, draft_schedule, verify_latency
from .tree import ROOT_ID, CandidateSet, TokenTree
from .verification import VerificationResult


class FixedShapePolicy:
    """A policy whose trees do not depend on verification feedback."""

    def observe(self, result: VerificationResult) -> None:
        """Fixed shapes read no feedback."""


@dataclass
class RootOnlyPolicy(FixedShapePolicy):
    """Plain flash-backed autoregressive decoding: no drafting at all."""

    hw: HardwareConfig

    def build(self, context: Sequence[int]) -> BuildResult:
        return BuildResult(
            tree=TokenTree(root_token=int(context[-1])),
            estimate=GainCostEstimate(1.0, draft_cost=0.0, verify_cost=ar_step_latency(self.hw)),
            stop=StopRecord("frontier_empty", None),
            expansion_counts=[],
        )


@dataclass
class ChainPolicy(FixedShapePolicy):
    """Fixed-length single-sequence drafting (one greedy chain per cycle)."""

    draft: ProbModel
    hw: HardwareConfig
    length: int = 8

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError("chain length must be >= 1")

    def build(self, context: Sequence[int]) -> BuildResult:
        return _grow_levels(self.draft, context, 1, self.length, self.hw)


@dataclass
class BalancedTreePolicy(FixedShapePolicy):
    """Fixed-topology tree: branching ``fanout`` per node, depth chosen to
    fit the node budget.  Levels are expanded together, so each level is one
    batchable draft step."""

    draft: ProbModel
    hw: HardwareConfig
    fanout: int = 2
    node_budget: int = 16

    def __post_init__(self) -> None:
        if self.fanout < 1 or self.node_budget < 1:
            raise ConfigError("fanout and node_budget must be >= 1")
        if self.fanout > self.node_budget:
            raise ConfigError(
                f"fanout={self.fanout} exceeds node_budget={self.node_budget}"
            )

    def depth(self) -> int:
        """Levels that fit the budget; at least one, since the first does."""
        total = 0
        d = 0
        while True:
            total += self.fanout ** (d + 1)
            if total > self.node_budget:
                return d
            d += 1

    def build(self, context: Sequence[int]) -> BuildResult:
        return _grow_levels(self.draft, context, self.fanout, self.depth(), self.hw)


@dataclass
class GainCostPolicy:
    """Greedy reach-per-marginal-latency construction with the stopping rule.

    Draft probabilities are scaled by the reliability ``rel``, which starts
    at 1 and is an exponential moving average (decay ``cfg.beta``, clamped
    to [``cfg.r_min``, 1]) of one hit per cycle: whether the target's
    fallback token was in the candidate set of the node where acceptance
    stopped.  A stop node that was never expanded gives no feedback.
    """

    draft: ProbModel
    cfg: DraftConfig
    profile: LatencyProfile
    draft_ms: float = 2.0
    rel: float = field(default=1.0, init=False)
    _last: BuildResult = field(init=False, repr=False)

    def build(self, context: Sequence[int]) -> BuildResult:
        self._last = build_tree(
            context, self.draft, self.cfg, self.rel, self.profile, draft_ms=self.draft_ms
        )
        return self._last

    def observe(self, result: VerificationResult) -> None:
        stop_node = result.accepted_nodes[-1] if result.accepted_nodes else ROOT_ID
        cand = self._last.candidate_sets.get(stop_node)
        if cand is not None:
            beta = self.cfg.beta
            raw = beta * self.rel + (1.0 - beta) * (result.fallback in cand)
            self.rel = min(1.0, max(self.cfg.r_min, raw))


def _grow_levels(
    draft: ProbModel,
    context: Sequence[int],
    fanout: int,
    depth: int,
    hw: HardwareConfig,
) -> BuildResult:
    """The fixed-topology baselines' tree: ``depth`` levels, every node of a
    level expanded with its top-``fanout`` draft candidates; a node's reach
    is its parent's times its draft probability.  A chain is the
    ``fanout=1`` case.  A child's tail is its parent's shifted by its
    token.  Each expanded node's candidate set is recorded for pruning."""
    tree = TokenTree(root_token=int(context[-1]))
    counts: list[int] = []
    candidate_sets: dict[int, CandidateSet] = {}
    level = [(ROOT_ID, _padded_tail(context, draft.order))]
    for _ in range(depth):
        counts.append(len(level))
        next_level: list[tuple[int, tuple[int, ...]]] = []
        for parent, tail in level:
            cand = candidate_sets[parent] = draft_candidates(draft, tail, fanout)
            reach = tree.node(parent).reach
            for token, p in cand.entries:
                child = tree.insert(parent, token, reach * p)
                next_level.append((child, tail[1:] + (token,)))
        level = next_level
    return BuildResult(
        tree=tree,
        estimate=GainCostEstimate(
            gain=1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID),
            draft_cost=draft_schedule(counts, hw),
            verify_cost=verify_latency(hw, *tree.shape),
        ),
        stop=StopRecord("frontier_empty", None),
        expansion_counts=counts,
        candidate_sets=candidate_sets,
    )
