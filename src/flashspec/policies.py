"""Draft-tree policies.

Every policy produces a :class:`~flashspec.drafting.BuildResult` from the
context alone and is told each cycle's
:class:`~flashspec.verification.VerificationResult` through ``observe``, so
all of them share one verification path and each keeps its own planning
state.  The chain baseline is the degenerate tree (k=1, fixed depth, no
stopping rule); the balanced baseline expands a fixed branching factor level
by level, which is what makes its expansion steps batchable.  Neither reads
feedback.  The gain-cost policy wraps the greedy builder and owns the
reliability state that calibrates its reach estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .drafting import (
    BuildResult,
    DraftConfig,
    GainCostEstimate,
    LatencyProfile,
    ReliabilityState,
    StopRecord,
    build_tree,
    update_reliability,
)
from .errors import ConfigError
from .models import ProbModel, draft_candidates
from .tree import ROOT_ID, TokenTree
from .verification import VerificationResult


class FixedShapePolicy:
    """A policy whose trees do not depend on verification feedback."""

    def observe(self, result: VerificationResult) -> None:
        """Fixed shapes read no feedback."""


@dataclass
class RootOnlyPolicy(FixedShapePolicy):
    """Plain flash-backed autoregressive decoding: no drafting at all."""

    name: str = "flash_ar"

    def build(self, context: Sequence[int]) -> BuildResult:
        tree = TokenTree(root_token=int(context[-1]))
        return BuildResult(
            tree=tree,
            estimate=GainCostEstimate(gain=1.0, draft_cost=0.0, verify_cost=0.0),
            stop=StopRecord("frontier_empty", None),
            expansion_counts=[],
        )


@dataclass
class ChainPolicy(FixedShapePolicy):
    """Fixed-length single-sequence drafting (one greedy chain per cycle)."""

    draft: ProbModel
    length: int = 8
    draft_ms: float = 2.0
    name: str = "chain_sd"

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigError("chain length must be >= 1")

    def build(self, context: Sequence[int]) -> BuildResult:
        return _grow_levels(self.draft, context, 1, self.length, self.draft_ms)


@dataclass
class BalancedTreePolicy(FixedShapePolicy):
    """Fixed-topology tree: branching ``fanout`` per node, depth chosen to
    fit the node budget.  Levels are expanded together, so each level is one
    batchable draft step."""

    draft: ProbModel
    fanout: int = 2
    node_budget: int = 16
    draft_ms: float = 2.0
    name: str = "balanced_tree"

    def __post_init__(self) -> None:
        if self.fanout < 1 or self.node_budget < 1:
            raise ConfigError("fanout and node_budget must be >= 1")

    def depth(self) -> int:
        total = 0
        d = 0
        while True:
            total += self.fanout ** (d + 1)
            if total > self.node_budget:
                return max(d, 1)
            d += 1

    def build(self, context: Sequence[int]) -> BuildResult:
        return _grow_levels(self.draft, context, self.fanout, self.depth(), self.draft_ms)


@dataclass
class GainCostPolicy:
    """Greedy reach-per-marginal-latency construction with the stopping rule.

    Reaches are calibrated by ``rel``, which starts at ``cfg.reliability()``
    and moves with verification feedback: after each cycle, whether the
    target's fallback token was in the candidate set of the node where
    acceptance stopped.  A stop node that was never expanded gives no
    feedback.
    """

    draft: ProbModel
    cfg: DraftConfig
    profile: LatencyProfile
    draft_ms: float = 2.0
    name: str = "gain_cost"
    rel: ReliabilityState = field(init=False)
    _last: BuildResult = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.rel = self.cfg.reliability()

    def build(self, context: Sequence[int]) -> BuildResult:
        self._last = build_tree(
            context, self.draft, self.cfg, self.rel, self.profile, draft_ms=self.draft_ms
        )
        return self._last

    def observe(self, result: VerificationResult) -> None:
        stop_node = result.accepted_nodes[-1] if result.accepted_nodes else ROOT_ID
        cand = self._last.candidate_sets.get(stop_node)
        if cand is not None:
            self.rel = update_reliability(self.rel, result.fallback in cand)


def _grow_levels(
    draft: ProbModel,
    context: Sequence[int],
    fanout: int,
    depth: int,
    draft_ms: float,
) -> BuildResult:
    """The fixed-topology baselines' tree: ``depth`` levels, every node of a
    level expanded with its top-``fanout`` draft candidates; a node's reach
    is its parent's times its draft probability.  A chain is the
    ``fanout=1`` case."""
    tree = TokenTree(root_token=int(context[-1]))
    counts: list[int] = []
    level = [ROOT_ID]
    for _ in range(depth):
        counts.append(len(level))
        next_level: list[int] = []
        for parent in level:
            prefix = list(context) + tree.path_tokens(parent)
            for token, p in draft_candidates(draft, prefix, fanout).entries:
                reach = tree.node(parent).reach * p
                next_level.append(tree.insert(parent, token, reach))
        level = next_level
    return BuildResult(
        tree=tree,
        estimate=GainCostEstimate(
            gain=1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID),
            draft_cost=draft_ms * sum(counts),
            verify_cost=0.0,
        ),
        stop=StopRecord("frontier_empty", None),
        expansion_counts=counts,
    )
