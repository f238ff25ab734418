"""Draft-tree policies.

Every policy produces a :class:`~flashspec.drafting.BuildResult` from the
context alone and is told each cycle's
:class:`~flashspec.verification.VerificationResult` through ``observe``, so
all of them share one verification path and each keeps its own planning
state.  :class:`LevelPolicy` grows a fixed-shape level tree, ``fanout``
candidates per node for ``depth`` levels; the chain baseline configures it
one wide with ``length`` levels, the balanced baseline ``fanout`` wide with
as many levels as fit its node budget.  A level tree reads no feedback and
depends only on the root's padded draft tail, so each instance builds it
once per tail (a harness trial makes a fresh policy, so nothing is shared
across trials).  The gain-cost policy wraps the greedy builder and owns the
reliability factor that scales its reach estimates; its trees depend on
that factor too and are built every cycle.  Like the greedy builder, a
level tree drafts from each node's carried padded tail.

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

RELIABILITY_DECAY = 0.9    # EMA decay of the gain-cost policy's reliability
RELIABILITY_FLOOR = 0.05   # the reliability never falls below this


@dataclass
class RootOnlyPolicy:
    """Plain flash-backed autoregressive decoding: no drafting at all."""

    hw: HardwareConfig

    def build(self, context: Sequence[int]) -> BuildResult:
        return BuildResult(
            tree=TokenTree(root_token=int(context[-1])),
            estimate=GainCostEstimate(1.0, draft_cost=0.0, verify_cost=ar_step_latency(self.hw)),
            stop=StopRecord("frontier_empty", None),
            expansion_counts=[],
        )

    def observe(self, result: VerificationResult) -> None:
        """The root-only tree reads no feedback."""


@dataclass
class LevelPolicy:
    """The level tree of ``depth`` levels over the root's padded draft tail:
    every node of a level is expanded with its top-``fanout`` draft
    candidates, so each level is one batchable draft step.  A node's reach
    is its parent's times its draft probability, and a child's tail is its
    parent's shifted by its token.  Each expanded node's candidate set is
    recorded for pruning.

    The tree depends only on the tail, so it is grown on the tail's first
    build and kept in ``_builds``; a repeated tail returns the same
    :class:`BuildResult`, which no later stage mutates, and reads the draft
    zero times.
    """

    draft: ProbModel
    hw: HardwareConfig
    fanout: int
    depth: int
    _builds: dict[tuple[int, ...], BuildResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def build(self, context: Sequence[int]) -> BuildResult:
        root_tail = _padded_tail(context, self.draft.order)
        out = self._builds.get(root_tail)
        if out is not None:
            return out
        tree = TokenTree(root_token=int(root_tail[-1]))
        counts: list[int] = []
        candidate_sets: dict[int, CandidateSet] = {}
        level = [(ROOT_ID, root_tail)]
        for _ in range(self.depth):
            counts.append(len(level))
            next_level: list[tuple[int, tuple[int, ...]]] = []
            for parent, tail in level:
                cand = candidate_sets[parent] = draft_candidates(self.draft, tail, self.fanout)
                reach = tree.node(parent).reach
                for token, p in cand.entries:
                    child = tree.insert(parent, token, reach * p)
                    next_level.append((child, tail[1:] + (token,)))
            level = next_level
        out = self._builds[root_tail] = BuildResult(
            tree=tree,
            estimate=GainCostEstimate(
                gain=1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID),
                draft_cost=draft_schedule(counts, self.hw),
                verify_cost=verify_latency(self.hw, *tree.shape),
            ),
            stop=StopRecord("frontier_empty", None),
            expansion_counts=counts,
            candidate_sets=candidate_sets,
        )
        return out

    def observe(self, result: VerificationResult) -> None:
        """Level trees read no feedback."""


class ChainPolicy(LevelPolicy):
    """Fixed-length single-sequence drafting: the one-wide level tree of
    ``length`` levels."""

    def __init__(self, draft: ProbModel, hw: HardwareConfig, length: int = 8) -> None:
        if length < 1:
            raise ConfigError("chain length must be >= 1")
        super().__init__(draft, hw, 1, length)

    # an entry of its own, so a tracer can wrap this class's builds by name
    build = LevelPolicy.build


class BalancedTreePolicy(LevelPolicy):
    """The ``fanout``-wide level tree with as many levels as fit
    ``node_budget``; at least one, since the first does."""

    def __init__(
        self, draft: ProbModel, hw: HardwareConfig, fanout: int = 2, node_budget: int = 16
    ) -> None:
        if fanout < 1 or node_budget < 1:
            raise ConfigError("fanout and node_budget must be >= 1")
        if fanout > node_budget:
            raise ConfigError(f"fanout={fanout} exceeds node_budget={node_budget}")
        depth, nodes = 0, fanout
        while nodes <= node_budget:
            depth += 1
            nodes += fanout ** (depth + 1)
        super().__init__(draft, hw, fanout, depth)

    # an entry of its own, so a tracer can wrap this class's builds by name
    build = LevelPolicy.build


@dataclass
class GainCostPolicy:
    """Greedy reach-per-marginal-latency construction with the stopping rule.

    Draft probabilities are scaled by the reliability ``rel``, which starts
    at 1 and is an exponential moving average (decay
    :data:`RELIABILITY_DECAY`, clamped to [:data:`RELIABILITY_FLOOR`, 1]) of
    one hit per cycle: whether the target's fallback token was in the
    candidate set of the node where acceptance stopped.  A stop node that
    was never expanded gives no feedback.
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
            decay = RELIABILITY_DECAY
            raw = decay * self.rel + (1.0 - decay) * (result.fallback in cand)
            self.rel = min(1.0, max(RELIABILITY_FLOOR, raw))

