"""Lossless tree verification and the speculative decode loop.

Verification walks the tree from the root, taking the target model's argmax
at every step; the walk descends whenever the argmax matches a drafted child
and otherwise emits the argmax as the fallback token.  Because every emitted
token is a target argmax conditioned on its realized prefix, the output is
bit-identical to plain greedy decoding no matter what the draft proposed or
what pruning removed.

A pruned cycle verifies the tree it built, restricted to the pruner's keep
set: the walk stops at a child outside the set, and accepted nodes keep
their ids in the built tree.  The simulator prices the kept rows as one
batched pass, but the walk reads the target only on the rows it reaches:
``accepted_len + 1`` evaluations per cycle.

Each cycle lands in one :class:`CycleRecord` for the simulator: the built
and verified shapes, the verification outcome, the build's estimates and
the pruner's :class:`~flashspec.pruning.PruneDecision`.  The pruner's exit
fraction is the same for every cycle of a trial, so the harness passes it to
the simulator once instead of storing it per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Protocol, Sequence

import numpy as np

from .drafting import (
    BuildResult,
    LatencyProfile,
    ReliabilityState,
    update_reliability,
)
from .errors import ContractError
from .models import ProbModel
from .pruning import PruneDecision
# Verification does not flatten, but ``flashbench/tracing.py`` wraps
# ``verification.flatten`` by name, so the name stays importable here.
from .tree import ROOT_ID, TokenTree, flatten  # noqa: F401


@dataclass(frozen=True)
class VerificationResult:
    accepted_nodes: tuple[int, ...]      # accepted node ids, root excluded
    accepted_len: int
    fallback: int
    emitted: tuple[int, ...]             # accepted tokens then the fallback


def verify_tree(
    target: ProbModel,
    context: Sequence[int],
    tree: TokenTree,
    keep: AbstractSet[int] | None = None,
) -> VerificationResult:
    """Argmax verification of a tree along its accepted path.

    ``keep``, when given, restricts the tree to an ancestor-closed set of
    its non-shadow nodes (a pruner's keep set); those rows are what one
    batched verification pass prices.  The walk starts at the root and reads
    the target only on the nodes it reaches: it takes the argmax on the
    realized prefix, descends to the kept child drafted with that token, and
    otherwise stops and emits the argmax as the fallback.
    """
    if not context:
        raise ContractError("context must be non-empty")
    if keep is not None:
        _check_keep(tree, keep)
    prefix = list(context)
    accepted: list[int] = []
    node = ROOT_ID
    while True:
        want = int(np.argmax(target.next_dist(prefix)))
        prefix.append(want)
        node = tree.child(node, want)
        if node is None or (keep is not None and node not in keep):
            break
        accepted.append(node)
    return VerificationResult(
        accepted_nodes=tuple(accepted),
        accepted_len=len(accepted),
        fallback=want,
        emitted=tuple(prefix[len(context):]),
    )


def _check_keep(tree: TokenTree, keep: AbstractSet[int]) -> None:
    """Raise :class:`ContractError` unless ``keep`` holds the root and is an
    ancestor-closed set of the tree's non-shadow nodes."""
    if ROOT_ID not in keep:
        raise ContractError("keep set must contain the root")
    for nid in keep:
        if nid >= len(tree) or nid < 0:
            raise ContractError(f"keep set references unknown node {nid}")
        node = tree.node(nid)
        if node.shadow:
            raise ContractError(f"keep set contains shadow node {nid}")
        if nid != ROOT_ID and node.parent not in keep:
            raise ContractError(
                f"keep set is not ancestor-closed: {nid} kept without {node.parent}"
            )


class TreePolicy(Protocol):
    """Anything that can produce the cycle's draft tree."""

    name: str

    def build(
        self,
        context: Sequence[int],
        rel: ReliabilityState,
        profile: LatencyProfile,
    ) -> BuildResult: ...


class TreePrunerLike(Protocol):
    def apply(self, tree: TokenTree, context: Sequence[int]) -> PruneDecision: ...


@dataclass(frozen=True)
class CycleRecord:
    """One speculative cycle, as handed to the latency simulator."""

    tree_nodes: int                      # pre-prune verification rows
    tree_leaves: int
    rows_verified: int                   # post-prune rows (== tree_nodes when unpruned)
    leaves_verified: int
    accepted_len: int
    emitted: tuple[int, ...]
    expansion_counts: tuple[int, ...]
    hit: bool | None
    prune: PruneDecision | None          # the pruner's decision, None when unpruned
    gain_estimate: float
    draft_cost_estimate: float


@dataclass
class DecodeResult:
    tokens: list[int]
    cycles: list[CycleRecord]
    reliability: ReliabilityState


def run_decode(
    target: ProbModel,
    context: Sequence[int],
    horizon: int,
    policy: TreePolicy,
    rel: ReliabilityState,
    profile: LatencyProfile,
    pruner: TreePrunerLike | None = None,
) -> DecodeResult:
    """Repeat build -> (prune) -> verify until ``horizon`` tokens are out.

    Reliability is updated between cycles from verification feedback; the
    latency profile is only read.  The final cycle's surplus tokens are
    truncated.
    """
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    tokens: list[int] = []
    cycles: list[CycleRecord] = []

    while len(tokens) < horizon:
        prefix = list(context) + tokens
        outcome = policy.build(prefix, rel, profile)
        tree = outcome.tree

        decision = None
        keep = None
        shape = tree.shape
        if pruner is not None:
            decision = pruner.apply(tree, prefix)
            keep = decision.keep
            shape = (len(keep), decision.leaves)

        result = verify_tree(target, prefix, tree, keep)
        tokens.extend(result.emitted)

        hit = _candidate_hit(result, outcome)
        if hit is not None:
            rel = update_reliability(rel, hit)

        cycles.append(
            CycleRecord(
                tree_nodes=tree.node_count,
                tree_leaves=tree.leaf_count,
                rows_verified=shape[0],
                leaves_verified=shape[1],
                accepted_len=result.accepted_len,
                emitted=result.emitted,
                expansion_counts=tuple(outcome.expansion_counts),
                hit=hit,
                prune=decision,
                gain_estimate=outcome.estimate.gain,
                draft_cost_estimate=outcome.estimate.draft_cost,
            )
        )

    return DecodeResult(tokens[:horizon], cycles, rel)


def _candidate_hit(result: VerificationResult, outcome: BuildResult) -> bool | None:
    """Whether the fallback token was inside the stop node's candidate set;
    nodes that were never expanded give no feedback."""
    stop_node = result.accepted_nodes[-1] if result.accepted_nodes else ROOT_ID
    cand = outcome.candidate_sets.get(stop_node)
    if cand is None:
        return None
    return result.fallback in cand
