"""Lossless tree verification and the speculative decode loop.

Verification walks the tree from the root, taking the target model's argmax
at every step; the walk descends whenever the argmax matches a drafted child
and otherwise emits the argmax as the fallback token.  Because every emitted
token is a target argmax conditioned on its realized prefix, the output is
bit-identical to plain greedy decoding no matter what the draft proposed or
what pruning removed.

The simulator prices the whole flattened tree as one batched pass, but the
walk reads the target only on the rows it reaches: ``accepted_len + 1``
evaluations per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .drafting import (
    BuildResult,
    LatencyProfile,
    ReliabilityState,
    update_reliability,
)
from .errors import ContractError
from .models import ProbModel
from .tree import ROOT_ID, TokenTree, flatten


@dataclass(frozen=True)
class VerificationResult:
    accepted_nodes: tuple[int, ...]      # accepted node ids, root excluded
    accepted_len: int
    fallback: int
    emitted: tuple[int, ...]             # accepted tokens then the fallback


def verify_tree(
    target: ProbModel, context: Sequence[int], tree: TokenTree
) -> VerificationResult:
    """Argmax verification of a tree along its accepted path.

    The tree's flattened rows are what one batched verification pass
    prices.  The walk starts at row 0 and reads the target only on the rows
    it reaches: it takes the argmax on the realized prefix, descends to the
    child row drafted with that token, and otherwise stops and emits the
    argmax as the fallback.
    """
    if not context:
        raise ContractError("context must be non-empty")
    layout = flatten(tree)
    child_row = {
        (layout.parent_row[r], layout.tokens[r]): r for r in range(1, layout.n_rows)
    }
    prefix = list(context)
    accepted: list[int] = []
    row = 0
    while True:
        want = int(np.argmax(target.next_dist(prefix)))
        prefix.append(want)
        child = child_row.get((row, want))
        if child is None:
            break
        accepted.append(layout.rows[child])
        row = child
    return VerificationResult(
        accepted_nodes=tuple(accepted),
        accepted_len=len(accepted),
        fallback=want,
        emitted=tuple(prefix[len(context):]),
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
    def apply(
        self, tree: TokenTree, context: Sequence[int]
    ) -> tuple[TokenTree, "PruneSummary"]: ...


@dataclass(frozen=True)
class PruneSummary:
    """Per-cycle pruning outcome kept for audit and pricing."""

    keep: frozenset[int]                 # node ids in the pre-prune tree
    backbone: tuple[int, ...]
    rejected: bool
    parents: dict[int, int]              # pre-prune parent map over non-shadow ids
    new_to_old: dict[int, int]
    exit_fraction: float


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
    prune: PruneSummary | None
    gain_estimate: float
    draft_cost_estimate: float


@dataclass
class DecodeResult:
    tokens: list[int]
    cycles: list[CycleRecord]
    reliability: ReliabilityState


VerifyPricer = Callable[[tuple[int, int]], float]


def run_decode(
    target: ProbModel,
    context: Sequence[int],
    horizon: int,
    policy: TreePolicy,
    rel: ReliabilityState,
    profile: LatencyProfile,
    pruner: TreePrunerLike | None = None,
    verify_pricer: VerifyPricer | None = None,
) -> DecodeResult:
    """Repeat build -> (prune) -> verify until ``horizon`` tokens are out.

    Reliability and the latency profile are updated between cycles from
    verification feedback; the final cycle's surplus tokens are truncated.
    """
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    tokens: list[int] = []
    cycles: list[CycleRecord] = []

    while len(tokens) < horizon:
        prefix = list(context) + tokens
        outcome = policy.build(prefix, rel, profile)
        full_tree = outcome.tree

        prune_summary: PruneSummary | None = None
        verify_target_tree = full_tree
        if pruner is not None:
            verify_target_tree, prune_summary = pruner.apply(full_tree, prefix)

        result = verify_tree(target, prefix, verify_target_tree)
        tokens.extend(result.emitted)

        hit = _candidate_hit(result, verify_target_tree, prune_summary, outcome)
        if hit is not None:
            rel = update_reliability(rel, hit)

        shape = (verify_target_tree.node_count, verify_target_tree.leaf_count)
        if verify_pricer is not None:
            profile.observe(shape, verify_pricer(shape))

        cycles.append(
            CycleRecord(
                tree_nodes=full_tree.node_count,
                tree_leaves=full_tree.leaf_count,
                rows_verified=shape[0],
                leaves_verified=shape[1],
                accepted_len=result.accepted_len,
                emitted=result.emitted,
                expansion_counts=tuple(outcome.expansion_counts),
                hit=hit,
                prune=prune_summary,
                gain_estimate=outcome.estimate.gain,
                draft_cost_estimate=outcome.estimate.draft_cost,
            )
        )

    return DecodeResult(tokens[:horizon], cycles, rel)


def _candidate_hit(
    result: VerificationResult,
    verified_tree: TokenTree,
    prune_summary: PruneSummary | None,
    outcome: BuildResult,
) -> bool | None:
    """Whether the fallback token was inside the stop node's candidate set.

    The stop node is mapped back to the pre-prune tree when pruning renamed
    handles; nodes that were never expanded give no feedback.
    """
    stop_node = result.accepted_nodes[-1] if result.accepted_nodes else ROOT_ID
    if prune_summary is not None:
        stop_node = prune_summary.new_to_old[stop_node]
    cand = outcome.candidate_sets.get(stop_node)
    if cand is None:
        return None
    return result.fallback in cand
