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

The decode loop hands every :class:`VerificationResult` back to the policy
through ``observe``; whatever planning state a policy keeps between cycles
is its own.  Each cycle lands in one :class:`CycleRecord` for the
simulator: the built shape, the emitted tokens, the build's expansion
counts and gain estimate, and the pruner's
:class:`~flashspec.pruning.PruneDecision`; the accepted length and the
verified shape are derived from these.  The pruner's exit fraction is the
same for every cycle of a trial, so the harness passes it to the simulator
once instead of storing it per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping, Protocol, Sequence

import numpy as np

from .drafting import BuildResult
from .errors import ContractError
from .models import ProbModel
from .pruning import PruneDecision
# Verification does not flatten, but ``flashbench/tracing.py`` wraps
# ``verification.flatten`` by name, so the name stays importable here.
from .tree import ROOT_ID, CandidateSet, TokenTree, flatten  # noqa: F401


@dataclass(frozen=True)
class VerificationResult:
    accepted_nodes: tuple[int, ...]      # accepted node ids, root excluded
    emitted: tuple[int, ...]             # accepted tokens then the fallback

    @property
    def accepted_len(self) -> int:
        return len(self.accepted_nodes)

    @property
    def fallback(self) -> int:
        return self.emitted[-1]


def verify_tree(
    target: ProbModel,
    context: Sequence[int],
    tree: TokenTree,
    keep: AbstractSet[int] | None = None,
) -> VerificationResult:
    """Argmax verification of a tree along its accepted path.

    ``keep``, when given, restricts the tree to an ancestor-closed set of
    its nodes (a pruner's keep set); those rows are what one
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
    return VerificationResult(tuple(accepted), tuple(prefix[len(context):]))


def _check_keep(tree: TokenTree, keep: AbstractSet[int]) -> None:
    """Raise :class:`ContractError` unless ``keep`` holds the root and is an
    ancestor-closed set of the tree's nodes."""
    if ROOT_ID not in keep:
        raise ContractError("keep set must contain the root")
    for nid in keep:
        if nid >= tree.node_count or nid < 0:
            raise ContractError(f"keep set references unknown node {nid}")
        node = tree.node(nid)
        if nid != ROOT_ID and node.parent not in keep:
            raise ContractError(
                f"keep set is not ancestor-closed: {nid} kept without {node.parent}"
            )


class TreePolicy(Protocol):
    """Anything that can produce the cycle's draft tree and learn from how
    verification went."""

    def build(self, context: Sequence[int]) -> BuildResult: ...

    def observe(self, result: VerificationResult) -> None: ...


class TreePrunerLike(Protocol):
    def apply(
        self,
        tree: TokenTree,
        candidate_sets: Mapping[int, CandidateSet],
        context: Sequence[int],
    ) -> PruneDecision: ...


@dataclass(frozen=True, slots=True)
class CycleRecord:
    """One speculative cycle, as handed to the latency simulator."""

    tree_nodes: int                      # pre-prune verification rows
    tree_leaves: int
    emitted: tuple[int, ...]
    expansion_counts: tuple[int, ...]
    prune: PruneDecision | None          # the pruner's decision, None when unpruned
    gain_estimate: float

    @property
    def accepted_len(self) -> int:
        return len(self.emitted) - 1

    @property
    def rows_verified(self) -> int:
        """Post-prune rows (``tree_nodes`` when unpruned)."""
        return self.tree_nodes if self.prune is None else len(self.prune.keep)

    @property
    def leaves_verified(self) -> int:
        return self.tree_leaves if self.prune is None else self.prune.leaves


@dataclass
class DecodeResult:
    tokens: list[int]
    cycles: list[CycleRecord]


def run_decode(
    target: ProbModel,
    context: Sequence[int],
    horizon: int,
    policy: TreePolicy,
    pruner: TreePrunerLike | None = None,
) -> DecodeResult:
    """Repeat build -> (prune) -> verify -> observe until ``horizon`` tokens
    are out.  The final cycle's surplus tokens are truncated."""
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    tokens: list[int] = []
    cycles: list[CycleRecord] = []

    while len(tokens) < horizon:
        prefix = list(context) + tokens
        outcome = policy.build(prefix)
        tree = outcome.tree
        decision = None
        if pruner is not None:
            decision = pruner.apply(tree, outcome.candidate_sets, prefix)
        result = verify_tree(
            target, prefix, tree, decision.keep if decision is not None else None
        )
        policy.observe(result)
        tokens.extend(result.emitted)
        cycles.append(
            CycleRecord(
                tree_nodes=tree.node_count,
                tree_leaves=tree.leaf_count,
                emitted=result.emitted,
                expansion_counts=tuple(outcome.expansion_counts),
                prune=decision,
                gain_estimate=outcome.estimate.gain,
            )
        )

    return DecodeResult(tokens[:horizon], cycles)
