"""Slow references for the tree builders.

``build_tree`` below is the builder as it stood before steps were priced by
cost class: it rescores every frontier entry with :func:`marginal_cost`
(two profile lookups each) and sorts the whole frontier at every step.  Every
expansion reads and sorts the draft distribution afresh, without the
candidate-set memo of :func:`flashspec.models.draft_candidates`.  The
property tests check that :func:`flashspec.drafting.build_tree` returns an
identical :class:`BuildResult`.

The reference also returns a :class:`BuildAudit`: every insertion's scored
frontier, on a stop-rule exit the frontier the stop rule saw, and the
frontier left when construction ended.  The fast builder keeps no such
record; criterion 05 and the drafting tests replay this one, and the equal
tree JSON (nodes in insertion order) ties it to the fast builder's
decisions.  The leftover frontier is the oracle for the order in which
pruning normalizes each parent's candidates: the children, then the
leftover entries under that parent in frontier order.

``grow_levels`` is the oracle for :meth:`flashspec.policies.LevelPolicy.build`
(the chain and balanced baselines) as it stood before nodes carried their
draft tails: every expansion drafts from the full prefix, context plus path.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from flashspec.drafting import (
    BuildResult,
    DraftConfig,
    FrontierEntry,
    GainCostEstimate,
    LatencyProfile,
    StopRecord,
    is_expandable,
)
from flashspec.errors import ContractError
from flashspec.models import ProbModel
from flashspec.tree import CandidateSet, ROOT_ID, TokenTree
from helpers import marginal_cost, path_tokens

# one scored frontier entry: (parent, token, reach, marginal cost, ratio)
Row = tuple[int, int, float, float, float]


class StepRecord(NamedTuple):
    """One insertion decision: the candidate ranking at that instant."""

    chosen: tuple[int, int]                          # (parent, token)
    chosen_ratio: float
    frontier: tuple[Row, ...]                        # best first


class BuildAudit(NamedTuple):
    steps: list[StepRecord]
    stop_frontier: tuple[Row, ...] | None            # set on a stop-rule exit
    leftover: list[FrontierEntry]                    # uninserted, in frontier order


def _selection_key(item: tuple[FrontierEntry, float, float]) -> tuple:
    entry, _, ratio = item
    # Best ratio first; ties prefer higher reach, then smaller token, then
    # smaller parent handle (fully deterministic ordering).
    return (-ratio, -entry.reach, entry.token, entry.parent)


def build_tree(
    context: Sequence[int],
    draft: ProbModel,
    cfg: DraftConfig,
    rel: float,
    profile: LatencyProfile,
    draft_ms: float = 2.0,
) -> tuple[BuildResult, BuildAudit]:
    """Grow a token tree greedily by reach-per-marginal-latency.

    Every insertion maximizes reach/marginal-cost over the frontier at its
    instant; construction ends when the frontier empties, when the optional
    node budget is hit, or when the best remaining candidate cannot improve
    the tree's average gain rate (gain / cycle latency).  Each expansion
    costs ``draft_ms``.
    """
    if not context:
        raise ContractError("context must be non-empty")

    tree = TokenTree(root_token=int(context[-1]))
    reaches = {ROOT_ID: 1.0}
    frontier: list[FrontierEntry] = []
    candidate_sets: dict[int, CandidateSet] = {}
    expansion_counts: list[int] = []
    steps: list[StepRecord] = []
    gain = 1.0
    draft_cost = 0.0

    def expand(node_id: int) -> None:
        nonlocal draft_cost
        prefix = list(context) + path_tokens(tree, node_id)
        p = draft.next_dist(prefix)
        top = np.argsort(-p, kind="stable")[: cfg.k]
        cand = CandidateSet(tuple((int(t), float(p[t])) for t in top))
        candidate_sets[node_id] = cand
        draft_cost += draft_ms
        expansion_counts.append(1)
        depth = tree.node(node_id).depth + 1
        for token, p in cand.entries:
            # the raw probability scaled by the reliability, clamped to [0, 1]
            reach = reaches[node_id] * min(1.0, max(0.0, rel * p))
            frontier.append(FrontierEntry(node_id, token, reach, depth))

    expand(ROOT_ID)
    stop: StopRecord | None = None
    stop_frontier: tuple[Row, ...] | None = None

    while frontier:
        verify_cost = profile.lookup(tree.shape)
        cycle_cost = draft_cost + verify_cost
        scored = [
            (e, mc, e.reach / mc)
            for e in frontier
            for mc in (marginal_cost(e, tree, profile, draft_ms, cfg),)
        ]
        scored.sort(key=_selection_key)
        best, best_mc, best_ratio = scored[0]
        rows = tuple((e.parent, e.token, e.reach, mc, ratio) for e, mc, ratio in scored)

        if best_ratio <= gain / cycle_cost:
            stop = StopRecord("stop_rule", best_ratio)
            stop_frontier = rows
            break

        steps.append(StepRecord((best.parent, best.token), best_ratio, rows))
        node_id = tree.insert(best.parent, best.token, best.reach)
        reaches[node_id] = best.reach
        frontier.remove(best)
        gain += best.reach
        if is_expandable(best, cfg):
            expand(node_id)
        if cfg.max_nodes is not None and tree.node_count - 1 >= cfg.max_nodes:
            stop = StopRecord("node_budget", None)
            break

    if stop is None:
        stop = StopRecord("frontier_empty", None)

    estimate = GainCostEstimate(
        gain=gain,
        draft_cost=draft_cost,
        verify_cost=profile.lookup(tree.shape),
    )
    result = BuildResult(tree, estimate, stop, expansion_counts, candidate_sets)
    return result, BuildAudit(steps, stop_frontier, frontier)



def grow_levels(
    draft: ProbModel, context: Sequence[int], fanout: int, depth: int
) -> tuple[TokenTree, dict[int, CandidateSet], list[int], float]:
    """``depth`` levels, every node of a level expanded with the top-``fanout``
    tokens of the draft distribution at its full prefix, read and sorted
    afresh; a node's reach is its parent's times its draft probability.
    Returns the tree, each expanded node's candidate set, the expansion
    count of each level and the gain, one plus the summed reach."""
    tree = TokenTree(root_token=int(context[-1]))
    counts: list[int] = []
    candidate_sets: dict[int, CandidateSet] = {}
    level = [ROOT_ID]
    for _ in range(depth):
        counts.append(len(level))
        next_level: list[int] = []
        for parent in level:
            p = draft.next_dist(list(context) + path_tokens(tree, parent))
            top = np.argsort(-p, kind="stable")[:fanout]
            cand = candidate_sets[parent] = CandidateSet(
                tuple((int(t), float(p[t])) for t in top)
            )
            for token, q in cand.entries:
                reach = tree.node(parent).reach * q
                next_level.append(tree.insert(parent, token, reach))
        level = next_level
    gain = 1.0 + sum(tree.node(n).reach for n in tree.ids() if n != ROOT_ID)
    return tree, candidate_sets, counts, gain
