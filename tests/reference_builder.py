"""Slow reference for the gain-cost builder.

``build_tree`` below is the builder as it stood before steps were priced by
cost class: it rescores every frontier entry with :func:`marginal_cost`
(two profile lookups each) and sorts the whole frontier at every step.  The
property tests check that :func:`flashspec.drafting.build_tree` returns an
identical :class:`BuildResult`.
"""

from __future__ import annotations

from typing import Sequence

from flashspec.drafting import (
    BuildResult,
    DraftConfig,
    FrontierEntry,
    GainCostEstimate,
    LatencyProfile,
    ReliabilityState,
    StepRecord,
    StopRecord,
    _selection_key,
    calibrate,
    is_expandable,
)
from flashspec.errors import ContractError
from flashspec.models import ProbModel, draft_candidates
from flashspec.tree import CandidateSet, ROOT_ID, TokenTree
from helpers import marginal_cost


def build_tree(
    context: Sequence[int],
    draft: ProbModel,
    cfg: DraftConfig,
    rel: ReliabilityState,
    profile: LatencyProfile,
    draft_ms: float = 2.0,
    record_frontier: bool = False,
) -> BuildResult:
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
        prefix = list(context) + tree.path_tokens(node_id)
        cand = draft_candidates(draft, prefix, cfg.k)
        cand = CandidateSet(cand.entries, parent=node_id)
        candidate_sets[node_id] = cand
        draft_cost += draft_ms
        expansion_counts.append(1)
        depth = tree.node(node_id).depth + 1
        for token, p in cand.entries:
            reach = reaches[node_id] * calibrate(p, rel)
            frontier.append(FrontierEntry(node_id, token, p, reach, depth))

    expand(ROOT_ID)
    stop: StopRecord | None = None

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

        if best_ratio <= gain / cycle_cost:
            stop = StopRecord(
                "stop_rule",
                best_ratio,
                gain,
                cycle_cost,
                frontier=tuple(
                    (e.parent, e.token, e.reach, mc, ratio)
                    for e, mc, ratio in scored
                )
                if record_frontier
                else None,
            )
            break

        steps.append(
            StepRecord(
                chosen=(best.parent, best.token),
                chosen_ratio=best_ratio,
                gain_before=gain,
                draft_cost_before=draft_cost,
                verify_cost_before=verify_cost,
                frontier=tuple(
                    (e.parent, e.token, e.reach, mc, ratio)
                    for e, mc, ratio in scored
                )
                if record_frontier
                else None,
            )
        )
        node_id = tree.insert(best.parent, best.token, best.reach)
        reaches[node_id] = best.reach
        frontier.remove(best)
        gain += best.reach
        if is_expandable(best, cfg):
            expand(node_id)
        if cfg.max_nodes is not None and tree.node_count - 1 >= cfg.max_nodes:
            stop = StopRecord(
                "node_budget", None, gain, draft_cost + profile.lookup(tree.shape)
            )
            break

    if stop is None:
        stop = StopRecord(
            "frontier_empty", None, gain, draft_cost + profile.lookup(tree.shape)
        )

    _attach_shadows(tree, frontier)

    estimate = GainCostEstimate(
        gain=gain,
        draft_cost=draft_cost,
        verify_cost=profile.lookup(tree.shape),
    )
    return BuildResult(tree, estimate, steps, stop, expansion_counts, candidate_sets)


def _attach_shadows(tree: TokenTree, frontier: list[FrontierEntry]) -> None:
    """Flag leftover candidates under parents that kept at least one child.

    These shadow nodes complete each parent's candidate set for pruning-score
    normalization; they never enter verification.
    """
    for entry in frontier:
        if tree.children(entry.parent):
            tree.insert(entry.parent, entry.token, entry.reach, shadow=True)
