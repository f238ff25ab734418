"""Greedy token-tree construction driven by gain and cost estimates.

A tree is grown one node at a time from a frontier of drafted candidates.
Each candidate carries a reach estimate (the probability that verification
gets that far): its parent's reach times ``rel * p_draft``, where ``rel`` in
(0, 1] is the caller's reliability factor for raw draft probabilities.  Each
insertion is charged its marginal latency: the change in verification
latency read from the shape-keyed :class:`LatencyProfile`, plus one draft
expansion of ``draft_ms`` when the inserted node will itself
be expanded.  ``draft_ms`` is the device's per-expansion draft cost (the
harness passes the simulator's price of a one-node expansion step,
``draft_schedule((1,), hw)``), so every expansion adds exactly that to the
tree's draft cost.  The builder always picks the frontier node with the best
reach-per-marginal-latency ratio and stops as soon as even the best
candidate cannot improve the tree's average gain rate.

Each step is priced once.  A frontier entry's marginal cost depends only on
its cost class: whether its parent already has children (the insertion adds
a leaf, or the child replaces its parent as a leaf) and whether the entry is
expandable.  So a step looks up at most two grown shapes, computes at most
four class costs, and scores every entry from that table; the inserted
entry's grown shape is the next step's current shape, so its price is the
next step's verify cost.  Per-class ordered queues were prototyped and
gained at most a few percent, because the frontier holds only a handful of
entries; one pass over its plain ``(parent, token, reach, expandable)``
tuples scores every entry and keeps the best ratio, ties broken towards
higher reach, then the smaller token, then the smaller parent handle.

An expansion drafts from the node's padded tail, the last ``draft.order``
tokens of context plus path, which is all the draft reads.  Each expanded
node keeps its tail and a child's is its parent's shifted by one token, so
no expansion rebuilds the decoded prefix.

:class:`LatencyProfile` prices each shape the first time a build looks it
up and clamps a shape off its grid to the grid's edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ConfigError, ContractError
from .models import ProbModel, _padded_tail, draft_candidates
from .tree import CandidateSet, ROOT_ID, TokenTree


MISS_PENALTY = 1.1   # conservative factor on an off-grid shape's clamped price
COST_FLOOR_MS = 0.01  # marginal-cost floor; keeps ratios finite


class LatencyProfile:
    """Verification-latency table over tree shapes (nodes, leaves), priced
    lazily by ``price(nodes, leaves)``.

    The grid is every shape with ``nodes <= max_nodes`` and ``leaves <=
    min(nodes, max_leaves)``.  Each looked-up shape is priced once into a
    memo.  A shape off the grid is priced at its clamp ``(n', min(leaves,
    max_leaves, n'))`` with ``n' = min(nodes, max_nodes)``, times
    :data:`MISS_PENALTY`; on this dense grid the clamp is the L1-nearest
    grid shape, ties to fewer nodes, then fewer leaves.
    """

    def __init__(self, price: Callable[[int, int], float], max_nodes: int, max_leaves: int):
        if max_nodes < 1 or max_leaves < 1:
            raise ConfigError(f"profile bounds {max_nodes}, {max_leaves} must be >= 1")
        self._price = price
        self._max_nodes = max_nodes
        self._max_leaves = max_leaves
        self._memo: dict[tuple[int, int], float] = {}
        self._size = sum(min(nodes, max_leaves) for nodes in range(1, max_nodes + 1))

    def __len__(self) -> int:
        return self._size

    def entries(self) -> dict[tuple[int, int], float]:
        """Every grid shape and its price; never goes through :meth:`lookup`."""
        return {
            (nodes, leaves): self._on_grid((nodes, leaves))
            for nodes in range(1, self._max_nodes + 1)
            for leaves in range(1, min(nodes, self._max_leaves) + 1)
        }

    def lookup(self, shape: tuple[int, int]) -> float:
        ms = self._memo.get(shape)
        if ms is not None:
            return ms
        nodes, leaves = shape
        if nodes < 1 or leaves < 1:
            raise ContractError(f"shape {shape} components must be >= 1")
        clamped = min(nodes, self._max_nodes)
        clamp = (clamped, min(leaves, self._max_leaves, clamped))
        ms = self._on_grid(clamp)
        if clamp != shape:
            ms = self._memo[shape] = ms * MISS_PENALTY
        return ms

    def _on_grid(self, shape: tuple[int, int]) -> float:
        ms = self._memo.get(shape)
        if ms is None:
            ms = float(self._price(*shape))
            if not ms > 0:   # NaN included
                raise ContractError(f"latency of shape {shape} must be positive")
            self._memo[shape] = ms
        return ms


@dataclass(frozen=True)
class DraftConfig:
    """Knobs for candidate generation and tree construction."""

    k: int = 3
    max_depth: int = 6
    b_min: float = 0.02            # expandability floor on reach
    max_nodes: int | None = None   # optional safety budget on non-root nodes

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not (0.0 <= self.b_min < 1.0):
            raise ConfigError("b_min must lie in [0, 1)")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ConfigError("max_nodes must be >= 1, or None for no budget")


@dataclass(frozen=True)
class GainCostEstimate:
    gain: float
    draft_cost: float
    verify_cost: float

    @property
    def cycle_cost(self) -> float:
        return self.draft_cost + self.verify_cost


@dataclass(frozen=True)
class StopRecord:
    """Why construction ended: ``frontier_empty``, ``node_budget`` or
    ``stop_rule``, and for ``stop_rule`` the best ratio the rule refused.
    The gain and cycle cost at the stop are the build's estimate."""

    reason: str
    best_ratio: float | None


@dataclass
class BuildResult:
    tree: TokenTree
    estimate: GainCostEstimate
    stop: StopRecord
    expansion_counts: list[int]
    # per expanded node; pruning normalizes each parent's scores over its set,
    # and the gain-cost policy's feedback reads the stop node's set
    candidate_sets: dict[int, CandidateSet] = field(default_factory=dict)


def build_tree(
    context: Sequence[int],
    draft: ProbModel,
    cfg: DraftConfig,
    rel: float,
    profile: LatencyProfile,
    draft_ms: float = 2.0,
) -> BuildResult:
    """Grow a token tree greedily by reach-per-marginal-latency.

    Every insertion maximizes reach/marginal-cost over the frontier at its
    instant; construction ends when the frontier empties, when the optional
    node budget is hit, or when the best remaining candidate cannot improve
    the tree's average gain rate (gain / cycle latency).  Marginal costs are
    priced once per cost class and step (see the module docstring); each
    expansion costs ``draft_ms``.  ``rel`` must lie in (0, 1].
    """
    if not context:
        raise ContractError("context must be non-empty")
    if not (0.0 < rel <= 1.0):
        raise ContractError(f"reliability {rel} outside (0, 1]")

    tree = TokenTree(root_token=int(context[-1]))
    # (parent, token, reach, expandable), in insertion order
    frontier: list[tuple[int, int, float, bool]] = []
    tails: dict[int, tuple[int, ...]] = {}   # expanded node -> padded draft tail
    branched: set[int] = set()       # nodes with inserted children
    candidate_sets: dict[int, CandidateSet] = {}
    expansion_counts: list[int] = []
    gain = 1.0
    draft_cost = 0.0
    max_depth, b_min = cfg.max_depth, cfg.b_min

    def expand(node_id: int, tail: tuple[int, ...]) -> None:
        nonlocal draft_cost
        tails[node_id] = tail
        cand = candidate_sets[node_id] = draft_candidates(draft, tail, cfg.k)
        draft_cost += draft_ms
        expansion_counts.append(1)
        _, _, depth, reach = tree.node(node_id)
        # a child is expandable (its insertion triggers a further expansion)
        # below the depth limit and at or above the reach floor
        deep_enough = depth + 1 < max_depth
        for token, p in cand.entries:
            child = reach * (rel * p)
            frontier.append((node_id, token, child, deep_enough and child >= b_min))

    expand(ROOT_ID, _padded_tail(context, draft.order))
    stop_reason = "frontier_empty"
    stop_ratio: float | None = None
    nodes, leaves = tree.shape
    verify_cost = profile.lookup((nodes, leaves))

    while frontier:
        # cost class index: 2 * (parent already has children) + expandable
        costs: list[float | None] = [None] * 4
        grown = [0.0, 0.0]               # the grown shape's price, by branching
        best_ratio = -1.0                # below every ratio: the first entry wins
        for entry in frontier:
            parent, token, reach, expandable = entry
            branching = parent in branched
            cls = 2 * branching + expandable
            mc = costs[cls]
            if mc is None:
                # the verify-latency delta, plus one expansion when the node
                # will be expanded, floored to keep ratios finite
                price = grown[branching] = profile.lookup((nodes + 1, leaves + branching))
                mc = costs[cls] = max(price - verify_cost + draft_ms * expandable, COST_FLOOR_MS)
            ratio = reach / mc
            # best ratio; ties to higher reach, smaller token, smaller parent
            if ratio > best_ratio or (
                ratio == best_ratio and (-reach, token, parent) < (-best[2], best[1], best[0])
            ):
                best, best_ratio = entry, ratio

        if best_ratio <= gain / (draft_cost + verify_cost):
            stop_reason, stop_ratio = "stop_rule", best_ratio
            break

        parent, token, reach, expandable = best
        branching = parent in branched
        node_id = tree.insert(parent, token, reach)
        branched.add(parent)
        frontier.remove(best)
        gain += reach
        # the tree now has exactly the grown shape this step priced
        nodes, leaves = nodes + 1, leaves + branching
        verify_cost = grown[branching]
        if expandable:
            expand(node_id, tails[parent][1:] + (token,))
        if nodes - 1 == cfg.max_nodes:   # ``max_nodes`` counts the non-root nodes
            stop_reason = "node_budget"
            break

    # No exit changes the tree after its last pricing, so the estimate is
    # the gain and cost the stop was decided on.
    estimate = GainCostEstimate(gain, draft_cost, profile.lookup(tree.shape))
    stop = StopRecord(stop_reason, stop_ratio)
    return BuildResult(tree, estimate, stop, expansion_counts, candidate_sets)

