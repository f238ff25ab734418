"""Greedy token-tree construction driven by gain and cost estimates.

A tree is grown one node at a time from a frontier of drafted candidates.
Each candidate carries a reach estimate (the probability that verification
gets that far); each insertion is charged its marginal latency: the change
in verification latency read from the shape-keyed :class:`LatencyProfile`,
plus one draft expansion of ``draft_ms`` when the inserted node will itself
be expanded.  ``draft_ms`` is the device's per-expansion draft cost (the
harness passes the hardware preset's ``draft_cpu_ms``, the value the
simulator charges for a one-node expansion step), so every expansion adds
exactly that to the tree's draft cost.  The builder always picks the
frontier node with the best reach-per-marginal-latency ratio and stops as
soon as even the best candidate cannot improve the tree's average gain rate.

Each step is priced once.  A frontier entry's marginal cost depends only on
its cost class: whether its parent already has children (the insertion adds
a leaf, or the child replaces its parent as a leaf) and whether the entry is
expandable.  So a step looks up the current shape and at most two grown
shapes, computes at most four class costs with :func:`_priced`, and scores
every entry from that table.  Per-class ordered queues were prototyped and
gained at most a few percent, because the frontier holds only a handful of
entries; one pass over it scores every entry and keeps the best ratio,
ties broken towards higher reach, then the smaller token, then the smaller
parent handle.

:class:`LatencyProfile` is a fixed table that memoizes the nearest stored
shape of every missed lookup, so each missed shape scans the table once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError, ContractError
from .models import ProbModel, draft_candidates
from .tree import CandidateSet, ROOT_ID, TokenTree



@dataclass(frozen=True)
class ReliabilityState:
    """Feedback-driven confidence factor for raw draft probabilities.

    ``value`` is an exponential moving average (decay ``beta``) of the
    per-cycle indicator "the target's token at the point where acceptance
    stopped was inside the drafted candidate set", clamped to
    [``floor``, 1].
    """

    value: float = 1.0
    beta: float = 0.9
    floor: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if not (0.0 < self.floor <= 1.0):
            raise ConfigError("floor must lie in (0, 1]")
        if not (self.floor <= self.value <= 1.0):
            raise ConfigError("value must lie in [floor, 1]")


def update_reliability(rel: ReliabilityState, hit: bool) -> ReliabilityState:
    """EMA update from one verification outcome."""
    raw = rel.beta * rel.value + (1.0 - rel.beta) * (1.0 if hit else 0.0)
    return replace(rel, value=min(1.0, max(rel.floor, raw)))


def calibrate(p_draft: float, rel: ReliabilityState) -> float:
    """Map a raw draft probability to an estimated acceptance probability.

    Multiplicative down-weighting by the reliability factor, clamped to
    [0, 1]; strictly order-preserving within a candidate set.
    """
    return min(1.0, max(0.0, rel.value * p_draft))


MISS_PENALTY = 1.1   # conservative factor on a missed shape's nearest price


class LatencyProfile:
    """Fixed verification-latency table indexed by tree shape (nodes, leaves).

    Built once from a shape -> ms mapping and only read afterwards.  Exact
    hits return the stored price.  Misses return the nearest entry by L1
    shape distance (ties prefer the smaller node count, then the smaller
    leaf count) multiplied by :data:`MISS_PENALTY`.  The nearest key of each
    missed shape is memoized; the memo never goes stale because the table
    never changes.
    """

    def __init__(self, entries: Mapping[tuple[int, int], float]) -> None:
        if not entries:
            raise ConfigError("latency profile is empty and has no offline seed")
        for shape, ms in entries.items():
            if shape[0] < 1 or shape[1] < 1:
                raise ContractError(f"shape {shape} components must be >= 1")
            if ms <= 0:
                raise ContractError("latency must be positive")
        self._entries = {shape: float(ms) for shape, ms in entries.items()}
        self._nearest: dict[tuple[int, int], tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> dict[tuple[int, int], float]:
        return dict(self._entries)

    def lookup(self, shape: tuple[int, int]) -> float:
        nodes, leaves = shape
        if nodes < 1 or leaves < 1:
            raise ContractError(f"shape {shape} components must be >= 1")
        hit = self._entries.get(shape)
        if hit is not None:
            return hit
        best_key = self._nearest.get(shape)
        if best_key is None:
            best_key = self._nearest[shape] = self._scan_nearest(nodes, leaves)
        return self._entries[best_key] * MISS_PENALTY

    def _scan_nearest(self, nodes: int, leaves: int) -> tuple[int, int]:
        best_key = None
        best_dist = None
        for key in self._entries:
            dist = abs(key[0] - nodes) + abs(key[1] - leaves)
            if (
                best_dist is None
                or dist < best_dist
                or (dist == best_dist and key < best_key)
            ):
                best_dist = dist
                best_key = key
        return best_key


@dataclass(frozen=True)
class DraftConfig:
    """Knobs for candidate generation and tree construction."""

    k: int = 3
    max_depth: int = 6
    b_min: float = 0.02            # expandability floor on reach
    r_min: float = 0.05
    beta: float = 0.9
    cost_floor_ms: float = 0.01    # marginal-cost floor; keeps ratios finite
    max_nodes: int | None = None   # optional safety budget on non-root nodes

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not (0.0 <= self.b_min < 1.0):
            raise ConfigError("b_min must lie in [0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError("beta must lie in (0, 1)")
        if not (0.0 < self.r_min <= 1.0):
            raise ConfigError("r_min must lie in (0, 1]")
        if self.cost_floor_ms <= 0:
            raise ConfigError("cost_floor_ms must be > 0")

    def reliability(self) -> ReliabilityState:
        return ReliabilityState(value=1.0, beta=self.beta, floor=self.r_min)


class FrontierEntry(NamedTuple):
    """A drafted candidate whose parent is in the tree but which is not."""

    parent: int
    token: int
    reach: float
    depth: int


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
    # per expanded node; the gain-cost policy's feedback reads them
    candidate_sets: dict[int, CandidateSet] = field(default_factory=dict)


def is_expandable(entry: FrontierEntry, cfg: DraftConfig) -> bool:
    """Whether inserting this node would trigger a further draft expansion."""
    return entry.depth < cfg.max_depth and entry.reach >= cfg.b_min


def _priced(delta: float, expandable: bool, draft_ms: float, cfg: DraftConfig) -> float:
    """Marginal cost from a verify-latency delta: plus one expansion when
    the inserted node will be expanded, floored to keep ratios finite."""
    if expandable:
        delta += draft_ms
    return max(delta, cfg.cost_floor_ms)


def build_tree(
    context: Sequence[int],
    draft: ProbModel,
    cfg: DraftConfig,
    rel: ReliabilityState,
    profile: LatencyProfile,
    draft_ms: float = 2.0,
) -> BuildResult:
    """Grow a token tree greedily by reach-per-marginal-latency.

    Every insertion maximizes reach/marginal-cost over the frontier at its
    instant; construction ends when the frontier empties, when the optional
    node budget is hit, or when the best remaining candidate cannot improve
    the tree's average gain rate (gain / cycle latency).  Marginal costs are
    priced once per cost class and step (see the module docstring); each
    expansion costs ``draft_ms``.  Leftover candidates under parents that
    kept a child are attached as shadows.
    """
    if not context:
        raise ContractError("context must be non-empty")

    tree = TokenTree(root_token=int(context[-1]))
    reaches = {ROOT_ID: 1.0}
    # (parent, token) -> (entry, expandable), in insertion order
    frontier: dict[tuple[int, int], tuple[FrontierEntry, bool]] = {}
    branched: set[int] = set()       # nodes with inserted children
    candidate_sets: dict[int, CandidateSet] = {}
    expansion_counts: list[int] = []
    gain = 1.0
    draft_cost = 0.0

    def expand(node_id: int) -> None:
        nonlocal draft_cost
        prefix = list(context) + tree.path_tokens(node_id)
        cand = draft_candidates(draft, prefix, cfg.k)
        candidate_sets[node_id] = cand
        draft_cost += draft_ms
        expansion_counts.append(1)
        depth = tree.node(node_id).depth + 1
        for token, p in cand.entries:
            reach = reaches[node_id] * calibrate(p, rel)
            entry = FrontierEntry(node_id, token, reach, depth)
            frontier[node_id, token] = (entry, is_expandable(entry, cfg))

    expand(ROOT_ID)
    stop_reason = "frontier_empty"
    stop_ratio: float | None = None

    while frontier:
        nodes, leaves = tree.shape
        verify_cost = profile.lookup((nodes, leaves))
        cycle_cost = draft_cost + verify_cost
        # cost class index: 2 * (parent already has children) + expandable
        costs: list[float | None] = [None] * 4
        best = None
        best_ratio = 0.0
        for entry, expandable in frontier.values():
            branching = entry.parent in branched
            cls = 2 * branching + expandable
            mc = costs[cls]
            if mc is None:
                after = profile.lookup((nodes + 1, leaves + branching))
                mc = _priced(after - verify_cost, expandable, draft_ms, cfg)
                costs[cls] = mc
            ratio = entry.reach / mc
            # best ratio; ties to higher reach, smaller token, smaller parent
            if (
                best is None
                or ratio > best_ratio
                or (
                    ratio == best_ratio
                    and (-entry.reach, entry.token, entry.parent)
                    < (-best.reach, best.token, best.parent)
                )
            ):
                best, best_ratio = entry, ratio

        if best_ratio <= gain / cycle_cost:
            stop_reason, stop_ratio = "stop_rule", best_ratio
            break

        node_id = tree.insert(best.parent, best.token, best.reach)
        branched.add(best.parent)
        reaches[node_id] = best.reach
        _, expandable = frontier.pop((best.parent, best.token))
        gain += best.reach
        if expandable:
            expand(node_id)
        if cfg.max_nodes is not None and tree.node_count - 1 >= cfg.max_nodes:
            stop_reason = "node_budget"
            break

    # No exit changes the tree after its last pricing, so the estimate is
    # the gain and cost the stop was decided on.
    estimate = GainCostEstimate(
        gain=gain, draft_cost=draft_cost, verify_cost=profile.lookup(tree.shape)
    )
    _attach_shadows(tree, (entry for entry, _ in frontier.values()))
    stop = StopRecord(stop_reason, stop_ratio)
    return BuildResult(tree, estimate, stop, expansion_counts, candidate_sets)


def _attach_shadows(tree: TokenTree, frontier: Iterable[FrontierEntry]) -> None:
    """Flag leftover candidates under parents that kept at least one child.

    These shadow nodes complete each parent's candidate set for pruning-score
    normalization; they never enter verification.
    """
    for entry in frontier:
        if tree.children(entry.parent):
            tree.insert(entry.parent, entry.token, entry.reach, shadow=True)
