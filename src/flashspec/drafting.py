"""Greedy token-tree construction driven by gain and cost estimates.

A tree is grown one node at a time from a frontier of drafted candidates.
Each candidate carries a reach estimate (the probability that verification
gets that far); each insertion is charged its marginal latency.  The builder
always picks the frontier node with the best reach-per-marginal-latency
ratio and stops as soon as even the best candidate cannot improve the tree's
average gain rate.

Each step is priced once.  A frontier entry's marginal cost depends only on
its cost class: whether its parent already has children (the insertion adds
a leaf, or the child replaces its parent as a leaf) and whether the entry is
expandable (the insertion triggers one more draft expansion).  So a step
looks up the current shape and at most two grown shapes, computes at most
four class costs with :func:`marginal_cost`'s arithmetic, and scores every
entry from that table.  Per-class ordered queues were prototyped and gained
at most a few percent, because the frontier holds only a handful of entries;
one pass over it scores every entry and keeps the best by
:func:`_selection_key`, and the recorded frontier, when asked for, is the
same scores sorted by that key.

:class:`LatencyProfile` memoizes the nearest stored shape of every missed
lookup, so a miss scans the table once; the memo is dropped whenever a new
shape enters the table, because only then can a nearest key change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

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


class MovingAverage:
    """Fixed-window mean over runtime measurements, seeded with one value."""

    def __init__(self, window: int, initial: float) -> None:
        if window < 1:
            raise ConfigError("window must be >= 1")
        self._values: deque[float] = deque([float(initial)], maxlen=window)

    def add(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def value(self) -> float:
        return sum(self._values) / len(self._values)


class LatencyProfile:
    """Verification-latency table indexed by tree shape (nodes, leaves).

    Exact hits return the stored running mean.  Misses return the nearest
    entry by L1 shape distance (ties prefer the smaller node count, then the
    smaller leaf count) multiplied by a conservative penalty.  The nearest
    key of each missed shape is memoized until a new shape is stored.
    """

    def __init__(self, penalty: float = 1.1) -> None:
        if penalty < 1.0:
            raise ConfigError("penalty must be >= 1")
        self.penalty = float(penalty)
        self._entries: dict[tuple[int, int], tuple[int, float]] = {}
        self._nearest: dict[tuple[int, int], tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> dict[tuple[int, int], float]:
        return {shape: mean for shape, (_, mean) in self._entries.items()}

    def copy(self) -> "LatencyProfile":
        clone = LatencyProfile(self.penalty)
        clone._entries = dict(self._entries)
        return clone

    def set_entry(self, shape: tuple[int, int], ms: float) -> None:
        self._validate(shape, ms)
        self._store(shape, (1, float(ms)))

    def observe(self, shape: tuple[int, int], ms: float) -> None:
        """Fold one measurement into the running mean for ``shape``."""
        self._validate(shape, ms)
        count, mean = self._entries.get(shape, (0, 0.0))
        count += 1
        mean += (ms - mean) / count
        self._store(shape, (count, mean))

    def _store(self, shape: tuple[int, int], value: tuple[int, float]) -> None:
        if shape not in self._entries:
            self._nearest.clear()
        self._entries[shape] = value

    def lookup(self, shape: tuple[int, int]) -> float:
        nodes, leaves = shape
        if nodes < 1 or leaves < 1:
            raise ContractError(f"shape {shape} components must be >= 1")
        if not self._entries:
            raise ConfigError("latency profile is empty and has no offline seed")
        hit = self._entries.get(shape)
        if hit is not None:
            return hit[1]
        best_key = self._nearest.get(shape)
        if best_key is None:
            best_key = self._nearest[shape] = self._scan_nearest(nodes, leaves)
        return self._entries[best_key][1] * self.penalty

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

    @staticmethod
    def _validate(shape: tuple[int, int], ms: float) -> None:
        if shape[0] < 1 or shape[1] < 1:
            raise ContractError(f"shape {shape} components must be >= 1")
        if ms <= 0:
            raise ContractError("latency must be positive")

    @classmethod
    def grid(
        cls,
        price: Callable[[int, int], float],
        max_nodes: int,
        max_leaves: int,
        penalty: float = 1.1,
    ) -> "LatencyProfile":
        """Dense seed: every shape with ``nodes <= max_nodes`` and
        ``leaves <= min(nodes, max_leaves)``, priced by ``price(nodes, leaves)``."""
        profile = cls(penalty=penalty)
        for nodes in range(1, max_nodes + 1):
            for leaves in range(1, min(nodes, max_leaves) + 1):
                profile.set_entry((nodes, leaves), price(nodes, leaves))
        return profile

    @classmethod
    def affine(
        cls,
        c0: float,
        c_node: float,
        c_leaf: float,
        max_nodes: int,
        max_leaves: int,
        penalty: float = 1.1,
    ) -> "LatencyProfile":
        """Dense monotone seed: ms = c0 + c_node*nodes + c_leaf*leaves."""
        return cls.grid(
            lambda nodes, leaves: c0 + c_node * nodes + c_leaf * leaves,
            max_nodes,
            max_leaves,
            penalty,
        )


@dataclass(frozen=True)
class DraftConfig:
    """Knobs for candidate generation and tree construction."""

    k: int = 3
    max_depth: int = 6
    b_min: float = 0.02            # expandability floor on reach
    r_min: float = 0.05
    beta: float = 0.9
    cost_floor_ms: float = 0.01    # marginal-cost floor; keeps ratios finite
    ma_window: int = 64
    draft_ms_seed: float = 2.0     # seeds the expansion-latency moving average
    max_nodes: int | None = None   # optional safety budget on non-root nodes

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if not (0.0 <= self.b_min < 1.0):
            raise ConfigError("b_min must lie in [0, 1)")
        if self.cost_floor_ms <= 0:
            raise ConfigError("cost_floor_ms must be > 0")

    def reliability(self) -> ReliabilityState:
        return ReliabilityState(value=1.0, beta=self.beta, floor=self.r_min)


class FrontierEntry(NamedTuple):
    """A drafted candidate whose parent is in the tree but which is not."""

    parent: int
    token: int
    p_draft: float
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


class StepRecord(NamedTuple):
    """One insertion decision: the candidate ranking at that instant."""

    chosen: tuple[int, int]                          # (parent, token)
    chosen_ratio: float
    gain_before: float
    draft_cost_before: float
    verify_cost_before: float
    frontier: tuple[tuple[int, int, float, float, float], ...] | None
    # frontier rows: (parent, token, reach, marginal_cost, ratio)


@dataclass(frozen=True)
class StopRecord:
    reason: str                                      # frontier_empty | stop_rule | node_budget
    best_ratio: float | None
    gain: float
    cycle_cost: float
    frontier: tuple[tuple[int, int, float, float, float], ...] | None = None


@dataclass
class BuildResult:
    tree: TokenTree
    estimate: GainCostEstimate
    steps: list[StepRecord]
    stop: StopRecord
    expansion_counts: list[int]
    candidate_sets: dict[int, CandidateSet] = field(default_factory=dict)


def estimate_gain(tree: TokenTree) -> float:
    """Expected tokens per cycle: one fallback plus summed reach."""
    total = 1.0
    for nid in tree.ids():
        if nid != ROOT_ID:
            total += tree.node(nid).reach
    return total


def is_expandable(entry: FrontierEntry, cfg: DraftConfig) -> bool:
    """Whether inserting this node would trigger a further draft expansion."""
    return entry.depth < cfg.max_depth and entry.reach >= cfg.b_min


def shape_after_insert(tree: TokenTree, entry: FrontierEntry) -> tuple[int, int]:
    nodes, leaves = tree.shape
    if tree.children(entry.parent):
        leaves += 1
    # else: the parent was a leaf and the child replaces it; leaves unchanged
    return nodes + 1, leaves


def marginal_cost(
    entry: FrontierEntry,
    tree: TokenTree,
    profile: LatencyProfile,
    draft_ma: MovingAverage,
    cfg: DraftConfig,
) -> float:
    """Estimated cycle-latency increase from inserting one frontier node."""
    before = profile.lookup(tree.shape)
    after = profile.lookup(shape_after_insert(tree, entry))
    return _priced(after - before, is_expandable(entry, cfg), draft_ma.value, cfg)


def _priced(delta: float, expandable: bool, draft_ms: float, cfg: DraftConfig) -> float:
    """Marginal cost from a verify-latency delta: plus one expansion when
    the inserted node will be expanded, floored to keep ratios finite."""
    if expandable:
        delta += draft_ms
    return max(delta, cfg.cost_floor_ms)


def _selection_key(item: tuple[FrontierEntry, float, float]) -> tuple:
    entry, _, ratio = item
    # Best ratio first; ties prefer higher reach, then smaller token, then
    # smaller parent handle (fully deterministic ordering).
    return (-ratio, -entry.reach, entry.token, entry.parent)


DraftTimer = Callable[[int], float]


def build_tree(
    context: Sequence[int],
    draft: ProbModel,
    cfg: DraftConfig,
    rel: ReliabilityState,
    profile: LatencyProfile,
    draft_timer: DraftTimer | None = None,
    record_frontier: bool = False,
    add_shadows: bool = True,
) -> BuildResult:
    """Grow a token tree greedily by reach-per-marginal-latency.

    Every insertion maximizes reach/marginal-cost over the frontier at its
    instant; construction ends when the frontier empties, when the optional
    node budget is hit, or when the best remaining candidate cannot improve
    the tree's average gain rate (gain / cycle latency).  Marginal costs are
    priced once per cost class and step (see the module docstring) and equal
    :func:`marginal_cost` bit for bit.

    ``draft_timer(count)`` prices one expansion step; defaults to the
    configured seed latency, keeping construction deterministic.
    """
    if not context:
        raise ContractError("context must be non-empty")
    timer = draft_timer or (lambda count: cfg.draft_ms_seed * count)

    tree = TokenTree(root_token=int(context[-1]))
    reaches = {ROOT_ID: 1.0}
    # (parent, token) -> (entry, expandable), in insertion order
    frontier: dict[tuple[int, int], tuple[FrontierEntry, bool]] = {}
    branched: set[int] = set()       # nodes with inserted children
    candidate_sets: dict[int, CandidateSet] = {}
    expansion_counts: list[int] = []
    steps: list[StepRecord] = []
    draft_ma = MovingAverage(cfg.ma_window, cfg.draft_ms_seed)
    gain = 1.0
    draft_cost = 0.0

    def expand(node_id: int) -> None:
        nonlocal draft_cost
        prefix = list(context) + tree.path_tokens(node_id)
        cand = draft_candidates(draft, prefix, cfg.k, parent=node_id)
        candidate_sets[node_id] = cand
        elapsed = timer(1)
        draft_ma.add(elapsed)
        draft_cost += elapsed
        expansion_counts.append(1)
        depth = tree.node(node_id).depth + 1
        for token, p in cand.entries:
            reach = reaches[node_id] * calibrate(p, rel)
            entry = FrontierEntry(node_id, token, p, reach, depth)
            frontier[node_id, token] = (entry, is_expandable(entry, cfg))

    expand(ROOT_ID)
    stop_reason = "frontier_empty"
    stop_ratio: float | None = None
    stop_rows = None

    while frontier:
        nodes, leaves = tree.shape
        verify_cost = profile.lookup((nodes, leaves))
        cycle_cost = draft_cost + verify_cost
        draft_ms = draft_ma.value
        # cost class index: 2 * (parent already has children) + expandable
        costs: list[float | None] = [None] * 4
        scored = []
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
            if record_frontier:
                scored.append((entry, mc, ratio))
            # the minimum of _selection_key, in one pass
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
        rows = _frontier_rows(scored) if record_frontier else None

        if best_ratio <= gain / cycle_cost:
            stop_reason, stop_ratio, stop_rows = "stop_rule", best_ratio, rows
            break

        steps.append(
            StepRecord(
                chosen=(best.parent, best.token),
                chosen_ratio=best_ratio,
                gain_before=gain,
                draft_cost_before=draft_cost,
                verify_cost_before=verify_cost,
                frontier=rows,
            )
        )
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

    # No exit changes the tree after its last pricing: the stop and the
    # estimate are both priced at the final shape.
    verify_cost = profile.lookup(tree.shape)
    stop = StopRecord(
        stop_reason, stop_ratio, gain, draft_cost + verify_cost, frontier=stop_rows
    )

    if add_shadows:
        _attach_shadows(tree, (entry for entry, _ in frontier.values()))

    estimate = GainCostEstimate(
        gain=gain, draft_cost=draft_cost, verify_cost=verify_cost
    )
    return BuildResult(tree, estimate, steps, stop, expansion_counts, candidate_sets)


def _frontier_rows(
    scored: list[tuple[FrontierEntry, float, float]],
) -> tuple[tuple[int, int, float, float, float], ...]:
    """The whole frontier as recorded rows, best first."""
    return tuple(
        (e.parent, e.token, e.reach, mc, ratio)
        for e, mc, ratio in sorted(scored, key=_selection_key)
    )


def _attach_shadows(tree: TokenTree, frontier: Iterable[FrontierEntry]) -> None:
    """Flag leftover candidates under parents that kept at least one child.

    These shadow nodes complete each parent's candidate set for pruning-score
    normalization; they never enter verification.
    """
    for entry in frontier:
        if tree.children(entry.parent):
            tree.insert(entry.parent, entry.token, entry.reach, shadow=True)
