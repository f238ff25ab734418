"""Slow reference for verification, the prune step and compaction.

The code below is verification and pruning as they stood before each stage
read only the rows it uses: ``verify_tree`` takes the target argmax of every
row (a node's row is its id) before walking the tree, and the prune step
asks its hidden source for a feature row per node although only the rows of
parents are scored.  Edge scores are computed one edge at a time by
``score`` (the probe's per-edge dot product with its shape and range
checks), both by the all-rows ``normalize_scores`` and by
``normalize_parent_scores``, the per-parent form the engine had before it
scored every edge in one pass.  Both normalize a parent's scores over its
children and the ``extras`` given for it: the candidate tokens that have no
child, which the engine derives from the build's candidate sets and
``leftovers`` finds by a scan of the children (a reference build's leftover
frontier gives them too).  ``backbone_path`` looks up each compared
child's node once per key field.  ``prune`` recomputes every node's path
posterior from its own path (``path_posterior``), where the engine carries
each parent's posterior to its children, and counts kept leaves by
scanning every kept node's children.  ``TreePruner.apply`` copies the kept
nodes into a new tree (``helpers.compact_with_map`` re-inserts every kept
node through ``TokenTree.insert`` and its checks), which ``verify_tree``
then walks; the engine walks the built tree restricted to the keep set
instead.  The property tests check that :mod:`flashspec.verification` and
:mod:`flashspec.pruning` give identical accepted paths (mapped back to the
built tree), emitted tokens, edge scores, prune decisions and exit
fractions.

``run_decode`` is the decode loop as it stood while the loop owned the
planning state: it takes the reliability and the latency profile, hands
both to every ``build(context, rel, profile)``, and updates the reliability
itself (``_candidate_hit`` and the EMA of ``_updated``) from each cycle's
outcome.  Its records keep every per-cycle fact as a stored field.  The
engine's gain-cost policy holds that state and applies the same rule in
``observe``; the property tests check that both loops build the same trees,
make the same prune decisions, emit the same tokens and end on the same
reliability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from flashspec.drafting import (
    BuildResult,
    DraftConfig,
    LatencyProfile,
    build_tree,
)
from flashspec.errors import ConfigError, ContractError
from flashspec.policies import RELIABILITY_DECAY, RELIABILITY_FLOOR
from flashspec.models import LayeredTargetModel, ProbModel
from flashspec.predictor import EarlyExitPredictor
from flashspec.pruning import PruneConfig, PruneDecision
from flashspec.tree import ROOT_ID, CandidateSet, TokenTree
from flashspec.verification import VerificationResult as WalkResult
from flashspec.verification import verify_tree as walk_tree
from helpers import child_by_token, compact_with_map, hidden_at, path_tokens


@dataclass(frozen=True)
class VerificationResult:
    accepted_nodes: tuple[int, ...]      # accepted node ids, root excluded
    accepted_len: int
    fallback: int
    emitted: tuple[int, ...]             # accepted tokens then the fallback
    per_row_argmax: dict[int, int]       # row (node id) -> target argmax token


def verify_tree(
    target: ProbModel, context: Sequence[int], tree: TokenTree
) -> VerificationResult:
    """Batched argmax verification of a whole tree in one pass.

    ``per_row_argmax`` holds the target argmax for every node's row; the
    accepted path is the longest root chain whose tokens match those argmax
    decisions, and the fallback is the argmax at the stopping node.
    """
    if not context:
        raise ContractError("context must be non-empty")
    ctx = list(context)
    per_row = {
        nid: int(np.argmax(target.next_dist(ctx + path_tokens(tree, nid))))
        for nid in tree.ids()
    }

    accepted: list[int] = []
    emitted: list[int] = []
    cur = ROOT_ID
    while True:
        want = per_row[cur]
        child = child_by_token(tree, cur, want)
        if child is None:
            fallback = want
            emitted.append(want)
            break
        accepted.append(child)
        emitted.append(want)
        cur = child
    return VerificationResult(
        accepted_nodes=tuple(accepted),
        accepted_len=len(accepted),
        fallback=fallback,
        emitted=tuple(emitted),
        per_row_argmax=per_row,
    )


def hidden_states(
    model: LayeredTargetModel,
    tree: TokenTree,
    layer: int,
    context: Sequence[int],
) -> np.ndarray:
    """Per-node hidden vectors at ``layer``, row i for node i.

    Row i equals ``hidden_at(model, layer, context + path-of-node-i)``
    exactly; rows are evaluated independently so the batch matches
    sequential evaluation bit-for-bit.
    """
    if not (1 <= layer <= model.depth):
        raise ContractError(f"layer {layer} outside [1, {model.depth}]")
    ctx = list(context)
    out = np.empty((tree.node_count, model.hidden_dim))
    for nid in tree.ids():
        out[nid] = hidden_at(model, layer, ctx + path_tokens(tree, nid))
    return out


class LayeredHiddenSource:
    """Hidden states from an intermediate layer of the target network."""

    def __init__(self, model: LayeredTargetModel, layer: int) -> None:
        if not (1 <= layer < model.depth):
            raise ConfigError("exit layer must be strictly before the final layer")
        self.model = model
        self.layer = layer

    @property
    def exit_fraction(self) -> float:
        return self.layer / self.model.depth

    def rows(self, context: Sequence[int], tree: TokenTree) -> np.ndarray:
        return hidden_states(self.model, tree, self.layer, context)


class ExactProbeSource:
    """Log-probability feature rows for models without intermediate layers.

    Paired with :meth:`EarlyExitPredictor.identity_probe`, edge scores equal
    log target probabilities, so score normalization reduces to renormalized
    target probabilities over each candidate set.  Those rows are the
    target's final distributions, so scoring is priced at the full depth.
    """

    exit_fraction = 1.0

    def __init__(self, target: ProbModel) -> None:
        self.target = target

    def rows(self, context: Sequence[int], tree: TokenTree) -> np.ndarray:
        ctx = list(context)
        out = np.empty((tree.node_count, self.target.vocab_size))
        for nid in tree.ids():
            dist = self.target.next_dist(ctx + path_tokens(tree, nid))
            out[nid] = np.log(np.maximum(dist, 1e-300))
        return out


def normalize_scores(
    pred: EarlyExitPredictor,
    hidden_rows: np.ndarray,
    tree: TokenTree,
    extras: Mapping[int, Sequence[int]],
) -> dict[tuple[int, int], float]:
    """Per-edge softmax scores; ``hidden_rows[i]`` is node i's hidden
    vector.

    For each parent with inserted children, scores are normalized over its
    children's tokens followed by ``extras[parent]``.  The extra edges
    receive scores too but are never kept as output.
    """
    if hidden_rows.shape[0] != tree.node_count:
        raise ContractError("hidden rows do not match the tree's nodes")
    scores: dict[tuple[int, int], float] = {}
    for parent in tree.ids():
        if not tree.children(parent):
            continue
        tokens = [tree.node(cid).token for cid in tree.children(parent)]
        tokens += extras.get(parent, [])
        if not tokens:
            raise ContractError(f"node {parent} has an empty candidate set")
        h = hidden_rows[parent]
        raw = np.array([score(pred, h, t) for t in tokens])
        raw -= raw.max()
        e = np.exp(raw)
        norm = e / e.sum()
        for token, s in zip(tokens, norm):
            scores[(parent, token)] = float(s)
    return scores


def score(pred: EarlyExitPredictor, h: np.ndarray, token: int) -> float:
    """Dot product of the token's scoring row with a hidden state."""
    if not (0 <= token < pred.vocab_size):
        raise ContractError(f"token {token} outside vocabulary")
    if h.shape != (pred.hidden_dim,):
        raise ContractError(
            f"hidden state shape {h.shape} != ({pred.hidden_dim},)"
        )
    return float(pred.weights[token] @ h)


def normalize_parent_scores(
    pred: EarlyExitPredictor,
    hidden_rows: np.ndarray,
    tree: TokenTree,
    parents: Sequence[int],
    extras: Mapping[int, Sequence[int]],
) -> dict[tuple[int, int], float]:
    """Per-edge softmax scores.

    ``parents`` are the nodes with inserted children and ``hidden_rows[i]``
    is the hidden vector of ``parents[i]``.  Each parent's scores are
    normalized over its children's tokens followed by ``extras[parent]``.
    The extra edges receive scores too but are never kept as output.
    """
    if hidden_rows.shape[0] != len(parents):
        raise ContractError("hidden rows do not match the parents")
    scores: dict[tuple[int, int], float] = {}
    for parent, h in zip(parents, hidden_rows):
        children = tree.children(parent)
        if not children:
            raise ContractError(f"node {parent} has no inserted children")
        tokens = [tree.node(cid).token for cid in children]
        tokens += extras.get(parent, [])
        raw = np.array([score(pred, h, t) for t in tokens])
        raw -= raw.max()
        e = np.exp(raw)
        norm = e / e.sum()
        for token, s in zip(tokens, norm):
            scores[(parent, token)] = float(s)
    return scores


def leftovers(
    tree: TokenTree, candidate_sets: Mapping[int, CandidateSet]
) -> dict[int, list[int]]:
    """Each recorded parent's candidate tokens that have no child, in
    candidate order, found by a scan of the parent's children."""
    return {
        parent: [t for t, _ in cand.entries if child_by_token(tree, parent, t) is None]
        for parent, cand in candidate_sets.items()
    }


def backbone_path(
    tree: TokenTree,
    scores: dict[tuple[int, int], float],
) -> list[int]:
    """Most-reliable chain from the root: at each depth descend to the child
    with the best normalized score (ties prefer higher reach, then the
    smaller token)."""
    path = [ROOT_ID]
    cur = ROOT_ID
    while True:
        children = tree.children(cur)
        if not children:
            break
        best = min(
            children,
            key=lambda cid: (
                -scores[(cur, tree.node(cid).token)],
                -tree.node(cid).reach,
                tree.node(cid).token,
            ),
        )
        path.append(best)
        cur = best
    return path


def path_posterior(
    tree: TokenTree, scores: dict[tuple[int, int], float], nid: int
) -> float:
    """The product of the edge scores on root -> ``nid``, multiplied root
    first; the root's is 1."""
    edges = []
    cur = nid
    while cur != ROOT_ID:
        node = tree.node(cur)
        edges.append(scores[(node.parent, node.token)])
        cur = node.parent
    posterior = 1.0
    for score in reversed(edges):
        posterior *= score
    return posterior


def prune(
    tree: TokenTree,
    scores: dict[tuple[int, int], float],
    cfg: PruneConfig,
) -> PruneDecision:
    """Path-posterior pruning by brute force: each node's posterior is
    recomputed from its own path, and the node is kept if that reaches
    ``theta``.  The root and the backbone are kept whatever their
    posterior."""
    keep: set[int] = {ROOT_ID}
    keep.update(backbone_path(tree, scores))
    keep.update(nid for nid in tree.ids() if path_posterior(tree, scores, nid) >= cfg.theta)
    leaves = sum(1 for nid in keep if not any(c in keep for c in tree.children(nid)))
    return PruneDecision(frozenset(keep), tuple(backbone_path(tree, scores)), leaves)


class TreePruner:
    """Binds a predictor, a hidden-state source, and a config into the
    per-cycle prune step used by the decode loop."""

    def __init__(
        self,
        pred: EarlyExitPredictor,
        hidden_source: LayeredHiddenSource | ExactProbeSource,
        cfg: PruneConfig,
    ) -> None:
        self.pred = pred
        self.hidden_source = hidden_source
        self.cfg = cfg

    def apply(
        self,
        tree: TokenTree,
        extras: Mapping[int, Sequence[int]],
        context: Sequence[int],
    ) -> tuple[TokenTree, dict[int, int], PruneDecision]:
        """The compacted tree, its new-id -> old-id map and the decision;
        the decision's kept leaves are the compacted tree's leaf count."""
        hidden = self.hidden_source.rows(context, tree)
        scores = normalize_scores(self.pred, hidden, tree, extras)
        decision = prune(tree, scores, self.cfg)
        new_tree, old_to_new = compact_with_map(tree, decision.keep)
        decision = PruneDecision(decision.keep, decision.backbone, new_tree.leaf_count)
        return new_tree, {new: old for old, new in old_to_new.items()}, decision


@dataclass
class GainCostBuild:
    """The gain-cost policy as the old loop called it: the reliability and
    the profile arrive with every build."""

    draft: ProbModel
    cfg: DraftConfig
    draft_ms: float = 2.0

    def build(
        self, context: Sequence[int], rel: float, profile: LatencyProfile
    ) -> BuildResult:
        return build_tree(context, self.draft, self.cfg, rel, profile, draft_ms=self.draft_ms)


@dataclass(frozen=True)
class CycleRecord:
    tree_nodes: int
    tree_leaves: int
    rows_verified: int
    leaves_verified: int
    accepted_len: int
    emitted: tuple[int, ...]
    expansion_counts: tuple[int, ...]
    hit: bool | None
    prune: PruneDecision | None
    gain_estimate: float
    draft_cost_estimate: float


@dataclass
class DecodeResult:
    tokens: list[int]
    cycles: list[CycleRecord]
    reliability: float
    builds: list[BuildResult]            # every cycle's build, in order


def run_decode(
    target: ProbModel,
    context: Sequence[int],
    horizon: int,
    policy: GainCostBuild,
    rel: float,
    profile: LatencyProfile,
    pruner=None,
) -> DecodeResult:
    """build -> (prune) -> verify, with the reliability updated between
    cycles from verification feedback; the final cycle's surplus tokens are
    truncated."""
    if horizon < 1:
        raise ContractError("horizon must be >= 1")
    tokens: list[int] = []
    cycles: list[CycleRecord] = []
    builds: list[BuildResult] = []

    while len(tokens) < horizon:
        prefix = list(context) + tokens
        outcome = policy.build(prefix, rel, profile)
        builds.append(outcome)
        tree = outcome.tree

        decision = None
        keep = None
        shape = tree.shape
        if pruner is not None:
            decision = pruner.apply(tree, outcome.candidate_sets, prefix)
            keep = decision.keep
            shape = (len(keep), decision.leaves)

        result = walk_tree(target, prefix, tree, keep)
        tokens.extend(result.emitted)

        hit = _candidate_hit(result, outcome)
        if hit is not None:
            rel = _updated(rel, hit)

        cycles.append(
            CycleRecord(
                tree_nodes=tree.node_count,
                tree_leaves=tree.leaf_count,
                rows_verified=shape[0],
                leaves_verified=shape[1],
                accepted_len=len(result.accepted_nodes),
                emitted=result.emitted,
                expansion_counts=tuple(outcome.expansion_counts),
                hit=hit,
                prune=decision,
                gain_estimate=outcome.estimate.gain,
                draft_cost_estimate=outcome.estimate.draft_cost,
            )
        )

    return DecodeResult(tokens[:horizon], cycles, rel, builds)


def _updated(rel: float, hit: bool) -> float:
    """EMA update from one verification outcome: decay
    ``RELIABILITY_DECAY``, clamped to [``RELIABILITY_FLOOR``, 1]."""
    raw = RELIABILITY_DECAY * rel + (1.0 - RELIABILITY_DECAY) * (1.0 if hit else 0.0)
    return min(1.0, max(RELIABILITY_FLOOR, raw))


def _candidate_hit(result: WalkResult, outcome: BuildResult) -> bool | None:
    """Whether the fallback token was inside the stop node's candidate set;
    nodes that were never expanded give no feedback."""
    stop_node = result.accepted_nodes[-1] if result.accepted_nodes else ROOT_ID
    cand = outcome.candidate_sets.get(stop_node)
    if cand is None:
        return None
    return result.fallback in cand
