"""Slow reference for verification, the prune step and compaction.

The code below is verification and pruning as they stood before each stage
read only the rows it uses: ``verify_tree`` takes the target argmax of every
flattened row before walking the tree, and the prune step asks its hidden
source for a feature row per flattened row although only the rows of
parents are scored.  Edge scores are computed one edge at a time by
``score`` (the probe's per-edge dot product with its shape and range
checks), both by the all-rows ``normalize_scores`` and by
``normalize_parent_scores``, the per-parent form the engine had before it
scored every edge in one pass.  ``compact_with_map`` re-inserts every kept
node through ``TokenTree.insert`` and its checks.  The property tests check
that :mod:`flashspec.verification`, :mod:`flashspec.pruning` and
:mod:`flashspec.tree` give identical accepted paths, emitted tokens, edge
scores, pruned trees, id mappings and prune summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from flashspec.errors import ConfigError, ContractError
from flashspec.models import LayeredTargetModel, ProbModel
from flashspec.predictor import EarlyExitPredictor
from flashspec.pruning import PruneConfig, prune
from flashspec.tree import ROOT_ID, TokenTree, TreeLayout, flatten
from flashspec.verification import PruneSummary


@dataclass(frozen=True)
class VerificationResult:
    accepted_nodes: tuple[int, ...]      # accepted node ids, root excluded
    accepted_len: int
    fallback: int
    emitted: tuple[int, ...]             # accepted tokens then the fallback
    per_row_argmax: dict[int, int]       # row index -> target argmax token
    layout: TreeLayout


def verify_tree(
    target: ProbModel, context: Sequence[int], tree: TokenTree
) -> VerificationResult:
    """Batched argmax verification of a whole tree in one pass.

    ``per_row_argmax`` holds the target argmax for every flattened row; the
    accepted path is the longest root chain whose tokens match those argmax
    decisions, and the fallback is the argmax at the stopping node.
    """
    if not context:
        raise ContractError("context must be non-empty")
    layout = flatten(tree)
    ctx = list(context)
    per_row = {
        i: int(np.argmax(target.next_dist(ctx + layout.path_tokens(i))))
        for i in range(layout.n_rows)
    }

    row_of = {nid: i for i, nid in enumerate(layout.rows)}
    accepted: list[int] = []
    emitted: list[int] = []
    cur = ROOT_ID
    while True:
        want = per_row[row_of[cur]]
        child = tree.child_by_token(cur, want)
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
        layout=layout,
    )


def hidden_states(
    model: LayeredTargetModel,
    layout: TreeLayout,
    layer: int,
    context: Sequence[int],
) -> np.ndarray:
    """Per-row hidden vectors at ``layer`` for a flattened tree.

    Row i equals ``hidden_at(layer, context + path-of-row-i)`` exactly; rows
    are evaluated independently so the batch matches sequential evaluation
    bit-for-bit.
    """
    if not (1 <= layer <= model.depth):
        raise ContractError(f"layer {layer} outside [1, {model.depth}]")
    ctx = list(context)
    out = np.empty((layout.n_rows, model.hidden_dim))
    for i in range(layout.n_rows):
        out[i] = model.hidden_at(layer, ctx + layout.path_tokens(i))
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

    def rows(self, context: Sequence[int], layout: TreeLayout) -> np.ndarray:
        return hidden_states(self.model, layout, self.layer, context)


class ExactProbeSource:
    """Log-probability feature rows for models without intermediate layers.

    Paired with :meth:`EarlyExitPredictor.identity_probe`, edge scores equal
    log target probabilities, so score normalization reduces to renormalized
    target probabilities over each candidate set.  ``exit_fraction`` is a
    pricing surrogate only.
    """

    def __init__(self, target: ProbModel, exit_fraction: float = 0.5) -> None:
        if not (0.0 < exit_fraction <= 1.0):
            raise ConfigError("exit_fraction must lie in (0, 1]")
        self.target = target
        self.exit_fraction = exit_fraction

    def rows(self, context: Sequence[int], layout: TreeLayout) -> np.ndarray:
        ctx = list(context)
        out = np.empty((layout.n_rows, self.target.vocab_size))
        for i in range(layout.n_rows):
            dist = self.target.next_dist(ctx + layout.path_tokens(i))
            out[i] = np.log(np.maximum(dist, 1e-300))
        return out


def normalize_scores(
    pred: EarlyExitPredictor,
    hidden_rows: np.ndarray,
    tree: TokenTree,
    layout: TreeLayout,
    tau: float,
) -> dict[tuple[int, int], float]:
    """Per-edge softmax scores at temperature ``tau``.

    For each parent with inserted children, scores are normalized over every
    token in its candidate set: inserted children and shadow tokens alike.
    Shadow edges receive scores too but are never kept as output.
    """
    if hidden_rows.shape[0] != layout.n_rows:
        raise ContractError("hidden rows do not match the flattened layout")
    row_of = {nid: i for i, nid in enumerate(layout.rows)}
    scores: dict[tuple[int, int], float] = {}
    for parent in layout.rows:
        member_ids = tree.children(parent) + tree.shadow_children(parent)
        if not tree.children(parent):
            continue
        tokens = [tree.node(cid).token for cid in member_ids]
        if not tokens:
            raise ContractError(f"node {parent} has an empty candidate set")
        h = hidden_rows[row_of[parent]]
        raw = np.array([score(pred, h, t) for t in tokens]) / tau
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
    tau: float,
) -> dict[tuple[int, int], float]:
    """Per-edge softmax scores at temperature ``tau``.

    ``parents`` are the nodes with inserted children and ``hidden_rows[i]``
    is the hidden vector of ``parents[i]``.  Each parent's scores are
    normalized over every token in its candidate set: inserted children and
    shadow tokens alike.  Shadow edges receive scores too but are never kept
    as output.
    """
    if hidden_rows.shape[0] != len(parents):
        raise ContractError("hidden rows do not match the parents")
    scores: dict[tuple[int, int], float] = {}
    for parent, h in zip(parents, hidden_rows):
        children = tree.children(parent)
        if not children:
            raise ContractError(f"node {parent} has no inserted children")
        member_ids = children + tree.shadow_children(parent)
        tokens = [tree.node(cid).token for cid in member_ids]
        raw = np.array([score(pred, h, t) for t in tokens]) / tau
        raw -= raw.max()
        e = np.exp(raw)
        norm = e / e.sum()
        for token, s in zip(tokens, norm):
            scores[(parent, token)] = float(s)
    return scores


def compact_with_map(
    tree: TokenTree, keep: Iterable[int]
) -> tuple[TokenTree, dict[int, int]]:
    """A new tree holding exactly ``keep`` and the old-id -> new-id mapping."""
    keep_set = set(keep)
    if ROOT_ID not in keep_set:
        raise ContractError("keep set must contain the root")
    for nid in keep_set:
        if nid >= len(tree) or nid < 0:
            raise ContractError(f"keep set references unknown node {nid}")
        node = tree.node(nid)
        if node.shadow:
            raise ContractError(f"keep set contains shadow node {nid}")
        if nid != ROOT_ID and node.parent not in keep_set:
            raise ContractError(
                f"keep set is not ancestor-closed: {nid} kept without {node.parent}"
            )

    new_tree = TokenTree(root_token=tree.root.token)
    mapping = {ROOT_ID: ROOT_ID}
    for nid in sorted(keep_set):
        if nid == ROOT_ID:
            continue
        node = tree.node(nid)
        mapping[nid] = new_tree.insert(mapping[node.parent], node.token, node.reach)
    return new_tree, mapping


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
        self, tree: TokenTree, context: Sequence[int]
    ) -> tuple[TokenTree, PruneSummary]:
        layout = flatten(tree)
        hidden = self.hidden_source.rows(context, layout)
        scores = normalize_scores(self.pred, hidden, tree, layout, self.cfg.tau)
        decision = prune(tree, scores, self.cfg)
        new_tree, old_to_new = compact_with_map(tree, decision.keep)
        summary = PruneSummary(
            keep=decision.keep,
            backbone=decision.backbone,
            rejected=decision.rejected,
            parents={nid: tree.node(nid).parent for nid in tree.ids()},
            new_to_old={new: old for old, new in old_to_new.items()},
            exit_fraction=self.hidden_source.exit_fraction,
        )
        return new_tree, summary
