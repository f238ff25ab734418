"""Conservative predictor-based branch pruning.

Only parents (nodes with inserted children) are scored, so the hidden-state
source is asked for one row per parent, in flattened row order.  Edge scores
are normalized within each parent's full candidate set (inserted children
and shadow tokens alike; shadows exist only to make the comparison
meaningful).  Every edge of the tree is scored in one pass: the members of
all parents are gathered into one token array, scored by one batched
matrix-vector product, and softmax-normalized per parent with the rounding
of a per-parent evaluation.

Low-scoring edges are dropped subject to safeguards: the keep set stays
ancestor-closed, a backbone path of per-depth best children is immune, the
strongest children near the root survive, and decisions that strip the tree
too bare are rejected wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import ConfigError, ContractError
from .predictor import EarlyExitPredictor
from .tree import ROOT_ID, TokenTree, compact_with_map, flatten
from .verification import PruneSummary


@dataclass(frozen=True)
class PruneConfig:
    theta: float = 0.1                   # normalized-score keep threshold
    tau: float = 1.0                     # normalization temperature
    root_keep: int = 2                   # depth-1 children always retained
    min_keep_frac: float = 0.25          # reject below this fraction of rows
    min_leaves: int = 2                  # reject below this many leaves

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < 1.0):
            raise ConfigError("theta must lie in (0, 1)")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.root_keep < 0 or self.min_leaves < 0:
            raise ConfigError("root_keep and min_leaves must be >= 0")
        if not (0.0 <= self.min_keep_frac <= 1.0):
            raise ConfigError("min_keep_frac must lie in [0, 1]")


@dataclass(frozen=True)
class PruneDecision:
    keep: frozenset[int]
    rejected: bool
    scores: dict[tuple[int, int], float]  # (parent id, token) -> normalized score
    backbone: tuple[int, ...]


class HiddenSource(Protocol):
    exit_fraction: float

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """One feature row per prefix: shape ``(len(prefixes), d)``."""
        ...


def normalize_scores(
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
    edges: list[tuple[int, int]] = []          # (parent, token), parent by parent
    group: list[int] = []                      # each edge's index into parents
    firsts: dict[int, list[int]] = {}          # set size -> each set's first edge
    for i, parent in enumerate(parents):
        members = tree.children(parent)
        if not members:
            raise ContractError(f"node {parent} has no inserted children")
        members += tree.shadow_children(parent)
        firsts.setdefault(len(members), []).append(len(edges))
        edges.extend((parent, tree.node(cid).token) for cid in members)
        group += [i] * len(members)
    if not edges:
        return {}
    tokens = np.array([token for _, token in edges])
    outside = tokens[(tokens < 0) | (tokens >= pred.vocab_size)]
    if outside.size:
        raise ContractError(f"token {outside[0]} outside vocabulary")
    if hidden_rows.shape[1:] != (pred.hidden_dim,):
        raise ContractError(
            f"hidden state shape {hidden_rows.shape[1:]} != ({pred.hidden_dim},)"
        )

    # One dot product per edge (batched 1 x d by d x 1 products): a gather
    # from W[tokens] @ h rounds differently.
    raw = (pred.weights[tokens][:, None, :] @ hidden_rows[group][:, :, None])[:, 0, 0]
    raw /= tau
    # The candidate sets of one size are normalized as one (sets, size)
    # block: a row sum of a block rounds like the 1-D sum of that row, where
    # np.add.reduceat over the flat array does not.
    norm = np.empty_like(raw)
    for size, starts in firsts.items():
        at = np.array(starts)[:, None] + np.arange(size)
        block = raw[at]
        block -= block.max(axis=1, keepdims=True)
        e = np.exp(block)
        norm[at] = e / e.sum(axis=1, keepdims=True)
    return dict(zip(edges, norm.tolist()))


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


def prune(
    tree: TokenTree,
    scores: dict[tuple[int, int], float],
    cfg: PruneConfig,
) -> PruneDecision:
    """Threshold pruning with backbone, root-coverage, and size safeguards.

    The keep set is the root, the backbone, the ``root_keep`` best depth-1
    children, and every edge scoring at least ``theta``, closed under
    ancestors.  Decisions keeping too few rows or too few leaves are rejected
    and the full tree is retained.
    """
    backbone = backbone_path(tree, scores)
    keep: set[int] = {ROOT_ID}
    keep.update(backbone)

    depth1 = tree.children(ROOT_ID)
    ranked = sorted(
        depth1,
        key=lambda cid: (
            -scores[(ROOT_ID, tree.node(cid).token)],
            -tree.node(cid).reach,
            tree.node(cid).token,
        ),
    )
    keep.update(ranked[: cfg.root_keep])

    for nid in tree.ids():
        if nid == ROOT_ID:
            continue
        node = tree.node(nid)
        if scores[(node.parent, node.token)] >= cfg.theta:
            keep.add(nid)

    # Ancestor closure (ancestors of non-shadow nodes are non-shadow).
    for nid in sorted(keep):
        parent = tree.node(nid).parent
        while parent not in keep and parent != -1:
            keep.add(parent)
            parent = tree.node(parent).parent

    kept_leaves = sum(
        1 for nid in keep if not any(c in keep for c in tree.children(nid))
    )
    rejected = (
        len(keep) < cfg.min_keep_frac * tree.node_count
        or kept_leaves < min(cfg.min_leaves, tree.leaf_count)
    )
    if rejected:
        keep = set(tree.ids())
    return PruneDecision(frozenset(keep), rejected, scores, tuple(backbone))


class TreePruner:
    """Binds a predictor, a hidden-state source, and a config into the
    per-cycle prune step used by the decode loop."""

    def __init__(
        self,
        pred: EarlyExitPredictor,
        hidden_source: HiddenSource,
        cfg: PruneConfig,
    ) -> None:
        self.pred = pred
        self.hidden_source = hidden_source
        self.cfg = cfg

    def apply(
        self, tree: TokenTree, context: Sequence[int]
    ) -> tuple[TokenTree, PruneSummary]:
        layout = flatten(tree)
        rows = [r for r, nid in enumerate(layout.rows) if not tree.is_leaf(nid)]
        ctx = list(context)
        hidden = self.hidden_source.rows([ctx + layout.path_tokens(r) for r in rows])
        parents = [layout.rows[r] for r in rows]
        scores = normalize_scores(self.pred, hidden, tree, parents, self.cfg.tau)
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
