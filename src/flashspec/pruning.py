"""Predictor-based branch pruning by path posterior.

Only parents (nodes with inserted children) are scored, so the hidden-state
source is asked for one row per parent, in id order; one pass over the
parents' ids builds each parent's prefix from its parent's.  Edge
scores are normalized within each parent's full candidate set, as the build
recorded it: the inserted children in insertion order, then the candidate
tokens that have no child in candidate order.  The tokens without a child
are never kept; they only make the comparison meaningful.  Every build
records one candidate count per tree (lever ``k``, balanced ``fanout``,
chain 1), so the members of all parents form one (parents, k) block: it is
scored by one batched matrix-vector product and softmax-normalized row by
row, with the rounding of a per-parent evaluation.  The scores come back as
one list indexed by node id, the score of the edge into each node.

A node's path posterior is the product of its path's normalized edge
scores: the chance that verification reaches it, as the probe sees it.
Pruning keeps the root, a backbone path of per-depth best children, and
every node whose posterior is at least :data:`KEEP_THRESHOLD` (0.1).
Scores are at most 1, so the posterior never rises with depth and the keep
set is ancestor-closed.

Pruning yields a keep set of node ids and the kept leaf count; the tree is
never copied.  Verification walks the built tree restricted to the keep set
(:func:`flashspec.verification.verify_tree`), which also validates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Protocol, Sequence

import numpy as np

from .errors import ContractError
from .predictor import EarlyExitPredictor
from .tree import ROOT_ID, CandidateSet, TokenTree, flatten


# the path posterior a node off the backbone needs to be kept
KEEP_THRESHOLD = 0.1


@dataclass(frozen=True, slots=True)
class PruneDecision:
    keep: frozenset[int]
    backbone: tuple[int, ...]
    leaves: int                          # leaves of the kept subtree
    # Pruning has no reject path; the bench's pruning.rejected_frac still
    # reads this field (ROADMAP item 17 drops both).
    rejected: ClassVar[bool] = False


class HiddenSource(Protocol):
    exit_fraction: float

    def rows(self, prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        """One feature row per prefix: shape ``(len(prefixes), d)``."""
        ...


def normalize_scores(
    pred: EarlyExitPredictor,
    hidden: np.ndarray,
    tree: TokenTree,
    parents: Sequence[int],
    candidate_sets: Mapping[int, CandidateSet],
) -> list[float]:
    """Softmax edge scores, one per node id: the score of the edge into the
    node; 1.0 for the root and for children of nodes not in ``parents``.

    ``parents`` are the nodes with inserted children and ``hidden[i]``
    is the hidden vector of ``parents[i]``.  Each parent's scores are
    normalized over its members: its children's tokens in insertion order,
    then the tokens of its candidate set in ``candidate_sets`` that have no
    child, in candidate order.  Every parent must have as many members as
    the first.
    """
    if hidden.shape[0] != len(parents):
        raise ContractError("hidden rows do not match the parents")
    scores = [1.0] * tree.node_count
    members: list[int] = []                    # each parent's member tokens, parent by parent
    for parent in parents:
        kids = [tree.node(cid).token for cid in tree.children(parent)]
        if not kids:
            raise ContractError(f"node {parent} has no inserted children")
        cand = candidate_sets.get(parent)
        if cand is None:
            raise ContractError(f"node {parent} has no recorded candidate set")
        taken = set(kids)
        kids += [t for t, _ in cand.entries if t not in taken]
        if members and len(kids) != width:
            raise ContractError(
                f"node {parent} has {len(kids)} members, node {parents[0]} has {width}"
            )
        width = len(kids)
        members += kids
    if not members:
        return scores
    if min(members) < 0 or max(members) >= pred.vocab_size:
        outside = next(t for t in members if not 0 <= t < pred.vocab_size)
        raise ContractError(f"token {outside} outside vocabulary")
    if hidden.shape[1:] != (pred.hidden_dim,):
        raise ContractError(f"hidden state shape {hidden.shape[1:]} != ({pred.hidden_dim},)")

    # One dot product per edge (batched 1 x d by d x 1 products): a gather
    # from W[tokens] @ h rounds differently.
    rows = np.repeat(hidden, width, axis=0)
    raw = (pred.weights[members][:, None, :] @ rows[:, :, None])[:, 0, 0]
    # One (parents, width) block: its row sums round like the 1-D sum of
    # each parent's members, where np.add.reduceat over the flat array
    # does not.
    block = raw.reshape(-1, width)
    block -= block.max(axis=1, keepdims=True)
    e = np.exp(block)
    for parent, row in zip(parents, (e / e.sum(axis=1, keepdims=True)).tolist()):
        for cid, s in zip(tree.children(parent), row):   # the children lead each row
            scores[cid] = s
    return scores


def backbone_path(
    tree: TokenTree,
    scores: Sequence[float],
) -> list[int]:
    """Most-reliable chain from the root: at each depth descend to the child
    with the best normalized score (ties prefer higher reach, then the
    smaller token)."""
    path = [ROOT_ID]
    while children := tree.children(path[-1]):
        ranked = []
        for cid in children:
            token, _, _, reach = tree.node(cid)
            ranked.append((-scores[cid], -reach, token, cid))
        path.append(min(ranked)[-1])   # sibling tokens differ: the id never decides
    return path


def prune(
    tree: TokenTree,
    scores: Sequence[float],
    theta: float,
) -> PruneDecision:
    """Keep the root, the backbone, and every node whose path posterior is
    at least ``theta``.  ``leaves`` counts the kept subtree's leaves.

    A node's posterior is its parent's times the score of the edge between
    them, and the root's is 1; parents precede children in id order, so one
    pass computes them all.
    """
    backbone = backbone_path(tree, scores)
    keep = set(backbone)
    # In an ancestor-closed set, the kept nodes with a kept child are exactly
    # the parents of the kept non-root nodes.
    kept_parents = set(backbone[:-1])
    post = [1.0] * tree.node_count       # the root, id 0, keeps 1.0
    for nid in range(1, tree.node_count):
        parent = tree.node(nid).parent
        post[nid] = post[parent] * scores[nid]
        if post[nid] >= theta:
            keep.add(nid)
            kept_parents.add(parent)
    return PruneDecision(frozenset(keep), tuple(backbone), len(keep) - len(kept_parents))


class TreePruner:
    """Binds a predictor and a hidden-state source into the per-cycle prune
    step used by the decode loop."""

    def __init__(self, pred: EarlyExitPredictor, hidden_source: HiddenSource) -> None:
        self.pred = pred
        self.hidden_source = hidden_source

    @property
    def exit_fraction(self) -> float:
        """Share of the target's depth that scoring runs over the full tree;
        the simulator charges it on every pruned cycle."""
        return self.hidden_source.exit_fraction

    def apply(
        self,
        tree: TokenTree,
        candidate_sets: Mapping[int, CandidateSet],
        context: Sequence[int],
    ) -> PruneDecision:
        """Score ``tree``'s edges over the build's ``candidate_sets`` and
        decide which nodes to keep."""
        up, tokens = flatten(tree)
        prefixes: dict[int, list[int]] = {}    # ids with children, ascending
        for nid in sorted(set(up[1:])):
            prefixes[nid] = prefixes[up[nid]] + [tokens[nid]] if nid else list(context)
        hidden = self.hidden_source.rows(list(prefixes.values()))
        parents = list(prefixes)
        scores = normalize_scores(self.pred, hidden, tree, parents, candidate_sets)
        return prune(tree, scores, KEEP_THRESHOLD)
