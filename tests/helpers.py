"""Test-side helpers over flashspec's public API: an affine latency
profile, a tree's summed-reach gain, a child lookup by token, node and leaf
counts recomputed from scratch, a pruned copy of a tree by compaction, a
frontier entry's marginal cost priced from two profile lookups, the probe's
candidate-restricted top-1 agreement and a one-row projection calibration.
No engine stage needs them; tests use them as seeds and oracles."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from flashspec.drafting import (
    DraftConfig,
    FrontierEntry,
    LatencyProfile,
    is_expandable,
)
from flashspec.errors import ConfigError, ContractError
from flashspec.predictor import EarlyExitPredictor, TrainingExample
from flashspec.simulator import HardwareConfig, compute_ms
from flashspec.tree import ROOT_ID, TokenTree


def affine_profile(
    c0: float,
    c_node: float,
    c_leaf: float,
    max_nodes: int,
    max_leaves: int,
) -> LatencyProfile:
    """Dense monotone seed: ms = c0 + c_node*nodes + c_leaf*leaves."""
    return LatencyProfile.grid(
        lambda nodes, leaves: c0 + c_node * nodes + c_leaf * leaves,
        max_nodes,
        max_leaves,
    )


def estimate_gain(tree: TokenTree) -> float:
    """Expected tokens per cycle: one fallback plus summed reach."""
    total = 1.0
    for nid in tree.ids():
        if nid != ROOT_ID:
            total += tree.node(nid).reach
    return total


def child_by_token(tree: TokenTree, node_id: int, token: int) -> int | None:
    """The non-shadow child of ``node_id`` drafted with ``token``."""
    for cid in tree.children(node_id):
        if tree.node(cid).token == token:
            return cid
    return None


def recount(tree: TokenTree) -> tuple[int, int]:
    """(node_count, leaf_count) recomputed from the non-shadow nodes,
    ignoring the tree's incremental counters."""
    ids = tree.ids()
    return len(ids), sum(1 for nid in ids if not tree.children(nid))


def compact_with_map(
    tree: TokenTree, keep: Iterable[int]
) -> tuple[TokenTree, dict[int, int]]:
    """Return a new tree holding exactly ``keep`` and the old-id -> new-id
    mapping; the input is unmodified.  Kept nodes keep their relative order.

    Tests verify this copy as the oracle for verifying the built tree
    through the keep set; its keep-set checks raise the messages
    ``verify_tree`` raises.
    """
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

    # The kept nodes are an ancestor-closed set of a valid tree's non-shadow
    # nodes, appended parents first: every parent is present and non-shadow,
    # every (parent, token) edge was unique in the source tree and reaches
    # never grow down a path, so insert's checks cannot fail and are skipped.
    new_tree = TokenTree(root_token=tree.root.token)
    mapping = {ROOT_ID: ROOT_ID}
    for nid in sorted(keep_set):
        if nid == ROOT_ID:
            continue
        node = tree.node(nid)
        mapping[nid] = new_tree._append(
            mapping[node.parent], node.token, node.reach, False
        )
    return new_tree, mapping


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
    draft_ms: float,
    cfg: DraftConfig,
) -> float:
    """Estimated cycle-latency increase from inserting one frontier node:
    the verify-latency delta of both shapes, plus one ``draft_ms`` expansion
    when the node will be expanded, floored at ``cfg.cost_floor_ms``."""
    before = profile.lookup(tree.shape)
    after = profile.lookup(shape_after_insert(tree, entry))
    delta = after - before
    if is_expandable(entry, cfg):
        delta += draft_ms
    return max(delta, cfg.cost_floor_ms)


def candidate_top1_agreement(
    pred: EarlyExitPredictor, dataset: Sequence[TrainingExample]
) -> float:
    """Fraction of examples where the probe and the final logits pick the
    same candidate-restricted top-1 token."""
    hits = 0
    for ex in dataset:
        idx = np.asarray(ex.candidates)
        probe_pick = idx[int(np.argmax(pred.weights[idx] @ ex.hidden))]
        target_pick = idx[int(np.argmax(ex.logits[idx]))]
        hits += int(probe_pick == target_pick)
    return hits / len(dataset)


def calibrate_projection(
    cfg: HardwareConfig,
    rows: int,
    used_rows: int,
    waste_ms: float,
    verify_ms: float,
    leaves: int = 4,
) -> HardwareConfig:
    """Fit projection cost and DRAM share to one measured verification row.

    Solves for the per-row eager projection cost that makes ``rows`` rows
    with ``used_rows`` useful ones waste exactly ``waste_ms``, then picks the
    DRAM-resident fraction that lands the whole verification stage (overlap
    plus eager projection) on ``verify_ms``.
    """
    if rows <= used_rows:
        raise ContractError("rows must exceed used_rows")
    per_row = waste_ms / (rows - used_rows)
    stage_ms = verify_ms - rows * per_row
    comp = compute_ms(cfg, rows, leaves)
    if stage_ms < comp:
        raise ConfigError(
            f"target verify time {verify_ms} is below compute {comp} + projection"
        )
    frac = 1.0 - stage_ms / cfg.io_ms_per_invocation
    if not (0.0 <= frac <= 1.0):
        raise ConfigError("calibration requires an out-of-range DRAM fraction")
    return replace(
        cfg, proj_ms_per_row=per_row, dram_resident_frac=frac, overlap="max"
    )
