"""Test-side helpers over flashspec's public API: an affine latency
profile, a tree's summed-reach gain and a child lookup by token.  No engine
stage needs them; tests use them as seeds and oracles."""

from __future__ import annotations

from flashspec.drafting import LatencyProfile
from flashspec.tree import ROOT_ID, TokenTree


def affine_profile(
    c0: float,
    c_node: float,
    c_leaf: float,
    max_nodes: int,
    max_leaves: int,
    penalty: float = 1.1,
) -> LatencyProfile:
    """Dense monotone seed: ms = c0 + c_node*nodes + c_leaf*leaves."""
    return LatencyProfile.grid(
        lambda nodes, leaves: c0 + c_node * nodes + c_leaf * leaves,
        max_nodes,
        max_leaves,
        penalty,
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
