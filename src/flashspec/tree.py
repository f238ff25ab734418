"""Token-tree data structures: construction and flattening.

A :class:`TokenTree` holds the branching draft produced during one speculative
cycle.  Nodes are identified by stable integer handles assigned at insertion,
and the tree is append-only.  Every node is a verification row, and a node's
row is its id: :func:`flatten` gives each id's parent and token, and a node's
path follows parents back to the root.  No stage walks a path: builders
carry each node's draft tail, and pruning builds prefixes in one pass.

Every edge is indexed by ``(parent, token)``, so an insertion's duplicate
check and a child lookup by token are dict lookups.  Pruning never copies a
tree: it yields a keep set of node ids, and verification walks the built
tree restricted to that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ContractError, StructureError

ROOT_ID = 0
ROOT_PARENT = -1
ROOT_TOKEN = -1


class TreeNode(NamedTuple):
    """One tree node; ``token`` is ``ROOT_TOKEN`` for the root sentinel.  Its
    handle is its index in the tree."""

    token: int
    parent: int
    depth: int
    reach: float


@dataclass(frozen=True)
class CandidateSet:
    """Fixed-size top-k draft proposals for one parent node.

    Entries are (token, draft probability) pairs sorted by descending
    probability with ties broken toward the smaller token id.
    """

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ContractError("candidate set must be non-empty")
        tokens = [t for t, _ in self.entries]
        if len(set(tokens)) != len(tokens):
            raise ContractError("candidate tokens must be distinct")
        for (t0, p0), (t1, p1) in zip(self.entries, self.entries[1:]):
            if p1 > p0 or (p1 == p0 and t1 < t0):
                raise ContractError("candidate entries must be sorted by (-p, token)")
        for _, p in self.entries:
            if not (0.0 <= p <= 1.0):
                raise ContractError(f"candidate probability {p} outside [0, 1]")

    def __contains__(self, token: int) -> bool:
        return any(t == token for t, _ in self.entries)


class TokenTree:
    """Branching draft structure with incremental node/leaf accounting.

    ``node_count`` counts the nodes including the root (each one is a
    verification row); ``leaf_count`` counts the nodes without children and
    is maintained incrementally.
    """

    def __init__(self, root_token: int = ROOT_TOKEN) -> None:
        self._nodes: list[TreeNode] = [TreeNode(root_token, ROOT_PARENT, 0, 1.0)]
        self._children: dict[int, list[int]] = {ROOT_ID: []}
        # (parent, token) -> node id for every non-root node
        self._edges: dict[tuple[int, int], int] = {}
        self._leaf_count = 1

    # -- accessors ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._nodes), self._leaf_count)

    def node(self, node_id: int) -> TreeNode:
        return self._nodes[node_id]

    def ids(self) -> list[int]:
        return list(range(len(self._nodes)))

    def children(self, node_id: int) -> list[int]:
        """Child ids in insertion order."""
        return list(self._children[node_id])

    def child(self, parent: int, token: int) -> int | None:
        """The child of ``parent`` drafted with ``token``, if any."""
        return self._edges.get((parent, token))

    # -- mutation ----------------------------------------------------------

    def insert(self, parent: int, token: int, reach: float) -> int:
        """Append a node under ``parent`` and return its stable handle.

        A token appears at most once under a parent.
        """
        nodes = self._nodes
        node_id = len(nodes)
        if not 0 <= parent < node_id:
            raise StructureError(f"parent {parent} is not in the tree")
        _, _, depth, parent_reach = nodes[parent]
        if (parent, token) in self._edges:
            raise StructureError(
                f"token {token} already inserted under node {parent}"
            )
        if reach > parent_reach + 1e-12:
            raise StructureError(
                f"child reach {reach} exceeds parent reach {parent_reach}"
            )
        nodes.append(TreeNode._make((token, parent, depth + 1, float(reach))))
        self._children[node_id] = []
        self._edges[parent, token] = node_id
        siblings = self._children[parent]
        if siblings:
            self._leaf_count += 1
        # else: parent stops being a leaf, the new node starts; net zero
        siblings.append(node_id)
        return node_id


def flatten(tree: TokenTree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each node's parent and token, indexed by node id: ``(parents, tokens)``.

    The root's parent is ``ROOT_PARENT``.  Node handles are assigned in
    insertion order with parents inserted first, so ascending id order is
    already topological.
    """
    tokens, parents, _, _ = zip(*tree._nodes)
    return parents, tokens
