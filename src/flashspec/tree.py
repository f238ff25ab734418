"""Token-tree data structures: construction, flattening, and compaction.

A :class:`TokenTree` holds the branching draft produced during one speculative
cycle.  Nodes are identified by stable integer handles assigned at insertion;
the tree is append-only until :func:`compact_with_map` produces a reduced
copy.  Shadow nodes (candidates kept only as scoring references) live in the
same structure, flagged, and are excluded from flattened verification layouts
and from the node/leaf counts that drive cost estimation.  A flattened layout
is the row list verification prices plus each row's parent row and token; a
row's path follows parent rows back to the root.

Every edge is indexed by ``(parent, token)``, children and shadows alike, so
an insertion's duplicate and shadow checks and
:meth:`TokenTree.child_by_token` are dict lookups.  Compaction validates the
keep set once and then remaps the kept nodes into a fresh tree without
re-running the insertion checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import ContractError, StructureError

ROOT_ID = 0
ROOT_PARENT = -1
ROOT_TOKEN = -1


class TreeNode(NamedTuple):
    """One tree node; ``token`` is ``ROOT_TOKEN`` for the root sentinel."""

    node_id: int
    token: int
    parent: int
    depth: int
    reach: float
    shadow: bool = False


@dataclass(frozen=True)
class CandidateSet:
    """Fixed-size top-k draft proposals for one parent node.

    Entries are (token, draft probability) pairs sorted by descending
    probability with ties broken toward the smaller token id.
    """

    entries: tuple[tuple[int, float], ...]
    parent: int | None = None

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

    @property
    def size(self) -> int:
        return len(self.entries)

    def tokens(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.entries)

    def probability(self, token: int) -> float:
        for t, p in self.entries:
            if t == token:
                return p
        raise KeyError(token)

    def __contains__(self, token: int) -> bool:
        return any(t == token for t, _ in self.entries)


class TokenTree:
    """Branching draft structure with incremental node/leaf accounting.

    ``node_count`` counts non-shadow nodes including the root (each one is a
    verification row); ``leaf_count`` counts non-shadow nodes without
    non-shadow children.  Both are maintained incrementally and can be audited
    with :meth:`recount`.
    """

    def __init__(self, root_token: int = ROOT_TOKEN) -> None:
        self._nodes: list[TreeNode] = [
            TreeNode(ROOT_ID, root_token, ROOT_PARENT, 0, 1.0, False)
        ]
        self._children: dict[int, list[int]] = {ROOT_ID: []}
        self._shadow_children: dict[int, list[int]] = {ROOT_ID: []}
        # (parent, token) -> (node id, shadow) for every non-root node
        self._edges: dict[tuple[int, int], tuple[int, bool]] = {}
        self._node_count = 1
        self._leaf_count = 1

    # -- accessors ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def shape(self) -> tuple[int, int]:
        return (self._node_count, self._leaf_count)

    def node(self, node_id: int) -> TreeNode:
        return self._nodes[node_id]

    @property
    def root(self) -> TreeNode:
        return self._nodes[ROOT_ID]

    def __len__(self) -> int:
        return len(self._nodes)

    def ids(self, include_shadow: bool = False) -> list[int]:
        return [
            n.node_id
            for n in self._nodes
            if include_shadow or not n.shadow
        ]

    def children(self, node_id: int) -> list[int]:
        """Non-shadow child ids in insertion order."""
        return list(self._children[node_id])

    def shadow_children(self, node_id: int) -> list[int]:
        return list(self._shadow_children[node_id])

    def child_by_token(self, node_id: int, token: int) -> int | None:
        """The non-shadow child of ``node_id`` drafted with ``token``."""
        edge = self._edges.get((node_id, token))
        if edge is None or edge[1]:
            return None
        return edge[0]

    def is_leaf(self, node_id: int) -> bool:
        return not self._nodes[node_id].shadow and not self._children[node_id]

    def path_tokens(self, node_id: int) -> list[int]:
        """Tokens along root -> node, excluding the root sentinel."""
        out: list[int] = []
        nid = node_id
        while nid != ROOT_ID:
            node = self._nodes[nid]
            out.append(node.token)
            nid = node.parent
        out.reverse()
        return out

    # -- mutation ----------------------------------------------------------

    def insert(self, parent: int, token: int, reach: float, shadow: bool = False) -> int:
        """Append a node under ``parent`` and return its stable handle.

        A token appears at most once under a parent, as a child or as a
        shadow.
        """
        if parent < 0 or parent >= len(self._nodes):
            raise StructureError(f"parent {parent} is not in the tree")
        pnode = self._nodes[parent]
        if pnode.shadow:
            raise StructureError("shadow nodes cannot have children")
        edge = self._edges.get((parent, token))
        if edge is not None:
            if edge[1]:
                raise StructureError(
                    f"token {token} already present as a shadow under node {parent}"
                )
            raise StructureError(
                f"token {token} already inserted under node {parent}"
            )
        if reach > pnode.reach + 1e-12:
            raise StructureError(
                f"child reach {reach} exceeds parent reach {pnode.reach}"
            )
        return self._append(parent, token, reach, shadow)

    def _append(self, parent: int, token: int, reach: float, shadow: bool) -> int:
        """Append a node that has passed :meth:`insert`'s checks."""
        node_id = len(self._nodes)
        depth = self._nodes[parent].depth + 1
        self._nodes.append(
            TreeNode(node_id, token, parent, depth, float(reach), shadow)
        )
        self._children[node_id] = []
        self._shadow_children[node_id] = []
        self._edges[parent, token] = (node_id, shadow)
        if shadow:
            self._shadow_children[parent].append(node_id)
        else:
            siblings = self._children[parent]
            if siblings:
                self._leaf_count += 1
            # else: parent stops being a leaf, the new node starts; net zero
            siblings.append(node_id)
            self._node_count += 1
        return node_id

    def recount(self) -> tuple[int, int]:
        """Recompute (node_count, leaf_count) from scratch, ignoring the
        incremental counters."""
        nodes = 0
        leaves = 0
        for n in self._nodes:
            if n.shadow:
                continue
            nodes += 1
            if not self._children[n.node_id]:
                leaves += 1
        return nodes, leaves

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        rows = [
            {
                "id": n.node_id,
                "parent": n.parent,
                "token": n.token,
                "reach": n.reach,
                "shadow": n.shadow,
            }
            for n in self._nodes
        ]
        return json.dumps({"nodes": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TokenTree":
        payload = json.loads(text)
        rows = sorted(payload["nodes"], key=lambda r: r["id"])
        if not rows or rows[0]["id"] != ROOT_ID or rows[0]["parent"] != ROOT_PARENT:
            raise StructureError("serialized tree lacks a root row")
        tree = cls(root_token=rows[0]["token"])
        for row in rows[1:]:
            got = tree.insert(row["parent"], row["token"], row["reach"], row["shadow"])
            if got != row["id"]:
                raise StructureError("serialized node ids are not contiguous")
        return tree


@dataclass(frozen=True)
class TreeLayout:
    """Immutable flattened view of a tree for batched verification.

    Rows are non-shadow nodes in topological order (parents precede
    children); a row's ancestors are found by following ``parent_row``.
    """

    rows: tuple[int, ...]              # node ids, row 0 is the root
    parent_row: tuple[int, ...]        # row index of the parent, -1 for root
    tokens: tuple[int, ...]            # token per row, ROOT_TOKEN for root

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def path_tokens(self, row: int) -> list[int]:
        out: list[int] = []
        r = row
        while r > 0:
            out.append(self.tokens[r])
            r = self.parent_row[r]
        out.reverse()
        return out


def flatten(tree: TokenTree) -> TreeLayout:
    """Flatten a tree into verification rows with parent rows and tokens.

    Shadow nodes are excluded.  Node handles are assigned in insertion order
    with parents inserted first, so ascending id order is already
    topological.
    """
    ids = tree.ids(include_shadow=False)
    row_index = {nid: i for i, nid in enumerate(ids)}
    parent_row = []
    tokens = []
    for nid in ids:
        node = tree.node(nid)
        parent_row.append(-1 if nid == ROOT_ID else row_index[node.parent])
        tokens.append(node.token)
    return TreeLayout(tuple(ids), tuple(parent_row), tuple(tokens))


def compact_with_map(
    tree: TokenTree, keep: Iterable[int]
) -> tuple[TokenTree, dict[int, int]]:
    """Return a new tree holding exactly ``keep`` and the old-id -> new-id
    mapping; the input is unmodified.  Kept nodes keep their relative order.
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
