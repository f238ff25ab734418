import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.errors import ContractError, StructureError
from flashspec.tree import (
    ROOT_ID,
    CandidateSet,
    TokenTree,
    compact_with_map,
    flatten,
)


def chain_tree(tokens, reaches=None):
    tree = TokenTree()
    parent = ROOT_ID
    reach = 1.0
    for i, t in enumerate(tokens):
        reach = reaches[i] if reaches else reach * 0.9
        parent = tree.insert(parent, t, reach)
    return tree


class TestInsert:
    def test_single_child_counts(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        assert tree.node_count == 2
        assert tree.leaf_count == 1

    def test_two_children_two_leaves(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        tree.insert(ROOT_ID, 5, 0.3)
        assert tree.node_count == 3
        assert tree.leaf_count == 2

    def test_grandchild_keeps_leaf_count(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 3, 0.6)
        before = tree.leaf_count
        tree.insert(a, 4, 0.5)
        assert tree.leaf_count == before
        assert tree.node_count == 3

    def test_missing_parent_rejected(self):
        tree = TokenTree()
        with pytest.raises(StructureError):
            tree.insert(99, 1, 0.5)

    def test_duplicate_insertion_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        with pytest.raises(StructureError):
            tree.insert(ROOT_ID, 3, 0.5)

    def test_child_matching_a_shadow_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        tree.insert(ROOT_ID, 5, 0.3, shadow=True)
        with pytest.raises(StructureError, match="already present as a shadow"):
            tree.insert(ROOT_ID, 5, 0.3)

    def test_second_shadow_with_same_token_rejected(self):
        # a repeated shadow token would count twice in its parent's softmax
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        tree.insert(ROOT_ID, 5, 0.3, shadow=True)
        with pytest.raises(StructureError, match="already present as a shadow"):
            tree.insert(ROOT_ID, 5, 0.2, shadow=True)
        assert tree.shadow_children(ROOT_ID) == [2]

    def test_shadow_matching_a_child_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        with pytest.raises(StructureError, match="already inserted"):
            tree.insert(ROOT_ID, 3, 0.3, shadow=True)

    def test_reach_above_parent_rejected(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 3, 0.6)
        with pytest.raises(StructureError):
            tree.insert(a, 4, 0.7)

    def test_shadow_nodes_not_counted(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 3, 0.6)
        tree.insert(ROOT_ID, 5, 0.3, shadow=True)
        assert tree.node_count == 2
        assert tree.leaf_count == 1

    def test_shadow_cannot_have_children(self):
        tree = TokenTree()
        s = tree.insert(ROOT_ID, 5, 0.3, shadow=True)
        with pytest.raises(StructureError):
            tree.insert(s, 1, 0.1)


class TestFlatten:
    def test_chain_rows_follow_the_path(self):
        tree = chain_tree([1, 2])
        layout = flatten(tree)
        assert layout.tokens == (-1, 1, 2)
        assert layout.parent_row == (-1, 0, 1)
        assert layout.path_tokens(2) == [1, 2]

    def test_siblings_are_independent(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.5)
        tree.insert(ROOT_ID, 2, 0.4)
        layout = flatten(tree)
        assert layout.parent_row == (-1, 0, 0)
        assert layout.path_tokens(1) == [1]
        assert layout.path_tokens(2) == [2]

    def test_parent_rows_precede_children(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 3, 0.4)
        layout = flatten(tree)
        for i in range(1, layout.n_rows):
            assert layout.parent_row[i] < i

    def test_shadow_rows_excluded(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(ROOT_ID, 7, 0.1, shadow=True)
        layout = flatten(tree)
        assert layout.n_rows == 2
        assert 7 not in layout.tokens


class TestCompact:
    def test_keep_all_is_identity(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 3, 0.4)
        out = compact_with_map(tree, tree.ids())[0]
        assert out.node_count == tree.node_count
        assert out.leaf_count == tree.leaf_count
        assert flatten(out).tokens == flatten(tree).tokens

    def test_keep_root_only(self):
        tree = chain_tree([1, 2, 3])
        out = compact_with_map(tree, [ROOT_ID])[0]
        assert out.node_count == 1
        assert out.leaf_count == 1

    def test_backbone_extraction_matches_path_walk(self):
        # random 8-node tree; keep one root-to-leaf path
        rng = np.random.default_rng(5)
        tree = TokenTree()
        ids = [ROOT_ID]
        for t in range(8):
            parent = int(rng.choice(ids))
            reach = tree.node(parent).reach * 0.9
            ids.append(tree.insert(parent, t, reach))
        leaf = ids[-1]
        keep = [leaf]
        while keep[-1] != ROOT_ID:
            keep.append(tree.node(keep[-1]).parent)
        out = compact_with_map(tree, keep)[0]
        # oracle: explicit parent walk of the kept path
        expected_tokens = tree.path_tokens(leaf)
        assert flatten(out).tokens[1:] == tuple(expected_tokens)
        assert out.leaf_count == 1

    def test_original_unmodified(self):
        tree = chain_tree([1, 2, 3])
        before = tree.to_json()
        compact_with_map(tree, [ROOT_ID])
        assert tree.to_json() == before

    def test_non_closed_keep_rejected(self):
        tree = chain_tree([1, 2])
        with pytest.raises(ContractError):
            compact_with_map(tree, [ROOT_ID, 2])  # node 2's parent (1) missing

    def test_keep_must_contain_root(self):
        tree = chain_tree([1])
        with pytest.raises(ContractError):
            compact_with_map(tree, [1])

    def test_shadow_in_keep_rejected(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.9)
        s = tree.insert(ROOT_ID, 7, 0.1, shadow=True)
        with pytest.raises(ContractError):
            compact_with_map(tree, [ROOT_ID, s])

    def test_mapping_follows_insertion_order(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        b = tree.insert(ROOT_ID, 2, 0.8)
        _, mapping = compact_with_map(tree, [ROOT_ID, a, b])
        assert mapping == {ROOT_ID: ROOT_ID, a: 1, b: 2}


@st.composite
def tree_builds(draw):
    """A random sequence of (parent-index, token, shadow) insertions."""
    n = draw(st.integers(min_value=0, max_value=24))
    ops = []
    for i in range(n):
        parent_idx = draw(st.integers(min_value=0, max_value=i))
        token = draw(st.integers(min_value=0, max_value=200))
        shadow = draw(st.booleans())
        ops.append((parent_idx, token, shadow))
    return ops


class TestProperties:
    @given(tree_builds())
    @settings(max_examples=120, deadline=None)
    def test_counts_match_recount(self, ops):
        tree = TokenTree()
        handles = [ROOT_ID]
        for parent_idx, token, shadow in ops:
            parent = handles[parent_idx % len(handles)]
            if tree.node(parent).shadow:
                continue
            if any(
                tree.node(c).token == token
                for c in tree.children(parent) + tree.shadow_children(parent)
            ):
                continue
            reach = tree.node(parent).reach * 0.9
            handles.append(tree.insert(parent, token, reach, shadow))
        assert (tree.node_count, tree.leaf_count) == tree.recount()

    @given(tree_builds())
    @settings(max_examples=60, deadline=None)
    def test_row_paths_match_tree_paths(self, ops):
        tree = TokenTree()
        handles = [ROOT_ID]
        for parent_idx, token, shadow in ops:
            parent = handles[parent_idx % len(handles)]
            if tree.node(parent).shadow:
                continue
            if any(
                tree.node(c).token == token
                for c in tree.children(parent) + tree.shadow_children(parent)
            ):
                continue
            handles.append(
                tree.insert(parent, token, tree.node(parent).reach * 0.9, shadow)
            )
        layout = flatten(tree)
        assert list(layout.rows) == tree.ids()
        for i, nid in enumerate(layout.rows):
            assert layout.path_tokens(i) == tree.path_tokens(nid)
            if i:
                assert layout.rows[layout.parent_row[i]] == tree.node(nid).parent

    @given(tree_builds())
    @settings(max_examples=60, deadline=None)
    def test_flatten_topological_and_compact_all_roundtrip(self, ops):
        tree = TokenTree()
        handles = [ROOT_ID]
        for parent_idx, token, _ in ops:
            parent = handles[parent_idx % len(handles)]
            if any(tree.node(c).token == token for c in tree.children(parent)):
                continue
            handles.append(tree.insert(parent, token, tree.node(parent).reach * 0.9))
        layout = flatten(tree)
        for i in range(1, layout.n_rows):
            assert layout.parent_row[i] < i
        again = flatten(compact_with_map(tree, tree.ids())[0])
        assert sorted(again.tokens) == sorted(layout.tokens)


class TestSerialization:
    def test_json_roundtrip(self):
        tree = TokenTree(root_token=9)
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 7, 0.1, shadow=True)
        again = TokenTree.from_json(tree.to_json())
        assert again.to_json() == tree.to_json()
        assert again.shape == tree.shape

    def test_json_shape_documented_fields(self):
        tree = chain_tree([1])
        payload = json.loads(tree.to_json())
        assert set(payload["nodes"][0]) == {"id", "parent", "token", "reach", "shadow"}


class TestCandidateSet:
    def test_requires_sorted_entries(self):
        with pytest.raises(ContractError):
            CandidateSet(((1, 0.2), (2, 0.5)))

    def test_tie_requires_ascending_token(self):
        CandidateSet(((1, 0.5), (2, 0.5)))
        with pytest.raises(ContractError):
            CandidateSet(((2, 0.5), (1, 0.5)))

    def test_distinct_tokens(self):
        with pytest.raises(ContractError):
            CandidateSet(((1, 0.5), (1, 0.4)))
