import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashspec.errors import ContractError, StructureError
from flashspec.tree import ROOT_ID, CandidateSet, TokenTree, flatten
from helpers import compact_with_map, path_tokens, recount, tree_from_json, tree_json


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

    def test_reach_above_parent_rejected(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 3, 0.6)
        with pytest.raises(StructureError):
            tree.insert(a, 4, 0.7)


class TestFlatten:
    def test_chain_rows_follow_the_path(self):
        tree = chain_tree([1, 2])
        assert flatten(tree) == ((-1, 0, 1), (-1, 1, 2))
        assert path_tokens(tree, 2) == [1, 2]

    def test_siblings_are_independent(self):
        tree = TokenTree()
        tree.insert(ROOT_ID, 1, 0.5)
        tree.insert(ROOT_ID, 2, 0.4)
        parents, _ = flatten(tree)
        assert parents == (-1, 0, 0)
        assert path_tokens(tree, 1) == [1]
        assert path_tokens(tree, 2) == [2]

    def test_parent_rows_precede_children(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 3, 0.4)
        parents, _ = flatten(tree)
        for i in range(1, len(parents)):
            assert parents[i] < i


class TestCompact:
    def test_keep_all_is_identity(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 3, 0.4)
        out = compact_with_map(tree, tree.ids())[0]
        assert out.node_count == tree.node_count
        assert out.leaf_count == tree.leaf_count
        assert flatten(out) == flatten(tree)

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
        expected_tokens = path_tokens(tree, leaf)
        assert flatten(out)[1][1:] == tuple(expected_tokens)
        assert out.leaf_count == 1

    def test_original_unmodified(self):
        tree = chain_tree([1, 2, 3])
        before = tree_json(tree)
        compact_with_map(tree, [ROOT_ID])
        assert tree_json(tree) == before

    def test_non_closed_keep_rejected(self):
        tree = chain_tree([1, 2])
        with pytest.raises(ContractError):
            compact_with_map(tree, [ROOT_ID, 2])  # node 2's parent (1) missing

    def test_keep_must_contain_root(self):
        tree = chain_tree([1])
        with pytest.raises(ContractError):
            compact_with_map(tree, [1])

    def test_mapping_follows_insertion_order(self):
        tree = TokenTree()
        a = tree.insert(ROOT_ID, 1, 0.9)
        b = tree.insert(ROOT_ID, 2, 0.8)
        _, mapping = compact_with_map(tree, [ROOT_ID, a, b])
        assert mapping == {ROOT_ID: ROOT_ID, a: 1, b: 2}


@st.composite
def tree_builds(draw):
    """A random sequence of (parent-index, token) insertions."""
    n = draw(st.integers(min_value=0, max_value=24))
    ops = []
    for i in range(n):
        parent_idx = draw(st.integers(min_value=0, max_value=i))
        token = draw(st.integers(min_value=0, max_value=200))
        ops.append((parent_idx, token))
    return ops


def grow(ops):
    """The tree ``ops`` insert, skipping a token its parent already has."""
    tree = TokenTree()
    handles = [ROOT_ID]
    for parent_idx, token in ops:
        parent = handles[parent_idx % len(handles)]
        if any(tree.node(c).token == token for c in tree.children(parent)):
            continue
        handles.append(tree.insert(parent, token, tree.node(parent).reach * 0.9))
    return tree


class TestProperties:
    @given(tree_builds())
    @settings(max_examples=120, deadline=None)
    def test_counts_match_recount(self, ops):
        tree = grow(ops)
        assert (tree.node_count, tree.leaf_count) == recount(tree)

    @given(tree_builds())
    @settings(max_examples=60, deadline=None)
    def test_row_paths_match_tree_paths(self, ops):
        tree = grow(ops)
        parents, tokens = flatten(tree)
        assert len(parents) == tree.node_count
        for nid in tree.ids()[1:]:
            assert path_tokens(tree, nid) == path_tokens(tree, parents[nid]) + [tokens[nid]]

    @given(tree_builds())
    @settings(max_examples=60, deadline=None)
    def test_flatten_topological_and_compact_all_roundtrip(self, ops):
        tree = grow(ops)
        parents, tokens = flatten(tree)
        for i in range(1, len(parents)):
            assert parents[i] < i
        again = flatten(compact_with_map(tree, tree.ids())[0])
        assert sorted(again[1]) == sorted(tokens)


class TestSerialization:
    def test_json_roundtrip(self):
        tree = TokenTree(root_token=9)
        a = tree.insert(ROOT_ID, 1, 0.9)
        tree.insert(a, 2, 0.5)
        tree.insert(ROOT_ID, 7, 0.1)
        again = tree_from_json(tree_json(tree))
        assert tree_json(again) == tree_json(tree)
        assert again.shape == tree.shape

    def test_json_shape_documented_fields(self):
        tree = chain_tree([1])
        payload = json.loads(tree_json(tree))
        assert set(payload["nodes"][0]) == {"id", "parent", "token", "reach"}


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
