"""Test-side helpers over flashspec's public API: an affine latency
profile, the shapes of a profile grid and a trial's planning profile on a
grid of the test's size, a tree's summed-reach gain, a
node's path tokens, a child lookup by token, node and leaf counts
recomputed from scratch, a pruned copy of a tree by compaction, a tree's JSON and the tree rebuilt
from it, a candidate set's tokens and a candidate set of given tokens,
edge scores keyed by ``(parent, token)`` as a list by node id, a tabular
row drawn from its own ``default_rng``, a layered target's hidden
state at one layer and its final logits (each alone, or both from one
slot read), a frontier entry, whether it is expandable and its marginal
cost priced from two profile lookups, a per-example training record and its
conversions to and from a distillation set, a zero-weight probe, a probe
read back from its saved JSON, the
probe's losses and gradient on a set, its candidate-restricted top-1
agreement and a one-row projection calibration.
No engine stage needs them; tests use them as seeds and oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from flashspec import harness
from flashspec.drafting import COST_FLOOR_MS, DraftConfig, LatencyProfile
from flashspec.errors import ConfigError, ContractError, StructureError
from flashspec.models import LayeredTargetModel, TabularMarkovModel
from flashspec.predictor import (
    DistillationSet,
    EarlyExitPredictor,
    TrainConfig,
    _kl,
    _total_loss,
    _total_loss_grad,
)
from flashspec.simulator import HardwareConfig, compute_ms, verify_latency
from flashspec.tree import ROOT_ID, ROOT_PARENT, CandidateSet, TokenTree


def affine_profile(
    c0: float,
    c_node: float,
    c_leaf: float,
    max_nodes: int,
    max_leaves: int,
) -> LatencyProfile:
    """Monotone seed: ms = c0 + c_node*nodes + c_leaf*leaves on the
    ``max_nodes`` by ``max_leaves`` profile grid."""
    return LatencyProfile(
        lambda nodes, leaves: c0 + c_node * nodes + c_leaf * leaves, max_nodes, max_leaves
    )


def grid_shapes(max_nodes: int, max_leaves: int) -> list[tuple[int, int]]:
    """A profile grid written out: every shape with ``nodes <= max_nodes``
    and ``leaves <= min(nodes, max_leaves)``."""
    return [
        (n, l) for n in range(1, max_nodes + 1) for l in range(1, min(n, max_leaves) + 1)
    ]


def plan_on_grid(monkeypatch, max_nodes: int, max_leaves: int) -> None:
    """Make every lever trial plan on a ``max_nodes`` by ``max_leaves``
    grid: ``harness.seed_profile`` then serves one such profile per
    hardware, shared like the fixed grid's."""

    @lru_cache(maxsize=None)
    def seed_profile(hw: HardwareConfig) -> LatencyProfile:
        return LatencyProfile(partial(verify_latency, hw), max_nodes, max_leaves)

    monkeypatch.setattr(harness, "seed_profile", seed_profile)


def estimate_gain(tree: TokenTree) -> float:
    """Expected tokens per cycle: one fallback plus summed reach."""
    total = 1.0
    for nid in tree.ids():
        if nid != ROOT_ID:
            total += tree.node(nid).reach
    return total


def path_tokens(tree: TokenTree, node_id: int) -> list[int]:
    """Tokens along root -> node, excluding the root sentinel."""
    out: list[int] = []
    while node_id != ROOT_ID:
        node = tree.node(node_id)
        out.append(node.token)
        node_id = node.parent
    out.reverse()
    return out


def child_by_token(tree: TokenTree, node_id: int, token: int) -> int | None:
    """The child of ``node_id`` drafted with ``token``, by a scan of its
    children."""
    for cid in tree.children(node_id):
        if tree.node(cid).token == token:
            return cid
    return None


def recount(tree: TokenTree) -> tuple[int, int]:
    """(node_count, leaf_count) recomputed from the nodes, ignoring the
    tree's incremental leaf counter."""
    ids = tree.ids()
    return len(ids), sum(1 for nid in ids if not tree.children(nid))


def compact_with_map(
    tree: TokenTree, keep: Iterable[int]
) -> tuple[TokenTree, dict[int, int]]:
    """Return a new tree holding exactly ``keep`` and the old-id -> new-id
    mapping; the input is unmodified.  Kept nodes keep their relative order
    and are re-inserted through ``TokenTree.insert`` and its checks.

    Tests verify this copy as the oracle for verifying the built tree
    through the keep set; its keep-set checks raise the messages
    ``verify_tree`` raises.
    """
    keep_set = set(keep)
    if ROOT_ID not in keep_set:
        raise ContractError("keep set must contain the root")
    for nid in keep_set:
        if nid >= tree.node_count or nid < 0:
            raise ContractError(f"keep set references unknown node {nid}")
        node = tree.node(nid)
        if nid != ROOT_ID and node.parent not in keep_set:
            raise ContractError(
                f"keep set is not ancestor-closed: {nid} kept without {node.parent}"
            )

    new_tree = TokenTree(root_token=tree.node(ROOT_ID).token)
    mapping = {ROOT_ID: ROOT_ID}
    for nid in sorted(keep_set):
        if nid == ROOT_ID:
            continue
        node = tree.node(nid)
        mapping[nid] = new_tree.insert(mapping[node.parent], node.token, node.reach)
    return new_tree, mapping


def tree_json(tree: TokenTree) -> str:
    """Every node of ``tree`` in id order as sorted-key JSON: equal trees
    give equal text, and a tree's insertion order shows."""
    rows = [
        {"id": nid, "parent": n.parent, "token": n.token, "reach": n.reach}
        for nid, n in enumerate(map(tree.node, tree.ids()))
    ]
    return json.dumps({"nodes": rows}, sort_keys=True)


def tree_from_json(text: str) -> TokenTree:
    """The tree that :func:`tree_json` serialized, rebuilt by inserting its
    rows in id order."""
    rows = sorted(json.loads(text)["nodes"], key=lambda r: r["id"])
    if not rows or rows[0]["id"] != ROOT_ID or rows[0]["parent"] != ROOT_PARENT:
        raise StructureError("serialized tree lacks a root row")
    tree = TokenTree(root_token=rows[0]["token"])
    for row in rows[1:]:
        got = tree.insert(row["parent"], row["token"], row["reach"])
        if got != row["id"]:
            raise StructureError("serialized node ids are not contiguous")
    return tree


def candidate_tokens(cand: CandidateSet) -> tuple[int, ...]:
    """A candidate set's tokens in entry order."""
    return tuple(t for t, _ in cand.entries)


def candidate_set(tokens: Iterable[int]) -> CandidateSet:
    """A candidate set of ``tokens`` in the given order; halving
    probabilities keep any order sorted."""
    return CandidateSet(tuple((int(t), 0.5 ** (i + 1)) for i, t in enumerate(tokens)))


def scores_by_id(tree: TokenTree, scores: dict[tuple[int, int], float]) -> list[float]:
    """Edge scores keyed by ``(parent, token)`` as the engine indexes them:
    one per node id, the score of the edge into it, and 1.0 for the root."""
    edges = (tree.node(nid) for nid in tree.ids() if nid != ROOT_ID)
    return [1.0] + [scores[node.parent, node.token] for node in edges]


def tabular_row(model: TabularMarkovModel, idx: int) -> np.ndarray:
    """Row ``idx`` of ``model`` drawn as it is specified: a gamma row from
    ``np.random.default_rng([seed, idx])``, floored at 1e-300 and normalized."""
    raw = np.random.default_rng([model.seed, idx]).gamma(model.concentration, size=model.vocab_size)
    raw = np.maximum(raw, 1e-300)
    return raw / raw.sum()


def hidden_at(model: LayeredTargetModel, layer: int, prefix: Sequence[int]) -> np.ndarray:
    """Hidden state after ``layer`` (1 to ``depth``) of ``model``'s memoized
    forward pass over ``prefix``."""
    return model.hidden_rows(layer, model.slots((prefix,)))[0]


def layered_logits(model: LayeredTargetModel, prefix: Sequence[int]) -> np.ndarray:
    """Final logits of ``model``'s memoized forward pass over ``prefix``."""
    return model.logit_rows(model.slots((prefix,)))[0]


def hidden_and_logits(
    model: LayeredTargetModel, layer: int, prefix: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``hidden_at(model, layer, prefix)`` and ``layered_logits(model,
    prefix)`` from a single slot read."""
    slot = model.slots((prefix,))
    return model.hidden_rows(layer, slot)[0], model.logit_rows(slot)[0]


class FrontierEntry(NamedTuple):
    """A drafted candidate outside the tree, in the order ``is_expandable`` reads."""

    parent: int
    token: int
    reach: float
    depth: int


def is_expandable(entry: FrontierEntry, cfg: DraftConfig) -> bool:
    """Whether inserting this node would trigger a further draft expansion:
    the rule ``build_tree`` applies inline to each drafted child."""
    _, _, reach, depth = entry
    return depth < cfg.max_depth and reach >= cfg.b_min


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
    when the node will be expanded, floored at :data:`COST_FLOOR_MS`."""
    before = profile.lookup(tree.shape)
    after = profile.lookup(shape_after_insert(tree, entry))
    delta = after - before
    if is_expandable(entry, cfg):
        delta += draft_ms
    return max(delta, COST_FLOOR_MS)


@dataclass(frozen=True)
class TrainingExample:
    """One training example on its own, as the per-example references read
    it."""

    hidden: np.ndarray                   # layer-L hidden state, shape (d,)
    logits: np.ndarray                   # final target logits, shape (V,)
    candidates: tuple[int, ...]          # drafted candidate tokens, size k


def distillation_set(examples: Sequence[TrainingExample]) -> DistillationSet:
    """The examples as a :class:`DistillationSet`: one row per distinct
    example object, in order of first occurrence, so an object repeated in
    the list is one row that several examples index."""
    rows = {id(ex): ex for ex in examples}
    index = {key: i for i, key in enumerate(rows)}
    return DistillationSet(
        np.stack([ex.hidden for ex in rows.values()]),
        np.stack([ex.logits for ex in rows.values()]),
        np.array([ex.candidates for ex in rows.values()], dtype=np.intp),
        np.array([index[id(ex)] for ex in examples], dtype=np.intp),
    )


def training_examples(data: DistillationSet) -> list[TrainingExample]:
    """The set expanded to one example per index; examples that share a row
    share one object."""
    rows = [
        TrainingExample(h, z, tuple(c))
        for h, z, c in zip(data.hidden, data.logits, data.candidates.tolist())
    ]
    return [rows[i] for i in data.example.tolist()]


def zero_probe(vocab_size: int, hidden_dim: int, layer: int) -> EarlyExitPredictor:
    """The probe with all-zero weights: a uniform student."""
    return EarlyExitPredictor(np.zeros((vocab_size, hidden_dim)), layer)


def load_checkpoint(path: str) -> EarlyExitPredictor:
    """The probe that ``save_checkpoint`` wrote to ``path``."""
    with open(path) as fh:
        payload = json.load(fh)
    v, d = int(payload["vocab_size"]), int(payload["hidden_dim"])
    W = np.asarray(payload["weights"], dtype=float).reshape(v, d)
    return EarlyExitPredictor(W, int(payload["layer"]))


def kd_loss(pred: EarlyExitPredictor, data: DistillationSet, tau: float) -> float:
    """Temperature-scaled full-vocabulary distillation loss (summed over the
    examples), through the training core's array form."""
    cfg = TrainConfig(tau_kd=tau, lambda_cand=0.0)
    return _total_loss(pred.weights, *(a[data.example] for a in data[:3]), cfg)


def cand_loss(pred: EarlyExitPredictor, data: DistillationSet, tau: float) -> float:
    """Distillation loss restricted to each example's candidate set, summed
    in example order, through the training core's row-wise KL."""
    H, Z, C = (a[data.example] for a in data[:3])
    s = (pred.weights[C] @ H[:, :, None])[:, :, 0] / tau
    kl = _kl(s, np.take_along_axis(Z, C, 1), tau)
    return tau * tau * float(np.add.accumulate(kl)[-1])


def total_loss(
    pred: EarlyExitPredictor, data: DistillationSet, cfg: TrainConfig
) -> float:
    """The training loss summed over the examples, one row each."""
    return _total_loss(pred.weights, *(a[data.example] for a in data[:3]), cfg)


def total_loss_grad(
    pred: EarlyExitPredictor, data: DistillationSet, cfg: TrainConfig
) -> np.ndarray:
    """Analytic gradient of the summed training loss over all the examples,
    as one mini-batch, with respect to the probe weights."""
    return _total_loss_grad(pred.weights, *(a[data.example] for a in data[:3]), cfg)


def candidate_top1_agreement(pred: EarlyExitPredictor, data: DistillationSet) -> float:
    """Fraction of examples where the probe and the final logits pick the
    same candidate-restricted top-1 token."""
    hits = 0
    for i in data.example:
        idx = data.candidates[i]
        probe_pick = idx[int(np.argmax(pred.weights[idx] @ data.hidden[i]))]
        target_pick = idx[int(np.argmax(data.logits[i][idx]))]
        hits += int(probe_pick == target_pick)
    return hits / len(data.example)


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
