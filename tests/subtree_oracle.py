"""Exhaustive subtree oracle for the greedy-optimality suite.

Instances are kept small (reachable candidate universe of at most 12 nodes)
so every ancestor-closed subset can be enumerated and the best
gain-per-cycle-latency objective found by brute force.  The fixture
generator and the acceptance tests share these helpers.
"""

from __future__ import annotations

from itertools import combinations

from flashspec.drafting import (
    DraftConfig,
    LatencyProfile,
    ReliabilityState,
    calibrate,
)
from flashspec.models import TabularMarkovModel, derive_draft, draft_candidates


def instance_parts(inst: dict):
    """Materialize (target, draft, cfg, rel, profile) from fixture params."""
    target = TabularMarkovModel(
        inst["vocab_size"], inst["order"], inst["model_seed"],
        concentration=inst["concentration"],
    )
    draft = derive_draft(target, inst["agreement"], inst["noise_seed"])
    cfg = DraftConfig(
        k=inst["k"],
        max_depth=inst["max_depth"],
        b_min=inst["b_min"],
        draft_ms_seed=inst["draft_ms"],
    )
    rel = ReliabilityState(value=inst["reliability"])
    profile = LatencyProfile.affine(
        inst["profile_c0"], inst["profile_c_node"], inst["profile_c_leaf"],
        max_nodes=16, max_leaves=16,
    )
    return target, draft, cfg, rel, profile


def reachable_universe(draft, cfg: DraftConfig, rel: ReliabilityState, context):
    """Every candidate the builder could ever insert, with reach estimates,
    found by expanding all expandable nodes exhaustively."""
    nodes: list[dict] = []

    def expand(parent_id, prefix, parent_reach, depth):
        cand = draft_candidates(draft, prefix, cfg.k)
        for token, p in cand.entries:
            reach = parent_reach * calibrate(p, rel)
            nid = len(nodes)
            expandable = (depth < cfg.max_depth) and (reach >= cfg.b_min)
            nodes.append(
                {
                    "id": nid, "parent": parent_id, "token": token,
                    "reach": reach, "depth": depth, "expandable": expandable,
                }
            )
            if expandable:
                expand(nid, prefix + [token], reach, depth + 1)

    expand(-1, list(context), 1.0, 1)
    return nodes


def subset_objective(subset, nodes, cfg: DraftConfig, profile: LatencyProfile):
    """Gain per cycle latency of one candidate subset, priced exactly as the
    builder prices a finished tree (constant per-expansion draft latency)."""
    gain = 1.0 + sum(nodes[i]["reach"] for i in subset)
    n_expansions = 1 + sum(1 for i in subset if nodes[i]["expandable"])
    draft_cost = cfg.draft_ms_seed * n_expansions
    children = {i: [] for i in subset}
    for i in subset:
        p = nodes[i]["parent"]
        if p in children:
            children[p].append(i)
    leaves = sum(1 for i in subset if not children[i]) if subset else 1
    verify = profile.lookup((len(subset) + 1, leaves))
    return gain / (draft_cost + verify)


def exhaustive_optimum(nodes, cfg: DraftConfig, profile: LatencyProfile):
    """Best objective over every ancestor-closed subset of the universe."""
    ids = [n["id"] for n in nodes]
    best = subset_objective(frozenset(), nodes, cfg, profile)
    best_subset: list[int] = []
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            subset = frozenset(combo)
            if any(
                nodes[i]["parent"] != -1 and nodes[i]["parent"] not in subset
                for i in subset
            ):
                continue
            obj = subset_objective(subset, nodes, cfg, profile)
            if obj > best:
                best = obj
                best_subset = sorted(subset)
    return best, best_subset
