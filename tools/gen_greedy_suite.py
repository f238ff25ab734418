#!/usr/bin/env python3
"""Generate the greedy-optimality fixture suite.

Each instance is small enough (at most 12 reachable candidates) that every
valid subtree can be enumerated; the fixture stores the instance parameters
plus the exhaustive optimum of the gain-per-cycle-latency objective so tests
can measure the greedy builder's optimality gap without re-enumerating.

Run from the repository root:

    python3 tools/gen_greedy_suite.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np

from flashspec.drafting import build_tree
from subtree_oracle import (
    exhaustive_optimum,
    instance_parts,
    reachable_universe,
)

FIXTURE_PATH = ROOT / "tests" / "fixtures" / "greedy_suite.json"
N_INSTANCES = 100


def make_instance(index: int) -> dict:
    """One seeded instance; deep variants retry until the reachable universe
    fits the 12-candidate enumeration budget."""
    for attempt in range(64):
        rng = np.random.default_rng([777, index, attempt])
        deep = bool(rng.random() < 0.5)
        inst = {
            "index": index,
            "vocab_size": int(rng.choice([8, 12, 16])),
            "order": int(rng.choice([1, 2])),
            "model_seed": int(rng.integers(0, 2**31)),
            "concentration": float(rng.uniform(0.3, 1.0)),
            "agreement": float(rng.uniform(0.4, 1.0)),
            "noise_seed": int(rng.integers(0, 2**31)),
            "reliability": float(rng.uniform(0.6, 1.0)),
            "k": 2 if deep else 3,
            "max_depth": 3 if deep else 2,
            "b_min": float(rng.uniform(0.05, 0.25)) if deep else 0.0,
            "draft_ms": float(rng.uniform(2.0, 30.0)),
            "profile_c0": float(rng.uniform(50.0, 800.0)),
            "profile_c_node": float(rng.uniform(2.0, 60.0)),
            "profile_c_leaf": float(rng.uniform(0.0, 25.0)),
            "context": rng.integers(0, 8, size=3).tolist(),
        }
        _, draft, cfg, rel, _, _ = instance_parts(inst)
        if len(reachable_universe(draft, cfg, rel, inst["context"])) <= 12:
            return inst
    raise RuntimeError(f"no small universe found for instance {index}")


def greedy_objective(inst: dict) -> float:
    _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
    out = build_tree(inst["context"], draft, cfg, rel, profile, draft_ms=draft_ms)
    return out.estimate.gain / out.estimate.cycle_cost


def main() -> None:
    rows = []
    ratios = []
    for index in range(N_INSTANCES):
        inst = make_instance(index)
        _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
        universe = reachable_universe(draft, cfg, rel, inst["context"])
        assert len(universe) <= 12, (index, len(universe))
        optimum, best_subset = exhaustive_optimum(universe, profile, draft_ms)
        inst["universe_size"] = len(universe)
        inst["oracle_objective"] = optimum
        inst["oracle_subset_size"] = len(best_subset)
        rows.append(inst)
        ratios.append(greedy_objective(inst) / optimum)

    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps({"instances": rows}, indent=1, sort_keys=True))
    ratios = sorted(ratios)
    print(f"wrote {len(rows)} instances to {FIXTURE_PATH}")
    print(
        f"greedy/optimum: min={ratios[0]:.4f} "
        f"median={ratios[len(ratios) // 2]:.4f} max={ratios[-1]:.4f}"
    )


if __name__ == "__main__":
    main()
