"""Workload definitions: each one turns ``configs/lever_default.json`` and a
workload seed into one ``ExperimentConfig`` per drafting policy.

The program under test receives only these generated configs.  Per-policy
trial counts differ because simulated speedups vary a lot from one seeded
target model to the next (per-trial log-speedup standard deviation of 0.13
to 0.3 on tabular targets and 0.37 to 0.68 on layered ones), so each policy
gets as many trials as its host cost allows; the geometric mean over them is
what keeps ``sim_speedup.*`` steady across workload seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "lever_default.json"

POLICIES = ("lever", "lever_noprune", "balanced_tree", "chain_sd")

# Workload seed n offsets ExperimentConfig.seed, model.seed and
# draft.noise_seed by n * SEED_STRIDE.  The stride exceeds every trial count,
# so two seeds never share a target model, draft or context.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict[str, Any]
    trials: dict[str, int]
    hardware: dict[str, Any] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tabular-io",
            why=(
                "I/O-bound stock llama31-8b (overlap=max) at a long horizon: host "
                "time is the decode loop (build, exact-probe prune, verify) on a "
                "cheap tabular target"
            ),
            overrides={"horizon": 128},
            trials={"lever": 64, "lever_noprune": 32, "balanced_tree": 64, "chain_sd": 64},
        ),
        Workload(
            name="layered-probe",
            why=(
                "layered target (depth 6, hidden 32): lever trains its probe per "
                "trial from 2000 examples, so predictor work dominates host time "
                "and builder work barely shows"
            ),
            # Five epochs instead of the config's twenty, and horizon 48: a
            # trained lever trial then costs about 1 s and a cheap policy's
            # trial 40 ms, which affords the target models per run that the
            # layered speedup spread needs.
            overrides={"model.type": "layered", "training.epochs": 5, "horizon": 48},
            trials={"lever": 24, "lever_noprune": 64, "balanced_tree": 128, "chain_sd": 128},
        ),
        Workload(
            name="compute-bound-short",
            why=(
                "llama31-8b with dram_resident_frac=0.8 and overlap=sum: verify "
                "compute and draft scheduling show in simulated time; many short "
                "cold trials make per-trial setup a large host share"
            ),
            overrides={"horizon": 24},
            trials={p: 64 for p in POLICIES},
            hardware={"dram_resident_frac": 0.8, "overlap": "sum"},
        ),
    )
}

# Sizes for the benchmark's self-tests: every code path, a fraction of a second.
TINY = {"horizon": 8, "predictor_examples": 32, "training.epochs": 1}


def make_configs(name: str, seed: int, tiny: bool = False) -> dict[str, Any]:
    """One ``ExperimentConfig`` per policy for workload ``name`` at ``seed``."""
    from flashspec.harness import ExperimentConfig, apply_overrides
    from flashspec.simulator import load_preset

    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    workload = WORKLOADS[name]
    base = json.loads(BASE_CONFIG.read_text())
    base["out_dir"] = None
    overrides = {**workload.overrides, **(TINY if tiny else {})}
    apply_overrides(base, [f"{k}={json.dumps(v)}" for k, v in overrides.items()])
    offset = SEED_STRIDE * seed
    base["seed"] += offset
    base["model"]["seed"] += offset
    base["draft"]["noise_seed"] += offset
    if workload.hardware:
        hw = load_preset(base["hardware"]).to_dict()
        hw.update(workload.hardware)
        hw["name"] += "".join(f"+{k}={v}" for k, v in sorted(workload.hardware.items()))
        base["hardware"] = hw
    return {
        policy: ExperimentConfig.from_dict(
            {**base, "policy": policy, "trials": 1 if tiny else trials}
        )
        for policy, trials in workload.trials.items()
    }
