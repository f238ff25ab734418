"""Acceptance suite: ten go/no-go checks at pinned tolerances.

Each criterion prints one pass/fail line (bypassing capture so the lines are
visible in normal pytest runs).  Shared sweeps are session-scoped fixtures.
"""

import json
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flashspec.drafting import DraftConfig, build_tree
from flashspec.harness import ExperimentConfig, config_hash, run_experiment
from flashspec.models import (
    LayeredTargetModel,
    TabularMarkovModel,
    derive_draft,
    target_greedy_decode,
)
from flashspec.policies import BalancedTreePolicy, ChainPolicy, GainCostPolicy
from flashspec.predictor import (
    EarlyExitPredictor,
    ExactProbeSource,
    TrainConfig,
    build_distillation_dataset,
    default_exit_layer,
    train,
)
from flashspec.pruning import PruneConfig, TreePruner
from flashspec.simulator import ar_step_latency, load_preset, simulate_decode
from flashspec.tree import ROOT_ID, TokenTree
from flashspec.verification import CycleRecord, run_decode
from helpers import (
    FrontierEntry,
    TrainingExample,
    affine_profile,
    calibrate_projection,
    candidate_top1_agreement,
    child_by_token,
    distillation_set,
    marginal_cost,
    path_tokens,
    total_loss,
    total_loss_grad,
    tree_json,
    zero_probe,
)
from reference_builder import build_tree as reference_build_tree
from subtree_oracle import exhaustive_optimum, instance_parts, reachable_universe

FIXTURES = Path(__file__).parent / "fixtures"

# Measured single-token latency totals for the shipped device presets (ms).
AR_TOTALS = {
    "llama31-8b": 1083.8,
    "qwen3-4b": 605.9,
    "qwen3-8b": 1050.0,
    "qwen3-14b": 2108.3,
}


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, visible despite output capture."""

    def _report(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


# ---------------------------------------------------------------------------
# Shared sweep: 200 seeded instances x 4 policies x 3 draft qualities
# ---------------------------------------------------------------------------


class AuditingPruner:
    """Passes every prune step through and records its summary together with
    the pre-prune tree's parent map."""

    def __init__(self, pruner, audits):
        self.pruner = pruner
        self.audits = audits

    def apply(self, tree, candidate_sets, context):
        parents = {nid: tree.node(nid).parent for nid in tree.ids()}
        summary = self.pruner.apply(tree, candidate_sets, context)
        self.audits.append((summary, parents))
        return summary


@pytest.fixture(scope="session")
def lossless_sweep():
    n_instances = 200
    mismatches = []
    prune_audits = []
    runs = 0
    hw = load_preset("llama31-8b")

    for i in range(n_instances):
        rng = np.random.default_rng([42, i])
        vocab = [16, 24, 32][i % 3]
        order = 1 + (i % 2)
        conc = [0.3, 0.5, 0.8][i % 3]
        horizon = 64 if i < 12 else 24
        target = TabularMarkovModel(
            vocab, order, int(rng.integers(2**31)), concentration=conc
        )
        ctx = rng.integers(0, vocab, size=4).tolist()
        oracle = target_greedy_decode(target, ctx, horizon)
        cfg = DraftConfig(k=3, max_depth=4, b_min=0.02, max_nodes=48)

        for alpha in (0.0, 0.5, 1.0):
            draft = derive_draft(target, alpha, int(rng.integers(2**31)))
            profile = affine_profile(1000.0, 3.0, 1.0, 48, 16)
            policies = {
                "chain_sd": ChainPolicy(draft, hw, 8),
                "balanced_tree": BalancedTreePolicy(draft, hw, 2, 16),
                "lever": GainCostPolicy(draft, cfg, profile),
                "lever_noprune": GainCostPolicy(draft, cfg, profile),
            }
            for name, policy in policies.items():
                pruner = None
                if name == "lever":
                    pruner = AuditingPruner(
                        TreePruner(
                            EarlyExitPredictor.identity_probe(vocab),
                            ExactProbeSource(target),
                            PruneConfig(),
                        ),
                        prune_audits,
                    )
                res = run_decode(target, ctx, horizon, policy, pruner=pruner)
                runs += 1
                if res.tokens != oracle:
                    mismatches.append((i, alpha, name))
    return {
        "instances": n_instances,
        "runs": runs,
        "mismatches": mismatches,
        "prune_audits": prune_audits,
    }


@pytest.fixture(scope="session")
def greedy_suite():
    payload = json.loads((FIXTURES / "greedy_suite.json").read_text())
    return payload["instances"]


@pytest.fixture(scope="session")
def band_runs():
    cfg = ExperimentConfig(horizon=96, trials=5, seed=7)
    lever, _ = run_experiment(replace(cfg, policy="lever"))
    chain, _ = run_experiment(replace(cfg, policy="chain_sd"))
    return lever.aggregate, chain.aggregate


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_losslessness(lossless_sweep, report):
    s = lossless_sweep
    ok = not s["mismatches"] and s["instances"] >= 200 and s["runs"] >= 2400
    report(
        1, "losslessness", ok,
        f"{s['runs']} runs over {s['instances']} instances, "
        f"{len(s['mismatches'])} mismatches (require 0)",
    )


def test_criterion_02_single_token_latency_anchor(report):
    worst = 0.0
    for name, total in AR_TOTALS.items():
        got = ar_step_latency(load_preset(name))
        worst = max(worst, abs(got - total) / total)
    report(
        2, "single-token latency anchor", worst <= 1e-3,
        f"max relative error {worst:.2e} across {len(AR_TOTALS)} presets "
        f"(require <= 1e-3)",
    )


def test_criterion_03_gain_estimate_calibration(report):
    # identical draft, reliability pinned at 1: reach values are exact path
    # probabilities, so sampled verification walks must average to the gain
    target = TabularMarkovModel(24, 2, seed=1234, concentration=0.5)
    draft = derive_draft(target, 1.0, noise_seed=1)
    cfg = DraftConfig(k=3, max_depth=5, b_min=0.01)
    profile = affine_profile(900.0, 3.0, 1.0, 64, 32)
    ctx = [5, 17, 2]
    out = build_tree(ctx, draft, cfg, 1.0, profile)
    tree, gain = out.tree, out.estimate.gain

    cumsums = {}
    for nid in tree.ids():
        dist = target.next_dist(ctx + path_tokens(tree, nid))
        cumsums[nid] = np.cumsum(dist)
    rng = np.random.default_rng(2024)
    n_cycles = 12000
    total = 0
    for _ in range(n_cycles):
        cur = ROOT_ID
        tokens = 1
        while True:
            u = rng.random()
            token = int(np.searchsorted(cumsums[cur], u))
            child = child_by_token(tree, cur, token)
            if child is None:
                break
            tokens += 1
            cur = child
        total += tokens
    mean = total / n_cycles
    err = abs(mean - gain) / gain
    report(
        3, "gain-estimate calibration", err < 0.05,
        f"MC mean {mean:.4f} vs estimated gain {gain:.4f} over {n_cycles} "
        f"cycles, rel err {err:.4f} (require < 0.05)",
    )


def test_criterion_04_greedy_optimality_gap(greedy_suite, report):
    ratios = []
    for inst in greedy_suite:
        _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
        out = build_tree(
            inst["context"], draft, cfg, rel, profile, draft_ms=draft_ms
        )
        ratios.append(
            (out.estimate.gain / out.estimate.cycle_cost) / inst["oracle_objective"]
        )
    # spot-check the committed oracle values by re-enumerating a few instances
    for inst in greedy_suite[:8]:
        _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
        universe = reachable_universe(draft, cfg, rel, inst["context"])
        optimum, _ = exhaustive_optimum(universe, profile, draft_ms)
        assert optimum == pytest.approx(inst["oracle_objective"], rel=1e-12)

    med = statistics.median(ratios)
    low = min(ratios)
    ok = len(ratios) == 100 and med >= 0.90 and low >= 0.75
    report(
        4, "greedy optimality gap", ok,
        f"median {med:.4f} (require >= 0.90), min {low:.4f} (require >= 0.75) "
        f"over {len(ratios)} instances",
    )


def test_criterion_05_stopping_rule_soundness(greedy_suite, report):
    checked_steps = 0
    stop_rule_exits = 0
    for inst in greedy_suite:
        _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
        out = build_tree(inst["context"], draft, cfg, rel, profile, draft_ms=draft_ms)
        ref, audit = reference_build_tree(
            inst["context"], draft, cfg, rel, profile, draft_ms=draft_ms
        )
        # tree JSON lists nodes in insertion order: equal JSON means the fast
        # builder chose the reference's sequence of entries
        assert tree_json(out.tree) == tree_json(ref.tree)
        assert out.stop == ref.stop
        assert out.estimate == ref.estimate
        # replay the reference's record and re-derive each step's ranking
        tree = TokenTree(root_token=int(inst["context"][-1]))
        handles = {}
        for step in audit.steps:
            best_key = None
            best_row = None
            for parent, token, reach, rec_mc, rec_ratio in step.frontier:
                parent_id = handles.get(parent, ROOT_ID if parent == 0 else None)
                depth = tree.node(parent_id).depth + 1
                entry = FrontierEntry(parent_id, token, reach, depth)
                mc = marginal_cost(entry, tree, profile, draft_ms, cfg)
                assert mc == pytest.approx(rec_mc, rel=1e-12)
                ratio = reach / mc
                assert ratio == pytest.approx(rec_ratio, rel=1e-12)
                key = (-ratio, -reach, token, parent)
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = (parent, token, ratio)
            assert (best_row[0], best_row[1]) == step.chosen
            assert step.chosen_ratio == pytest.approx(best_row[2], rel=1e-12)
            # apply the insertion to the replayed tree
            parent_id = handles.get(step.chosen[0], ROOT_ID)
            reach = next(
                r for p, t, r, _, _ in step.frontier if (p, t) == step.chosen
            )
            node_id = tree.insert(parent_id, step.chosen[1], reach)
            handles[node_id] = node_id
            checked_steps += 1
        if out.stop.reason == "stop_rule":
            stop_rule_exits += 1
            assert audit.stop_frontier is not None
            best = max(r for (_, _, _, _, r) in audit.stop_frontier)
            assert best == pytest.approx(out.stop.best_ratio, rel=1e-12)
            assert out.stop.best_ratio <= out.estimate.gain / out.estimate.cycle_cost
    report(
        5, "stopping-rule soundness", checked_steps > 0 and stop_rule_exits > 0,
        f"{checked_steps} insertions replayed as instant-argmax; "
        f"{stop_rule_exits}/100 trees terminated by the stopping inequality, "
        f"all exactly sound",
    )


def test_criterion_06_predictor_gradients_and_training(report):
    # analytic gradient vs central differences: 10 coordinates x 5 seeds
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        v, d = 32, 16
        W = rng.standard_normal((v, d)) * 0.3
        pred = EarlyExitPredictor(W, layer=1)
        batch = distillation_set(
            [
                TrainingExample(
                    rng.standard_normal(d),
                    rng.standard_normal(v),
                    tuple(sorted(rng.choice(v, size=4, replace=False).tolist())),
                )
                for _ in range(8)
            ]
        )
        cfg = TrainConfig()
        grad = total_loss_grad(pred, batch, cfg)
        step = 1e-4
        for _ in range(10):
            i = int(rng.integers(0, v))
            j = int(rng.integers(0, d))
            plus, minus = W.copy(), W.copy()
            plus[i, j] += step
            minus[i, j] -= step
            fd = (
                total_loss(EarlyExitPredictor(plus, 1), batch, cfg)
                - total_loss(EarlyExitPredictor(minus, 1), batch, cfg)
            ) / (2 * step)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            worst = max(worst, abs(grad[i, j] - fd) / denom)
    grads_ok = worst < 1e-4

    # training strictly reduces loss and improves restricted top-1 agreement
    target = LayeredTargetModel(32, 2, depth=6, hidden_dim=16, seed=5)
    draft = derive_draft(target, 0.8, noise_seed=6)
    layer = default_exit_layer(target.depth)
    data = build_distillation_dataset(target, draft, layer, 2000, k=4, seed=5)
    pred0 = zero_probe(32, 16, layer)
    cfg = TrainConfig(epochs=20, seed=1)
    before_loss = total_loss(pred0, data, cfg)
    before_agree = candidate_top1_agreement(pred0, data)
    trained, curve = train(pred0, data, cfg)
    after_loss = total_loss(trained, data, cfg)
    after_agree = candidate_top1_agreement(trained, data)
    train_ok = after_loss < before_loss and after_agree > before_agree

    report(
        6, "predictor gradients and training", grads_ok and train_ok,
        f"max grad rel err {worst:.2e} (require < 1e-4); loss "
        f"{before_loss:.1f}->{after_loss:.1f}, agreement "
        f"{before_agree:.3f}->{after_agree:.3f} (require strict improvement)",
    )


def test_criterion_07_pruning_safety(lossless_sweep, report):
    audits = lossless_sweep["prune_audits"]
    closure_bad = backbone_bad = reject_bad = 0
    for a, parents in audits:
        for nid in a.keep:
            if nid != ROOT_ID and parents[nid] not in a.keep:
                closure_bad += 1
        if not set(a.backbone) <= a.keep:
            backbone_bad += 1
        if a.rejected and a.keep != frozenset(parents):
            reject_bad += 1
    ok = (
        len(audits) > 0
        and closure_bad == 0
        and backbone_bad == 0
        and reject_bad == 0
        and not lossless_sweep["mismatches"]
    )
    report(
        7, "pruning safety", ok,
        f"{len(audits)} pruned cycles audited: {closure_bad} closure "
        f"violations, {backbone_bad} backbone violations, {reject_bad} bad "
        f"rejections, losslessness preserved",
    )


def test_criterion_08_projection_waste(report):
    base = load_preset("llama31-8b")
    cfg = calibrate_projection(
        base, rows=16, used_rows=4, waste_ms=188.0, verify_ms=828.0
    )
    records = [
        CycleRecord(
            tree_nodes=16, tree_leaves=4, emitted=(0, 1, 2, 3),
            expansion_counts=(1, 1, 1), prune=None, gain_estimate=4.0,
        )
        for _ in range(25)
    ]
    _, eager_metrics = simulate_decode(records, cfg, projection_mode="eager")
    waste_ok = abs(eager_metrics.waste_fraction - 0.227) < 0.01

    # on-demand mode must project exactly accepted_len + 1 rows per cycle,
    # checked on real decode records
    target = TabularMarkovModel(16, 2, seed=77)
    draft = derive_draft(target, 0.5, noise_seed=78)
    policy = GainCostPolicy(
        draft, DraftConfig(k=3, max_depth=4, b_min=0.02),
        affine_profile(1000.0, 3.0, 1.0, 64, 16),
    )
    res = run_decode(target, [3, 9], 32, policy)
    trace, _ = simulate_decode(res.cycles, base, projection_mode="ondemand")
    counts_ok = all(
        cost.projections_ondemand == rec.accepted_len + 1
        for rec, cost in zip(res.cycles, trace.cycles)
    )
    report(
        8, "projection waste reproduction", waste_ok and counts_ok,
        f"eager waste fraction {eager_metrics.waste_fraction:.4f} vs 0.227 "
        f"(require +/- 0.01); on-demand projections == accepted+1 on "
        f"{len(res.cycles)} cycles: {counts_ok}",
    )


def test_criterion_09_simulated_speedup_band(band_runs, report):
    lever, chain = band_runs
    acc = lever["mean_accepted_len"]
    spd = lever["speedup_vs_flash_ar"]
    ok = (
        2.0 <= acc <= 4.0
        and 2.0 <= spd <= 3.5
        and spd >= chain["speedup_vs_flash_ar"]
    )
    report(
        9, "simulated speedup band (simulator-conditional)", ok,
        f"accepted/cycle {acc:.3f} (tuned into [2, 4]); speedup {spd:.3f} "
        f"(require [2.0, 3.5]); chain {chain['speedup_vs_flash_ar']:.3f} "
        f"(require lever >= chain)",
    )


def test_criterion_10_determinism(tmp_path, report):
    out = tmp_path / "run"
    cfg = ExperimentConfig(
        horizon=24, trials=2, seed=11, policy="lever", out_dir=str(out)
    )
    run_experiment(cfg)
    names = ("report.json", "report.csv", "trace.csv", "trace.json")
    first = {n: (out / n).read_bytes() for n in names}
    embedded = json.loads(first["report.json"])["config"]
    run_experiment(ExperimentConfig.from_dict(embedded))
    identical = all((out / n).read_bytes() == first[n] for n in names)
    hash_ok = json.loads(first["report.json"])["config_hash"] == config_hash(cfg)
    report(
        10, "determinism", identical and hash_ok,
        f"re-run from embedded config reproduced {len(names)} report files "
        f"byte-identically; config hash stable",
    )
