"""The benchmark's tracer patches flashspec names from outside the package
(``flashbench/tracing.py``); a rename in ``src`` must fail here, not only
when the benchmark runs."""

import pytest

from flashbench.tracing import NAME, Tracer, _span_targets
from flashspec import drafting, harness, pruning, verification
from flashspec.drafting import DraftConfig, LatencyProfile, build_tree
from flashspec.harness import (
    ExperimentConfig,
    ModelSpec,
    make_draft,
    make_target,
)
from flashspec.models import TabularMarkovModel, derive_draft
from flashspec.predictor import (
    EarlyExitPredictor,
    ExactProbeSource,
    default_exit_layer,
)
from flashspec.pruning import PruneConfig, TreePruner
from flashspec.verification import verify_tree
from helpers import affine_profile, grid_shapes, plan_on_grid


def recording(monkeypatch, module, attr):
    """Replace ``module.attr`` by a pass-through that counts its calls."""
    calls = []
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_every_span_target_exists():
    for owner, attr, name in _span_targets():
        # the tracer saves and restores vars(owner)[attr]
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} ({name})"
    # the count patches too: the three models' next_dist, LatencyProfile.lookup,
    # GainCostPolicy.build, run_trial and run_decode
    for owner, attr, _ in Tracer()._patches():
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("attr", ["build_distillation_dataset", "train"])
def test_probe_training_calls_the_traced_names(monkeypatch, attr):
    """The predictor spans wrap these harness globals, so training must look
    them up there by name."""
    calls = recording(monkeypatch, harness, attr)
    cfg = ExperimentConfig(
        model=ModelSpec(type="layered", vocab_size=8, order=1, seed=4, depth=2, hidden_dim=4),
        predictor_examples=10,
    )
    target = make_target(cfg.model, 0)
    harness.train_predictor_for(
        cfg, target, make_draft(cfg, target, 0), default_exit_layer(target.depth)
    )
    assert calls == [attr]


@pytest.mark.parametrize("attr", ["distillation_rows", "fit_probe"])
def test_run_probe_calls_harness_names(monkeypatch, attr):
    """A run builds its layered probe through these harness globals, so a
    tracer can wrap them by name."""
    calls = recording(monkeypatch, harness, attr)
    cfg = ExperimentConfig(
        model=ModelSpec(type="layered", vocab_size=8, order=1, seed=4, depth=2, hidden_dim=4),
        predictor_examples=10,
    )
    harness.make_pruner(cfg, make_target(cfg.model, 0))
    assert calls == [attr]


def test_decode_stages_call_the_traced_names(monkeypatch):
    """``tree.flatten`` and ``drafting.expand`` are measured only while the
    pruner flattens, and the builder drafts, through these module globals;
    verification walks the tree without flattening it."""
    target = TabularMarkovModel(8, 1, 3)
    draft = derive_draft(target, 0.3, 5)
    context = [1, 2]
    expands = recording(monkeypatch, drafting, "draft_candidates")
    built = build_tree(
        context, draft, DraftConfig(), 1.0,
        affine_profile(10.0, 1.0, 0.0, 64, 16),
    )
    assert expands and len(expands) == len(built.expansion_counts)

    prune_flattens = recording(monkeypatch, pruning, "flatten")
    pruner = TreePruner(
        EarlyExitPredictor.identity_probe(8), ExactProbeSource(target), PruneConfig()
    )
    summary = pruner.apply(built.tree, built.candidate_sets, context)
    assert prune_flattens == ["flatten"]

    verify_flattens = recording(monkeypatch, verification, "flatten")
    verify_tree(target, context, built.tree, summary.keep)
    assert verify_flattens == []
    assert prune_flattens == ["flatten"]


def test_tracer_counts_the_off_grid_lookups_of_a_lever_trial(monkeypatch):
    """The tracer wraps ``LatencyProfile.lookup`` and, inside that wrapper,
    reads the grid once per profile from ``entries()``, re-reading only when
    ``len(profile)`` changes.  So ``entries()`` must not call ``lookup``,
    and ``len`` must stay the grid's size."""
    plan_on_grid(monkeypatch, 12, 3)
    cfg = ExperimentConfig(policy="lever", horizon=24, trials=1, seed=3)
    untraced = harness.run_trial(cfg, 0)
    shapes, reads = [], []
    lookup, entries = LatencyProfile.lookup, LatencyProfile.entries

    def recorded_lookup(profile, shape):
        shapes.append(shape)
        return lookup(profile, shape)

    def recorded_entries(profile):
        reads.append(profile)
        return entries(profile)

    monkeypatch.setattr(LatencyProfile, "lookup", recorded_lookup)
    monkeypatch.setattr(LatencyProfile, "entries", recorded_entries)
    tracer = Tracer()
    with tracer.installed():
        traced = harness.run_trial(cfg, 0)  # the tracer patches this name
    counts = tracer.counts[(0, "lever", 0)]
    grid = set(grid_shapes(12, 3))
    off_grid = [shape for shape in shapes if shape not in grid]
    assert off_grid
    assert counts["profile_misses"] == len(off_grid)
    assert counts["profile_lookups"] == len(shapes)
    assert len(reads) == 1
    assert traced.emitted == untraced.emitted
    assert traced.trace == untraced.trace


@pytest.mark.parametrize("policy", ["chain_sd", "balanced_tree"])
def test_fixed_shape_trials_open_one_build_span_per_cycle(policy):
    """The tracer wraps ``ChainPolicy.build`` and ``BalancedTreePolicy.build``
    by name, so ``make_policy`` must build those classes: the builds of a
    bare ``LevelPolicy`` would escape the tracer."""
    cfg = ExperimentConfig(policy=policy, horizon=24, trials=1, seed=3)
    untraced = harness.run_trial(cfg, 0)
    tracer = Tracer()
    with tracer.installed():
        traced = harness.run_trial(cfg, 0)  # the tracer patches this name
    builds = [span for span in tracer.spans if span[NAME] == "drafting.build"]
    assert len(builds) == len(traced.decode.cycles) > 1
    assert traced.emitted == untraced.emitted
    assert traced.trace == untraced.trace
