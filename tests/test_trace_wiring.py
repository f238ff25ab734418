"""The benchmark's tracer patches flashspec names from outside the package
(``flashbench/tracing.py``); a rename in ``src`` must fail here, not only
when the benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flashbench.tracing import _span_targets  # noqa: E402
from flashspec import drafting, harness, pruning, verification  # noqa: E402
from flashspec.drafting import DraftConfig, LatencyProfile, build_tree  # noqa: E402
from flashspec.harness import (  # noqa: E402
    ExperimentConfig,
    ModelSpec,
    make_draft,
    make_target,
)
from flashspec.models import TabularMarkovModel, derive_draft  # noqa: E402
from flashspec.predictor import (  # noqa: E402
    EarlyExitPredictor,
    ExactProbeSource,
    default_exit_layer,
)
from flashspec.pruning import PruneConfig, TreePruner  # noqa: E402
from flashspec.verification import verify_tree  # noqa: E402


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


def test_decode_stages_call_the_traced_names(monkeypatch):
    """``tree.flatten`` and ``drafting.expand`` are measured only while the
    pruner and verification flatten, and the builder drafts, through these
    module globals."""
    target = TabularMarkovModel(8, 1, 3)
    draft = derive_draft(target, 0.3, 5)
    context = [1, 2]
    expands = recording(monkeypatch, drafting, "draft_candidates")
    built = build_tree(
        context, draft, DraftConfig(), DraftConfig().reliability(),
        LatencyProfile.grid(lambda nodes, leaves: 10.0 + nodes, 64, 16),
    )
    assert expands and len(expands) == len(built.expansion_counts)

    prune_flattens = recording(monkeypatch, pruning, "flatten")
    pruner = TreePruner(
        EarlyExitPredictor.identity_probe(8), ExactProbeSource(target), PruneConfig()
    )
    pruned, _ = pruner.apply(built.tree, context)
    assert prune_flattens == ["flatten"]

    verify_flattens = recording(monkeypatch, verification, "flatten")
    verify_tree(target, context, pruned)
    assert verify_flattens == ["flatten"]
