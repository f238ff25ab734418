"""The benchmark's tracer patches flashspec names from outside the package
(``flashbench/tracing.py``); a rename in ``src`` must fail here, not only
when the benchmark runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from flashbench.tracing import _span_targets  # noqa: E402
from flashspec import harness  # noqa: E402
from flashspec.harness import (  # noqa: E402
    ExperimentConfig,
    ModelSpec,
    make_draft,
    make_target,
)
from flashspec.predictor import default_exit_layer  # noqa: E402


def test_every_span_target_exists():
    for owner, attr, name in _span_targets():
        # the tracer saves and restores vars(owner)[attr]
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} ({name})"


@pytest.mark.parametrize("attr", ["build_distillation_dataset", "train"])
def test_probe_training_calls_the_traced_names(monkeypatch, attr):
    """The predictor spans wrap these harness globals, so training must look
    them up there by name."""
    calls = []
    original = getattr(harness, attr)

    def recording(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, attr, recording)
    cfg = ExperimentConfig(
        model=ModelSpec(type="layered", vocab_size=8, order=1, seed=4, depth=2, hidden_dim=4),
        predictor_examples=10,
    )
    target = make_target(cfg.model, 0)
    harness.train_predictor_for(
        cfg, target, make_draft(cfg, target, 0), default_exit_layer(target.depth)
    )
    assert calls == [attr]
