"""Config and contract validation across modules."""

import numpy as np
import pytest

from flashspec.drafting import DraftConfig, LatencyProfile, ReliabilityState
from flashspec.errors import ConfigError, ContractError
from flashspec.models import (
    LayeredTargetModel,
    MixtureDraftModel,
    TabularMarkovModel,
)
from flashspec.predictor import EarlyExitPredictor, ExactProbeSource, TrainConfig
from flashspec.pruning import PruneConfig
from flashspec.simulator import HardwareConfig, verify_latency


class TestDraftingValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"k": 0},
            {"max_depth": 0},
            {"b_min": 1.0},
            {"b_min": -0.1},
            {"cost_floor_ms": 0.0},
            {"beta": 0.0},
            {"beta": 1.5},
            {"r_min": 0.0},
            {"r_min": 1.5},
        ],
    )
    def test_bad_draft_config(self, kw):
        with pytest.raises(ConfigError):
            DraftConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"beta": 0.0},
            {"beta": 1.0},
            {"floor": 0.0},
            {"value": 0.01, "floor": 0.05},
            {"value": 1.5},
        ],
    )
    def test_bad_reliability(self, kw):
        with pytest.raises(ConfigError):
            ReliabilityState(**kw)

    def test_profile_rejects_bad_entries(self):
        with pytest.raises(ContractError):
            LatencyProfile({(0, 1): 10.0})
        with pytest.raises(ContractError):
            LatencyProfile({(1, 1): 0.0})
        with pytest.raises(ContractError):
            LatencyProfile({(1, 1): 10.0}).lookup((1, 0))


class TestModelValidation:
    def test_bad_tabular(self):
        with pytest.raises(ConfigError):
            TabularMarkovModel(0, 1, seed=1)
        with pytest.raises(ConfigError):
            TabularMarkovModel(8, 0, seed=1)
        with pytest.raises(ConfigError):
            TabularMarkovModel(8, 1, seed=1, concentration=0.0)

    def test_bad_layered(self):
        with pytest.raises(ConfigError):
            LayeredTargetModel(8, 1, depth=1, hidden_dim=8, seed=1)

    def test_mixture_requires_matching_vocab(self):
        a = TabularMarkovModel(8, 1, seed=1)
        b = TabularMarkovModel(9, 1, seed=1)
        with pytest.raises(ConfigError):
            MixtureDraftModel(a, b, 0.5)
        with pytest.raises(ConfigError):
            MixtureDraftModel(a, a, 1.5)

    def test_out_of_vocab_token(self):
        m = TabularMarkovModel(8, 1, seed=1)
        with pytest.raises(ContractError):
            m.next_dist([8])


class TestPredictorValidation:
    def test_bad_train_config(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau_kd=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_cand=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_predictor_rejects_non_finite(self):
        W = np.zeros((2, 2))
        W[0, 0] = np.inf
        with pytest.raises(ConfigError):
            EarlyExitPredictor(W, layer=1)

    def test_probe_exit_fraction_range(self):
        target = TabularMarkovModel(8, 1, seed=1)
        with pytest.raises(ConfigError):
            ExactProbeSource(target, exit_fraction=0.0)
        with pytest.raises(ConfigError):
            ExactProbeSource(target, exit_fraction=1.5)


class TestPruneValidation:
    @pytest.mark.parametrize(
        "kw",
        [{"theta": 0.0}, {"theta": 1.0}, {"tau": 0.0}, {"min_keep_frac": 1.5}],
    )
    def test_bad_prune_config(self, kw):
        with pytest.raises(ConfigError):
            PruneConfig(**kw)


class TestHardwareValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            HardwareConfig(name="t", io_ms_per_invocation=-1.0)

    def test_dram_fraction_range(self):
        with pytest.raises(ConfigError):
            HardwareConfig(name="t", io_ms_per_invocation=1.0, dram_resident_frac=1.1)

    def test_verify_latency_needs_a_row(self):
        cfg = HardwareConfig(name="t", io_ms_per_invocation=1.0)
        with pytest.raises(ContractError):
            verify_latency(cfg, 0, 1)
