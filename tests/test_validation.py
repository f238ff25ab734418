"""Config and contract validation across modules."""

import re

import numpy as np
import pytest

from flashspec.cli import main as cli_main
from flashspec.drafting import DraftConfig, LatencyProfile, build_tree
from flashspec.errors import ConfigError, ContractError
from flashspec.harness import ExperimentConfig
from flashspec.models import (
    LayeredTargetModel,
    MixtureDraftModel,
    TabularMarkovModel,
)
from flashspec.predictor import (
    EarlyExitPredictor,
    LayeredHiddenSource,
    TrainConfig,
)
from flashspec.simulator import HardwareConfig, verify_latency


class TestDraftingValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"k": 0},
            {"max_depth": 0},
            {"b_min": 1.0},
            {"b_min": -0.1},
            {"max_nodes": 0},
            {"max_nodes": -3},
        ],
    )
    def test_bad_draft_config(self, kw):
        with pytest.raises(ConfigError):
            DraftConfig(**kw)

    @pytest.mark.parametrize("rel", [0.0, -0.5, 1.0 + 1e-12, 1.5, float("nan")])
    def test_bad_reliability(self, rel):
        draft = TabularMarkovModel(8, 1, seed=1)
        profile = LatencyProfile(lambda n, l: 10.0, 4, 2)
        with pytest.raises(ContractError, match="reliability"):
            build_tree([3], draft, DraftConfig(), rel, profile)

    @pytest.mark.parametrize("bounds", [(0, 1), (1, 0), (-3, 4)])
    def test_profile_rejects_bounds_below_one(self, bounds):
        with pytest.raises(ConfigError):
            LatencyProfile(lambda n, l: 10.0, *bounds)

    def test_profile_rejects_bad_prices_and_shapes(self):
        for price in (0.0, -5.0):
            bad = LatencyProfile(lambda n, l: price, 4, 2)
            with pytest.raises(ContractError):
                bad.lookup((1, 1))
            with pytest.raises(ContractError):  # priced at its clamp (4, 2)
                bad.lookup((9, 7))
            with pytest.raises(ContractError):
                bad.entries()
        good = LatencyProfile(lambda n, l: 10.0, 4, 2)
        for shape in ((1, 0), (0, 1), (0, 0), (-2, 3)):
            with pytest.raises(ContractError):
                good.lookup(shape)


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

    def test_exit_layer_range(self):
        # the exit layer lies strictly inside the network: 1 to depth - 1
        target = LayeredTargetModel(8, 1, depth=4, hidden_dim=4, seed=1)
        for layer in (0, target.depth):
            with pytest.raises(ConfigError, match="exit layer"):
                LayeredHiddenSource(target, layer)
        for layer in (1, target.depth - 1):
            assert LayeredHiddenSource(target, layer).layer == layer


class TestPruneValidation:
    @pytest.mark.parametrize("key", ["root_keep", "min_keep_frac", "min_leaves"])
    def test_removed_prune_keys_are_clean_errors(self, key, capsys):
        # pruning has one threshold, the constant pruning.KEEP_THRESHOLD; the
        # old guards' keys, like the section itself, must not load and then
        # do nothing
        payload = ExperimentConfig().to_dict()
        payload["pruning"] = {key: 1}
        with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['pruning']")):
            ExperimentConfig.from_dict(payload)
        assert cli_main(["run", "--set", f"pruning.{key}=1", "--set", "trials=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys: ['pruning']")


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
