import json
import math
from dataclasses import replace

import numpy as np
import pytest

from flashspec import harness
from flashspec.cli import main as cli_main
from flashspec.errors import ConfigError
from flashspec.harness import (
    DraftSpec,
    ExperimentConfig,
    ModelSpec,
    apply_overrides,
    compare_policies,
    config_hash,
    geometric_mean,
    make_draft,
    make_pruner,
    make_target,
    priced_grid,
    run_experiment,
    run_trial,
    seed_profile,
    train_predictor_for,
)
from flashspec.predictor import EarlyExitPredictor, load_checkpoint, save_checkpoint
from flashspec.simulator import HardwareConfig


def small_cfg(**kw):
    base = dict(horizon=24, trials=2, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = small_cfg(policy="chain_sd")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_file_roundtrip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(str(path)) == cfg

    def test_inline_hardware(self):
        hw = HardwareConfig(name="inline", io_ms_per_invocation=100.0, compute_c0=10.0)
        cfg = small_cfg(hardware=hw)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.resolve_hardware() == hw

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(policy="warp_drive")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"polycy": "lever"})

    def test_dotted_overrides(self):
        payload = small_cfg().to_dict()
        apply_overrides(
            payload,
            ["drafting.k=2", "model.vocab_size=16", "policy=chain_sd", "horizon=8"],
        )
        cfg = ExperimentConfig.from_dict(payload)
        assert cfg.drafting.k == 2
        assert cfg.model.vocab_size == 16
        assert cfg.policy == "chain_sd"
        assert cfg.horizon == 8

    def test_hash_changes_with_config(self):
        a = config_hash(small_cfg())
        b = config_hash(small_cfg(horizon=25))
        assert a != b


class TestGeomean:
    def test_matches_independent_recomputation(self):
        values = [0.9227, 3.1, 2.5, 1.7]
        got = geometric_mean(values)
        expect = math.prod(values) ** (1 / len(values))
        assert abs(got - expect) / expect < 1e-12

    def test_zero_collapses(self):
        assert geometric_mean([0.0, 2.0]) == 0.0


class TestRunExperiment:
    def test_flash_ar_tokens_per_second(self):
        report, _ = run_experiment(small_cfg(policy="flash_ar", trials=1))
        assert report.aggregate["tokens_per_s"] == pytest.approx(
            1000.0 / 1083.8, rel=1e-6
        )

    def test_chain_drafts_exactly_eight_in_a_chain(self):
        _, results = run_experiment(small_cfg(policy="chain_sd", trials=1))
        for rec in results[0].decode.cycles:
            assert rec.tree_nodes == 9      # root + 8 drafted tokens
            assert rec.tree_leaves == 1
            assert rec.expansion_counts == (1,) * 8

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        cfg = small_cfg(policy="lever", out_dir=str(tmp_path / "a"))
        run_experiment(cfg)
        first = {
            name: (tmp_path / "a" / name).read_bytes()
            for name in ("report.json", "report.csv", "trace.csv", "trace.json")
        }
        # re-run from the report's own embedded config
        payload = json.loads((tmp_path / "a" / "report.json").read_text())
        run_experiment(ExperimentConfig.from_dict(payload["config"]))
        for name, data in first.items():
            assert (tmp_path / "a" / name).read_bytes() == data, (
                f"{name} differs between identical runs"
            )
        assert payload["config_hash"] == config_hash(cfg)
        assert payload["seeds"] == [3, 4]

    def test_aggregate_recomputable_from_trial_rows(self):
        report, _ = run_experiment(small_cfg(policy="balanced_tree"))
        for field, agg in report.aggregate.items():
            per_trial = [t["metrics"][field] for t in report.trials]
            expect = geometric_mean(per_trial)
            if expect > 0:
                assert abs(agg - expect) / expect < 1e-12
            else:
                assert agg == expect

    def test_trial_seeds_documented_derivation(self):
        report, results = run_experiment(small_cfg(policy="flash_ar"))
        assert [r.seed for r in results] == [3, 4]


class TestProfileGrid:
    def test_observing_one_trial_profile_leaves_the_shared_grid_alone(self):
        cfg = small_cfg()
        hw = cfg.resolve_hardware()
        first = seed_profile(cfg, hw)
        grid = first.entries()
        first.observe((cfg.profile_max_nodes + 5, 3), 1.0)   # a new shape
        first.observe((1, 1), 5.0)                           # an existing one
        assert seed_profile(cfg, hw).entries() == grid

    def test_trial_alone_equals_trial_after_earlier_trials(self):
        # A one-shape grid: every drafted tree is a miss, so each trial folds
        # new shapes into its profile and its later builds depend on them.
        cfg = small_cfg(
            policy="lever", trials=4, profile_max_nodes=1, profile_max_leaves=1
        )
        priced_grid.cache_clear()
        alone = run_trial(cfg, 3)
        for trial in range(3):
            run_trial(cfg, trial)
        after = run_trial(cfg, 3)
        assert after.emitted == alone.emitted
        assert after.trace.to_json() == alone.trace.to_json()


class TestComparePolicies:
    def test_mismatched_shared_fields_refused(self):
        a = small_cfg(policy="lever")
        b = small_cfg(policy="chain_sd", horizon=25)
        with pytest.raises(ConfigError):
            compare_policies([a, b])

    def test_lever_vs_noprune_same_tokens_different_latency(self):
        # sum overlap makes the early-exit compute saving visible
        hw = replace(
            __import__("flashspec.simulator", fromlist=["load_preset"]).load_preset(
                "llama31-8b"
            ),
            overlap="sum",
        )
        base = small_cfg(hardware=hw, trials=1, horizon=32)
        _, lever = run_experiment(replace(base, policy="lever"))
        _, noprune = run_experiment(replace(base, policy="lever_noprune"))
        assert lever[0].emitted == noprune[0].emitted
        assert lever[0].trace.total_ms < noprune[0].trace.total_ms

    def test_chain_beats_flash_ar_with_perfect_draft(self):
        cfg = small_cfg(draft=DraftSpec(agreement=1.0), trials=1)
        table = compare_policies(
            [replace(cfg, policy="flash_ar"), replace(cfg, policy="chain_sd")],
            normalize_to="chain_sd",
        )
        policies = table["policies"]
        assert policies["chain_sd"]["speedup_vs_flash_ar"] > 1.0

    def test_normalization_column(self):
        cfg = small_cfg(trials=1)
        table = compare_policies(
            [replace(cfg, policy="flash_ar"), replace(cfg, policy="lever")],
            normalize_to="lever",
        )
        assert table["policies"]["lever"]["normalized_tokens_per_s"] == pytest.approx(1.0)


class TestLayeredEndToEnd:
    def test_layered_model_end_to_end_with_trained_probe(self):
        cfg = small_cfg(
            policy="lever",
            trials=1,
            horizon=16,
            model=ModelSpec(
                type="layered", vocab_size=16, order=2, seed=2, depth=4, hidden_dim=16
            ),
            predictor_examples=150,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=3))
        report, results = run_experiment(cfg)
        from flashspec.harness import make_context, make_target
        from flashspec.models import target_greedy_decode

        target = make_target(cfg.model, 0)
        ctx = make_context(cfg, 0)
        assert results[0].emitted == target_greedy_decode(target, ctx, 16)


class TestCLI:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_cfg(trials=1, horizon=8).to_dict()))
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--set", "policy=chain_sd"]
        )
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_cfg(trials=1, horizon=8).to_dict()))
        rc = cli_main(
            ["compare", "--config", str(cfg_path),
             "--policies", "flash_ar,chain_sd", "--normalize-to", "flash_ar",
             "--out", str(tmp_path / "cmp")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flash_ar" in out and "chain_sd" in out
        assert (tmp_path / "cmp" / "comparison.json").exists()

    def test_train_predictor_subcommand(self, tmp_path):
        cfg = small_cfg(
            model=ModelSpec(type="layered", vocab_size=16, order=1, seed=4,
                            depth=4, hidden_dim=8),
            predictor_examples=60,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(
            ["train-predictor", "--config", str(cfg_path), "--out", str(tmp_path / "pred")]
        )
        assert rc == 0
        assert (tmp_path / "pred" / "predictor.json").exists()
        assert (tmp_path / "pred" / "loss_curve.csv").exists()

    def test_train_predictor_checkpoint_is_the_trial_zero_probe(
        self, tmp_path, monkeypatch
    ):
        cfg = small_cfg(
            policy="lever",
            trials=1,
            horizon=8,
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            # a non-default noise concentration changes the draft, and so
            # the distillation dataset's candidate sets
            draft=DraftSpec(agreement=0.6, noise_seed=7, noise_concentration=0.05),
            predictor_examples=80,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(
            ["train-predictor", "--config", str(cfg_path), "--out", str(tmp_path / "pred")]
        )
        assert rc == 0
        saved = load_checkpoint(str(tmp_path / "pred" / "predictor.json"))

        trained = []

        def recording(*args):
            pred, curve = train_predictor_for(*args)
            trained.append(pred)
            return pred, curve

        monkeypatch.setattr(harness, "train_predictor_for", recording)
        run_trial(cfg, 0)
        assert len(trained) == 1
        assert np.array_equal(saved.weights, trained[0].weights)
        assert saved.layer == trained[0].layer

    @pytest.mark.parametrize(
        "vocab_size, hidden_dim, layer", [(12, 8, 2), (16, 6, 2), (16, 8, 3)]
    )
    def test_mismatched_checkpoint_rejected(self, tmp_path, vocab_size, hidden_dim, layer):
        path = str(tmp_path / "predictor.json")
        save_checkpoint(EarlyExitPredictor.zeros(vocab_size, hidden_dim, layer), path)
        cfg = small_cfg(
            policy="lever",
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            predictor_checkpoint=path,
        )
        target = make_target(cfg.model, 0)
        with pytest.raises(ConfigError, match="checkpoint"):
            make_pruner(cfg, target, make_draft(cfg, target, 0), 0)
        # the matching shape loads
        save_checkpoint(EarlyExitPredictor.zeros(16, 8, 2), path)
        assert make_pruner(cfg, target, make_draft(cfg, target, 0), 0) is not None

    def test_checkpoint_rejected_after_trial_zero(self, tmp_path):
        path = str(tmp_path / "predictor.json")
        save_checkpoint(EarlyExitPredictor.zeros(16, 8, 2), path)
        cfg = small_cfg(
            policy="lever",
            trials=2,
            model=ModelSpec(type="layered", vocab_size=16, order=2, seed=4,
                            depth=4, hidden_dim=8),
            predictor_checkpoint=path,
        )
        target = make_target(cfg.model, 1)
        with pytest.raises(ConfigError, match="fits trial 0's target"):
            make_pruner(cfg, target, make_draft(cfg, target, 1), 1)
        with pytest.raises(ConfigError, match="trial 1's target"):
            run_experiment(cfg)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_training_divergence_is_clean_exit(self, tmp_path, capsys):
        cfg = small_cfg(
            model=ModelSpec(type="layered", vocab_size=16, order=1, seed=4,
                            depth=4, hidden_dim=8),
            predictor_examples=40,
        )
        cfg = replace(cfg, training=replace(cfg.training, epochs=2, learning_rate=1e308))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(["train-predictor", "--config", str(cfg_path),
                       "--out", str(tmp_path / "pred")])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_bad_config_is_clean_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"policy": "bogus"}))
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err
