"""The greedy-suite fixture generator against its committed fixture."""

import importlib.util
import json
from pathlib import Path

import pytest

from subtree_oracle import exhaustive_optimum, instance_parts, reachable_universe

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "greedy_suite.json"


def load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_greedy_suite", ROOT / "tools" / "gen_greedy_suite.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen():
    return load_generator()


@pytest.fixture(scope="module")
def committed():
    return json.loads(FIXTURE.read_text())["instances"]


@pytest.mark.parametrize("index", range(5))
def test_make_instance_reproduces_committed_parameters(gen, committed, index):
    inst = gen.make_instance(index)
    stored = committed[index]
    # the fixture adds the oracle's results to the generated parameters
    assert set(stored) - set(inst) == {
        "universe_size", "oracle_objective", "oracle_subset_size"
    }
    assert inst == {key: stored[key] for key in inst}


@pytest.mark.parametrize("index", range(5))
def test_greedy_objective_is_bounded_by_the_committed_optimum(gen, committed, index):
    inst = committed[index]
    ratio = gen.greedy_objective(inst) / inst["oracle_objective"]
    assert 0.0 < ratio <= 1.0 + 1e-12


def test_committed_oracle_values_are_recomputed_exactly(committed):
    """Every committed instance's universe and exhaustive optimum, recomputed
    by the oracle the fixture was generated with, bit for bit."""
    for inst in committed:
        _, draft, cfg, rel, profile, draft_ms = instance_parts(inst)
        universe = reachable_universe(draft, cfg, rel, inst["context"])
        optimum, best_subset = exhaustive_optimum(universe, profile, draft_ms)
        assert (len(universe), optimum, len(best_subset)) == (
            inst["universe_size"], inst["oracle_objective"], inst["oracle_subset_size"]
        ), inst["index"]
