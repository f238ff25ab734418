"""The greedy-suite fixture generator against its committed fixture."""

import importlib.util
import json
from pathlib import Path

import pytest

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
