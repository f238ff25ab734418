"""Per-layer tracing of flashspec from outside the package.

``Tracer.installed()`` wraps flashspec's callables at each module boundary,
patching every name where the caller looks it up (``harness.run_decode``,
``verification.verify_tree``, the ``flatten`` references in both
``pruning`` and ``verification``, ...), and restores every original on
exit.  Spans (name, start, end, parent, trial) and counts stay in memory
until the benchmark writes them out.  ``layer_metrics`` turns them, with the
trial results, into the per-layer metrics of the ``lever`` policy.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Span fields, stored as lists for speed: [name, start, end, parent, trial].
NAME, START, END, PARENT, TRIAL = range(5)


def _span_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped callable."""
    from flashspec import drafting, harness, policies, predictor, pruning, verification

    return [
        (harness, "run_trial", "harness.trial"),
        (harness, "make_target", "harness.trial_setup"),
        (harness, "derive_draft", "harness.trial_setup"),
        (harness, "make_context", "harness.trial_setup"),
        (harness, "make_pruner", "harness.trial_setup"),
        (harness, "seed_profile", "harness.seed_profile"),
        (harness, "build_distillation_dataset", "predictor.dataset"),
        (harness, "train", "predictor.train"),
        (harness, "run_decode", "verification.loop"),
        (harness, "simulate_decode", "simulator.price"),
        (policies.GainCostPolicy, "build", "drafting.build"),
        (policies.ChainPolicy, "build", "drafting.build"),
        (policies.BalancedTreePolicy, "build", "drafting.build"),
        (drafting, "draft_candidates", "drafting.expand"),
        (policies, "draft_candidates", "drafting.expand"),
        (pruning.TreePruner, "apply", "pruning.apply"),
        (predictor.ExactProbeSource, "rows", "pruning.hidden_rows"),
        (predictor.LayeredHiddenSource, "rows", "pruning.hidden_rows"),
        (pruning, "flatten", "tree.flatten"),
        (verification, "flatten", "tree.flatten"),
        (verification, "verify_tree", "verification.verify"),
    ]


class Tracer:
    """Spans and counts for traced rounds; one instance per benchmark run.

    Counts are kept per trial and only inside ``run_decode``, so they are
    per-token and per-cycle figures of the decode loop."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[tuple[int, str, int], Counter[str]] = {}
        self.round = 0
        self._stack: list[int] = []
        self._trial: tuple[int, str, int] | None = None
        self._cur: Counter[str] = Counter()
        self._counting = False           # inside run_decode, outside a draft call
        self._known: tuple[Any, int, frozenset] = (None, 0, frozenset())

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._trial]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = perf_counter()

        return wrapper

    def _trial_scope(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(cfg, trial, *args, **kwargs):
            self._trial = (self.round, cfg.policy, trial)
            self._cur = self.counts[self._trial] = Counter()
            try:
                return fn(cfg, trial, *args, **kwargs)
            finally:
                self._trial = None

        return wrapper

    def _decode_scope(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counting = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._counting = False

        return wrapper

    def _count_stop(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._cur["stop." + out.stop.reason] += 1
            return out

        return wrapper

    def _count_target(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(model, prefix):
            if self._counting:
                self._cur["target_evals"] += 1
            return fn(model, prefix)

        return wrapper

    def _count_draft(self, fn: Callable) -> Callable:
        # The mixture draft evaluates its target internally; those calls are
        # draft work, not target evaluations, so counting pauses inside it.
        @functools.wraps(fn)
        def wrapper(model, prefix):
            if not self._counting:
                return fn(model, prefix)
            self._cur["draft_evals"] += 1
            self._counting = False
            try:
                return fn(model, prefix)
            finally:
                self._counting = True

        return wrapper

    def _count_lookup(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(profile, shape):
            if self._counting:
                self._cur["profile_lookups"] += 1
                # A profile only ever gains shapes, so its size tells whether
                # the cached key set is current.
                owner, size, keys = self._known
                if owner is not profile or size != len(profile):
                    keys = frozenset(profile.entries())
                    self._known = (profile, len(keys), keys)
                if shape not in keys:
                    self._cur["profile_misses"] += 1
            return fn(profile, shape)

        return wrapper

    # -- install / restore ---------------------------------------------------

    def _patches(self) -> list[tuple[object, str, Callable[[Callable], Callable]]]:
        from flashspec import drafting, harness, models, policies

        patches: list[tuple[object, str, Callable[[Callable], Callable]]] = [
            (owner, attr, functools.partial(self._spanned, name))
            for owner, attr, name in _span_targets()
        ]
        patches += [
            (harness, "run_trial", self._trial_scope),
            (harness, "run_decode", self._decode_scope),
            (policies.GainCostPolicy, "build", self._count_stop),
            (models.TabularMarkovModel, "next_dist", self._count_target),
            (models.LayeredTargetModel, "next_dist", self._count_target),
            (models.MixtureDraftModel, "next_dist", self._count_draft),
            (drafting.LatencyProfile, "lookup", self._count_lookup),
        ]
        return patches

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore
        the exact original objects."""
        saved: list[tuple[object, str, Any]] = []
        try:
            for owner, attr, wrap in self._patches():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[tuple[Any, str], float]:
        """Per (trial, span name): summed duration minus child durations."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: Counter[tuple[Any, str]] = Counter()
        for i, span in enumerate(self.spans):
            out[(span[TRIAL], span[NAME])] += span[END] - span[START] - child[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "trial"],
            "spans": [
                [s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[TRIAL]]
                for s in self.spans
            ],
            "counts": [[trial, dict(c)] for trial, c in self.counts.items()],
        }
        path.write_text(json.dumps(payload) + "\n")


HOST_LAYERS = (
    "harness.trial",
    "harness.trial_setup",
    "harness.seed_profile",
    "drafting.build",
    "drafting.expand",
    "pruning.apply",
    "pruning.hidden_rows",
    "verification.verify",
    "verification.loop",
    "predictor.dataset",
    "predictor.train",
    "tree.flatten",
    "simulator.price",
)


def layer_metrics(
    tracer: Tracer, lever_trials: list[tuple[int, Any]], hw: Any
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced ``lever`` trials.

    ``lever_trials`` holds (round, TrialResult) for every traced lever trial.
    Host times are self times in seconds per lever trial; shapes and counts
    come from the trials' cycle records and the tracer's counters.
    """
    from flashspec.simulator import ar_step_latency, verify_latency

    keys = [(rnd, "lever", r.trial) for rnd, r in lever_trials]
    n_trials = len(keys)
    self_s = tracer.self_times()
    counts = tracer.counts

    def host(name: str) -> float:
        return sum(self_s[(k, name)] for k in keys) / n_trials

    def count(name: str) -> int:
        return sum(counts[k][name] for k in first_keys)

    key_set = set(keys)
    trial_total = sum(
        s[END] - s[START] for s in tracer.spans
        if s[NAME] == "harness.trial" and s[TRIAL] in key_set
    ) / n_trials
    # Every traced round repeats the same trials, so the deterministic
    # figures come from the first one alone and stay bit-identical however
    # many rounds a run fits in.
    first = [r for rnd, r in lever_trials if rnd == lever_trials[0][0]]
    first_keys = keys[: len(first)]
    records = [c for r in first for c in r.decode.cycles]
    costs = [c for r in first for c in r.trace.cycles]
    pruned = [c for c in records if c.prune is not None]
    tokens = sum(len(r.emitted) for r in first)
    cycles = len(records)
    steps = [n for c in records for n in c.expansion_counts if n > 0]

    def per_cycle(values) -> float:
        return sum(values) / cycles

    out: dict[str, tuple[float, str]] = {
        name + "_s": (host(name), "s/trial") for name in HOST_LAYERS
    }
    out["drafting.profile_lookups"] = (count("profile_lookups") / cycles, "count/cycle")
    out["drafting.profile_misses"] = (count("profile_misses") / len(first), "count/trial")
    out["drafting.expansions_per_cycle"] = (
        per_cycle(sum(c.expansion_counts) for c in records), "count/cycle"
    )
    out["drafting.nodes_per_tree"] = (per_cycle(c.tree_nodes for c in records), "count/cycle")
    for reason in ("stop_rule", "node_budget", "frontier_empty"):
        out[f"drafting.stop.{reason}"] = (count(f"stop.{reason}") / cycles, "frac")
    out["drafting.realised_over_estimated_gain"] = (
        sum(len(c.emitted) for c in records) / sum(c.gain_estimate for c in records), "ratio"
    )
    out["pruning.kept_row_frac"] = (
        sum(c.rows_verified for c in pruned) / sum(c.tree_nodes for c in pruned)
        if pruned else 1.0,
        "frac",
    )
    out["pruning.rejected_frac"] = (
        sum(c.prune.rejected for c in pruned) / len(pruned) if pruned else 0.0, "frac"
    )
    out["verification.rows_per_cycle"] = (
        per_cycle(c.rows_verified for c in records), "count/cycle"
    )
    out["verification.accepted_per_cycle"] = (
        per_cycle(c.accepted_len for c in records), "count/cycle"
    )
    out["verification.row_yield"] = (
        sum(c.accepted_len + 1 for c in records) / sum(c.rows_verified for c in records), "frac"
    )
    out["models.target_evals_per_token"] = (count("target_evals") / tokens, "count/token")
    out["models.draft_evals_per_token"] = (count("draft_evals") / tokens, "count/token")
    for part in ("draft", "verify_io", "verify_compute", "verify_stage", "projection"):
        out[f"simulator.{part}_ms_per_cycle"] = (
            per_cycle(getattr(c, f"{part}_ms") for c in costs), "sim_ms/cycle"
        )
    # draft_schedule prices a step as one NPU batch from batch_min up.
    out["simulator.npu_step_frac"] = (
        sum(n >= hw.batch_min for n in steps) / len(steps) if steps else 0.0, "frac"
    )
    out["simulator.overlap_only_speedup"] = (ar_step_latency(hw) / verify_latency(hw, 1, 1), "x")
    out["trace.lever_trial_s"] = (trial_total, "s/trial")
    # Share of lever trial time that a named layer below run_trial accounts
    # for; the rest is run_trial's own self time.
    out["trace.coverage_frac"] = (1.0 - host("harness.trial") / trial_total, "frac")
    return out

