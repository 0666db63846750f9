"""Metric names, units, and the per-layer rollup of a traced run.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (the
self-check compares them).  Per-layer values are per traced pass: a
pass is a fixed amount of work (see ``Workload.run_unit``), so a count
reads the same on every run of one commit and a time is comparable
between commits.  Times are seconds summed over the pass; ``vars`` and
``constraints`` are means per ILP build.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

#: (name, unit, better) — every workload prints all of them.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("p50_s", "s", "lower"),
]

#: The user paths' named end-to-end metrics: name -> (unit, workload,
#: contract metric it is reported as, or None when printed only).
NAMED = {
    "setup_s": ("s", "every workload", "setup_s"),
    "peak_rss_mb": ("MB", "every workload", "peak_rss_mb"),
    "synth_modes_per_s": ("modes/s", "synth", "work_per_s"),
    "synth_p50_s": ("s", "synth", "p50_s"),
    "campaign_trials_per_s": ("trials/s", "campaign", "work_per_s"),
    "serve_jobs_per_s": ("jobs/s", "serve", "work_per_s"),
    "serve_exec_p50_s": ("s", "serve", "p50_s"),
    "serve_exec_tail_s": ("s", "serve", None),
    "serve_hit_p50_s": ("s", "serve", None),
    "explore_s": ("s", "explore", "p50_s"),
    "explore_campaigns": ("count", "explore", None),
}

_S, _N, _R = "s", "count", "ratio"
PER_LAYER: List[Tuple[str, str, str]] = [
    ("api.scenario.load_s", _S, "lower"),
    ("core.ilp_builder.build_s", _S, "lower"),
    ("core.ilp_builder.builds", _N, "lower"),
    ("core.ilp_builder.vars", _N, "lower"),
    ("core.ilp_builder.constraints", _N, "lower"),
    ("milp.solve_s", _S, "lower"),
    ("milp.solves", _N, "lower"),
    ("milp.infeasible_solve_s", _S, "lower"),
    ("milp.infeasible_solves", _N, "lower"),
    ("milp.nodes", _N, "lower"),
    ("milp.time_limit_hits", _N, "lower"),
    ("core.synthesis.self_s", _S, "lower"),
    ("core.synthesis.useful_share", _R, "higher"),
    ("core.verify.verify_s", _S, "lower"),
    ("core.verify.calls", _N, "lower"),
    ("core.verify.failures", _N, "lower"),
    ("engine.cache.get_s", _S, "lower"),
    ("engine.cache.put_s", _S, "lower"),
    ("engine.cache.hits", _N, "higher"),
    ("engine.cache.misses", _N, "lower"),
    ("engine.cache.hit_ratio", _R, "higher"),
    ("engine.parallel.solves_started", _N, "lower"),
    ("engine.parallel.solves_used", _N, "lower"),
    ("engine.parallel.useful_share", _R, "higher"),
    ("engine.parallel.pool_s", _S, "lower"),
    ("engine.trials.spawn_s", _S, "lower"),
    ("engine.trials.map_s", _S, "lower"),
    ("engine.trials.chunks", _N, "lower"),
    ("runtime.trial.build_context_s", _S, "lower"),
    ("runtime.trial.contexts", _N, "lower"),
    ("runtime.trial.envelope_s", _S, "lower"),
    ("runtime.trial.fallback_share", _R, "lower"),
    ("runtime.compiled.compile_s", _S, "lower"),
    ("runtime.compiled.compiles", _N, "lower"),
    ("mc.vectorized.unroll_s", _S, "lower"),
    ("mc.vectorized.sample_s", _S, "lower"),
    ("mc.vectorized.accumulate_s", _S, "lower"),
    ("mc.vectorized.trials", _N, "higher"),
    ("mc.vectorized.tensor_bytes", "bytes", "lower"),
    ("mc.fastpath.run_s", _S, "lower"),
    ("mc.fastpath.trials", _N, "lower"),
    ("runtime.simulator.trials", _N, "lower"),
    ("mc.campaign.aggregate_s", _S, "lower"),
    ("mc.campaign.self_s", _S, "lower"),
    ("serve.http.submit_s", _S, "lower"),
    ("serve.http.rejected", _N, "lower"),
    ("serve.queue.wait_s", _S, "lower"),
    ("serve.queue.synthesize_s", _S, "lower"),
    ("serve.queue.simulate_s", _S, "lower"),
    ("serve.queue.depth_max", _N, "lower"),
    ("serve.dedup.store_hits", _N, "higher"),
    ("serve.dedup.attaches", _N, "higher"),
    ("dse.store.put_s", _S, "lower"),
    ("dse.store.puts", _N, "lower"),
    ("dse.store.hits", _N, "higher"),
    ("dse.samplers.propose_s", _S, "lower"),
    ("dse.samplers.rounds", _N, "lower"),
    ("dse.explore.campaigns", _N, "lower"),
    ("dse.explore.reused", _N, "higher"),
    ("dse.explore.self_s", _S, "lower"),
    ("dse.pareto.front_s", _S, "lower"),
    ("dse.pareto.front_size", _N, "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
]

#: Span name -> metric fed by the summed span duration.
_DURATION = {
    "Scenario.from_dict": "api.scenario.load_s",
    "build_ilp": "core.ilp_builder.build_s",
    "Model.solve": "milp.solve_s",
    "verify_schedule": "core.verify.verify_s",
    "ScheduleCache.get": "engine.cache.get_s",
    "ScheduleCache.put": "engine.cache.put_s",
    "parallel._run_searches": "engine.parallel.pool_s",
    "TrialPool.map": "engine.trials.map_s",
    "build_context": "runtime.trial.build_context_s",
    "compile_program": "runtime.compiled.compile_s",
    "unroll_timeline": "mc.vectorized.unroll_s",
    "vector.sample": "mc.vectorized.sample_s",
    "accumulate_trials": "mc.vectorized.accumulate_s",
    "run_program": "mc.fastpath.run_s",
    "CampaignStats.aggregate": "mc.campaign.aggregate_s",
    "POST /jobs": "serve.http.submit_s",
    "JsonlStore.put": "dse.store.put_s",
    "SqliteStore.put": "dse.store.put_s",
    "ResultStore.put": "dse.store.put_s",
    "SurrogateSampler.propose": "dse.samplers.propose_s",
    "dominance_rank": "dse.pareto.front_s",
}

#: Span name -> metric fed by the span's self time.
_SELF = {
    "synthesize": "core.synthesis.self_s",
    "run_campaigns": "mc.campaign.self_s",
    "explore": "dse.explore.self_s",
    "execute_trial_batch": "runtime.trial.envelope_s",
    "execute_trial": "runtime.trial.envelope_s",
}

#: Counters copied as they are.
_COUNTS = (
    "core.ilp_builder.builds", "milp.solves", "milp.infeasible_solve_s",
    "milp.infeasible_solves", "milp.nodes", "milp.time_limit_hits",
    "core.verify.calls", "core.verify.failures", "engine.cache.hits",
    "engine.cache.misses", "engine.parallel.solves_used",
    "engine.trials.chunks", "runtime.trial.contexts",
    "runtime.compiled.compiles", "mc.vectorized.trials",
    "mc.vectorized.tensor_bytes", "mc.fastpath.trials",
    "runtime.simulator.trials", "serve.http.rejected", "serve.queue.wait_s",
    "serve.queue.synthesize_s", "serve.queue.simulate_s",
    "serve.dedup.store_hits", "serve.dedup.attaches", "dse.store.puts",
    "dse.store.hits", "dse.samplers.rounds", "dse.explore.campaigns",
    "dse.explore.reused", "dse.pareto.front_size",
    # Timers a daemon reports about itself (serve only).
    "engine.trials.map_s", "mc.campaign.aggregate_s", "core.verify.verify_s",
)

#: Metrics that are not totals and are therefore not divided by passes.
_NOT_PER_PASS = {
    "core.synthesis.useful_share", "engine.cache.hit_ratio",
    "engine.parallel.useful_share", "runtime.trial.fallback_share",
    "core.ilp_builder.vars", "core.ilp_builder.constraints",
    "serve.queue.depth_max", "obs.trace_overhead_pct",
}

#: Per workload: metrics that cannot be taken from outside the process
#: that does the work, with the reason printed next to the zero.
UNMEASURED = {
    "serve": {
        prefix: "runs inside the repro serve daemon; not exposed by "
                "/stats, /metrics or the job events"
        for prefix in (
            "api.scenario.load_s", "core.ilp_builder.", "milp.solve_s",
            "milp.infeasible_", "milp.nodes", "milp.time_limit_hits",
            "core.synthesis.self_s", "core.verify.calls",
            "core.verify.failures", "engine.cache.get_s",
            "engine.cache.put_s", "engine.trials.spawn_s",
            "runtime.trial.build_context_s", "runtime.trial.contexts",
            "runtime.trial.envelope_s", "runtime.compiled.compile_s",
            "mc.fastpath.run_s", "mc.campaign.self_s", "dse.store.put_s",
        )
    },
}


def unmeasured_reason(workload: str, metric: str):
    for prefix, reason in UNMEASURED.get(workload, {}).items():
        if metric.startswith(prefix):
            return reason
    return None


def rollup(spans: List[list], counters: Dict[str, float],
           leaf_s: Dict[str, float]) -> Tuple[Dict[str, float],
                                              Dict[str, float]]:
    """Sum spans into raw metric totals and per-layer self times.

    ``spans`` hold ``[id, name, layer, start, end, parent, child_s]``
    rows from one process.  Spans of the stdlib pool launcher take the
    layer of the span that started the pool.
    """
    totals: Dict[str, float] = defaultdict(float)
    self_by_layer: Dict[str, float] = defaultdict(float)
    by_id = {span[0]: span for span in spans}
    for index, name, layer, start, end, parent, child in (
            span[:7] for span in spans):
        if not end:
            continue
        duration = end - start
        if layer == "pool.spawn":
            parent_span = by_id.get(parent)
            layer = parent_span[2] if parent_span else "engine.trials"
            if parent_span is not None and parent_span[1] == "TrialPool.map":
                totals["engine.trials.spawn_s"] += duration
        self_by_layer[layer] += duration - child
        if name in _DURATION:
            totals[_DURATION[name]] += duration
        if name in _SELF:
            totals[_SELF[name]] += duration - child
    for name, seconds in leaf_s.items():
        totals["runtime.trial.envelope_s"] += seconds
        self_by_layer["runtime.trial"] += seconds
    for name, value in counters.items():
        totals[name] += value
    return dict(totals), dict(self_by_layer)


def per_layer_values(totals: Dict[str, float], passes: int,
                     overhead_pct: float) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric, per traced pass."""
    t = defaultdict(float, totals)
    values: Dict[str, float] = {}
    for name in _COUNTS:
        values[name] = t[name]
    for name in set(_DURATION.values()) | set(_SELF.values()):
        values[name] = t[name]
    values["engine.trials.spawn_s"] = t["engine.trials.spawn_s"]
    builds = t["core.ilp_builder.builds"]
    values["core.ilp_builder.vars"] = (
        t["core.ilp_builder.vars"] / builds if builds else 0.0)
    values["core.ilp_builder.constraints"] = (
        t["core.ilp_builder.constraints"] / builds if builds else 0.0)
    solves = t["milp.solves"]
    values["core.synthesis.useful_share"] = (
        t["core.synthesis.modes"] / solves if solves else 0.0)
    lookups = t["engine.cache.hits"] + t["engine.cache.misses"]
    values["engine.cache.hit_ratio"] = (
        t["engine.cache.hits"] / lookups if lookups else 0.0)
    started = t["engine.parallel.claims"] - t["engine.parallel.drops"]
    values["engine.parallel.solves_started"] = started
    values["engine.parallel.useful_share"] = (
        t["engine.parallel.solves_used"] / started if started else 0.0)
    all_trials = t["runtime.trial.all_trials"]
    values["runtime.trial.fallback_share"] = (
        t["runtime.trial.fallback_trials"] / all_trials if all_trials else 0.0)
    values["serve.queue.depth_max"] = t["serve.queue.depth_max"]
    values["obs.trace_overhead_pct"] = overhead_pct
    for name in values:
        if name not in _NOT_PER_PASS:
            values[name] /= max(passes, 1)
    return {name: values.get(name, 0.0) for name, _, _ in PER_LAYER}
