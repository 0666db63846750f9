"""In-memory span tracing of the repro layers, installed from outside.

The benchmark measures per-layer cost without touching the program: for
a traced pass it replaces the layers' public entry points (module
functions, methods, classmethods) with thin wrappers that record one
span per call, then puts the originals back.  Untraced passes run the
unmodified code, so the difference between the two is the tracing
overhead.

A span records its name, layer, start, end, parent span and the current
context id (scenario or job).  A layer's self time is its span time
minus the time covered by child spans.  Calls too frequent for a span
of their own (``TrialResult.to_dict`` / ``from_dict``, once per trial)
are *leaves*: they add their time to the enclosing span's child time
and to a per-name total, without a span record.

Pool workers forked while wrappers are installed inherit them.  Their
entry points flush the worker's spans to ``<out_dir>/worker-<pid>.jsonl``
after every task, and the parent reads those files back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.parent_pid = self.pid = os.getpid()
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.leaf_s: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context -----------------------------------------------------------
    def _stack(self) -> list:
        if os.getpid() != self.pid:
            self._become_worker()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_worker(self) -> None:
        """A forked pool worker starts with empty spans of its own."""
        self.pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)
        self.leaf_s = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_context(self, ctx: Optional[str]) -> None:
        self._local.ctx = ctx

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- recording ---------------------------------------------------------
    def begin(self, name: str, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [len(self.spans), name, layer, perf(), 0.0, parent, 0.0,
                 getattr(self._local, "ctx", None)]
        with self._lock:
            self.spans.append(frame)
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        frame[4] = perf()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1][6] += frame[4] - frame[3]

    def leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1][6] += seconds
        self.leaf_s[name] += seconds


    # -- worker flush --------------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's spans and counters to its file, then clear."""
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "spans": [frame[:7] for frame in self.spans if frame[4]],
                "counters": dict(self.counters),
                "leaf_s": dict(self.leaf_s),
            }) + "\n")
        self.spans = []
        self.counters = defaultdict(float)
        self.leaf_s = defaultdict(float)

    def worker_records(self) -> List[dict]:
        records = []
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    records.append(json.loads(line))
        return records

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span of the parent process, one JSON line each."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"summary": extra}) + "\n")
            for index, name, layer, start, end, parent, child, ctx in self.spans:
                handle.write(json.dumps({
                    "id": index, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "ctx": ctx, "child_s": child,
                }) + "\n")


def _span_wrapper(tracer: Tracer, fn: Callable, name: str, layer: str,
                  on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if on_result is not None:
            on_result(tracer, args, result, frame[4] - frame[3])
        return result
    return wrapper


def _leaf_wrapper(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, perf() - start)
    return wrapper


def _worker_entry_wrapper(tracer: Tracer, fn: Callable, name: str,
                          layer: str) -> Callable:
    """A pool-task entry point: outside the parent it also flushes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(frame)
            if os.getpid() != tracer.parent_pid:
                tracer.flush_worker()
    return wrapper


class Instrumentation:
    """Installs and removes the wrappers; see :func:`install_layers`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def function(self, modules, attr: str, name: str, layer: str,
                 on_result=None, entry: bool = False) -> None:
        """Wrap a module-level function under every module that holds it
        (its home module first), so pickling by name finds the wrapper."""
        original = getattr(modules[0], attr)
        if entry:
            wrapper = _worker_entry_wrapper(self.tracer, original, name, layer)
        else:
            wrapper = _span_wrapper(self.tracer, original, name, layer,
                                    on_result)
        for module in modules:
            if getattr(module, attr) is original:
                self._set(module, attr, wrapper)

    def method(self, cls: type, attr: str, name: str, layer: str,
               on_result=None, leaf: bool = False) -> None:
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if leaf:
            wrapper = _leaf_wrapper(self.tracer, fn, name)
        else:
            wrapper = _span_wrapper(self.tracer, fn, name, layer, on_result)
        self._set(cls, attr, classmethod(wrapper) if is_classmethod
                  else wrapper)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- the layer map -------------------------------------------------------------


def _on_build(tracer, args, handles, seconds):
    tracer.count("core.ilp_builder.builds")
    tracer.count("core.ilp_builder.vars", handles.model.num_vars)
    tracer.count("core.ilp_builder.constraints", handles.model.num_constraints)


def _on_solve(tracer, args, solution, seconds):
    from repro.milp.model import SolveStatus

    tracer.count("milp.solves")
    tracer.count("milp.nodes", solution.nodes)
    if solution.status is SolveStatus.TIME_LIMIT:
        tracer.count("milp.time_limit_hits")
    if not solution.is_feasible:
        tracer.count("milp.infeasible_solves")
        tracer.count("milp.infeasible_solve_s", seconds)


def _on_synthesize(tracer, args, schedule, seconds):
    tracer.count("core.synthesis.modes")


def _on_verify(tracer, args, report, seconds):
    tracer.count("core.verify.calls")
    if not report.ok:
        tracer.count("core.verify.failures")


def _on_cache_get(tracer, args, schedule, seconds):
    tracer.count("engine.cache.hits" if schedule is not None
                 else "engine.cache.misses")


def _on_search_claim(tracer, args, rounds, seconds):
    if rounds is not None:
        tracer.count("engine.parallel.claims")


def _on_search_drop(tracer, args, result, seconds):
    tracer.count("engine.parallel.drops")


def _on_search_result(tracer, args, schedule, seconds):
    search = args[0]
    best = search.best_feasible
    tracer.count("core.synthesis.modes")
    tracer.count("engine.parallel.solves_used", sum(
        1 for rounds in search._iterations if best is None or rounds <= best
    ))


def _on_pool_map(tracer, args, results, seconds):
    from repro.engine.trials import default_chunk_size

    pool, tasks = args[0], args[1]
    if pool.jobs > 1 and tasks:
        size = pool.chunk_size or default_chunk_size(len(tasks), pool.jobs)
        tracer.count("engine.trials.chunks", -(-len(tasks) // size))


def _on_context(tracer, args, context, seconds):
    tracer.count("runtime.trial.contexts")


def _on_compile(tracer, args, program, seconds):
    tracer.count("runtime.compiled.compiles")


def _on_vector_run(tracer, args, results, seconds):
    tracer.count("mc.vectorized.trials", len(results))


def _on_sample(tracer, args, tensors, seconds):
    beacon, data = tensors
    tracer.count("mc.vectorized.tensor_bytes", beacon.nbytes + data.nbytes)


def _on_fast_run(tracer, args, result, seconds):
    tracer.count("mc.fastpath.trials")


def _on_simulator_run(tracer, args, trace, seconds):
    tracer.count("runtime.simulator.trials")


def _on_store_get(tracer, args, record, seconds):
    if record is not None:
        tracer.count("dse.store.hits")


def _on_store_put(tracer, args, result, seconds):
    tracer.count("dse.store.puts")


def _on_propose(tracer, args, proposals, seconds):
    if proposals:
        tracer.count("dse.samplers.rounds")


def install_layers(tracer: Tracer) -> Instrumentation:
    """Wrap the public entry points of every layer on the measured paths.

    Wrappers sit at call boundaries: one span per ILP build/solve,
    verification, cache access, context build, compile, tensor sample,
    fast-path trial, campaign and store access.  Returns the
    :class:`Instrumentation`; call ``remove()`` to restore the program.
    """
    import concurrent.futures.process as cf_process

    import repro.api.experiment as experiment
    import repro.api.scenario as scenario
    import repro.core.ilp_builder as ilp_builder
    import repro.core.synthesis as synthesis
    import repro.core.verify as verify
    import repro.dse as dse
    import repro.dse.store as store
    import repro.dse.surrogate as surrogate
    import repro.engine.api as engine_api
    import repro.engine.cache as cache
    import repro.engine.parallel as parallel
    import repro.engine.trials as trials
    import repro.mc.campaign as campaign
    import repro.mc.fastpath as fastpath
    import repro.mc.stats as mc_stats
    import repro.mc.vectorized as vectorized
    import repro.milp.model as milp_model
    import repro.runtime.compiled as compiled
    import repro.runtime.simulator as simulator
    import repro.runtime.trial as trial

    dse_explore = sys.modules["repro.dse.explore"]
    inst = Instrumentation(tracer)
    fn, meth = inst.function, inst.method

    meth(scenario.Scenario, "from_dict", "Scenario.from_dict", "api.scenario")
    fn([experiment, campaign], "synthesize_scenarios",
       "synthesize_scenarios", "api")
    fn([engine_api], "run_cached_batch", "run_cached_batch", "engine.api")

    fn([ilp_builder, synthesis], "build_ilp", "build_ilp", "core.ilp_builder",
       _on_build)
    meth(milp_model.Model, "solve", "Model.solve", "milp", _on_solve)
    fn([synthesis], "synthesize", "synthesize", "core.synthesis",
       _on_synthesize)
    fn([verify, experiment], "verify_schedule", "verify_schedule",
       "core.verify", _on_verify)

    meth(cache.ScheduleCache, "get", "ScheduleCache.get", "engine.cache",
         _on_cache_get)
    meth(cache.ScheduleCache, "put", "ScheduleCache.put", "engine.cache")

    fn([parallel], "_run_searches", "parallel._run_searches",
       "engine.parallel")
    fn([parallel], "_solve_round_task", "parallel._solve_round_task",
       "engine.parallel", entry=True)
    search = parallel._SpeculativeSearch
    meth(search, "next_submission", "search.claim", "engine.parallel",
         _on_search_claim)
    meth(search, "drop", "search.drop", "engine.parallel", _on_search_drop)
    meth(search, "result", "search.result", "engine.parallel",
         _on_search_result)

    meth(trials.TrialPool, "map", "TrialPool.map", "engine.trials",
         _on_pool_map)
    fn([trials], "_run_chunk", "trials._run_chunk", "engine.trials",
       entry=True)
    launch = ("_launch_processes"
              if "_launch_processes" in cf_process.ProcessPoolExecutor.__dict__
              else "_adjust_process_count")
    meth(cf_process.ProcessPoolExecutor, launch, "pool.spawn", "pool.spawn")

    fn([trial, campaign], "build_context", "build_context", "runtime.trial",
       _on_context)
    fn([trial, campaign], "execute_trial_batch", "execute_trial_batch",
       "runtime.trial")
    fn([trial, campaign], "execute_trial", "execute_trial", "runtime.trial")
    meth(trial.TrialResult, "to_dict", "TrialResult.to_dict", "runtime.trial",
         leaf=True)
    meth(trial.TrialResult, "from_dict", "TrialResult.from_dict",
         "runtime.trial", leaf=True)

    fn([compiled], "compile_program", "compile_program", "runtime.compiled",
       _on_compile)

    fn([vectorized], "unroll_timeline", "unroll_timeline", "mc.vectorized")
    fn([vectorized], "run_trials_vectorized", "run_trials_vectorized",
       "mc.vectorized", _on_vector_run)
    fn([vectorized], "accumulate_trials", "accumulate_trials",
       "mc.vectorized")
    for cls in vars(vectorized).values():
        if isinstance(cls, type) and cls.__name__.endswith("Vector") \
                and "sample" in cls.__dict__:
            meth(cls, "sample", "vector.sample", "mc.vectorized", _on_sample)

    fn([fastpath], "run_program", "run_program", "mc.fastpath", _on_fast_run)
    meth(simulator.RuntimeSimulator, "run", "RuntimeSimulator.run",
         "runtime.simulator", _on_simulator_run)

    fn([campaign, dse_explore], "run_campaigns", "run_campaigns",
       "mc.campaign")
    meth(mc_stats.CampaignStats, "aggregate", "CampaignStats.aggregate",
         "mc.campaign")

    fn([dse], "explore", "explore", "dse.explore")
    meth(store.ResultStore, "get", "ResultStore.get", "dse.store",
         _on_store_get)
    for cls in (store.JsonlStore, store.SqliteStore, store.MemoryStore,
                store.ResultStore):
        if "put" in cls.__dict__:
            meth(cls, "put", f"{cls.__name__}.put", "dse.store",
                 _on_store_put)
    meth(surrogate.SurrogateSampler, "propose", "SurrogateSampler.propose",
         "dse.samplers", _on_propose)
    fn([dse_explore], "dominance_rank", "dominance_rank", "dse.pareto")
    return inst
