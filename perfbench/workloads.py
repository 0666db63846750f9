"""The four workloads: set-up, closed-loop measurement, output checks.

Each workload follows one user path of the toolkit end to end:

* ``synth``    scenario JSON -> verified schedule, cold (fresh cache);
* ``campaign`` scenario -> campaign statistics, schedules cached;
* ``serve``    ``POST /jobs`` -> ``done`` against a ``repro serve``
  subprocess, two client threads;
* ``explore``  space -> Pareto front with the surrogate sampler.

A workload offers ``setup()`` (repeatable; the last one stays live),
``measure(seconds)`` (the timed closed loop, tracing off),
``prepare(index)`` and ``run_unit(index, unit, tracer)`` (for the traced
run: a pass is ``units`` fixed units of work, each run once untraced and
once traced with the same inputs) and ``finish()`` (final checks,
teardown).  Check failures land in
``problems``; failed operations in ``failed``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

import inputs

perf = time.perf_counter
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())


def tail(samples: List[float]) -> Optional[dict]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def median(samples: List[float]) -> float:
    """The Harrell-Davis median: a Beta-weighted mean of the order
    statistics.  A fixed corpus of problem sizes leaves gaps between
    neighbouring latencies, and the plain median jumps across a gap
    when run-to-run noise swaps two samples; this estimator moves
    smoothly.  Failed operations (``inf``) fall back to the plain
    median, so they still count as missing every latency limit."""
    if not samples:
        return math.inf
    if not all(math.isfinite(value) for value in samples):
        return statistics.median(samples)
    from scipy.special import betainc

    n = len(samples)
    edges = betainc((n + 1) / 2, (n + 1) / 2,
                    [index / n for index in range(n + 1)])
    return float(sum(weight * value for weight, value in zip(
        edges[1:] - edges[:-1], sorted(samples))))


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.sizes: Dict[str, object] = {}
        self.extra: Dict[str, object] = {}
        self._setups = 0

    def fresh_dir(self, label: str) -> Path:
        path = self.work_dir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    #: Units of work in one pass of the traced run (see ``run_unit``).
    units = 1

    def prepare(self, index: int) -> None:
        """Untimed work before each traced or untraced unit."""

    def finish(self) -> None:
        pass


# -- synth ------------------------------------------------------------------------


class Synth(Workload):
    """Cold synthesis through ``Experiment.run(simulate=False)``."""

    name = "synth"

    def setup(self) -> None:
        from repro.api import Experiment, Scenario

        self.Experiment, self.Scenario = Experiment, Scenario
        self.texts = inputs.synth_scenarios(self.seed)
        self.expected = REFERENCE["synth_rounds"]
        self.sizes = {
            "scenarios": len(self.texts),
            "modes": sum(len(json.loads(t)["modes"]) for t in self.texts),
            "loop": "closed, 1 caller", "jobs": 1,
        }
        self._setups += 1
        # Warm-up: the first solve pays lazy imports inside scipy/HiGHS.
        warm = min(self.texts, key=lambda text: len(text))
        self.synthesize(warm, self.fresh_dir(f"warm-{self._setups}"))

    def synthesize(self, text: str, cache_dir: Path):
        scenario = self.Scenario.from_dict(json.loads(text))
        return self.Experiment([scenario], jobs=1, cache_dir=cache_dir,
                               warm_start=False).run(simulate=False)

    def op(self, index: int):
        """One scenario, cold; returns ``(latency_s, modes, ok)``."""
        text = self.texts[index % len(self.texts)]
        cache_dir = self.work_dir / f"cache-{index}"
        self.attempted += 1
        started = perf()
        try:
            result = self.synthesize(text, cache_dir)
        except Exception as exc:  # infeasible modes count as failures
            self.failed += 1
            self.problem(f"synth op {index}: {type(exc).__name__}: {exc}")
            return math.inf, 0, False
        latency = perf() - started
        shutil.rmtree(cache_dir, ignore_errors=True)
        ok = self.check(result.results[0])
        if not ok:
            self.failed += 1
        return latency, len(result.results[0].schedules), ok

    def check(self, outcome) -> bool:
        """Verified, round-minimal, and R equal to the recorded value."""
        name = outcome.scenario.name
        ok = True
        if not outcome.verified:
            self.problem(f"{name}: schedule failed verification")
            ok = False
        for mode, schedule in outcome.schedules.items():
            expected = self.expected.get(f"{name}/{mode}")
            if schedule.num_rounds != expected:
                self.problem(f"{name}/{mode}: R={schedule.num_rounds}, "
                             f"recorded {expected}")
                ok = False
            probes = [(it.num_rounds, it.feasible)
                      for it in schedule.solve_stats.iterations]
            minimal = [(r, r == schedule.num_rounds)
                       for r in range(schedule.num_rounds + 1)]
            if probes != minimal:
                self.problem(f"{name}/{mode}: probes {probes} do not prove "
                             f"R={schedule.num_rounds} minimal")
                ok = False
        return ok

    def measure(self, seconds: float) -> dict:
        """Whole passes over the corpus, at least ``seconds`` long, so
        every run times the same mix of problem sizes."""
        latencies, modes = [], 0
        started = perf()
        index = 0
        while perf() - started < seconds:
            for _ in self.texts:
                latency, count, _ = self.op(index)
                latencies.append(latency)
                modes += count
                index += 1
        wall = perf() - started
        self.extra["latency_samples"] = len(latencies)
        self.extra["tail"] = tail(latencies)
        named = {"synth_modes_per_s": modes / wall,
                 "synth_p50_s": median(latencies)}
        return {"work_per_s": modes / wall, "p50_s": median(latencies),
                "named": named}

    units = len(inputs.SYNTH_COMBOS)

    def run_unit(self, index: int, unit: int, tracer=None) -> None:
        if tracer is not None:
            tracer.set_context(f"scenario-{unit}")
        self.op(unit)


# -- campaign ---------------------------------------------------------------------


class Campaign(Workload):
    """The fixed campaign mix on warm schedules, engine ``vectorized``."""

    name = "campaign"

    def setup(self) -> None:
        from repro.engine.cache import ScheduleCache
        from repro.mc import run_campaign

        self.run_campaign = run_campaign
        self._setups += 1
        self.mix = inputs.campaign_mix(self.seed)
        self.cache = ScheduleCache(self.fresh_dir(f"cache-{self._setups}"))
        for entry in self.mix:  # synthesize + cache every schedule
            result = run_campaign(entry["scenario"], trials=1, jobs=1,
                                  cache=self.cache, engine="vectorized")
            if not result.ok:
                self.problem(f"{entry['name']}: warm-up campaign not ok")
        self.resolved: Dict[str, str] = {}
        self.sizes = {
            "scenarios": len(self.mix),
            "modes": sum(len(e["scenario"].modes) for e in self.mix),
            "trials_per_pass": sum(
                inputs.CAMPAIGN_TRIALS[e["name"]]
                * (len(e["sweep"]["data_loss"]) if e["sweep"] else 1)
                for e in self.mix),
            "loop": "closed, 1 caller", "jobs": 1,
        }

    def check_equivalence(self) -> None:
        """Reduced-trial vectorized vs reference, per vectorized entry."""
        from repro.mc import EquivalenceError, assert_distribution_equivalent

        for entry in self.mix:
            scenario = entry["scenario"]
            trials = inputs.CAMPAIGN_EQUIVALENCE_TRIALS
            runs = {engine: self.run_campaign(
                scenario, trials=trials, jobs=1, cache=self.cache,
                engine=engine) for engine in ("vectorized", "reference")}
            if runs["vectorized"].engines.get(scenario.name) != "vectorized":
                continue  # fallback entries run the bit-exact fast engine
            try:
                assert_distribution_equivalent(
                    runs["vectorized"].points[0], runs["reference"].points[0],
                    label=entry["name"])
            except EquivalenceError as exc:
                self.problem(f"equivalence {entry['name']}: {exc}")

    def op(self, index: int):
        """One campaign of the mix: ``(latency_s, trials, ok, result)``."""
        entry = self.mix[index % len(self.mix)]
        scenario = entry["scenario"]
        count = inputs.CAMPAIGN_TRIALS[entry["name"]]
        base = inputs.rng_for(self.seed, "campaign-op", index).getrandbits(40)
        seeds = list(range(base, base + count))
        self.attempted += 1
        started = perf()
        try:
            result = self.run_campaign(
                scenario, seeds=seeds, sweep=entry["sweep"], jobs=1,
                cache=self.cache, engine="vectorized")
        except Exception as exc:
            self.failed += 1
            self.problem(f"campaign op {index}: {type(exc).__name__}: {exc}")
            return math.inf, 0, False, None
        latency = perf() - started
        trials = sum(point.stats.n_trials for point in result.points)
        ok = self.check(entry, result, len(seeds))
        if not ok:
            self.failed += 1
        used = result.engines.get(scenario.name)
        self.resolved.setdefault(entry["name"], used)
        self.extra["resolved"] = sorted(
            f"{n}: vectorized -> {u}" for n, u in self.resolved.items())
        return latency, trials, ok, result

    def check(self, entry, result, trials: int) -> bool:
        name = entry["name"]
        points = len(entry["sweep"]["data_loss"]) if entry["sweep"] else 1
        ok = True
        if not result.ok:
            self.problem(f"{name}: campaign not ok")
            ok = False
        if len(result.points) != points or any(
                point.stats.n_trials != trials for point in result.points):
            self.problem(f"{name}: expected {points} point(s) x {trials}")
            ok = False
        if result.stats.modes_synthesized or result.stats.cache_misses:
            self.problem(f"{name}: schedules were not served from the cache")
            ok = False
        used = result.engines.get(entry["scenario"].name)
        if used not in ("vectorized", "fast", "reference"):
            self.problem(f"{name}: no resolved engine recorded")
            ok = False
        elif self.resolved.get(name, used) != used:
            self.problem(f"{name}: engine changed {self.resolved[name]} "
                         f"-> {used}")
            ok = False
        return ok

    def measure(self, seconds: float) -> dict:
        """Whole passes over the mix; p50 is the median pass time (the
        five campaigns differ too much for a per-campaign median)."""
        passes, trials = [], 0
        started = perf()
        index = 0
        while perf() - started < seconds:
            begun = perf()
            for _ in self.mix:
                trials += self.op(index)[1]
                index += 1
            passes.append(perf() - begun)
        wall = perf() - started
        self.extra["passes"] = len(passes)
        self.extra["tail"] = tail(passes)
        return {"work_per_s": trials / wall, "p50_s": median(passes),
                "named": {"campaign_trials_per_s": trials / wall}}

    units = len(inputs.CAMPAIGN_TRIALS)

    def run_unit(self, index: int, unit: int, tracer=None) -> None:
        entry = self.mix[unit]
        if tracer is not None:
            tracer.set_context(entry["name"])
        outcome = self.op(index * len(self.mix) + unit)
        if tracer is None or outcome[3] is None:
            return
        tracer.count("runtime.trial.all_trials", outcome[1])
        if outcome[3].engines.get(entry["scenario"].name) != "vectorized":
            tracer.count("runtime.trial.fallback_trials", outcome[1])


# -- serve ------------------------------------------------------------------------


class HttpError(RuntimeError):
    pass


def _http(method: str, url: str, payload: Optional[dict] = None,
          timeout: float = 60.0) -> dict:
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return json.loads(reply.read().decode())
    except urllib.error.HTTPError as exc:
        raise HttpError(f"HTTP {exc.code} on {method} {url}") from None


def _events(url: str, timeout: float = 60.0) -> List[dict]:
    """Read a job's NDJSON event stream until its terminal event."""
    events = []
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        for raw in reply:
            line = raw.decode().strip()
            if line:
                events.append(json.loads(line))
    return events


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Serve(Workload):
    """Two closed-loop clients against ``repro serve --workers 2 -j 2``."""

    name = "serve"
    CLIENTS = 2
    STREAM = 2000
    PASS_REQUESTS = 48

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start_daemon(self, label: str) -> None:
        state = self.fresh_dir(label)
        port = _free_port()
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log = open(state / "daemon.log", "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", str(port), "--workers", "2", "-j", "2",
             "--store", str(state / "store.jsonl"),
             "--cache-dir", str(state / "cache")],
            env=env, stdout=subprocess.DEVNULL, stderr=self.log,
            cwd=str(state))
        self.url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 60.0
        while True:
            try:
                _http("GET", f"{self.url}/healthz", timeout=1.0)
                return
            except (OSError, HttpError):
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.02)

    def stop_daemon(self) -> None:
        if self.process is None:
            return
        try:
            _http("POST", f"{self.url}/shutdown", timeout=5.0)
        except (OSError, HttpError):
            pass
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.log.close()
        self.process = None

    def setup(self) -> None:
        self.stop_daemon()
        self._setups += 1
        self.start_daemon(f"daemon-{self._setups}")
        # Warm-up: the first job spawns the resident trial pool.
        warm = inputs.serve_scenario(10**6, 0.05, 1)
        self.submit_and_wait({"scenario": warm, "client": "warm-up"})
        self.stream = inputs.serve_stream(self.seed, self.STREAM)
        self.records: Dict[str, dict] = {}
        self.finished: List[dict] = []
        self.lock = threading.Lock()
        self.samples: Dict[str, List[float]] = {"exec": [], "hit": []}
        self.job_events: List[List[dict]] = []
        self.done = 0
        self.sizes = {
            "requests_generated": self.STREAM, "client_threads": self.CLIENTS,
            "daemon": "--workers 2 -j 2", "trials_per_job": inputs.SERVE_TRIALS,
            "loop": "closed, 2 clients",
        }

    def submit_and_wait(self, payload: dict) -> None:
        job = _http("POST", f"{self.url}/jobs", payload)
        if job["state"] not in ("done", "failed", "cancelled"):
            _events(f"{self.url}/jobs/{job['id']}/events")

    def payload_for(self, item: dict) -> Optional[dict]:
        if item["kind"] != "repeat":
            return {"scenario": item["payload"]}
        with self.lock:
            if not self.finished:
                return None
            return dict(self.finished[int(item["pick"] * len(self.finished))])

    def request(self, item: dict, tracer=None) -> None:
        payload = self.payload_for(item)
        if payload is None:  # nothing finished yet to repeat
            payload = {"scenario": inputs.serve_scenario(
                10**6 + 1, 0.07, int(item["pick"] * 1e9))}
        with self.lock:
            self.attempted += 1
        started = perf()
        try:
            frame = tracer.begin("POST /jobs", "serve.http") if tracer else None
            try:
                job = _http("POST", f"{self.url}/jobs", payload)
            finally:
                if frame is not None:
                    tracer.end(frame)
            events = None
            if job["state"] not in ("done", "failed", "cancelled"):
                events = _events(f"{self.url}/jobs/{job['id']}/events")
                latency = perf() - started
                job = _http("GET", f"{self.url}/jobs/{job['id']}")
            else:
                latency = perf() - started
        except (OSError, HttpError, ValueError) as exc:
            with self.lock:
                self.failed += 1
                self.samples["exec"].append(math.inf)  # misses every limit
                self.problem(f"request: {type(exc).__name__}: {exc}")
            return
        with self.lock:
            if job["state"] != "done":
                self.failed += 1
                self.samples["exec"].append(math.inf)
                self.problem(f"job {job['id']} ended {job['state']}: "
                             f"{job.get('error')}")
                return
            self.done += 1
            key = job["key"]
            if job["cached"]:
                self.samples["hit"].append(latency)
                if self.records.get(key) != job["result"]:
                    self.problem(f"job {job['id']}: store hit differs from "
                                 f"the record its executing job returned")
            else:
                self.samples["exec"].append(latency)
                self.records[key] = job["result"]
                self.finished.append(payload)
            if events is not None:
                self.job_events.append(events)

    def drive(self, items: List[dict], deadline: Optional[float],
              tracer=None) -> None:
        cursor = iter(items)
        cursor_lock = threading.Lock()

        def client(number: int) -> None:
            if tracer is not None:
                tracer.set_context(f"client-{number}")
            while deadline is None or perf() < deadline:
                with cursor_lock:
                    item = next(cursor, None)
                if item is None:
                    return
                self.request(item, tracer)

        threads = [threading.Thread(target=client, args=(n,))
                   for n in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, seconds: float) -> dict:
        started = perf()
        self.drive(self.stream, started + seconds)
        wall = perf() - started
        exec_samples = self.samples["exec"]
        exec_tail = tail(exec_samples)
        self.extra.update({
            "exec_samples": len(exec_samples),
            "hit_samples": len(self.samples["hit"]),
            "exec_tail": exec_tail,
        })
        named = {
            "serve_jobs_per_s": self.done / wall,
            "serve_exec_p50_s": median(exec_samples),
            "serve_exec_tail_s": exec_tail["value"] if exec_tail else math.inf,
            "serve_hit_p50_s": median(self.samples["hit"]),
        }
        return {"work_per_s": self.done / wall,
                "p50_s": named["serve_exec_p50_s"], "named": named}

    # -- traced run --------------------------------------------------------
    def prepare(self, index: int) -> None:
        """A fresh daemon per pass, so both passes of a pair send the
        same slice of the stream to an empty store and cache."""
        self.setup()

    def run_unit(self, index: int, unit: int, tracer=None) -> None:
        items = inputs.serve_stream(self.seed, self.PASS_REQUESTS,
                                    first_index=1000 * (index + 1))
        with self.lock:
            self.finished = []
        before = _http("GET", f"{self.url}/metrics") if tracer else None
        self.job_events = []
        self.drive(items, None, tracer)
        if tracer is None:
            return
        after = _http("GET", f"{self.url}/metrics")
        self._fold_daemon_metrics(tracer, before, after)

    def _fold_daemon_metrics(self, tracer, before: dict, after: dict) -> None:
        def delta(*path):
            a, b = after, before
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            return (a or 0) - (b or 0)

        count = tracer.count
        count("serve.dedup.store_hits", delta("dedup", "store_hits"))
        count("serve.dedup.attaches", delta("dedup", "attaches"))
        rejected = sum(
            after["admission"]["rejected"].get(k, 0)
            - before["admission"]["rejected"].get(k, 0)
            for k in after["admission"]["rejected"])
        count("serve.http.rejected", rejected)
        count("engine.cache.hits", delta("engine", "cache_hits"))
        count("engine.cache.misses", delta("engine", "cache_misses"))
        count("milp.solves", delta("engine", "solver_runs"))
        count("core.synthesis.modes", delta("engine", "modes_synthesized"))
        count("dse.store.hits", delta("dedup", "store_hits"))
        count("dse.store.puts", delta("store", "records"))
        counters_a = after["registry"]["counters"]
        counters_b = before["registry"]["counters"]
        count("runtime.compiled.compiles",
              counters_a.get("pool.context_builds", 0)
              - counters_b.get("pool.context_builds", 0))
        timers_a = after["registry"]["timers"]
        timers_b = before["registry"]["timers"]

        def timer(name):
            return (timers_a.get(name, {}).get("total", 0.0)
                    - timers_b.get(name, {}).get("total", 0.0))

        count("engine.trials.map_s", timer("span.simulate"))
        count("mc.campaign.aggregate_s", timer("span.aggregate"))
        count("core.verify.verify_s", timer("span.verify"))
        trials = (after["admission"]["trials_executed"]
                  - before["admission"]["trials_executed"])
        count("mc.fastpath.trials", trials)
        # One progress event per ResidentPool batch of a job.
        count("engine.trials.chunks", sum(
            1 for events in self.job_events for event in events
            if event["state"] == "simulating" and "trials_done" in event))
        # Queue states from the job event streams.
        wait = synth = simulate = 0.0
        marks = []
        for events in self.job_events:
            times = {}
            for event in events:
                times.setdefault(event["state"], event["time"])
            if "synthesizing" in times:
                wait += times["synthesizing"] - times["queued"]
                marks += [(times["queued"], 1), (times["synthesizing"], -1)]
            if "simulating" in times and "synthesizing" in times:
                synth += times["simulating"] - times["synthesizing"]
            if "done" in times and "simulating" in times:
                simulate += times["done"] - times["simulating"]
        count("serve.queue.wait_s", wait)
        count("serve.queue.synthesize_s", synth)
        count("serve.queue.simulate_s", simulate)
        depth = peak = 0
        for _, step in sorted(marks):
            depth += step
            peak = max(peak, depth)
        tracer.counters["serve.queue.depth_max"] = max(
            tracer.counters.get("serve.queue.depth_max", 0), peak)

    def finish(self) -> None:
        self.stop_daemon()


# -- explore ----------------------------------------------------------------------


class Explore(Workload):
    """Surrogate-guided exploration at ``jobs=2`` to the Pareto front."""

    name = "explore"

    def setup(self) -> None:
        from repro.api import Experiment
        from repro.dse import Axis, Space

        self.Experiment = Experiment
        self._setups += 1
        self.space = inputs.explore_space(self.seed)
        self.front: Optional[List[str]] = None
        self.stores: List[Path] = []
        self.sizes = {
            "candidates": self.space.size,
            "trials_per_campaign": inputs.EXPLORE_TRIALS,
            "jobs": 2, "sampler": "surrogate",
            "objectives": list(inputs.EXPLORE_OBJECTIVES),
            "loop": "closed, 1 caller",
        }
        # Warm-up: a one-candidate space spawns both pools once.
        tiny = Space(base=self.space.base,
                     axes=[Axis("payload", "payload", [8])],
                     derive="glossy_timing")
        Experiment(jobs=2).explore(
            tiny, sampler="grid", objectives=inputs.EXPLORE_OBJECTIVES,
            store=self.fresh_dir(f"warm-{self._setups}") / "store.jsonl")

    def op(self, index: int):
        store = self.work_dir / f"explore-{len(self.stores)}.jsonl"
        self.attempted += 1
        started = perf()
        try:
            result = self.Experiment(jobs=2).explore(
                self.space, sampler="surrogate",
                objectives=inputs.EXPLORE_OBJECTIVES, store=store)
        except Exception as exc:
            self.failed += 1
            self.problem(f"explore op {index}: {type(exc).__name__}: {exc}")
            return math.inf, 0, False, None
        latency = perf() - started
        self.stores.append(store)
        ok = True
        if result.failed:
            self.problem(f"explore op {index}: {result.failed} candidate(s) "
                         f"failed")
            ok = False
        front = sorted(c.key for c in result.front)
        if not front:
            self.problem(f"explore op {index}: empty front")
            ok = False
        if self.front is None:
            self.front = front
        elif front != self.front:
            self.problem(f"explore op {index}: front differs from op 0")
            ok = False
        if not ok:
            self.failed += 1
        return latency, result.executed, ok, result

    def check_resume(self) -> None:
        """A second pass on each finished store runs no campaign."""
        for store in self.stores[-3:]:
            again = self.Experiment(jobs=2).explore(
                self.space, sampler="surrogate",
                objectives=inputs.EXPLORE_OBJECTIVES, store=store)
            if again.executed != 0:
                self.problem(f"{store.name}: resumed pass executed "
                             f"{again.executed} campaign(s)")
            if sorted(c.key for c in again.front) != self.front:
                self.problem(f"{store.name}: resumed pass changed the front")

    def measure(self, seconds: float) -> dict:
        latencies, campaigns = [], []
        started = perf()
        index = 0
        while perf() - started < seconds:
            outcome = self.op(index)
            latencies.append(outcome[0])
            campaigns.append(outcome[1])
            index += 1
        wall = perf() - started
        self.extra["explorations"] = len(latencies)
        named = {"explore_s": median(latencies),
                 "explore_campaigns": median(campaigns)}
        return {"work_per_s": sum(campaigns) / wall,
                "p50_s": named["explore_s"], "named": named}

    def run_unit(self, index: int, unit: int, tracer=None) -> None:
        if tracer is not None:
            tracer.set_context(f"exploration-{index}")
        outcome = self.op(1000 + index)
        if tracer is not None and outcome[3] is not None:
            result = outcome[3]
            tracer.count("dse.explore.campaigns", result.executed)
            tracer.count("dse.explore.reused", result.reused)
            tracer.count("dse.pareto.front_size", len(result.front))

    def finish(self) -> None:
        self.check_resume()


WORKLOADS = {cls.name: cls for cls in (Synth, Campaign, Serve, Explore)}
