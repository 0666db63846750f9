"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``scenario run``   — run one declarative scenario file end to end
  (synthesize → verify → simulate → metrics) and optionally write the
  system image;
* ``scenario sweep`` — run many scenario files over one shared process
  pool and schedule cache and print a results table;
* ``scenario mc``   — run a Monte-Carlo campaign over a scenario file
  (``--trials/--seeds/--sweep``, see :mod:`repro.mc`) and print the
  aggregated statistics table; ``--engine fast`` (default) executes
  trials over compiled round programs, ``--engine vectorized`` batches
  all trials of a grid point into tensor programs
  (distribution-equivalent, prints the engine actually used after
  fallback), ``--engine reference`` over the object-level simulator
  (bit-identical to fast, for cross-checks);
* ``scenario explore`` — design-space exploration (see
  :mod:`repro.dse`): search a parameter space (a space file, or a
  scenario file plus ``--axis`` flags) for its Pareto-optimal
  configurations with ``--sampler
  grid|random|halton|adaptive|surrogate``, evaluating candidates
  through Monte-Carlo campaigns and printing the front table;
  ``--store FILE`` persists every evaluation (JSONL, or SQLite by
  suffix) so repeated invocations are incremental and ``--resume``
  continues an interrupted run without re-executing completed
  campaigns; ``--shards N`` fans evaluation out over a work-stealing
  pool of shard processes appending to partitioned store segments;
* ``logs`` — inspect the structured run logs ``--log-dir`` writes
  (``summarize`` / ``timeline`` / ``rollup`` / ``story``; see
  :mod:`repro.obs` and docs/OBSERVABILITY.md);
* ``store merge`` — merge partitioned store segments
  (``store.part-<n>``) into the main store, deduping by candidate key
  (newest wins) — recovers a killed distributed exploration;
* ``serve`` — run the toolkit as a long-running HTTP service (see
  :mod:`repro.serve` and docs/SERVICE.md): an async job queue with
  admission control drains submissions through the synthesis and
  Monte-Carlo fast paths, deduplicating identical work across requests
  (in-flight attachment + a shared persistent ``--store``);
* ``scenario submit`` — submit a scenario file to a running ``repro
  serve`` daemon and (by default) follow its event stream until done;
* ``verify``   — re-verify every schedule in a system file;
* ``simulate`` — execute a system file for a given duration and print
  trace statistics;
* ``figures``  — print the paper's Fig. 6 / Fig. 7 data;
* ``gantt``    — render a mode's schedule as an ASCII chart.

``scenario run|sweep|mc|explore`` accept ``--jobs N`` (speculative
parallel Algorithm 1 over N worker processes), ``--cache-dir DIR``
(persistent content-addressed schedule cache), and ``--backend NAME``
(solver backend: ``highs``, ``bnb``, ``greedy``, or any registered
name; the backend is part of the cache key).

A scenario file is the JSON image of :class:`repro.api.Scenario` (see
``Scenario.save``); every ``scenario`` command also accepts the legacy
workload spec — a ``config`` record plus a ``modes`` list::

    {
      "config": {"round_length": 50.0, "slots_per_round": 5,
                  "max_round_gap": null},
      "modes": [ { "name": ..., "applications": [...] } ]
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import (
    fig6_round_length,
    fig7_energy_savings,
    format_series,
    format_table,
    render_gantt,
)
from .api import Experiment, Scenario, ScenarioError
from .io.serialize import SerializationError, read_json_object, save_system
from .milp import available_backends
from .system import TTWSystem


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    if getattr(args, "backend", None) is not None:
        scenario = dataclasses.replace(scenario, backend=args.backend)
    if getattr(args, "time_limit", None) is not None:
        scenario = dataclasses.replace(
            scenario,
            config=dataclasses.replace(
                scenario.config, time_limit=args.time_limit
            ),
        )
    return scenario


def _print_scenario_result(result) -> int:
    """Print schedules, violations and trace stats; returns the failures."""
    failures = 0
    for name, schedule in sorted(result.schedules.items()):
        print(
            f"mode {name!r}: {schedule.num_rounds} rounds, "
            f"total latency {schedule.total_latency:.3f}"
        )
    for name, report in sorted(result.reports.items()):
        for violation in report.violations:
            print(
                f"mode {name!r}: VIOLATION {violation}", file=sys.stderr
            )
            failures += 1
    if result.trace is not None:
        trace = result.trace
        print(
            f"simulated {result.scenario.simulation.duration:g}: "
            f"delivery {trace.delivery_rate():.4f}, "
            f"on-time {trace.on_time_rate():.4f}, "
            f"chains {trace.chain_success_rate():.4f}, "
            f"collision-free {trace.collision_free}, "
            f"switches {len(trace.mode_switches)}"
        )
        if not trace.collision_free:
            failures += 1
    return failures


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = _apply_overrides(Scenario.load(args.scenario), args)
    experiment = Experiment(
        [scenario],
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        warm_start=args.warm_start,
    )
    outcome = experiment.run(simulate=not args.no_simulate)
    result = outcome.results[0]
    print(
        f"scenario {scenario.name!r}: {len(scenario.modes)} mode(s), "
        f"backend {scenario.effective_config.backend!r}"
    )
    failures = _print_scenario_result(result)
    if args.cache_dir is not None:
        print(f"engine: {outcome.stats}")
    if args.output is not None and not failures:
        save_system(
            args.output,
            scenario.modes,
            result.schedules,
            transitions=scenario.transitions,
        )
        print(f"wrote {args.output}")
    return 1 if failures else 0


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    scenarios = []
    seen: dict = {}
    for path in args.scenarios:
        scenario = _apply_overrides(Scenario.load(path), args)
        # Disambiguate duplicate names across files (common for sweeps
        # generated from one template).
        count = seen.get(scenario.name, 0)
        seen[scenario.name] = count + 1
        if count:
            scenario = dataclasses.replace(
                scenario, name=f"{scenario.name}-{count + 1}"
            )
        scenarios.append(scenario)
    experiment = Experiment(
        scenarios,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        warm_start=not args.no_warm_start,
    )
    outcome = experiment.run(simulate=not args.no_simulate)
    print(outcome.table())
    print(f"engine: {outcome.stats}")
    failures = 0
    for result in outcome:
        for name, report in sorted(result.reports.items()):
            for violation in report.violations:
                print(
                    f"{result.scenario.name} :: mode {name!r}: "
                    f"VIOLATION {violation}",
                    file=sys.stderr,
                )
                failures += 1
        if result.trace is not None and not result.trace.collision_free:
            print(
                f"{result.scenario.name} :: simulation detected collisions",
                file=sys.stderr,
            )
            failures += 1
    if args.output_dir is not None:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in outcome:
            if not result.verified or (
                result.trace is not None and not result.trace.collision_free
            ):
                continue
            out = out_dir / f"{result.scenario.name}.system.json"
            save_system(
                out,
                result.scenario.modes,
                result.schedules,
                transitions=result.scenario.transitions,
            )
            print(f"wrote {out}")
    return 1 if failures else 0


def _sweep_item(item: str) -> tuple:
    """argparse type for ``--sweep``: ``p=0,0.05`` -> ``("p", [0.0, 0.05])``."""
    name, sep, values_text = item.partition("=")
    if not sep or not name.strip() or not values_text.strip():
        raise argparse.ArgumentTypeError(
            f"expects PARAM=V1,V2,..., got {item!r}"
        )
    values = []
    for text in values_text.split(","):
        text = text.strip()
        try:
            values.append(json.loads(text))
        except json.JSONDecodeError:
            values.append(text)
    return name.strip(), values


def _seed_list(text: str) -> List[int]:
    """argparse type for ``--seeds``: comma-separated integers."""
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("expects at least one seed")
    return seeds


def _open_run_log(args: argparse.Namespace):
    """Install a run log when ``--log-dir`` was given; returns it."""
    if getattr(args, "log_dir", None) is None:
        return None
    from .obs import RunLog, set_run_log

    log = RunLog(args.log_dir)
    set_run_log(log)
    return log


def _close_run_log(log) -> None:
    if log is None:
        return
    from .obs import set_run_log

    set_run_log(None)
    log.close()
    print(f"run log: {log.path}")


def _cmd_scenario_mc(args: argparse.Namespace) -> int:
    from .analysis import flow_table
    from .mc import run_campaign

    sweep = None
    if args.sweep:
        sweep = {}
        for name, values in args.sweep:
            if name in sweep:
                print(
                    f"error: --sweep parameter {name!r} given more than "
                    f"once; list all its values in one flag",
                    file=sys.stderr,
                )
                return 2
            sweep[name] = values
    scenario = _apply_overrides(Scenario.load(args.scenario), args)
    log = _open_run_log(args)
    try:
        result = run_campaign(
            scenario,
            trials=args.trials,
            seeds=args.seeds,
            sweep=sweep,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            warm_start=not args.no_warm_start,
            engine=args.engine,
        )
    except ValueError as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _close_run_log(log)
    print(
        f"campaign {scenario.name!r}: {len(result.points)} grid point(s), "
        f"backend {scenario.effective_config.backend!r}"
    )
    used = result.engines.get(scenario.name)
    if used is not None:
        note = "" if used == args.engine else f" (requested {args.engine})"
        print(f"trial engine: {used}{note}")
    print(result.table(verbose=args.verbose))
    print(f"engine: {result.stats}")
    failures = 0
    for name, by_mode in sorted(result.reports.items()):
        for mode_name, report in sorted(by_mode.items()):
            for violation in report.violations:
                print(
                    f"{name} :: mode {mode_name!r}: VIOLATION {violation}",
                    file=sys.stderr,
                )
                failures += 1
    for point in result.points:
        if point.stats.collisions:
            print(
                f"{point.scenario} :: point {point.point}: "
                f"{point.stats.collisions} collision(s)",
                file=sys.stderr,
            )
            failures += 1
    if args.flows:
        for point in result.points:
            print(f"\n-- flows @ {point.scenario} {point.point}")
            print(flow_table(point.stats))
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _axis_item(item: str) -> tuple:
    """argparse type for ``--axis``: ``slots=1,2,5`` -> ``("slots", [...])``.

    The part before ``=`` is the axis target (a registered transform
    like ``slots``/``payload`` or a dotted path like
    ``loss.params.data_loss``); it doubles as the axis name.  Values
    parse as JSON where possible, else stay strings.
    """
    return _sweep_item(item)


def _objective_list(text: str) -> List[str]:
    """argparse type for ``--objectives``: comma-separated names."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expects at least one objective")
    return names


def _load_space_file(path: str, args: argparse.Namespace):
    """Build the exploration space from a space or scenario file."""
    from .dse import Axis, Space

    payload = read_json_object(path)
    if payload.get("kind") == "space":
        space = Space.from_dict(payload)
        base = _apply_overrides(space.base, args)
        axes = list(space.axes)
        derive = space.derive
    else:
        base = _apply_overrides(Scenario.load(path), args)
        axes = []
        derive = None
    for name, values in args.axis or []:
        # A CLI axis replaces any file axis addressing the same knob.
        # Matching by *name* keeps that axis's target (so `--axis B=2`
        # re-values a file's Axis("B", "slots", ...)); matching by
        # *target* replaces it outright (so `--axis slots=4` does not
        # silently stack a second transform onto the same field).
        target = next(
            (axis.target for axis in axes if axis.name == name), name
        )
        axes = [
            axis for axis in axes
            if axis.name != name and axis.target != target
        ]
        axes.append(Axis(name, target, values))
    if args.derive is not None:
        derive = args.derive or None  # --derive "" clears a file's deriver
    if not axes:
        raise ValueError(
            f"{path}: no axes to explore; give a space file (kind='space') "
            f"or add --axis TARGET=V1,V2,..."
        )
    return Space(base=base, axes=axes, derive=derive)


def _cmd_scenario_explore(args: argparse.Namespace) -> int:
    from .dse import explore, explore_sharded, get_sampler

    try:
        space = _load_space_file(args.space, args)
        if args.resume:
            if args.store is None:
                raise ValueError("--resume needs --store FILE")
            if not Path(args.store).exists():
                raise ValueError(
                    f"--resume: store {args.store!r} does not exist yet "
                    f"(drop --resume to start a fresh exploration)"
                )
        if args.shards > 1 and args.store is None:
            raise ValueError("--shards needs --store FILE (the shard "
                             "segments and claim table derive from it)")
        sampler = get_sampler(args.sampler, samples=args.samples,
                              seed=args.sampler_seed)
        log = _open_run_log(args)
        try:
            if args.shards > 1:
                result = explore_sharded(
                    space,
                    shards=args.shards,
                    sampler=sampler,
                    objectives=args.objectives,
                    trials=args.trials,
                    seeds=args.seeds,
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    warm_start=not args.no_warm_start,
                    store=args.store,
                    engine=args.engine,
                )
            else:
                result = explore(
                    space,
                    sampler=sampler,
                    objectives=args.objectives,
                    trials=args.trials,
                    seeds=args.seeds,
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    warm_start=not args.no_warm_start,
                    store=args.store,
                    engine=args.engine,
                )
        finally:
            _close_run_log(log)
    except ValueError as exc:  # Space/Sampler/Objective/Exploration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    front = result.front
    print(
        f"exploration {space.base.name!r}: sampler {result.sampler!r} "
        f"selected {len(result.candidates)} of {result.space_size} grid "
        f"point(s), objectives "
        f"{','.join(obj.name for obj in result.objectives)}"
        + (f", {result.shards} shard(s)" if result.shards > 1 else "")
    )
    print(
        f"executed {result.executed} campaign(s), reused {result.reused} "
        f"from store, {result.failed} failed"
    )
    if args.all:
        print(result.table())
        print()
    print(f"-- Pareto front ({len(front)} of "
          f"{len(result.candidates) - result.failed} scored candidate(s))")
    print(result.front_table())
    print(f"engine: {result.stats}")
    failures = 0
    for candidate in result.candidates:
        if candidate.error is None:
            continue
        kind = "note" if candidate.error.startswith("infeasible:") else "FAIL"
        print(
            f"{kind}: {candidate.name}: {candidate.error}", file=sys.stderr
        )
        if kind == "FAIL":
            failures += 1
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from .dse import discover_parts, merge_stores

    try:
        parts = args.parts or None
        if parts is None and not discover_parts(args.store):
            print(f"no segments to merge into {args.store}")
            return 0
        report = merge_stores(
            args.store,
            parts=parts,
            delete_parts=not args.keep_parts,
        )
    except ValueError as exc:  # StoreError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"merged {len(report.parts)} segment(s) into {report.target}: "
        f"{report.examined} record(s) examined, {report.merged} new, "
        f"{report.updated} updated, {report.ignored} already current"
    )
    for part in report.parts:
        print(f"  {part}" + ("" if args.keep_parts else " (deleted)"))
    return 0


# -- service commands --------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServiceApp, ServiceConfig

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            jobs=args.jobs,
            store=args.store,
            cache_dir=args.cache_dir,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
            max_queued=args.max_queued,
            max_inflight=args.max_inflight,
            max_trials=args.max_trials,
            trial_batch=args.trial_batch,
            engine=args.engine,
            drain_timeout=args.drain_timeout,
            log_dir=args.log_dir,
        )
        app = ServiceApp(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return app.run()


def _cmd_scenario_submit(args: argparse.Namespace) -> int:
    from .serve.client import ServiceClient, ServiceError, ServiceUnavailable

    scenario = _apply_overrides(Scenario.load(args.scenario), args)
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        job = client.submit(
            scenario,
            trials=args.trials,
            seeds=args.seeds,
            engine=args.engine,
            client=args.client,
        )
        print(
            f"job {job['id']}: {job['state']}"
            + (" (served from store)" if job.get("cached") else "")
        )
        if args.no_wait or job["state"] in ("done", "failed", "cancelled"):
            final = job
        else:
            for event in client.events(job["id"]):
                line = f"  event {event['seq']}: {event['state']}"
                if "trials_done" in event:
                    line += (
                        f" [{event['trials_done']}/"
                        f"{event.get('trials_total', '?')} trials]"
                    )
                if event.get("error"):
                    line += f" — {event['error']}"
                print(line)
            final = client.job(job["id"])
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"hint: is a daemon running? start one with "
            f"`repro serve --port <port>`",
            file=sys.stderr,
        )
        return 2
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if final["state"] == "done" and final.get("result"):
        result = final["result"]
        print(
            f"done: total latency {result.get('total_latency', 0.0):.3f}, "
            f"{result.get('rounds', 0)} round(s)"
        )
        stats = result.get("stats")
        if stats:
            delivery = stats.get("delivery") or {}
            if "rate" in delivery:
                print(f"  delivery rate: {delivery['rate']:.4f}")
            print(f"  trials: {stats.get('n_trials', 0)}")
    elif final["state"] == "failed":
        print(f"failed: {final.get('error')}", file=sys.stderr)
    if args.json is not None:
        Path(args.json).write_text(
            json.dumps(final, indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    return {"done": 0, "cancelled": 3}.get(final["state"], 1)


# -- run-log inspection ------------------------------------------------------


def _cmd_logs(args: argparse.Namespace) -> int:
    from .analysis.logs import (
        exploration_story,
        load_events,
        phase_table,
        summarize_table,
        timeline_table,
    )
    from .obs import LogError

    try:
        events = load_events(
            args.source, run=args.run, kinds=args.kind or None
        )
    except (LogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.logs_command == "summarize":
        print(f"{len(events)} event(s)")
        print(summarize_table(events))
    elif args.logs_command == "timeline":
        print(timeline_table(events, limit=args.limit))
    elif args.logs_command == "rollup":
        print(phase_table(events))
    elif args.logs_command == "story":
        story = exploration_story(events)
        print(
            f"rounds: {len(story['rounds'])} "
            f"({story['blocks_published']} block(s) published)"
        )
        print(f"shards started: {story['shards_started']}")
        print(
            f"claims: {len(story['claims'])} "
            f"({len(story['stolen'])} stolen)"
        )
        print(
            f"requeues after shard deaths: {len(story['requeues'])} "
            f"({story['blocks_requeued']} block(s))"
        )
        print(f"respawns: {len(story['respawns'])}")
        print(
            f"merges: {len(story['merges'])} "
            f"({story['executed']} campaign(s) recovered)"
        )
        for error in story["errors"]:
            print(f"shard error: {error}", file=sys.stderr)
    return 0


# -- inspection commands ------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    system = TTWSystem.load(args.system)
    reports = system.verify_all()
    failures = 0
    for name, report in sorted(reports.items()):
        status = "OK" if report.ok else f"{len(report.violations)} violation(s)"
        print(f"mode {name!r}: {status}")
        for violation in report.violations:
            print(f"  - {violation}")
            failures += 1
    return 1 if failures else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .runtime import BernoulliLoss

    system = TTWSystem.load(args.system)
    loss = None
    if args.loss > 0:
        loss = BernoulliLoss(
            beacon_loss=args.loss, data_loss=args.loss, seed=args.seed
        )
    trace = system.simulate(duration=args.duration, loss=loss)
    print(f"rounds executed:   {len(trace.rounds)}")
    print(f"collision-free:    {trace.collision_free}")
    print(f"delivery rate:     {trace.delivery_rate():.4f}")
    print(f"on-time rate:      {trace.on_time_rate():.4f}")
    print(f"chain success:     {trace.chain_success_rate():.4f}")
    return 0 if trace.collision_free else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure in ("6", "all"):
        data = fig6_round_length()
        print(f"Fig. 6: Tr [ms], payload {data.payload_bytes} B, N=2")
        headers = ["H \\ B"] + [str(b) for b in data.slots]
        rows = [[h] + [data.grid[h][b] for b in data.slots]
                for h in data.diameters]
        print(format_table(headers, rows, float_fmt="{:.1f}"))
    if args.figure in ("7", "all"):
        data = fig7_energy_savings()
        print(f"\nFig. 7: energy saving E, H={data.diameter}, N=2")
        for payload in data.payloads:
            print(format_series(f"l={payload}B", list(data.slots),
                                data.series[payload]))
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    system = TTWSystem.load(args.system)
    names = [args.mode] if args.mode else sorted(system.schedules)
    for name in names:
        if name not in system.schedules:
            print(f"unknown mode {name!r}", file=sys.stderr)
            return 1
        mode = system.mode_graph.modes[name]
        print(f"=== mode {name!r} ===")
        print(render_gantt(mode, system.schedules[name], width=args.width))
    return 0


# -- parser ------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-j", "--jobs", type=_positive_int, default=1,
                        help="parallel solver processes (default: 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent schedule cache directory")
    parser.add_argument("--backend", default=None,
                        choices=list(available_backends()),
                        help="solver backend override (cache keys include "
                             "the backend, so backends never share entries)")
    parser.add_argument("--time-limit", type=_positive_float, default=None,
                        help="per-ILP wall-clock limit in seconds (> 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TTW (DATE 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = sub.add_parser(
        "scenario", help="declarative scenario workflows (repro.api)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)

    run = scenario_sub.add_parser(
        "run", help="synthesize + verify + simulate one scenario file"
    )
    run.add_argument("scenario", help="scenario JSON (or legacy workload spec)")
    run.add_argument("-o", "--output", default=None,
                     help="write the system image (modes + schedules + "
                          "transitions) here")
    run.add_argument("--warm-start", action="store_true",
                     help="start Algorithm 1 at the demand lower bound "
                          "(slots per round, and one round per chain "
                          "hop) (default: off — the paper's exact loop)")
    run.add_argument("--no-simulate", action="store_true",
                     help="skip the scenario's simulation phase")
    _add_engine_flags(run)
    run.set_defaults(func=_cmd_scenario_run)

    sweep = scenario_sub.add_parser(
        "sweep", help="run many scenario files over one pool/cache"
    )
    sweep.add_argument("scenarios", nargs="+",
                       help="scenario JSON files (or legacy workload specs)")
    sweep.add_argument("-O", "--output-dir", default=None,
                       help="write <name>.system.json images here")
    sweep.add_argument("--no-warm-start", action="store_true",
                       help="disable the demand-bound warm start (slots "
                            "per round, one round per chain hop; sweeps "
                            "default to warm starts ON; schedules are "
                            "identical either way)")
    sweep.add_argument("--no-simulate", action="store_true",
                       help="skip all simulation phases")
    _add_engine_flags(sweep)
    sweep.set_defaults(func=_cmd_scenario_sweep)

    mc = scenario_sub.add_parser(
        "mc",
        help="Monte-Carlo campaign: trials x seeds x loss-parameter grid",
    )
    mc.add_argument("scenario", help="scenario JSON (or legacy workload spec)")
    mc.add_argument("-t", "--trials", type=_positive_int, default=None,
                    help="trials per grid point (default: the scenario's "
                         "simulation.trials)")
    mc.add_argument("--seeds", type=_seed_list, default=None,
                    help="comma-separated explicit trial seeds (override "
                         "--trials; reused at every grid point)")
    mc.add_argument("--sweep", type=_sweep_item, action="append",
                    default=None, metavar="PARAM=V1,V2,...",
                    help="sweep a loss parameter over values (repeatable; "
                         "the cartesian product is evaluated)")
    mc.add_argument("--flows", action="store_true",
                    help="also print the per-flow deadline-miss tables")
    mc.add_argument("--json", default=None, metavar="FILE",
                    help="write the aggregated statistics as JSON")
    mc.add_argument("--engine", choices=["fast", "vectorized", "reference"],
                    default="fast",
                    help="trial engine: 'fast' runs compiled round "
                         "programs (trace-free, falls back to the "
                         "reference simulator for unsupported "
                         "features); 'vectorized' batches all trials "
                         "of a grid point into tensor programs "
                         "(distribution-equivalent, falls back "
                         "vectorized->fast->reference); 'reference' "
                         "always walks the object-level simulator "
                         "(bit-identical to 'fast', mainly for "
                         "cross-checks)")
    mc.add_argument("--no-warm-start", action="store_true",
                    help="disable the demand-bound warm start (slots per "
                         "round, one round per chain hop; campaigns "
                         "default to warm starts ON; schedules are "
                         "identical either way)")
    mc.add_argument("--log-dir", default=None, metavar="DIR",
                    help="write a structured run log (JSONL event file, "
                         "see `repro logs`) into this directory")
    mc.add_argument("-v", "--verbose", action="store_true",
                    help="also print per-phase wall-clock durations "
                         "(synthesis / simulation / aggregation)")
    _add_engine_flags(mc)
    mc.set_defaults(func=_cmd_scenario_mc)

    explore = scenario_sub.add_parser(
        "explore",
        help="design-space exploration: Pareto search over a parameter "
             "space with a resumable result store (repro.dse)",
    )
    explore.add_argument(
        "space",
        help="space JSON (kind='space': base scenario + axes), or a "
             "scenario file combined with --axis flags",
    )
    explore.add_argument(
        "--axis", type=_axis_item, action="append", default=None,
        metavar="TARGET=V1,V2,...",
        help="add an axis (repeatable): TARGET is a registered transform "
             "(slots, payload, round_length, backend, policy, "
             "period_scale) or a dotted path (config.*, radio.*, "
             "simulation.*, loss.params.*); overrides a same-named axis "
             "from the space file",
    )
    explore.add_argument(
        "--derive", default=None, metavar="NAME",
        help="post-assignment deriver, e.g. 'glossy_timing' (recompute "
             "the round length from payload/diameter/slots per "
             "candidate); pass '' to clear the space file's deriver",
    )
    explore.add_argument(
        "--sampler",
        choices=["grid", "random", "halton", "adaptive", "surrogate"],
        default="grid",
        help="candidate selection: exhaustive grid (default), seeded "
             "uniform sample, low-discrepancy halton sample, the "
             "adaptive successive-halving pruner over analytic bounds, "
             "or the model-guided surrogate (ridge regression + "
             "expected improvement vs. the measured front)",
    )
    explore.add_argument(
        "--samples", type=_positive_int, default=None,
        help="candidate budget: random/halton draw size (default 16), "
             "adaptive survivor target and surrogate campaign budget "
             "(default: half the grid)",
    )
    explore.add_argument(
        "--sampler-seed", type=int, default=None,
        help="seed of the random/surrogate sampler (default 0)",
    )
    explore.add_argument(
        "--shards", type=_positive_int, default=1,
        help="fan candidate evaluation out over this many shard "
             "processes with work stealing (requires --store; each "
             "shard appends to its own store.part-<n> segment, merged "
             "back after every round; default %(default)s = in-process)",
    )
    explore.add_argument(
        "--objectives", type=_objective_list,
        default=["energy", "latency", "miss"], metavar="NAME,NAME,...",
        help="objectives spanning the Pareto front (default "
             "energy,latency,miss; see repro.dse.available_objectives)",
    )
    explore.add_argument(
        "-t", "--trials", type=_positive_int, default=None,
        help="MC trials per candidate (default: the scenario's "
             "simulation.trials)",
    )
    explore.add_argument(
        "--seeds", type=_seed_list, default=None,
        help="comma-separated explicit trial seeds, shared by every "
             "candidate (common random numbers across the space)",
    )
    explore.add_argument(
        "--store", default=None, metavar="FILE",
        help="persistent result store (SQLite for .sqlite/.db suffixes, "
             "JSONL otherwise); stored evaluations are reused, so "
             "repeated invocations are incremental",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="require an existing --store and continue it (same "
             "behavior as a plain incremental run, but fails fast when "
             "the store file is missing)",
    )
    explore.add_argument(
        "--engine", choices=["fast", "vectorized", "reference"],
        default="fast",
        help="trial engine ('fast' compiles round programs, default; "
             "'vectorized' batches trials into tensor programs, "
             "distribution-equivalent; 'reference' is bit-identical "
             "to 'fast')",
    )
    explore.add_argument(
        "--all", action="store_true",
        help="print every scored candidate, not only the Pareto front",
    )
    explore.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the exploration result (candidates, front, engine "
             "counters) as JSON",
    )
    explore.add_argument(
        "--no-warm-start", action="store_true",
        help="disable the demand-bound warm start (slots per round, one "
             "round per chain hop; explorations default to warm starts "
             "ON; schedules are identical either way)",
    )
    explore.add_argument(
        "--log-dir", default=None, metavar="DIR",
        help="write a structured run log (JSONL; shard processes append "
             "their own segments, merged at round barriers — see "
             "`repro logs`) into this directory",
    )
    _add_engine_flags(explore)
    explore.set_defaults(func=_cmd_scenario_explore)

    submit = scenario_sub.add_parser(
        "submit",
        help="submit a scenario to a running `repro serve` daemon and "
             "follow its event stream",
    )
    submit.add_argument("scenario",
                        help="scenario JSON (or legacy workload spec)")
    submit.add_argument("--url", default="http://127.0.0.1:8080",
                        help="daemon base URL (default %(default)s)")
    submit.add_argument("-t", "--trials", type=_positive_int, default=None,
                        help="trials (default: the scenario's "
                             "simulation.trials)")
    submit.add_argument("--seeds", type=_seed_list, default=None,
                        help="comma-separated explicit trial seeds "
                             "(override --trials)")
    submit.add_argument("--engine",
                        choices=["fast", "vectorized", "reference"],
                        default=None,
                        help="trial engine override (default: the "
                             "daemon's --engine)")
    submit.add_argument("--client", default=None,
                        help="client label shown in the daemon's job list")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return immediately "
                             "instead of streaming events")
    submit.add_argument("--timeout", type=_positive_float, default=300.0,
                        help="per-request socket timeout in seconds "
                             "(default %(default)s)")
    submit.add_argument("--json", default=None, metavar="FILE",
                        help="write the final job record as JSON")
    submit.add_argument("--backend", default=None,
                        choices=list(available_backends()),
                        help="solver backend override")
    submit.add_argument("--time-limit", type=_positive_float, default=None,
                        help="per-ILP wall-clock limit in seconds (> 0)")
    submit.set_defaults(func=_cmd_scenario_submit)

    serve = sub.add_parser(
        "serve",
        help="run the toolkit as a long-running HTTP service with an "
             "async job queue, admission control, and cross-request "
             "dedup (repro.serve; see docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port; 0 picks a free one, printed on "
                            "the 'listening on' line (default %(default)s)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="queue worker threads = concurrent executions "
                            "(default %(default)s)")
    serve.add_argument("-j", "--jobs", type=_positive_int, default=1,
                       help="trial worker processes in the resident pool; "
                            "1 runs trials in the worker thread "
                            "(default %(default)s)")
    serve.add_argument("--store", default=None, metavar="FILE",
                       help="persistent result store (SQLite for "
                            ".sqlite/.db suffixes, JSONL otherwise); "
                            "shared with `scenario explore --store`, and "
                            "the daemon resumes from it after a restart")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent schedule cache directory shared "
                            "by all requests")
    serve.add_argument("--cache-entries", type=_positive_int, default=None,
                       help="schedule-cache LRU bound: max entries")
    serve.add_argument("--cache-bytes", type=_positive_int, default=None,
                       help="schedule-cache LRU bound: max total bytes")
    serve.add_argument("--max-queued", type=_positive_int, default=64,
                       help="admission: executions allowed to wait before "
                            "submissions get HTTP 429 (default %(default)s)")
    serve.add_argument("--max-inflight", type=_positive_int, default=None,
                       help="executions running at once (default: "
                            "--workers)")
    serve.add_argument("--max-trials", type=_positive_int, default=100_000,
                       help="admission: per-job trial budget; bigger "
                            "requests get HTTP 429 (default %(default)s)")
    serve.add_argument("--trial-batch", type=_positive_int, default=16,
                       help="trials per execution batch — the progress "
                            "and cancellation granularity "
                            "(default %(default)s)")
    serve.add_argument("--engine",
                       choices=["fast", "vectorized", "reference"],
                       default="fast",
                       help="default trial engine for submissions that "
                            "name none (default %(default)s)")
    serve.add_argument("--drain-timeout", type=_positive_float, default=60.0,
                       help="seconds a graceful shutdown waits for "
                            "admitted jobs (default %(default)s)")
    serve.add_argument("--log-dir", default=None, metavar="DIR",
                       help="write a structured run log (JSONL event "
                            "file, see `repro logs`) for the daemon's "
                            "lifetime into this directory")
    serve.set_defaults(func=_cmd_serve)

    verify = sub.add_parser("verify", help="verify a system file")
    verify.add_argument("system")
    verify.set_defaults(func=_cmd_verify)

    simulate = sub.add_parser("simulate", help="execute a system file")
    simulate.add_argument("system")
    simulate.add_argument("-d", "--duration", type=float, default=1000.0)
    simulate.add_argument("--loss", type=float, default=0.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.set_defaults(func=_cmd_simulate)

    figures = sub.add_parser("figures", help="print Fig. 6/7 data")
    figures.add_argument("figure", choices=["6", "7", "all"], default="all",
                         nargs="?")
    figures.set_defaults(func=_cmd_figures)

    gantt = sub.add_parser("gantt", help="ASCII schedule chart")
    gantt.add_argument("system")
    gantt.add_argument("-m", "--mode", default=None)
    gantt.add_argument("-w", "--width", type=int, default=72)
    gantt.set_defaults(func=_cmd_gantt)

    store = sub.add_parser(
        "store",
        help="result-store maintenance (repro.dse stores)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    merge = store_sub.add_parser(
        "merge",
        help="merge partitioned store segments (store.part-<n>) into "
             "the main store, deduping by candidate key (newest wins) "
             "— recovers the completed work of a killed distributed "
             "exploration",
    )
    merge.add_argument(
        "store", metavar="STORE",
        help="the main result store (JSONL or SQLite by suffix); "
             "created if missing",
    )
    merge.add_argument(
        "parts", nargs="*", metavar="PART",
        help="segment files to merge (default: every "
             "<stem>.part-<n><suffix> sibling of STORE)",
    )
    merge.add_argument(
        "--keep-parts", action="store_true",
        help="leave the segment files in place (default: delete each "
             "segment after a successful merge)",
    )
    merge.set_defaults(func=_cmd_store_merge)

    logs = sub.add_parser(
        "logs",
        help="inspect structured run logs written by --log-dir "
             "(repro.obs; see docs/OBSERVABILITY.md)",
    )
    logs_sub = logs.add_subparsers(dest="logs_command", required=True)

    def _add_logs_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "source",
            help="a run-log file (unmerged .part-* segments are picked "
                 "up automatically) or a directory of *.jsonl logs",
        )
        command.add_argument(
            "--run", default=None, metavar="RUN_ID",
            help="only events of this run id",
        )
        command.add_argument(
            "--kind", action="append", default=None, metavar="KIND",
            help="only events of this kind (repeatable)",
        )
        command.set_defaults(func=_cmd_logs)

    summarize = logs_sub.add_parser(
        "summarize",
        help="one row per event kind: count, writers, first/last offset",
    )
    _add_logs_flags(summarize)
    timeline = logs_sub.add_parser(
        "timeline",
        help="globally ordered event table with offsets from the first "
             "event",
    )
    _add_logs_flags(timeline)
    timeline.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="show at most N events (default: all)",
    )
    rollup = logs_sub.add_parser(
        "rollup",
        help="per-phase duration rollup from timed-span events "
             "(synthesize / verify / simulate / aggregate)",
    )
    _add_logs_flags(rollup)
    story = logs_sub.add_parser(
        "story",
        help="reconstruct a sharded exploration from its events: rounds "
             "published, blocks claimed/stolen, requeues, respawns, "
             "merges",
    )
    _add_logs_flags(story)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C: every process pool has already stopped on the way up
        # (its workers ignore SIGINT and are terminated, not awaited),
        # so no worker tracebacks land on the terminal — just report
        # and exit with the interactive-interrupt convention.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # `repro ... | head` closed the pipe; exit quietly (the
        # conventional 128 + SIGPIPE code) without a traceback.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 141
    except (
        ScenarioError,
        SerializationError,
        json.JSONDecodeError,
        FileNotFoundError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
