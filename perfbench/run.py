#!/usr/bin/env python3
"""Benchmark of the TTW reproduction: four user paths, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --self-check

Workloads (see ``workloads.py``): ``synth`` (scenario JSON -> verified
schedule, cold), ``campaign`` (scenario -> campaign statistics, warm),
``serve`` (``POST /jobs`` -> ``done`` against ``repro serve``) and
``explore`` (space -> Pareto front).

``--trace 0`` sets up (three times; the median counts), measures the
closed loop for ``--seconds`` with the program unmodified, checks the
outputs and prints the end-to-end metrics.  ``--trace 1`` runs every
unit of a fixed pass of work untraced and traced, prints a table
of layer self times and every per-layer metric, and writes the spans
to ``.perfbench_out/``.  The last line of standard output is always
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Solver output printed by worker processes goes to standard error.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("synth", "campaign", "serve", "explore")
perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at smoke size and confirm "
                             "every named metric prints with its unit")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def finite(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) \
        else None


# -- one workload -------------------------------------------------------------------


def timed_run(workload, seconds: float, import_s: float, lines: list):
    setups = []
    for _ in range(SETUP_REPEATS):
        started = perf()
        workload.setup()
        setups.append(perf() - started)
    if hasattr(workload, "check_equivalence"):
        workload.check_equivalence()
    measured = workload.measure(seconds)
    workload.finish()
    values = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": measured["work_per_s"],
        "p50_s": measured["p50_s"],
    }
    named = dict(measured["named"])
    lines.append(f"setup: imports {import_s:.3f} s, set-ups "
                 + ", ".join(f"{s:.3f}" for s in setups) + " s (median kept)")
    return values, named


def traced_run(workload, seconds: float, out_dir: Path, lines: list):
    import metrics as M
    from tracing import Tracer, install_layers

    workload.setup()
    tracer = Tracer(out_dir)
    overheads, traced_wall, passes = [], 0.0, 0
    started = perf()
    while len(overheads) < 3 or (perf() - started < 3 * seconds
                                 and len(overheads) < 8):
        wall = {False: 0.0, True: 0.0}
        for unit in range(workload.units):
            # Each unit runs untraced and traced back to back with the
            # same inputs, in alternating order, so drift in machine
            # speed cancels out of the overhead.
            order = (False, True) if (passes + unit) % 2 == 0 \
                else (True, False)
            for traced in order:
                workload.prepare(passes)
                instrumentation = install_layers(tracer) if traced else None
                begun = perf()
                try:
                    workload.run_unit(passes, unit,
                                      tracer if traced else None)
                finally:
                    if instrumentation is not None:
                        instrumentation.remove()
                wall[traced] += perf() - begun
        passes += 1
        traced_wall += wall[True]
        overheads.append(100.0 * (wall[True] / wall[False] - 1.0))
    workload.finish()

    totals, self_layers = M.rollup(tracer.spans, tracer.counters,
                                   tracer.leaf_s)
    worker_layers = {}
    for record in tracer.worker_records():
        worker_totals, layers = M.rollup(record["spans"], record["counters"],
                                         record["leaf_s"])
        for name, value in worker_totals.items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in layers.items():
            worker_layers[name] = worker_layers.get(name, 0.0) + value
    overhead = statistics.median(overheads)
    values = M.per_layer_values(totals, passes, overhead)

    quartiles = (statistics.quantiles(overheads, n=4)
                 if len(overheads) > 1 else [overhead] * 3)
    lines.append(
        f"trace: {passes} traced + {passes} untraced passes; "
        f"obs.trace_overhead_pct median {overhead:+.2f} %, quartiles "
        f"{quartiles[0]:+.2f} / {quartiles[2]:+.2f} %, per pair "
        + ", ".join(f"{o:+.2f}" for o in overheads))
    per_pass = traced_wall / passes
    lines.append(f"layer self time per traced pass ({per_pass:.3f} s wall):")
    lines.append(f"  {'layer':<22}{'self_s':>10}{'share':>9}")
    accounted = 0.0
    for layer, seconds_ in sorted(self_layers.items(), key=lambda kv: -kv[1]):
        accounted += seconds_ / passes
        lines.append(f"  {layer:<22}{seconds_ / passes:>10.4f}"
                     f"{100 * seconds_ / passes / per_pass:>8.1f}%")
    other = per_pass - accounted
    lines.append(f"  {'other':<22}{other:>10.4f}"
                 f"{100 * other / per_pass:>8.1f}%")
    if worker_layers:
        lines.append("  in pool worker processes (overlaps the wall above):")
        for layer, seconds_ in sorted(worker_layers.items(),
                                      key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<22}{seconds_ / passes:>10.4f}")
    for name, unit, _ in M.PER_LAYER:
        reason = M.unmeasured_reason(workload.name, name)
        note = f"   (not measured: {reason})" if reason else ""
        lines.append(f"metric {name} = {values[name]:.6g} {unit}{note}")
    tracer.dump(out_dir / "spans.jsonl", {
        "workload": workload.name, "passes": passes,
        "overheads_pct": overheads, "self_s_per_pass": {
            k: v / passes for k, v in self_layers.items()},
    })
    return values


def run_one(args) -> int:
    real_stdout = os.dup(1)
    os.dup2(2, 1)  # solver chatter from worker processes goes to stderr
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    lines: list = []
    workload = None
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    exit_code = 0
    try:
        import metrics as M
        import repro.api  # noqa: F401  (import time is part of set-up)
        import repro.dse  # noqa: F401
        import repro.mc  # noqa: F401
        import workloads

        import_s = perf() - START
        env = environment()
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            values = traced_run(workload, args.seconds, out_dir, lines)
            specs = M.PER_LAYER
            named = {}
        else:
            values, named = timed_run(workload, args.seconds, import_s, lines)
            specs = M.END_TO_END
        metrics = {name: {"value": finite(values[name]), "unit": unit}
                   for name, unit, _ in specs}
        correct = not workload.problems and all(
            m["value"] is not None for m in metrics.values())
        result = {"correct": correct,
                  "attempted": max(workload.attempted, 1),
                  "failed": workload.failed, "metrics": metrics}
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": env, "sizes": workload.sizes,
                  "extra": workload.extra, "named": named,
                  "problems": workload.problems, "result": result}
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"result-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True, default=str))
        lines.insert(0, "environment: " + json.dumps(env, sort_keys=True))
        lines.insert(1, "sizes: " + json.dumps(workload.sizes,
                                               sort_keys=True))
        for key, value in sorted(workload.extra.items()):
            lines.append(f"{key}: {json.dumps(value, default=str)}")
        for name, value in named.items():
            unit = M.NAMED[name][0]
            lines.append(f"metric {name} = {value:.6g} {unit}")
        if not args.trace:
            for name, unit, _ in M.END_TO_END:
                lines.append(f"metric {name} = {values[name]:.6g} {unit}")
        for problem in workload.problems:
            lines.append(f"CHECK FAILED: {problem}")
    except Exception as exc:  # report a broken program as incorrect
        import traceback

        traceback.print_exc()
        lines.append(f"error: {type(exc).__name__}: {exc}")
        exit_code = 1
        if workload is not None:
            try:
                workload.finish()
            except Exception:
                traceback.print_exc()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return exit_code


# -- all workloads, and the smoke-size self-check -------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines[:-1], result


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        returncode, lines, result = run_child(name, args.seed, args.seconds,
                                              args.trace)
        print(f"== {name} ==")
        for line in lines:
            print(f"  {line}")
        if returncode or result is None:
            code = 1
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return code


def self_check(args) -> int:
    sys.path.insert(0, str(HERE))
    import metrics as M

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, specs in (("end_to_end", M.END_TO_END),
                       ("per_layer", M.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in benchmark[key]]
        if declared != list(specs):
            errors.append(f"BENCHMARK.json {key} differs from metrics.py")
    printed = set()
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            returncode, lines, result = run_child(name, args.seed, 1.0, trace)
            label = f"{name} --trace {trace}"
            if returncode or result is None:
                errors.append(f"{label}: exit {returncode}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                errors.append(f"{label}: outputs not correct")
            specs = M.PER_LAYER if trace else M.END_TO_END
            for metric, unit, _ in specs:
                got = result["metrics"].get(metric)
                if not got or got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    errors.append(f"{label}: metric {metric} missing or "
                                  f"without unit {unit}")
                if not any(line.startswith(f"metric {metric} = ")
                           and line.split(" = ")[1].split()[1] == unit
                           for line in lines):
                    errors.append(f"{label}: no 'metric {metric}' line")
            for line in lines:
                if line.startswith("metric "):
                    metric, rest = line[len("metric "):].split(" = ", 1)
                    printed.add((metric, rest.split()[1]))
    for metric, (unit, _, _) in M.NAMED.items():
        if (metric, unit) not in printed:
            errors.append(f"named metric {metric} [{unit}] never printed")
    for error in errors:
        print(f"self-check: {error}")
    print("self-check: " + ("ok" if not errors else f"{len(errors)} error(s)"))
    return 1 if errors else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
