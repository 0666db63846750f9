"""The synthesis pool's lifecycle: warm workers and an unawaited tail.

:mod:`repro.engine.parallel` loads the solver in the parent right before
its pool forks, so no worker imports scipy inside its first solve; and a
batch whose searches are all done terminates the superseded solves
still running instead of waiting for results it would discard.  The
solver is loaded only on that path, never at import time.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.engine.parallel as parallel
from repro.core import Mode, SchedulingConfig, synthesize
from repro.core.synthesis import demand_round_bound
from repro.workloads import closed_loop_pipeline

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_script(source: str, *args: str) -> str:
    """Run ``source`` in a fresh interpreter; its standard output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Each worker records the modules its first solve imported, one JSON
# file per worker process in the directory sys.argv[2] names.
_FIRST_SOLVE_SCRIPT = '''
    import json
    import os
    import sys

    import repro.engine.parallel as parallel
    from repro.core import Mode, SchedulingConfig
    from repro.workloads import closed_loop_pipeline

    real_solve = parallel._solve_round_task
    first = [True]


    def recording_solve(mode_data, config_data, num_rounds):
        if not first[0]:
            return real_solve(mode_data, config_data, num_rounds)
        first[0] = False
        before = set(sys.modules)
        result = real_solve(mode_data, config_data, num_rounds)
        path = os.path.join(sys.argv[2], str(os.getpid()))
        with open(path, "w") as out:
            json.dump(sorted(set(sys.modules) - before), out)
        return result


    parallel._solve_round_task = recording_solve  # forked workers inherit
    config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                              max_round_gap=None, backend=sys.argv[1])
    problems = [
        (Mode(f"m{i}", [closed_loop_pipeline(
            f"p{i}", period=40, deadline=40, num_hops=2)]), config)
        for i in range(3)
    ]
    print(json.dumps(any(name.startswith("scipy") for name in sys.modules)))
    parallel.synthesize_batch(problems, jobs=2)
'''


class TestWarmWorkers:
    @pytest.mark.parametrize("backend", ["highs", "greedy", "bnb"])
    def test_first_solve_imports_no_scipy(self, tmp_path, backend):
        out = run_script(_FIRST_SOLVE_SCRIPT, backend, str(tmp_path))
        assert json.loads(out) is False  # nothing loaded scipy earlier
        records = list(tmp_path.iterdir())
        assert records, "no worker solved anything"
        for record in records:
            imported = json.loads(record.read_text())
            assert not [name for name in imported
                        if name.startswith("scipy")], imported


def test_import_loads_no_solver():
    """Every entry package stays scipy-free: the solver loads only on
    the way to a synthesis pool (or a solve)."""
    out = run_script('''
        import json
        import sys

        import repro, repro.api, repro.cli, repro.dse, repro.engine
        import repro.mc, repro.serve

        print(json.dumps(sorted(name for name in sys.modules
                                if name.startswith("scipy"))))
    ''')
    assert json.loads(out) == []


# -- superseded speculation ----------------------------------------------------

_REAL_SOLVE = parallel._solve_round_task

# The stand-in solve's round-minimal ``R*`` ("optimum") and the directory
# where it marks each superseded solve it starts ("markers"); set before
# the pool forks, so the workers inherit them.
_TAIL = {}


def _slow_above_optimum(mode_data, config_data, num_rounds):
    """Solve normally up to ``R*``; above it, sleep past any test bound."""
    if num_rounds > _TAIL["optimum"]:
        Path(_TAIL["markers"], str(num_rounds)).touch()
        time.sleep(20)
    return _REAL_SOLVE(mode_data, config_data, num_rounds)


class TestSupersededSolves:
    def test_batch_does_not_await_superseded_solves(self, tmp_path,
                                                    monkeypatch):
        mode = Mode("tail", [
            closed_loop_pipeline("a", period=10, deadline=10, num_hops=1),
            closed_loop_pipeline("b", period=20, deadline=20, num_hops=1),
        ])
        config = SchedulingConfig(round_length=1.0, slots_per_round=2,
                                  max_round_gap=None)
        expected = synthesize(mode, config, warm_start=True)
        # The demand bound is already R*, so the first two solves in
        # flight are R* and R* + 1: the second is superseded speculation.
        assert demand_round_bound(mode, config) == expected.num_rounds
        monkeypatch.setitem(_TAIL, "optimum", expected.num_rounds)
        monkeypatch.setitem(_TAIL, "markers", str(tmp_path))
        monkeypatch.setattr(parallel, "_solve_round_task",
                            _slow_above_optimum)
        before = set(multiprocessing.active_children())
        started = time.monotonic()
        got, = parallel.synthesize_batch([(mode, config)], jobs=2)
        assert time.monotonic() - started < 10
        assert list(tmp_path.iterdir()), "no superseded solve started"
        assert got.num_rounds == expected.num_rounds
        assert got.total_latency == pytest.approx(expected.total_latency)
        assert [(it.num_rounds, it.feasible)
                for it in got.solve_stats.iterations] == [
            (it.num_rounds, it.feasible)
            for it in expected.solve_stats.iterations
        ]
        assert set(multiprocessing.active_children()) - before == set()
