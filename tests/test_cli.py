"""Tests of the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import Mode, SchedulingConfig, synthesize
from repro.io import mode_to_dict
from repro.system import TTWSystem
from repro.workloads import closed_loop_pipeline


@pytest.fixture
def workload_file(tmp_path):
    mode = Mode("normal", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
    ])
    spec = {
        "config": {"round_length": 1.0, "slots_per_round": 5,
                   "max_round_gap": None},
        "modes": [mode_to_dict(mode)],
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def system_file(tmp_path):
    config = SchedulingConfig(round_length=1.0, slots_per_round=5,
                              max_round_gap=None)
    system = TTWSystem(config)
    system.add_mode(Mode("normal", [
        closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
    ]))
    system.synthesize_all()
    path = tmp_path / "system.json"
    system.save(path)
    return path


class TestSynth:
    """`scenario run` synthesizes a legacy workload spec to a system file."""

    def test_synth_writes_system(self, workload_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["scenario", "run", str(workload_file), "-o", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "rounds" in captured

    def test_synth_warm_start(self, workload_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["scenario", "run", str(workload_file), "-o", str(out),
                     "--warm-start"]) == 0

    def test_missing_file(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["scenario", "run", str(tmp_path / "nope.json"),
                     "-o", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCache:
    def test_second_run_hits_cache(self, workload_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["scenario", "run", str(workload_file), "-o", str(out1),
                     "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert "1 miss(es)" in first

        assert main(["scenario", "run", str(workload_file), "-o", str(out2),
                     "--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "1 hit(s)" in second
        assert "solver runs: 0" in second
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())


class TestBatch:
    """`scenario sweep` over legacy workload specs: one pool and cache,
    one system file per spec."""

    def test_batch_two_workloads(self, workload_file, tmp_path, capsys):
        other = Mode("other", [
            closed_loop_pipeline("b", period=40, deadline=40, num_hops=1),
        ])
        spec = {
            "config": {"round_length": 1.0, "slots_per_round": 5,
                       "max_round_gap": None},
            "modes": [mode_to_dict(other)],
        }
        second_file = tmp_path / "workload2.json"
        second_file.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["scenario", "sweep", str(workload_file),
                     str(second_file), "-O", str(out_dir), "-j", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr().out
        assert "synthesized 2 mode(s)" in captured
        assert (out_dir / "workload.system.json").exists()
        assert (out_dir / "workload2.system.json").exists()
        # Both outputs are loadable, verifiable system files.
        for stem in ("workload", "workload2"):
            system = TTWSystem.load(out_dir / f"{stem}.system.json")
            assert all(r.ok for r in system.verify_all().values())

    def test_batch_same_stem_does_not_overwrite(self, workload_file, tmp_path):
        twin_dir = tmp_path / "twin"
        twin_dir.mkdir()
        other = Mode("other", [
            closed_loop_pipeline("b", period=40, deadline=40, num_hops=1),
        ])
        spec = {
            "config": {"round_length": 1.0, "slots_per_round": 5,
                       "max_round_gap": None},
            "modes": [mode_to_dict(other)],
        }
        twin = twin_dir / workload_file.name  # same basename, other dir
        twin.write_text(json.dumps(spec))
        out_dir = tmp_path / "out"
        assert main(["scenario", "sweep", str(workload_file), str(twin),
                     "-O", str(out_dir)]) == 0
        first = TTWSystem.load(out_dir / "workload.system.json")
        second = TTWSystem.load(out_dir / "workload-2.system.json")
        assert set(first.schedules) == {"normal"}
        assert set(second.schedules) == {"other"}

    def test_batch_duplicate_mode_names_rejected(self, tmp_path, capsys):
        mode = Mode("twice", [
            closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
        ])
        spec = {
            "config": {"round_length": 1.0, "slots_per_round": 5,
                       "max_round_gap": None},
            "modes": [mode_to_dict(mode), mode_to_dict(mode)],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", "sweep", str(path),
                     "-O", str(tmp_path / "out")]) == 2
        assert "duplicate mode names" in capsys.readouterr().err

    def test_batch_dedupes_identical_problems(self, workload_file, tmp_path,
                                              capsys):
        out_dir = tmp_path / "out"
        assert main(["scenario", "sweep", str(workload_file),
                     str(workload_file), "-O", str(out_dir)]) == 0
        captured = capsys.readouterr().out
        # Same file listed twice: both outputs exist, but the identical
        # problem was synthesized only once.
        assert (out_dir / "workload.system.json").exists()
        assert (out_dir / "workload-2.system.json").exists()
        assert "synthesized 1 mode(s)" in captured

    def test_batch_honors_backend_flag(self, workload_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["scenario", "sweep", str(workload_file),
                     "-O", str(out_dir), "--backend", "greedy"]) == 0
        capsys.readouterr()
        system = TTWSystem.load(out_dir / "workload.system.json")
        assert system.schedules["normal"].config.backend == "greedy"

    def test_jobs_zero_rejected(self, workload_file, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "run", str(workload_file), "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err


class TestVerify:
    def test_valid_system_passes(self, system_file, capsys):
        assert main(["verify", str(system_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corrupted_system_fails(self, system_file, capsys):
        data = json.loads(system_file.read_text())
        sched = data["schedules"]["normal"]
        first_task = next(iter(sched["task_offsets"]))
        sched["task_offsets"][first_task] = 999.0
        system_file.write_text(json.dumps(data))
        assert main(["verify", str(system_file)]) == 1
        assert "violation" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_clean(self, system_file, capsys):
        assert main(["simulate", str(system_file), "-d", "200"]) == 0
        out = capsys.readouterr().out
        assert "collision-free:    True" in out
        assert "delivery rate:     1.0000" in out

    def test_simulate_with_loss(self, system_file, capsys):
        assert main(["simulate", str(system_file), "-d", "500",
                     "--loss", "0.2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "collision-free:    True" in out


class TestFigures:
    def test_fig6(self, capsys):
        assert main(["figures", "6"]) == 0
        assert "Fig. 6" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["figures", "7"]) == 0
        assert "Fig. 7" in capsys.readouterr().out

    def test_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out and "Fig. 7" in out


class TestGantt:
    def test_gantt_renders(self, system_file, capsys):
        assert main(["gantt", str(system_file)]) == 0
        out = capsys.readouterr().out
        assert "net" in out
        assert "R" in out

    def test_unknown_mode(self, system_file, capsys):
        assert main(["gantt", str(system_file), "-m", "ghost"]) == 1


@pytest.fixture
def scenario_file(tmp_path):
    from repro.api import LossSpec, Scenario, SimulationSpec

    scenario = Scenario(
        name="clitest",
        modes=[
            Mode("normal", [
                closed_loop_pipeline("a", period=20, deadline=20, num_hops=1),
            ]),
            Mode("emergency", [
                closed_loop_pipeline("b", period=10, deadline=10, num_hops=1),
            ]),
        ],
        config=SchedulingConfig(round_length=1.0, slots_per_round=5,
                                max_round_gap=None),
        transitions=[("normal", "emergency")],
        loss=LossSpec("bernoulli", {"beacon_loss": 0.05, "data_loss": 0.05,
                                    "seed": 7}),
        simulation=SimulationSpec(duration=300.0,
                                  mode_requests=((40.0, "emergency"),)),
    )
    path = tmp_path / "clitest.scenario.json"
    scenario.save(path)
    return path


class TestScenarioRun:
    def test_run_scenario_file(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "sys.json"
        assert main(["scenario", "run", str(scenario_file),
                     "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "scenario 'clitest'" in captured
        assert "rounds" in captured
        assert "collision-free True" in captured
        assert out.exists()
        # The image restores the mode graph, transitions included.
        system = TTWSystem.load(out)
        assert system.mode_graph.can_switch("normal", "emergency")

    def test_run_accepts_legacy_workload(self, workload_file, capsys):
        assert main(["scenario", "run", str(workload_file)]) == 0
        assert "rounds" in capsys.readouterr().out

    def test_run_backend_override(self, scenario_file, capsys):
        assert main(["scenario", "run", str(scenario_file),
                     "--backend", "greedy", "--no-simulate"]) == 0
        assert "backend 'greedy'" in capsys.readouterr().out

    def test_run_bit_identical_to_legacy_synthesize_all(
        self, scenario_file, tmp_path, capsys
    ):
        """Acceptance: `scenario run` == TTWSystem.synthesize_all()."""
        from repro.api import Scenario
        from repro.io import schedule_to_dict

        out = tmp_path / "cli.system.json"
        assert main(["scenario", "run", str(scenario_file),
                     "-o", str(out), "--no-simulate"]) == 0
        capsys.readouterr()
        cli_system = TTWSystem.load(out)

        scenario = Scenario.load(scenario_file)
        legacy = TTWSystem(scenario.config)
        for mode in scenario.modes:
            legacy.add_mode(mode)
        schedules = legacy.synthesize_all()
        for name, schedule in schedules.items():
            assert schedule_to_dict(schedule) == schedule_to_dict(
                cli_system.schedules[name]
            )

    def test_missing_file(self, tmp_path, capsys):
        assert main(["scenario", "run", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_not_a_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": "else"}))
        assert main(["scenario", "run", str(bad)]) == 2
        assert "neither a scenario file" in capsys.readouterr().err


FILE_COMMANDS = [
    ["scenario", "run"],
    ["scenario", "sweep"],
    ["scenario", "mc"],
    ["scenario", "explore"],
    # The file is rejected before any request reaches this URL.
    ["scenario", "submit", "--url", "http://127.0.0.1:9"],
    ["verify"],
    ["simulate"],
    ["gantt"],
]


class TestMalformedInputFiles:
    """Every file-reading command maps bad JSON to `error:` + exit 2."""

    @pytest.mark.parametrize("payload, message", [
        ("[]", "expected a JSON object, got list"),
        ('"x"', "expected a JSON object, got str"),
        ("3", "expected a JSON object, got int"),
        ("null", "expected a JSON object, got NoneType"),
        ("{not json", "not valid JSON"),
    ])
    @pytest.mark.parametrize(
        "command", FILE_COMMANDS, ids=lambda command: "-".join(command[:2])
    )
    def test_bad_json_file(self, command, payload, message, tmp_path,
                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(command + [str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert "Traceback" not in err

    def test_infinite_duration_is_a_clean_error(self, scenario_file,
                                                tmp_path, capsys):
        """``"duration": Infinity`` used to simulate forever."""
        data = json.loads(scenario_file.read_text())
        data["simulation"]["duration"] = float("inf")
        bad = tmp_path / "forever.scenario.json"
        bad.write_text(json.dumps(data))
        assert "Infinity" in bad.read_text()
        assert main(["scenario", "mc", str(bad), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "simulation.duration" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key, value, path", [
        ("simulation", "mode_requests", [["x", "emergency"]],
         "simulation.mode_requests[0][0]"),
        ("simulation", "mode_requests", [[1]], "simulation.mode_requests[0]"),
        ("simulation", "mode_requests", [[1, "emergency", 3]],
         "simulation.mode_requests[0]"),
        (None, "transitions", [["normal"]], "transitions[0]"),
        (None, "transitions", [["normal", "emergency", "x"]],
         "transitions[0]"),
    ], ids=["request-time-x", "request-short", "request-long",
            "transition-short", "transition-long"])
    def test_malformed_pair_is_a_clean_error(self, scenario_file, tmp_path,
                                             capsys, section, key, value,
                                             path):
        """These used to crash in ``float()`` or tuple unpacking with a
        ``ValueError`` traceback, before validation ran."""
        data = json.loads(scenario_file.read_text())
        (data[section] if section else data)[key] = value
        bad = tmp_path / "pair.scenario.json"
        bad.write_text(json.dumps(data))
        assert main(["scenario", "mc", str(bad), "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("transitions, path", [
        ([["normal"]], "transitions[0]"),
        ([["normal", "normal"], ["normal", "normal", "x"]], "transitions[1]"),
        ([["normal", 3]], "transitions[0]"),
        ("normal", "transitions"),
    ], ids=["short", "long", "non-string", "not-an-array"])
    @pytest.mark.parametrize("command", [
        ["verify"], ["simulate", "-d", "40"],
    ], ids=["verify", "simulate"])
    def test_malformed_system_transition_is_a_clean_error(
        self, system_file, tmp_path, capsys, command, transitions, path
    ):
        """A system file's pairs used to crash in the tuple unpacking of
        ``load_system_image`` with a ``ValueError`` traceback."""
        data = json.loads(system_file.read_text())
        data["transitions"] = transitions
        bad = tmp_path / "pair.system.json"
        bad.write_text(json.dumps(data))
        assert main(command + [str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{path} must be" in err
        assert "Traceback" not in err

    def test_legacy_spec_missing_field(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"config": {"round_length": 1.0},
                                    "modes": []}))
        assert main(["scenario", "run", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "malformed workload spec" in err
        assert "slots_per_round" in err


class TestScenarioSweep:
    def test_sweep_two_files_shares_cache(self, scenario_file, workload_file,
                                          tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["scenario", "sweep", str(scenario_file),
                     str(workload_file), "-O", str(out_dir),
                     "--cache-dir", str(tmp_path / "cache"), "-j", "2"]) == 0
        captured = capsys.readouterr().out
        assert "scenario" in captured and "total_latency" in captured
        assert "engine:" in captured
        assert (out_dir / "clitest.system.json").exists()
        assert (out_dir / "workload.system.json").exists()

    def test_sweep_disambiguates_duplicate_names(self, scenario_file,
                                                 tmp_path, capsys):
        assert main(["scenario", "sweep", str(scenario_file),
                     str(scenario_file), "--no-simulate"]) == 0
        captured = capsys.readouterr().out
        assert "clitest-2" in captured


class TestScenarioMc:
    def test_mc_prints_campaign_table(self, scenario_file, capsys):
        assert main(["scenario", "mc", str(scenario_file),
                     "--trials", "2", "--backend", "greedy"]) == 0
        out = capsys.readouterr().out
        assert "grid point(s)" in out
        assert "miss" in out
        assert "engine:" in out

    def test_mc_sweep_and_json_output(self, scenario_file, tmp_path, capsys):
        out_json = tmp_path / "stats.json"
        assert main(["scenario", "mc", str(scenario_file),
                     "--trials", "2", "--backend", "greedy",
                     "--sweep", "data_loss=0,0.1",
                     "--json", str(out_json)]) == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert len(payload["points"]) == 2
        assert payload["points"][0]["point"] == {"data_loss": 0}
        assert payload["ok"] is True

    def test_mc_explicit_seeds_and_flows(self, scenario_file, capsys):
        assert main(["scenario", "mc", str(scenario_file),
                     "--seeds", "1,2,3", "--backend", "greedy",
                     "--flows"]) == 0
        out = capsys.readouterr().out
        assert "flow" in out
        assert "miss rate" in out

    def test_mc_rejects_bad_sweep(self, scenario_file, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "mc", str(scenario_file), "--sweep", "oops"])

    def test_mc_rejects_duplicate_sweep_parameter(self, scenario_file,
                                                  capsys):
        assert main(["scenario", "mc", str(scenario_file),
                     "--backend", "greedy",
                     "--sweep", "data_loss=0,0.05",
                     "--sweep", "data_loss=0.1"]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_mc_unknown_sweep_parameter_fails_cleanly(self, scenario_file,
                                                      capsys):
        assert main(["scenario", "mc", str(scenario_file),
                     "--backend", "greedy", "--trials", "1",
                     "--sweep", "nope=1,2"]) == 2
        assert "unknown parameter" in capsys.readouterr().err


@pytest.fixture
def space_file(tmp_path):
    from repro.api import LossSpec, RadioSpec, Scenario, SimulationSpec
    from repro.dse import Axis, Space

    base = Scenario(
        name="clidse",
        modes=[Mode("normal", [
            closed_loop_pipeline("loop", period=2000.0, deadline=2000.0,
                                 num_hops=2, wcet=1.0),
        ])],
        config=SchedulingConfig(round_length=50.0, slots_per_round=5,
                                max_round_gap=None, backend="greedy"),
        radio=RadioSpec(payload_bytes=10, diameter=4),
        loss=LossSpec("bernoulli", {"beacon_loss": 0.0, "data_loss": 0.0,
                                    "seed": 1}),
        simulation=SimulationSpec(duration=4000.0, trials=2, seed=7),
    )
    space = Space(base=base, axes=[
        Axis("B", "slots", [1, 2, 5]),
        Axis("payload", "payload", [8, 32]),
    ], derive="glossy_timing")
    path = tmp_path / "clidse.space.json"
    space.save(path)
    return path


class TestScenarioExplore:
    def test_explore_space_file_prints_front(self, space_file, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--objectives", "energy_saving,latency"]) == 0
        captured = capsys.readouterr().out
        assert "sampler 'grid' selected 6 of 6" in captured
        assert "Pareto front" in captured
        assert "energy_saving" in captured and "latency" in captured

    def test_explore_store_makes_reruns_incremental(self, space_file,
                                                    tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        argv = ["scenario", "explore", str(space_file),
                "--objectives", "energy_saving,latency",
                "--store", str(store)]
        assert main(argv) == 0
        assert "executed 6 campaign(s), reused 0" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert "executed 0 campaign(s), reused 6" in capsys.readouterr().out

    def test_explore_resume_requires_existing_store(self, space_file,
                                                    tmp_path, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--store", str(tmp_path / "missing.jsonl"),
                     "--resume"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_explore_a_scenario_file_plus_axis_flags(self, scenario_file,
                                                     capsys):
        assert main(["scenario", "explore", str(scenario_file),
                     "--axis", "slots=2,5", "--backend", "greedy",
                     "--trials", "1",
                     "--objectives", "latency,miss", "--all"]) == 0
        captured = capsys.readouterr().out
        assert "selected 2 of 2" in captured
        assert "front" in captured

    def test_explore_axis_flag_overrides_same_target_file_axis(
        self, space_file, capsys
    ):
        # The space file names the slots axis "B"; a CLI --axis
        # addressing the same *target* must replace it, not stack a
        # second transform over the same field (which would multiply
        # the grid with no-op duplicates).
        assert main(["scenario", "explore", str(space_file),
                     "--axis", "slots=2",
                     "--objectives", "energy_saving,latency"]) == 0
        captured = capsys.readouterr().out
        assert "selected 2 of 2" in captured  # payload axis x 1, not 6
        assert "slots" in captured and " B " not in captured

    def test_explore_axis_flag_overrides_file_axis_by_name(
        self, space_file, capsys
    ):
        # `--axis B=2` must re-value the file's Axis("B", "slots", ...)
        # — the override keeps the matched axis's target, so users can
        # address the axis by the name every table prints.
        assert main(["scenario", "explore", str(space_file),
                     "--axis", "B=2",
                     "--objectives", "energy_saving,latency"]) == 0
        captured = capsys.readouterr().out
        assert "selected 2 of 2" in captured  # payload axis x pinned B

    def test_explore_candidate_without_simulation_is_clean_error(
        self, space_file, capsys
    ):
        # Nulling the simulation via a whole-field axis must be the
        # CLI's `error:` + exit 2, not an AssertionError traceback.
        assert main(["scenario", "explore", str(space_file),
                     "--axis", "simulation=null",
                     "--objectives", "latency"]) == 2
        assert "SimulationSpec" in capsys.readouterr().err

    def test_explore_adaptive_sampler(self, space_file, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--sampler", "adaptive",
                     "--objectives", "energy_saving,latency"]) == 0
        assert "sampler 'adaptive' selected 3 of 6" in \
            capsys.readouterr().out

    def test_explore_without_axes_is_an_error(self, scenario_file, capsys):
        assert main(["scenario", "explore", str(scenario_file)]) == 2
        assert "no axes to explore" in capsys.readouterr().err

    def test_explore_unknown_objective_is_an_error(self, space_file, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--objectives", "nonsense"]) == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_explore_json_output(self, space_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["scenario", "explore", str(space_file),
                     "--objectives", "energy_saving,latency",
                     "--sampler", "random", "--samples", "2",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["space_size"] == 6
        assert len(payload["candidates"]) == 2
        assert payload["front"]


class TestSweepCompatibility:
    """`scenario sweep` prints exactly the table of the equivalent
    :class:`repro.api.Experiment`."""

    def test_sweep_output_matches_experiment_table(self, scenario_file,
                                                   workload_file, capsys):
        from repro.api import Experiment, Scenario

        assert main(["scenario", "sweep", str(scenario_file),
                     str(workload_file), "--no-simulate"]) == 0
        cli_out = capsys.readouterr().out

        experiment = Experiment([
            Scenario.load(scenario_file),
            Scenario.load(workload_file),
        ])
        expected = experiment.run(simulate=False).table()
        assert expected in cli_out

    def test_sweep_emits_no_deprecation_warning(self, scenario_file,
                                                recwarn, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(["scenario", "sweep", str(scenario_file),
                         "--no-simulate"]) == 0
        capsys.readouterr()


class TestInterrupt:
    """Ctrl-C must exit 130 cleanly — no worker tracebacks (serve PR)."""

    def scenario_path(self, tmp_path):
        from tests.serve.conftest import make_scenario

        scenario = make_scenario("interruptible")
        path = tmp_path / "interruptible.scenario.json"
        scenario.save(path)
        return path

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_mc_sigint_exits_130_without_tracebacks(self, tmp_path, jobs):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        path = self.scenario_path(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "scenario", "mc",
             str(path), "--trials", "2000000", "--jobs", jobs],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            time.sleep(2.0)  # let it get into the trial loop
            assert proc.poll() is None, "campaign finished too early"
            os.kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130, (out, err)
        assert "interrupted" in err
        assert "Traceback" not in err
        assert "Traceback" not in out

    def test_keyboard_interrupt_maps_to_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def boom(args):
            raise KeyboardInterrupt

        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        args = parser.parse_args(["figures", "6"])
        monkeypatch.setattr(args, "func", boom, raising=False)
        monkeypatch.setattr(
            parser, "parse_args", lambda argv=None: args
        )
        assert cli.main(["figures", "6"]) == 130
        assert "interrupted" in capsys.readouterr().err


QUICKSTART = (Path(__file__).resolve().parents[1]
              / "examples" / "quickstart.scenario.json")

#: Per SchedulingConfig field, values it must reject: each used to crash
#: the CLI, be accepted by ``POST /jobs``, or be solved as if valid.
BAD_CONFIG_VALUES = [
    ("round_length", 0), ("round_length", "x"), ("round_length", True),
    ("slots_per_round", 0), ("slots_per_round", 1.5),
    ("slots_per_round", "x"),
    ("max_round_gap", 0.5), ("max_round_gap", "x"),
    ("mm", 0), ("mm", "x"),
    ("big_m", -1), ("big_m", "x"),
    ("time_limit", 0), ("time_limit", "x"),
    ("minimize_latency", "no"), ("minimize_latency", 1),
]


class TestSchedulingConfigBoundary:
    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.serve import ServiceApp, ServiceConfig

        with ServiceApp(ServiceConfig(port=0)) as app:
            yield app

    @pytest.mark.parametrize(
        "field, value", BAD_CONFIG_VALUES,
        ids=[f"{field}={value!r}" for field, value in BAD_CONFIG_VALUES],
    )
    def test_bad_field_is_named_by_cli_and_http(
        self, field, value, daemon, tmp_path, capsys
    ):
        from repro.serve.client import ServiceClient, ServiceError

        scenario = json.loads(QUICKSTART.read_text())
        scenario["config"][field] = value
        path = tmp_path / "bad.scenario.json"
        path.write_text(json.dumps(scenario))
        assert main(["scenario", "run", str(path)]) == 2
        assert f"config.{field} must be" in capsys.readouterr().err

        with pytest.raises(ServiceError) as err:
            ServiceClient(daemon.url, timeout=30)._request(
                "POST", "/jobs", {"scenario": scenario}
            )
        assert err.value.status == 400
        assert f"config.{field} must be" in err.value.reason

    def test_bad_config_axis_value_is_named(self, capsys):
        assert main(["scenario", "explore", str(QUICKSTART),
                     "--axis", "config.slots_per_round=x",
                     "--trials", "1"]) == 2
        assert "config.slots_per_round" in capsys.readouterr().err


class TestServeCli:
    def test_serve_rejects_bad_engine_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--engine", "warp"])
        assert err.value.code == 2

    def test_submit_without_daemon_exits_2_with_hint(self, tmp_path, capsys):
        from tests.serve.conftest import make_scenario

        path = tmp_path / "s.scenario.json"
        make_scenario().save(path)
        rc = main([
            "scenario", "submit", str(path),
            "--url", "http://127.0.0.1:9", "--timeout", "2",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "unreachable" in captured.err
        assert "repro serve" in captured.err

    def test_submit_round_trip_against_embedded_daemon(
        self, tmp_path, capsys
    ):
        from repro.serve import ServiceApp, ServiceConfig
        from tests.serve.conftest import make_scenario

        path = tmp_path / "s.scenario.json"
        make_scenario().save(path)
        with ServiceApp(ServiceConfig(port=0, trial_batch=2)) as app:
            rc = main([
                "scenario", "submit", str(path), "--url", app.url,
                "--trials", "4", "--json", str(tmp_path / "job.json"),
            ])
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            assert "done" in captured.out
            final = json.loads((tmp_path / "job.json").read_text())
            assert final["state"] == "done"
            assert final["result"]["stats"]["n_trials"] == 4

            # Resubmission is served from the daemon's store.
            rc = main([
                "scenario", "submit", str(path), "--url", app.url,
                "--trials", "4",
            ])
            captured = capsys.readouterr()
            assert rc == 0
            assert "served from store" in captured.out


class TestShardedExploreCli:
    def test_shards_require_a_store(self, space_file, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--shards", "2",
                     "--objectives", "energy_saving,latency"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_sharded_explore_and_incremental_rerun(self, space_file,
                                                   tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        argv = ["scenario", "explore", str(space_file),
                "--objectives", "energy_saving,latency",
                "--store", str(store), "--shards", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr().out
        assert "executed 6 campaign(s), reused 0" in captured
        assert "2 shard(s)" in captured
        assert "source_shard" in captured
        # The rerun — sharded or not — reuses every record.
        assert main(argv) == 0
        assert "executed 0 campaign(s), reused 6" in capsys.readouterr().out

    def test_surrogate_sampler_flag(self, space_file, capsys):
        assert main(["scenario", "explore", str(space_file),
                     "--sampler", "surrogate",
                     "--objectives", "energy_saving,latency"]) == 0
        captured = capsys.readouterr().out
        assert "executed 3 campaign(s)" in captured
        assert "Pareto front" in captured


class TestStoreMergeCli:
    def test_merge_is_a_noop_without_segments(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main(["store", "merge", str(store)]) == 0
        assert "no segments" in capsys.readouterr().out

    def test_merge_collects_segments_and_deletes_them(self, tmp_path,
                                                      capsys):
        from repro.dse import open_store, part_path

        store = tmp_path / "store.jsonl"
        for shard in (0, 1):
            with open_store(part_path(store, shard)) as part:
                part.put(f"k{shard}", {"value": shard, "written_at": 1.0})
        assert main(["store", "merge", str(store)]) == 0
        captured = capsys.readouterr().out
        assert "merged 2 segment(s)" in captured
        assert "2 new" in captured
        assert not part_path(store, 0).exists()
        with open_store(store) as merged:
            assert sorted(merged.keys()) == ["k0", "k1"]

    def test_keep_parts_flag_preserves_segments(self, tmp_path, capsys):
        from repro.dse import open_store, part_path

        store = tmp_path / "store.jsonl"
        with open_store(part_path(store, 0)) as part:
            part.put("k", {"value": 1, "written_at": 1.0})
        assert main(["store", "merge", str(store), "--keep-parts"]) == 0
        capsys.readouterr()
        assert part_path(store, 0).exists()
