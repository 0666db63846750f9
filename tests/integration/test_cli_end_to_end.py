"""CLI end-to-end: generated workload -> scenario run -> verify ->
simulate -> gantt, exercising the full command-line surface on one
system."""

import json

import pytest

from repro.cli import main
from repro.io import mode_to_dict
from repro.workloads import GeneratorConfig, WorkloadGenerator


@pytest.fixture
def generated_workload(tmp_path):
    generator = WorkloadGenerator(
        GeneratorConfig(num_tasks=4, num_nodes=6, period_choices=(20.0, 40.0)),
        seed=11,
    )
    modes = [generator.mode("normal", 1), generator.mode("backup", 1)]
    spec = {
        "config": {"round_length": 1.0, "slots_per_round": 5,
                   "max_round_gap": None},
        "modes": [mode_to_dict(m) for m in modes],
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(spec))
    return path


def test_cli_pipeline(generated_workload, tmp_path, capsys):
    system_path = tmp_path / "system.json"

    # synthesize
    assert main(["scenario", "run", str(generated_workload),
                 "-o", str(system_path), "--warm-start"]) == 0
    synth_out = capsys.readouterr().out
    assert "rounds" in synth_out
    assert system_path.exists()

    # verify
    assert main(["verify", str(system_path)]) == 0
    assert "OK" in capsys.readouterr().out

    # simulate, lossless then lossy
    assert main(["simulate", str(system_path), "-d", "500"]) == 0
    clean = capsys.readouterr().out
    assert "delivery rate:     1.0000" in clean
    assert main(["simulate", str(system_path), "-d", "500",
                 "--loss", "0.1", "--seed", "2"]) == 0
    lossy = capsys.readouterr().out
    assert "collision-free:    True" in lossy

    # gantt for a single mode
    assert main(["gantt", str(system_path), "-m", "normal", "-w", "50"]) == 0
    chart = capsys.readouterr().out
    assert "net" in chart


def test_cli_system_roundtrip_stable(generated_workload, tmp_path, capsys):
    """scenario run twice -> identical system files (determinism)."""
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["scenario", "run", str(generated_workload),
                 "-o", str(out1)]) == 0
    assert main(["scenario", "run", str(generated_workload),
                 "-o", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_text() == out2.read_text()
