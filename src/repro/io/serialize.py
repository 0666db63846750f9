"""JSON (de)serialization of workloads and schedules.

TTW distributes schedules to nodes at deployment time; this module
provides the stable on-disk image for that step, plus round-tripping of
the problem inputs so workloads can be versioned next to the code:

* :func:`application_to_dict` / :func:`application_from_dict`
* :func:`mode_to_dict` / :func:`mode_from_dict`
* :func:`schedule_to_dict` / :func:`schedule_from_dict`
* :func:`save_system` / :func:`load_system` /
  :func:`load_system_image` — a whole multi-mode system (modes +
  synthesized schedules + allowed transitions) in one file;
* :func:`scenario_to_dict` / :func:`scenario_from_dict` and
  :func:`save_scenario` / :func:`load_scenario` — the declarative
  :class:`repro.api.Scenario` experiment description.

All dictionaries are plain JSON-compatible types.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..core.app_model import Application
from ..core.modes import Mode
from ..core.schedule import ModeSchedule, RoundSchedule, SchedulingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.scenario import Scenario

#: Schema version stamped into every file for forward compatibility.
SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """Raised on malformed or version-incompatible input."""


# -- applications -----------------------------------------------------------


def application_to_dict(app: Application) -> dict:
    """Serialize an application, including its precedence edges."""
    edges: List[Tuple[str, str]] = []
    for msg, producers in app.msg_producers.items():
        for task in producers:
            edges.append((task, msg))
    for task, preds in app.task_preds.items():
        for msg in preds:
            edges.append((msg, task))
    return {
        "name": app.name,
        "period": app.period,
        "deadline": app.deadline,
        "tasks": [
            {"name": t.name, "node": t.node, "wcet": t.wcet}
            for t in app.tasks.values()
        ],
        "messages": sorted(app.messages),
        "edges": edges,
    }


def application_from_dict(data: dict) -> Application:
    """Rebuild an application; validates structure on the way."""
    try:
        app = Application(
            data["name"], period=data["period"], deadline=data["deadline"]
        )
        for task in data["tasks"]:
            app.add_task(task["name"], node=task["node"], wcet=task["wcet"])
        for msg in data["messages"]:
            app.add_message(msg)
        for source, target in data["edges"]:
            app.connect(source, target)
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed application record: {exc}") from exc
    app.validate()
    return app


# -- modes -------------------------------------------------------------------


def mode_to_dict(mode: Mode) -> dict:
    return {
        "name": mode.name,
        "mode_id": mode.mode_id,
        "applications": [application_to_dict(a) for a in mode.applications],
    }


def mode_from_dict(data: dict) -> Mode:
    try:
        apps = [application_from_dict(a) for a in data["applications"]]
        return Mode(data["name"], apps, mode_id=data.get("mode_id"))
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed mode record: {exc}") from exc


# -- schedules ----------------------------------------------------------------


def config_to_dict(config: SchedulingConfig) -> dict:
    return {
        "round_length": config.round_length,
        "slots_per_round": config.slots_per_round,
        "max_round_gap": config.max_round_gap,
        "mm": config.mm,
        "big_m": config.big_m,
        "backend": config.backend,
        "time_limit": config.time_limit,
        "minimize_latency": config.minimize_latency,
    }


def config_from_dict(data: dict) -> SchedulingConfig:
    return SchedulingConfig(
        round_length=data["round_length"],
        slots_per_round=data["slots_per_round"],
        max_round_gap=data.get("max_round_gap"),
        mm=data.get("mm", 1e-4),
        big_m=data.get("big_m"),
        backend=data.get("backend", "highs"),
        time_limit=data.get("time_limit"),
        minimize_latency=data.get("minimize_latency", True),
    )


def schedule_to_dict(schedule: ModeSchedule) -> dict:
    return {
        "mode_name": schedule.mode_name,
        "hyperperiod": schedule.hyperperiod,
        "config": config_to_dict(schedule.config),
        "task_offsets": dict(schedule.task_offsets),
        "message_offsets": dict(schedule.message_offsets),
        "message_deadlines": dict(schedule.message_deadlines),
        "rounds": [
            {"start": r.start, "messages": list(r.messages)}
            for r in schedule.rounds
        ],
        # JSON keys must be strings: encode the edge tuple as "src->dst".
        "sigma": {f"{s}->{t}": v for (s, t), v in schedule.sigma.items()},
        "leftover": dict(schedule.leftover),
        "app_latencies": dict(schedule.app_latencies),
    }


def schedule_from_dict(data: dict) -> ModeSchedule:
    try:
        sigma: Dict[Tuple[str, str], int] = {}
        for key, value in data.get("sigma", {}).items():
            source, _, target = key.partition("->")
            if not target:
                raise SerializationError(f"bad sigma key {key!r}")
            sigma[(source, target)] = int(value)
        schedule = ModeSchedule(
            mode_name=data["mode_name"],
            hyperperiod=data["hyperperiod"],
            config=config_from_dict(data["config"]),
            task_offsets=dict(data["task_offsets"]),
            message_offsets=dict(data["message_offsets"]),
            message_deadlines=dict(data["message_deadlines"]),
            rounds=[
                RoundSchedule(start=r["start"], messages=list(r["messages"]))
                for r in data["rounds"]
            ],
            sigma=sigma,
            leftover={k: int(v) for k, v in data.get("leftover", {}).items()},
            app_latencies=dict(data.get("app_latencies", {})),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed schedule record: {exc}") from exc
    schedule.total_latency = sum(schedule.app_latencies.values())
    return schedule


# -- canonical hashing ---------------------------------------------------------


def canonical_dumps(data: dict) -> str:
    """Serialize ``data`` to a canonical JSON string.

    Key order and whitespace are normalized so equal inputs always
    produce byte-identical text — the property the schedule cache needs
    for stable content addressing.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def synthesis_fingerprint(mode: Mode, config: SchedulingConfig) -> str:
    """Stable content hash of a synthesis problem ``(mode, config)``.

    Hashes agree whenever the problem inputs agree, independent of
    object identity, process, platform, or construction order:
    applications, tasks, and precedence edges are sorted before hashing,
    and ``mode_id`` is excluded (it labels the mode inside a mode graph
    but does not influence the synthesized schedule).  Note the solver
    may break ties between equally-optimal schedules differently for
    differently-ordered inputs; the cache still returns *a* verified
    round-minimal schedule for the problem.
    """
    mode_data = mode_to_dict(mode)
    mode_data.pop("mode_id", None)
    mode_data["applications"] = sorted(
        mode_data["applications"], key=lambda app: app["name"]
    )
    for app in mode_data["applications"]:
        app["tasks"] = sorted(app["tasks"], key=lambda task: task["name"])
        app["edges"] = sorted(tuple(edge) for edge in app["edges"])
    payload = {
        "schema": SCHEMA_VERSION,
        "mode": mode_data,
        "config": config_to_dict(config),
    }
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


# -- whole systems -------------------------------------------------------------


@dataclass
class SystemImage:
    """Everything a system file stores: modes, schedules, transitions."""

    modes: List[Mode] = field(default_factory=list)
    schedules: Dict[str, ModeSchedule] = field(default_factory=dict)
    transitions: List[Tuple[str, str]] = field(default_factory=list)


def save_system(
    path: str | Path,
    modes: List[Mode],
    schedules: Dict[str, ModeSchedule],
    transitions: List[Tuple[str, str]] = (),
) -> None:
    """Write modes and their synthesized schedules to one JSON file.

    Args:
        path: Output file.
        modes: System modes.
        schedules: Schedule per mode name (all modes must be covered).
        transitions: Allowed runtime mode switches as ``(source,
            target)`` name pairs.

    Raises:
        SerializationError: if a mode has no schedule.
    """
    missing = [m.name for m in modes if m.name not in schedules]
    if missing:
        raise SerializationError(f"modes without schedules: {missing}")
    payload = {
        "schema": SCHEMA_VERSION,
        "modes": [mode_to_dict(m) for m in modes],
        "schedules": {
            name: schedule_to_dict(sched) for name, sched in schedules.items()
        },
        "transitions": sorted([source, target] for source, target in transitions),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def read_json_object(path: str | Path) -> dict:
    """Read a JSON file whose top level must be an object.

    The one reader behind every file-loading entry point (system,
    scenario and space files).

    Raises:
        SerializationError: on invalid JSON or a non-object top level.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{path}: expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def load_system_image(path: str | Path) -> SystemImage:
    """Read a system file into a :class:`SystemImage`.

    ``transitions`` is optional in the file (older images omit it).
    """
    payload = read_json_object(path)
    if payload.get("schema") != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema {payload.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    transitions = payload.get("transitions", [])
    if not isinstance(transitions, list):
        raise SerializationError(
            f"transitions must be an array of mode-name pairs, "
            f"got {transitions!r}"
        )
    for index, pair in enumerate(transitions):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise SerializationError(
                f"transitions[{index}] must be a pair of mode names, "
                f"got {pair!r}"
            )
    return SystemImage(
        modes=[mode_from_dict(m) for m in payload["modes"]],
        schedules={
            name: schedule_from_dict(s)
            for name, s in payload["schedules"].items()
        },
        transitions=[(source, target) for source, target in transitions],
    )


def load_system(path: str | Path) -> Tuple[List[Mode], Dict[str, ModeSchedule]]:
    """Read a system file written by :func:`save_system`.

    Returns only ``(modes, schedules)``; use :func:`load_system_image`
    for the transitions as well.
    """
    image = load_system_image(path)
    return image.modes, image.schedules


# -- scenarios -----------------------------------------------------------------


def scenario_to_dict(scenario: "Scenario") -> dict:
    """Serialize a :class:`repro.api.Scenario` to plain JSON types."""
    from ..api.scenario import spec_to_dict

    return {
        "schema": SCHEMA_VERSION,
        "kind": "scenario",
        "name": scenario.name,
        "config": config_to_dict(scenario.config),
        "backend": scenario.backend,
        "modes": [mode_to_dict(m) for m in scenario.modes],
        "transitions": [list(pair) for pair in scenario.transitions],
        "topology": spec_to_dict(scenario.topology),
        "loss": spec_to_dict(scenario.loss),
        "radio": spec_to_dict(scenario.radio),
        "simulation": spec_to_dict(scenario.simulation),
    }


def scenario_from_dict(data: dict) -> "Scenario":
    """Rebuild a :class:`repro.api.Scenario`; validates structure."""
    from ..api.scenario import (
        LossSpec,
        RadioSpec,
        Scenario,
        SimulationSpec,
        TopologySpec,
        _pair_of,
    )

    if not isinstance(data, dict):
        raise SerializationError(
            f"scenario must be a JSON object, got {type(data).__name__}"
        )
    if data.get("kind") != "scenario":
        raise SerializationError(
            f"not a scenario record (kind={data.get('kind')!r})"
        )
    schema = data.get("schema")
    if schema is not None and schema != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    try:
        return Scenario(
            name=data["name"],
            modes=[mode_from_dict(m) for m in data["modes"]],
            config=config_from_dict(data["config"]),
            backend=data.get("backend"),
            transitions=[_pair_of(pair) for pair in data.get("transitions", [])],
            topology=TopologySpec.from_dict(data.get("topology")),
            loss=LossSpec.from_dict(data.get("loss")),
            radio=RadioSpec.from_dict(data.get("radio")),
            simulation=SimulationSpec.from_dict(data.get("simulation")),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed scenario record: {exc}") from exc


def save_scenario(path: str | Path, scenario: "Scenario") -> None:
    """Write one scenario to a JSON file."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
    )


def load_scenario(path: str | Path) -> "Scenario":
    """Read a scenario file written by :func:`save_scenario`.

    Also accepts the legacy workload spec — a ``config`` record plus a
    ``modes`` list, without network or simulation — as a scenario named
    after the file stem.

    Raises:
        SerializationError: on invalid JSON, a non-object top level, or
            a malformed scenario or workload spec.
    """
    from ..api.scenario import Scenario

    payload = read_json_object(path)
    if payload.get("kind") == "scenario":
        return scenario_from_dict(payload)
    if "config" not in payload or "modes" not in payload:
        raise SerializationError(
            f"{path}: neither a scenario file (kind='scenario') nor a legacy "
            f"workload spec (config + modes)"
        )
    try:
        return Scenario(
            name=Path(path).stem,
            modes=[mode_from_dict(record) for record in payload["modes"]],
            config=config_from_dict(payload["config"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(
            f"{path}: malformed workload spec: {exc}"
        ) from exc
