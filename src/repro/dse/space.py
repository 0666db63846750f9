"""Declarative parameter spaces over :class:`repro.api.Scenario` fields.

A design space is a base scenario plus a list of :class:`Axis` — each
axis names one knob (slots per round ``B``, payload size, loss
probability, solver backend, ...) and the values it ranges over.  The
space enumerates the cartesian product and materializes any *candidate*
(one assignment of every axis) as a derived, fully validated scenario,
so the rest of the explorer never manipulates scenarios directly.

Axes address their knob through a **typed transform** — either a
registered name (``payload``, ``slots``, ``period_scale``, ...) or a
dotted path into the scenario description (``config.round_length``,
``loss.params.data_loss``, ``simulation.policy``, ...).  Transforms are
applied through ``dataclasses.replace``; the base scenario is never
mutated.

A space is JSON-serializable (``Space.save`` / ``Space.load``) so an
exploration is an artifact that can be versioned and re-run — the
result store keys on the candidate scenarios, not on the file.

Example::

    from repro.dse import Axis, Space

    space = Space(
        base=scenario,
        axes=[
            Axis("B", "slots", [1, 2, 5, 10]),
            Axis("payload", "payload", [8, 32, 64]),
        ],
        derive="glossy_timing",   # Tr follows (payload, H, B), eq. Fig. 6
    )
    for candidate in space.candidates():
        ...
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..api.scenario import Scenario, ScenarioError, _request_of
from ..io.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    mode_from_dict,
    mode_to_dict,
    read_json_object,
    scenario_from_dict,
    scenario_to_dict,
)


class SpaceError(ValueError):
    """Raised for inconsistent space descriptions or transforms."""


# -- transforms ---------------------------------------------------------------

#: ``name -> callable(scenario, value) -> scenario`` transform registry.
_TRANSFORMS: Dict[str, Callable[[Scenario, object], Scenario]] = {}

#: ``name -> callable(scenario) -> scenario`` post-assignment derivers.
_DERIVERS: Dict[str, Callable[[Scenario], Scenario]] = {}


def register_transform(
    name: str, fn: Callable[[Scenario, object], Scenario]
) -> None:
    """Register a named axis transform (overwrites an existing name)."""
    _TRANSFORMS[name] = fn


def register_deriver(name: str, fn: Callable[[Scenario], Scenario]) -> None:
    """Register a named post-assignment deriver."""
    _DERIVERS[name] = fn


def available_transforms() -> Tuple[str, ...]:
    """Registered named transforms, sorted (dotted paths always work)."""
    return tuple(sorted(_TRANSFORMS))


def available_derivers() -> Tuple[str, ...]:
    """Registered derivers, sorted."""
    return tuple(sorted(_DERIVERS))


def _replace_spec_field(scenario: Scenario, spec_name: str, field_name: str,
                        value: object) -> Scenario:
    spec = getattr(scenario, spec_name)
    if spec is None:
        raise SpaceError(
            f"axis targets {spec_name}.{field_name} but the base scenario "
            f"has no {spec_name} spec"
        )
    if field_name not in {f.name for f in dataclasses.fields(spec)}:
        raise SpaceError(
            f"unknown field {field_name!r} of {spec_name} spec"
        )
    return dataclasses.replace(
        scenario, **{spec_name: dataclasses.replace(spec, **{field_name: value})}
    )


def _replace_spec_param(scenario: Scenario, spec_name: str, param: str,
                        value: object) -> Scenario:
    spec = getattr(scenario, spec_name)
    if spec is None:
        raise SpaceError(
            f"axis targets {spec_name}.params.{param} but the base scenario "
            f"has no {spec_name} spec"
        )
    params = dict(spec.params)
    params[param] = value
    return dataclasses.replace(
        scenario, **{spec_name: dataclasses.replace(spec, params=params)}
    )


def _scale_periods(scenario: Scenario, factor: object) -> Scenario:
    if isinstance(factor, bool) or not isinstance(factor, (int, float)) \
            or factor <= 0:
        raise SpaceError(
            f"period_scale needs a number > 0, got {factor!r}"
        )
    modes = []
    for mode in scenario.modes:
        record = mode_to_dict(mode)
        for app in record["applications"]:
            app["period"] = app["period"] * factor
            app["deadline"] = app["deadline"] * factor
        modes.append(mode_from_dict(record))
    return dataclasses.replace(scenario, modes=modes)


def _set_mode_requests(scenario: Scenario, value: object) -> Scenario:
    if scenario.simulation is None:
        raise SpaceError(
            "axis targets simulation.mode_requests but the base scenario "
            "has no simulation spec"
        )
    # Well-formed pairs become ``(time, mode)`` tuples, as in scenario
    # JSON; anything else stays as given for Scenario.validate to reject.
    requests = (
        tuple(_request_of(request) for request in value)
        if isinstance(value, (list, tuple)) else value
    )
    return dataclasses.replace(
        scenario,
        simulation=dataclasses.replace(
            scenario.simulation, mode_requests=requests
        ),
    )


register_transform(
    "payload", lambda s, v: _replace_spec_field(s, "radio", "payload_bytes", v)
)
register_transform(
    "slots",
    lambda s, v: dataclasses.replace(
        s, config=dataclasses.replace(s.config, slots_per_round=v)
    ),
)
register_transform(
    "round_length",
    lambda s, v: dataclasses.replace(
        s, config=dataclasses.replace(s.config, round_length=v)
    ),
)
register_transform("backend", lambda s, v: dataclasses.replace(s, backend=v))
register_transform(
    "policy", lambda s, v: _replace_spec_field(s, "simulation", "policy", v)
)
register_transform("period_scale", _scale_periods)
register_transform("mode_requests", _set_mode_requests)


def radio_dimensions(scenario: Scenario, needed_by: str) -> Tuple[int, int]:
    """``(payload_bytes, diameter)`` of a scenario, for analytic models.

    The single resolution rule shared by the ``glossy_timing`` deriver
    and the analytic energy objectives: the radio spec's diameter wins,
    falling back to the built topology's.  Raises :class:`SpaceError`
    naming ``needed_by`` when the scenario carries neither.
    """
    if scenario.radio is None:
        raise SpaceError(
            f"{needed_by} needs a radio spec (payload_bytes, diameter) "
            f"on the scenario"
        )
    diameter = scenario.radio.diameter
    if diameter is None:
        if scenario.topology is None:
            raise SpaceError(
                f"{needed_by}: radio spec has no diameter and the "
                f"scenario has no topology to take it from"
            )
        diameter = scenario.build_topology().diameter
    return scenario.radio.payload_bytes, diameter


def _derive_glossy_timing(scenario: Scenario) -> Scenario:
    """Set ``config.round_length`` from (payload, H, B) — paper Fig. 6.

    The round length ``Tr`` is not a free knob: it follows from the
    Glossy timing model once payload size, network diameter, and slots
    per round are fixed.  This deriver recomputes it per candidate so a
    payload or slots axis automatically produces faithful round
    lengths.  ``max_round_gap`` is raised to ``Tr`` when the derived
    round no longer fits under it (the config invariant requires
    ``max_round_gap >= round_length``).
    """
    from ..timing import round_length_ms

    payload, diameter = radio_dimensions(scenario, "deriver 'glossy_timing'")
    tr = round_length_ms(payload, diameter, scenario.config.slots_per_round)
    gap = scenario.config.max_round_gap
    if gap is not None and gap < tr:
        gap = tr
    return dataclasses.replace(
        scenario,
        config=dataclasses.replace(
            scenario.config, round_length=tr, max_round_gap=gap
        ),
    )


register_deriver("glossy_timing", _derive_glossy_timing)


def apply_target(scenario: Scenario, target: str, value: object) -> Scenario:
    """Apply one axis transform to a scenario, returning the copy.

    ``target`` is resolved in order: registered named transform, dotted
    path (``config.*``, ``radio.*``, ``simulation.*``, ``loss.kind``,
    ``loss.params.*``, ``topology.kind``, ``topology.params.*``), then
    a top-level :class:`Scenario` field (whole-value replacement, the
    :func:`repro.api.sweep` compatibility path).
    """
    if target in _TRANSFORMS:
        try:
            return _TRANSFORMS[target](scenario, value)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, SpaceError):
                raise
            raise SpaceError(
                f"transform {target!r} rejected value {value!r}: {exc}"
            ) from None
    head, dot, rest = target.partition(".")
    if dot:
        if head == "config":
            if rest not in {f.name for f in dataclasses.fields(scenario.config)}:
                raise SpaceError(f"unknown config field {rest!r}")
            try:
                return dataclasses.replace(
                    scenario,
                    config=dataclasses.replace(scenario.config, **{rest: value}),
                )
            except ValueError as exc:
                raise SpaceError(
                    f"config.{rest} rejected value {value!r}: {exc}"
                ) from None
        if head in ("loss", "topology") and rest == "kind":
            spec = getattr(scenario, head)
            if spec is None:
                raise SpaceError(
                    f"axis targets {target} but the base scenario has no "
                    f"{head} spec"
                )
            return dataclasses.replace(
                scenario, **{head: dataclasses.replace(spec, kind=value)}
            )
        if head in ("loss", "topology") and rest.startswith("params."):
            return _replace_spec_param(
                scenario, head, rest[len("params."):], value
            )
        if head in ("radio", "simulation"):
            return _replace_spec_field(scenario, head, rest, value)
        raise SpaceError(
            f"unknown axis target {target!r}; expected a registered "
            f"transform ({', '.join(available_transforms())}), a dotted "
            f"path (config.*, radio.*, simulation.*, loss.kind, "
            f"loss.params.*, topology.kind, topology.params.*), or a "
            f"Scenario field"
        )
    if target in {f.name for f in dataclasses.fields(Scenario)}:
        if target == "name":
            raise SpaceError(
                "axes cannot target 'name'; candidate names are derived"
            )
        return dataclasses.replace(scenario, **{target: value})
    raise SpaceError(
        f"unknown axis target {target!r}; registered transforms: "
        f"{', '.join(available_transforms())}"
    )


# -- axes and spaces ----------------------------------------------------------


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Axis:
    """One explorable dimension: a label, a transform, and its values.

    Attributes:
        name: Axis label — keys assignments, result tables, and store
            records.
        target: Transform applied per value (see :func:`apply_target`).
        values: The values the axis ranges over, in exploration order.
            JSON-serializable values round-trip through ``Space.save``;
            arbitrary objects (e.g. spec dataclasses replacing a whole
            scenario field) work in memory.
    """

    name: str
    target: str
    values: Tuple[object, ...]

    def __init__(self, name: str, target: str, values: Sequence[object]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "values", tuple(values))
        if not name:
            raise SpaceError("axis name must be non-empty")
        if not self.values:
            raise SpaceError(f"axis {name!r} has no values")
        seen = []
        for value in self.values:
            if value in seen:
                raise SpaceError(
                    f"axis {name!r} lists value {value!r} twice; duplicate "
                    f"candidates would collide"
                )
            seen.append(value)

    def to_dict(self) -> dict:
        try:
            json.dumps(list(self.values))
        except TypeError as exc:
            raise SpaceError(
                f"axis {self.name!r} carries non-JSON values and cannot be "
                f"serialized: {exc}"
            ) from None
        return {
            "name": self.name,
            "target": self.target,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Axis":
        try:
            return cls(data["name"], data["target"], data["values"])
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed axis record: {exc}") from exc


@dataclass
class Space:
    """A base scenario plus the axes spanning its design space.

    Attributes:
        base: The scenario every candidate derives from.
        axes: Explorable dimensions; the grid is their cartesian
            product, last axis fastest (``itertools.product`` order).
        derive: Optional registered deriver applied to every candidate
            after all axes (e.g. ``"glossy_timing"`` recomputes the
            round length from payload/diameter/slots).
    """

    base: Scenario
    axes: List[Axis] = field(default_factory=list)
    derive: Optional[str] = None

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate axis names: {names}")
        if self.derive is not None and self.derive not in _DERIVERS:
            raise SpaceError(
                f"unknown deriver {self.derive!r}; registered: "
                f"{', '.join(available_derivers()) or '(none)'}"
            )

    # -- enumeration -----------------------------------------------------
    @property
    def size(self) -> int:
        """Number of grid points (product of axis cardinalities)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def assignments(self) -> Iterator[Dict[str, object]]:
        """Every grid assignment, in deterministic product order."""
        if not self.axes:
            yield {}
            return
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            yield {
                axis.name: value for axis, value in zip(self.axes, combo)
            }

    def assignment_at(self, index: int) -> Dict[str, object]:
        """The grid assignment at flat ``index`` (mixed-radix decode)."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"assignment index {index} out of range [0, {self.size})"
            )
        assignment: Dict[str, object] = {}
        for axis in reversed(self.axes):
            index, digit = divmod(index, len(axis.values))
            assignment[axis.name] = axis.values[digit]
        return {axis.name: assignment[axis.name] for axis in self.axes}

    # -- materialization -------------------------------------------------
    def candidate_name(self, assignment: Dict[str, object]) -> str:
        """Deterministic, human-readable candidate scenario name."""
        parts = ",".join(
            f"{axis.name}={_format_value(assignment[axis.name])}"
            for axis in self.axes
        )
        return f"{self.base.name}[{parts}]" if parts else self.base.name

    def candidate(self, assignment: Dict[str, object]) -> Scenario:
        """Materialize one assignment as a validated scenario."""
        unknown = set(assignment) - {axis.name for axis in self.axes}
        if unknown:
            raise SpaceError(
                f"assignment names unknown axes: {sorted(unknown)}"
            )
        missing = [
            axis.name for axis in self.axes if axis.name not in assignment
        ]
        if missing:
            raise SpaceError(f"assignment misses axes: {missing}")
        scenario = self.base
        for axis in self.axes:
            scenario = apply_target(
                scenario, axis.target, assignment[axis.name]
            )
        if self.derive is not None:
            scenario = _DERIVERS[self.derive](scenario)
        scenario = dataclasses.replace(
            scenario, name=self.candidate_name(assignment)
        )
        try:
            scenario.validate()
        except ScenarioError as exc:
            raise SpaceError(
                f"assignment {assignment!r} produces an invalid scenario: "
                f"{exc}"
            ) from None
        return scenario

    def candidates(self) -> Iterator[Scenario]:
        """Every grid candidate, materialized lazily."""
        for assignment in self.assignments():
            yield self.candidate(assignment)

    def validate(self) -> None:
        """Fail fast: base scenario valid, every axis applies cleanly.

        Applies each axis's values to the base **individually** (not
        the full product), so validation stays O(sum of axis lengths).
        """
        self.base.validate()
        for axis in self.axes:
            for value in axis.values:
                scenario = apply_target(self.base, axis.target, value)
                if self.derive is None:
                    scenario.validate()
        if self.derive is not None and self.axes:
            first = {
                axis.name: axis.values[0] for axis in self.axes
            }
            self.candidate(first)

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "space",
            "scenario": scenario_to_dict(self.base),
            "axes": [axis.to_dict() for axis in self.axes],
            "derive": self.derive,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Space":
        if not isinstance(data, dict):
            raise SerializationError(
                f"space must be a JSON object, got {type(data).__name__}"
            )
        if data.get("kind") != "space":
            raise SerializationError(
                f"not a space record (kind={data.get('kind')!r})"
            )
        schema = data.get("schema")
        if schema is not None and schema != SCHEMA_VERSION:
            raise SerializationError(
                f"unsupported schema {schema!r} (expected {SCHEMA_VERSION})"
            )
        try:
            return cls(
                base=scenario_from_dict(data["scenario"]),
                axes=[Axis.from_dict(a) for a in data.get("axes", [])],
                derive=data.get("derive"),
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"malformed space record: {exc}"
            ) from exc

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )

    @classmethod
    def load(cls, path: "str | Path") -> "Space":
        return cls.from_dict(read_json_object(path))
