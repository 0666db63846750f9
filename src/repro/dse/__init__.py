"""``repro.dse`` — design-space exploration with Pareto search.

The paper's headline contribution is a *trade-off*: slots per round
``B`` and payload size buy energy (Fig. 7) at the cost of end-to-end
latency (eq. 13, Fig. 6), and a designer picks a deployment point from
that frontier.  This subsystem turns picking that point into a
first-class, resumable workflow:

* :class:`Space` / :class:`Axis` — a base :class:`repro.api.Scenario`
  plus typed axes over its fields (slots, payload, loss grids,
  backends, ...), JSON round-trippable;
* samplers — exhaustive :class:`GridSampler`, seeded
  :class:`RandomSampler`, low-discrepancy :class:`HaltonSampler`, the
  adaptive :class:`SuccessiveHalvingSampler` that prunes analytically
  dominated configurations before spending MC trials, and the
  model-guided :class:`SurrogateSampler` (ridge regression over the
  axis grid, expected-improvement acquisition vs. the measured front);
* :class:`Objective` registry + exact Pareto machinery
  (:func:`pareto_front`, :func:`dominance_rank`);
* :func:`open_store` — persistent JSONL/SQLite result stores keyed by
  content hash, making every exploration incremental and resumable;
* :func:`explore` — the driver; also reachable as
  ``Experiment.explore()`` and ``python -m repro.cli scenario
  explore``.  ``explore(..., shards=N)`` fans candidate evaluation out
  over a work-stealing pool of ``N`` shard processes, each appending to
  its own partitioned store segment (``--shards`` on the CLI);
  segments merge with :func:`merge_stores` / ``repro store merge``.

Quickstart::

    from repro.dse import Axis, Space, explore

    space = Space(base=scenario, axes=[
        Axis("B", "slots", [1, 2, 5, 10]),
        Axis("payload", "payload", [8, 32, 64]),
    ], derive="glossy_timing")
    result = explore(space, sampler="adaptive",
                     objectives=("energy_saving", "latency"),
                     store="explore.jsonl")
    print(result.front_table())
"""

from .explore import (
    DEFAULT_BATCH_SIZE,
    CandidateResult,
    ExplorationError,
    ExplorationResult,
    explore,
)
from .objectives import (
    DEFAULT_OBJECTIVES,
    Evaluation,
    Objective,
    ObjectiveError,
    available_objectives,
    get_objective,
    register_objective,
    resolve_objectives,
)
from .pareto import crowding_spread, dominance_rank, dominates, pareto_front
from .samplers import (
    GridSampler,
    HaltonSampler,
    RandomSampler,
    Sampler,
    SamplerError,
    SuccessiveHalvingSampler,
    available_samplers,
    get_sampler,
)
from .space import (
    Axis,
    Space,
    SpaceError,
    apply_target,
    available_derivers,
    available_transforms,
    register_deriver,
    register_transform,
)
from .store import (
    STORE_SCHEMA,
    JsonlStore,
    MemoryStore,
    MergeReport,
    ResultStore,
    SqliteStore,
    StoreError,
    candidate_key,
    discover_parts,
    merge_stores,
    open_store,
    part_path,
)
from .surrogate import SurrogateSampler, analytic_front, expected_improvement

__all__ = [
    "Axis",
    "CandidateResult",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_OBJECTIVES",
    "Evaluation",
    "ExplorationError",
    "ExplorationResult",
    "GridSampler",
    "HaltonSampler",
    "JsonlStore",
    "MemoryStore",
    "MergeReport",
    "Objective",
    "ObjectiveError",
    "RandomSampler",
    "ResultStore",
    "STORE_SCHEMA",
    "Sampler",
    "SamplerError",
    "Space",
    "SpaceError",
    "SqliteStore",
    "StoreError",
    "SuccessiveHalvingSampler",
    "SurrogateSampler",
    "analytic_front",
    "apply_target",
    "available_derivers",
    "available_objectives",
    "available_samplers",
    "available_transforms",
    "candidate_key",
    "crowding_spread",
    "discover_parts",
    "dominance_rank",
    "dominates",
    "expected_improvement",
    "explore",
    "get_objective",
    "get_sampler",
    "merge_stores",
    "open_store",
    "pareto_front",
    "part_path",
    "register_deriver",
    "register_objective",
    "register_transform",
]
