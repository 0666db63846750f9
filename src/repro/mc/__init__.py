"""``repro.mc`` — Monte-Carlo evaluation campaigns over the simulator.

The system's third engine, next to synthesis (``repro.engine``) and
verification (``repro.core.verify``): *evaluation*.  A campaign fans a
:class:`repro.api.Scenario` out over ``n_trials × seeds ×
loss-parameter grids``, executes the trials over one shared process
pool (synthesis runs once per distinct config thanks to the schedule
cache), and aggregates the samples into statistics with confidence
intervals.

Quickstart::

    from repro.api import Scenario, SimulationSpec, LossSpec
    from repro.core import Mode, SchedulingConfig
    from repro.mc import run_campaign
    from repro.workloads import closed_loop_pipeline

    scenario = Scenario(
        name="reliability",
        modes=[Mode("normal", [closed_loop_pipeline(
            "a", period=20, deadline=20, num_hops=1)])],
        config=SchedulingConfig(round_length=1.0, max_round_gap=None),
        backend="greedy",
        loss=LossSpec("bernoulli", {"beacon_loss": 0.05, "data_loss": 0.05}),
        simulation=SimulationSpec(duration=400.0, trials=25, seed=7),
    )
    result = run_campaign(scenario, sweep={"data_loss": [0.0, 0.05, 0.1]})
    print(result.table())

The same campaign runs from the command line::

    python -m repro.cli scenario mc reliability.scenario.json \\
        --trials 25 --sweep data_loss=0,0.05,0.1 -j 4
"""

from ..runtime.loss import supports_loss_kind
from .campaign import (
    CampaignResult,
    PointResult,
    run_campaign,
    run_campaigns,
)
from .equivalence import (
    EquivalenceError,
    assert_distribution_equivalent,
    assert_engines_equivalent,
)
from .fastpath import run_program
from .stats import (
    CampaignStats,
    DistSummary,
    RateEstimate,
    percentile,
    wilson_interval,
)
from .vectorized import run_trials_vectorized, unroll_timeline

__all__ = [
    "CampaignResult",
    "CampaignStats",
    "DistSummary",
    "EquivalenceError",
    "PointResult",
    "RateEstimate",
    "assert_distribution_equivalent",
    "assert_engines_equivalent",
    "percentile",
    "run_campaign",
    "run_campaigns",
    "run_program",
    "run_trials_vectorized",
    "supports_loss_kind",
    "unroll_timeline",
    "wilson_interval",
]
