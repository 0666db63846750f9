"""Aggregate statistics of a Monte-Carlo campaign.

One simulated trace is a *sample*, not an evaluation: the paper's
runtime claims (reliability under loss, energy per round, mode-change
latency) are statistical.  This module turns the trials of a grid
point — one columnar :class:`~repro.runtime.trial.TrialBatch`, or a
list of :class:`~repro.runtime.trial.TrialResult` — into defensible
estimates:

* **rates** (deadline-miss, delivery, chain success) come with Wilson
  score confidence intervals — well-behaved near 0 and 1, where the
  interesting reliability numbers live, unlike the normal
  approximation;
* **distributions** (radio-on time, mode-change latency) are reported
  as mean and p50/p95/p99 tails, since worst-observed behaviour — not
  the average — is what real-time evaluation cares about.

Everything here is plain arithmetic over the counts the trial workers
return; no trace ever reaches this layer.  Counts are reduced as int64
columns, and float sums keep the order of a per-trial loop, so the
statistics are byte-identical however the trials are represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..runtime.trial import TrialBatch, TrialResult

#: z-score of the default 95 % confidence level.
Z_95 = 1.959963984540054


def wilson_interval(
    successes: int, total: int, z: float = Z_95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Args:
        successes: Observed positive outcomes.
        total: Number of observations.
        z: Normal quantile of the confidence level (default 95 %).

    Returns:
        ``(low, high)`` bounds in [0, 1]; ``(0.0, 1.0)`` when
        ``total == 0`` (no evidence, no confidence).
    """
    if total < 0 or successes < 0 or successes > total:
        raise ValueError(
            f"need 0 <= successes <= total, got {successes}/{total}"
        )
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    z2 = z * z
    denominator = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denominator
    half = (z / denominator) * math.sqrt(
        phat * (1.0 - phat) / total + z2 / (4.0 * total * total)
    )
    # At the extremes the bounds are exactly 0/1 analytically; clamp so
    # float rounding cannot exclude the point estimate.
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == total else min(1.0, center + half)
    return (low, high)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    value = ordered[lower] * (1.0 - weight) + ordered[upper] * weight
    # Float rounding must not push the result outside the bracket.
    return min(max(value, ordered[lower]), ordered[upper])


@dataclass(frozen=True)
class RateEstimate:
    """A binomial rate with its Wilson confidence interval."""

    successes: int
    total: int

    @property
    def rate(self) -> float:
        return self.successes / self.total if self.total else 0.0

    @property
    def ci(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.total)

    @property
    def complement(self) -> "RateEstimate":
        """The rate of the opposite event (e.g. miss from on-time)."""
        return RateEstimate(self.total - self.successes, self.total)

    def to_dict(self) -> dict:
        low, high = self.ci
        return {
            "successes": self.successes,
            "total": self.total,
            "rate": self.rate,
            "ci95": [low, high],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RateEstimate":
        """Rebuild from :meth:`to_dict` output (rate/CI are derived)."""
        return cls(successes=data["successes"], total=data["total"])

    def __str__(self) -> str:
        low, high = self.ci
        return f"{self.rate:.4f} [{low:.4f}, {high:.4f}]"


@dataclass(frozen=True)
class DistSummary:
    """Mean and tail summary of an empirical distribution."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistSummary":
        if not values:
            raise ValueError("cannot summarize an empty distribution")
        return cls(
            count=len(values),
            mean=sum(values) / len(values),
            p50=percentile(values, 50.0),
            p95=percentile(values, 95.0),
            p99=percentile(values, 99.0),
            minimum=min(values),
            maximum=max(values),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DistSummary":
        return cls(
            count=data["count"],
            mean=data["mean"],
            p50=data["p50"],
            p95=data["p95"],
            p99=data["p99"],
            minimum=data["min"],
            maximum=data["max"],
        )

    def __str__(self) -> str:
        return (
            f"mean {self.mean:.3f}, p50 {self.p50:.3f}, "
            f"p95 {self.p95:.3f}, p99 {self.p99:.3f}"
        )


@dataclass
class CampaignStats:
    """Aggregated statistics of the trials at one campaign grid point.

    Attributes:
        n_trials: Number of trials aggregated.
        flows: Per-flow (message) **deadline-miss** estimates.
        miss: Overall message deadline-miss estimate.
        delivery: Overall message delivery estimate.
        chain_miss: Per-application end-to-end chain miss estimates.
        beacon: Beacon reception estimate (heard / expected).
        radio_on: Distribution of per-trial total radio-on time (ms).
        radio_on_per_round: Distribution of per-trial radio-on per
            executed round (ms) — the paper's energy-per-round proxy.
        switch_delay: Mode-change latency distribution (ms), ``None``
            when no trial switched modes.
        collisions: Collided slots summed over all trials (0 is TTW's
            safety claim).
        rounds: Rounds executed, summed over all trials.
    """

    n_trials: int = 0
    flows: Dict[str, RateEstimate] = field(default_factory=dict)
    miss: RateEstimate = RateEstimate(0, 0)
    delivery: RateEstimate = RateEstimate(0, 0)
    chain_miss: Dict[str, RateEstimate] = field(default_factory=dict)
    beacon: RateEstimate = RateEstimate(0, 0)
    radio_on: Optional[DistSummary] = None
    radio_on_per_round: Optional[DistSummary] = None
    switch_delay: Optional[DistSummary] = None
    collisions: int = 0
    rounds: int = 0

    @classmethod
    def aggregate(
        cls, trials: Union[TrialBatch, Sequence[TrialResult]]
    ) -> "CampaignStats":
        """Pool the counts of many trials into one estimate set.

        ``trials`` is a :class:`~repro.runtime.trial.TrialBatch` or a
        sequence of :class:`~repro.runtime.trial.TrialResult`, which is
        converted to one first.

        Counts are pooled across trials, treating every message
        instance as one Bernoulli observation.  Instances from
        *different* trials are independent (seeds are independent
        draws), but instances *within* one trial share a loss
        realization — under temporally correlated channels
        (``gilbert_elliott``: one BAD sojourn wipes out many
        consecutive instances) the effective sample size is smaller
        than the instance count and the pooled Wilson intervals are
        optimistic (undercover).  They are exact for i.i.d. losses
        (``bernoulli``); for bursty channels read them as lower bounds
        on the uncertainty and increase ``trials``, which is the
        independent axis.
        """
        batch = (
            trials if isinstance(trials, TrialBatch)
            else TrialBatch.from_results(trials)
        )
        on_time = batch.flow_on_time.sum(axis=0).tolist()
        flow_total = batch.flow_total.sum(axis=0).tolist()
        complete = batch.chain_complete.sum(axis=0).tolist()
        chain_total = batch.chain_total.sum(axis=0).tolist()
        message_total = sum(flow_total)
        # A trial's radio total adds its nodes left to right in sorted
        # order (TrialResult.total_radio_on); so do these columns.
        radio_totals = np.zeros(len(batch))
        for column in batch.radio_on.T:
            radio_totals += column
        ran = batch.rounds != 0
        per_round = (radio_totals[ran] / batch.rounds[ran]).tolist()
        radio_totals = radio_totals.tolist()
        switch_delays = batch.switch_delays.tolist()

        return cls(
            n_trials=len(batch),
            flows={
                flow: RateEstimate(total - hits, total)
                for flow, hits, total in sorted(
                    zip(batch.flows, on_time, flow_total)
                )
            },
            miss=RateEstimate(message_total - sum(on_time), message_total),
            delivery=RateEstimate(
                int(batch.flow_delivered.sum()), message_total
            ),
            chain_miss={
                app: RateEstimate(total - hits, total)
                for app, hits, total in sorted(
                    zip(batch.apps, complete, chain_total)
                )
            },
            beacon=RateEstimate(
                int(batch.beacon_heard.sum()), int(batch.beacon_expected.sum())
            ),
            radio_on=(
                DistSummary.from_values(radio_totals)
                if any(v > 0 for v in radio_totals) else None
            ),
            radio_on_per_round=(
                DistSummary.from_values(per_round)
                if any(v > 0 for v in per_round) else None
            ),
            switch_delay=(
                DistSummary.from_values(switch_delays)
                if switch_delays else None
            ),
            collisions=int(batch.collisions.sum()),
            rounds=int(batch.rounds.sum()),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignStats":
        """Rebuild aggregated statistics from :meth:`to_dict` output.

        The round trip is exact for everything the explorer and the
        tables read (counts, rate estimates, distribution summaries);
        the raw per-trial samples are not part of the serialized form.
        """
        return cls(
            n_trials=data["n_trials"],
            flows={
                k: RateEstimate.from_dict(v)
                for k, v in data.get("flows", {}).items()
            },
            miss=RateEstimate.from_dict(data["miss"]),
            delivery=RateEstimate.from_dict(data["delivery"]),
            chain_miss={
                k: RateEstimate.from_dict(v)
                for k, v in data.get("chain_miss", {}).items()
            },
            beacon=RateEstimate.from_dict(data["beacon"]),
            radio_on=(
                DistSummary.from_dict(data["radio_on"])
                if data.get("radio_on") else None
            ),
            radio_on_per_round=(
                DistSummary.from_dict(data["radio_on_per_round"])
                if data.get("radio_on_per_round") else None
            ),
            switch_delay=(
                DistSummary.from_dict(data["switch_delay"])
                if data.get("switch_delay") else None
            ),
            collisions=data.get("collisions", 0),
            rounds=data.get("rounds", 0),
        )

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "flows": {k: v.to_dict() for k, v in self.flows.items()},
            "miss": self.miss.to_dict(),
            "delivery": self.delivery.to_dict(),
            "chain_miss": {k: v.to_dict() for k, v in self.chain_miss.items()},
            "beacon": self.beacon.to_dict(),
            "radio_on": self.radio_on.to_dict() if self.radio_on else None,
            "radio_on_per_round": (
                self.radio_on_per_round.to_dict()
                if self.radio_on_per_round else None
            ),
            "switch_delay": (
                self.switch_delay.to_dict() if self.switch_delay else None
            ),
            "collisions": self.collisions,
            "rounds": self.rounds,
        }
