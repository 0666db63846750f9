"""Campaign statistics: Wilson intervals, percentiles, aggregation."""

import dataclasses
import json
import math
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mc import CampaignStats, DistSummary, RateEstimate, percentile, wilson_interval
from repro.runtime.trial import TrialBatch, TrialResult


class TestWilsonInterval:
    def test_no_evidence_no_confidence(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_known_value(self):
        # 8/10 at 95 %: the classic textbook example.
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4902, abs=1e-3)
        assert high == pytest.approx(0.9433, abs=1e-3)

    def test_zero_successes_lower_bound_is_zero(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_all_successes_upper_bound_is_one(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_interval_contains_the_point_estimate(self, successes, extra):
        total = successes + extra
        low, high = wilson_interval(successes, total)
        assert 0.0 <= low <= high <= 1.0
        if total:
            assert low <= successes / total <= high

    @given(st.integers(1, 60), st.integers(2, 8))
    def test_interval_shrinks_with_more_evidence(self, successes, factor):
        total = successes * 2
        low1, high1 = wilson_interval(successes, total)
        low2, high2 = wilson_interval(successes * factor, total * factor)
        assert (high2 - low2) < (high1 - low1)


class TestPercentile:
    def test_endpoints_and_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    @given(st.lists(st.floats(0, 1e6, allow_subnormal=False),
                    min_size=1, max_size=50))
    def test_bounded_by_min_max(self, values):
        for q in (0, 25, 50, 95, 99, 100):
            assert min(values) <= percentile(values, q) <= max(values)


class TestRateEstimate:
    def test_complement(self):
        est = RateEstimate(30, 40)
        assert est.complement.rate == pytest.approx(0.25)
        assert est.complement.total == 40

    def test_str_mentions_interval(self):
        text = str(RateEstimate(1, 10))
        assert "[" in text and "]" in text


class TestDistSummary:
    def test_from_values(self):
        summary = DistSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DistSummary.from_values([])


def _trial(on_time, total, radio=10.0, switches=(), collisions=0):
    return TrialResult(
        rounds=total,
        collisions=collisions,
        beacon_heard=(total, total),
        messages={"m": (on_time, on_time, total)},
        chains={"app": (on_time, total)},
        radio_on={"n1": radio / 2, "n2": radio / 2},
        switch_delays=list(switches),
        duration=100.0,
    )


class TestCampaignStats:
    def test_pools_counts_across_trials(self):
        stats = CampaignStats.aggregate([_trial(9, 10), _trial(7, 10)])
        assert stats.n_trials == 2
        assert stats.miss.successes == 4  # 1 + 3 misses
        assert stats.miss.total == 20
        assert stats.flows["m"].rate == pytest.approx(0.2)
        assert stats.chain_miss["app"].rate == pytest.approx(0.2)
        assert stats.rounds == 20

    def test_radio_and_switch_distributions(self):
        stats = CampaignStats.aggregate([
            _trial(10, 10, radio=8.0, switches=[5.0]),
            _trial(10, 10, radio=12.0, switches=[7.0, 9.0]),
        ])
        assert stats.radio_on.mean == pytest.approx(10.0)
        assert stats.switch_delay.count == 3
        assert stats.switch_delay.maximum == pytest.approx(9.0)
        assert stats.radio_on_per_round.mean == pytest.approx(
            (0.8 + 1.2) / 2
        )

    def test_collisions_sum(self):
        stats = CampaignStats.aggregate([
            _trial(10, 10, collisions=2), _trial(10, 10, collisions=1),
        ])
        assert stats.collisions == 3

    def test_empty_aggregate(self):
        stats = CampaignStats.aggregate([])
        assert stats.n_trials == 0
        assert stats.miss.total == 0
        assert stats.radio_on is None
        assert stats.switch_delay is None

    def test_to_dict_round_trips_json(self):
        import json

        stats = CampaignStats.aggregate([_trial(9, 10, switches=[4.0])])
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["miss"]["total"] == 10
        assert payload["switch_delay"]["count"] == 1


def reference_aggregate(trials):
    """The per-trial aggregation loop that CampaignStats.aggregate
    replaced with column sums — the reference it must reproduce byte
    for byte."""
    stats = CampaignStats(n_trials=len(trials))
    flow_counts: Dict[str, List[int]] = {}
    chain_counts: Dict[str, List[int]] = {}
    on_time_total = 0
    delivered_total = 0
    message_total = 0
    beacon_heard = 0
    beacon_expected = 0
    radio_totals: List[float] = []
    per_round: List[float] = []
    switch_delays: List[float] = []
    for trial in trials:
        stats.collisions += trial.collisions
        stats.rounds += trial.rounds
        beacon_heard += trial.beacon_heard[0]
        beacon_expected += trial.beacon_heard[1]
        for flow, (on_time, delivered, total) in trial.messages.items():
            entry = flow_counts.setdefault(flow, [0, 0])
            entry[0] += on_time
            entry[1] += total
            on_time_total += on_time
            delivered_total += delivered
            message_total += total
        for app, (complete, total) in trial.chains.items():
            entry = chain_counts.setdefault(app, [0, 0])
            entry[0] += complete
            entry[1] += total
        total_on = trial.total_radio_on()
        radio_totals.append(total_on)
        if trial.rounds:
            per_round.append(total_on / trial.rounds)
        switch_delays.extend(trial.switch_delays)
    stats.flows = {
        flow: RateEstimate(total - on_time, total)
        for flow, (on_time, total) in sorted(flow_counts.items())
    }
    stats.miss = RateEstimate(message_total - on_time_total, message_total)
    stats.delivery = RateEstimate(delivered_total, message_total)
    stats.chain_miss = {
        app: RateEstimate(total - complete, total)
        for app, (complete, total) in sorted(chain_counts.items())
    }
    stats.beacon = RateEstimate(beacon_heard, beacon_expected)
    if radio_totals and any(v > 0 for v in radio_totals):
        stats.radio_on = DistSummary.from_values(radio_totals)
    if per_round and any(v > 0 for v in per_round):
        stats.radio_on_per_round = DistSummary.from_values(per_round)
    if switch_delays:
        stats.switch_delay = DistSummary.from_values(switch_delays)
    return stats


@st.composite
def counts(draw, width):
    """``width`` nested counts ``(c_0 <= ... <= c_{width-1})``."""
    values = [draw(st.integers(0, 40))]
    for _ in range(width - 1):
        values.insert(0, draw(st.integers(0, values[0])))
    return tuple(values)


RADIO_MS = st.one_of(
    st.just(0.0), st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
)


@st.composite
def trial_results(draw, flows=None, apps=None, nodes=None):
    """A TrialResult; key sets are drawn unless given."""
    def keys(given_keys, pool):
        if given_keys is not None:
            return given_keys
        return draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))

    return TrialResult(
        rounds=draw(st.integers(0, 30)),
        collisions=draw(st.integers(0, 5)),
        beacon_heard=draw(counts(2)),
        messages={f: draw(counts(3)) for f in keys(flows, ["m1", "m2", "m3"])},
        chains={a: draw(counts(2)) for a in keys(apps, ["x", "y", "z"])},
        radio_on={n: draw(RADIO_MS) for n in keys(nodes, ["n2", "n0", "n1"])},
        switch_delays=draw(st.lists(
            st.floats(0.0, 100.0, allow_nan=False), max_size=3
        )),
        duration=draw(st.floats(1.0, 1e4, allow_nan=False)),
    )


@st.composite
def scenario_trials(draw):
    """Trials sharing their flow, app and node keys, as every trial of
    one scenario does (the host's timeline is deterministic)."""
    def keys(pool):
        return draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))

    flows, apps, nodes = keys(["m1", "m2"]), keys(["x", "y"]), keys(["n1", "n0"])
    return draw(st.lists(
        trial_results(flows=flows, apps=apps, nodes=nodes), max_size=6
    ))


def batch_columns(batch):
    """Every field of a TrialBatch, arrays as ``(dtype, shape, values)``."""
    return {
        field.name: (
            (value.dtype.str, value.shape, value.tolist())
            if isinstance(value, np.ndarray) else value
        )
        for field in dataclasses.fields(batch)
        for value in [getattr(batch, field.name)]
    }


def stats_json(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


class TestColumnarAggregate:
    """CampaignStats.aggregate reduces TrialBatch columns; the numbers
    must equal the per-trial reference loop exactly."""

    @given(st.lists(trial_results(), max_size=8))
    def test_matches_reference_loop_exactly(self, trials):
        """Keys that differ between trials, zero-round trials, the
        empty list and switch delays — no tolerance anywhere."""
        expected = reference_aggregate(trials)
        for given_trials in (trials, TrialBatch.from_results(trials)):
            stats = CampaignStats.aggregate(given_trials)
            assert stats.to_dict() == expected.to_dict()
            assert stats_json(stats) == stats_json(expected)

    @given(st.lists(trial_results(), max_size=8), st.data())
    def test_concat_of_any_split_equals_whole(self, trials, data):
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(trials)), max_size=3
        )))
        bounds = [0, *cuts, len(trials)]
        parts = [
            TrialBatch.from_results(trials[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        whole = TrialBatch.from_results(trials)
        assert batch_columns(TrialBatch.concat(parts)) == batch_columns(whole)

    @given(scenario_trials())
    def test_results_round_trip(self, trials):
        assert TrialBatch.from_results(trials).results() == trials

    def test_missing_keys_count_zero(self):
        """A trial without a flow, app or node of another trial gets
        zeros there; the statistics do not change."""
        full = TrialResult(
            rounds=4, beacon_heard=(3, 4), messages={"m": (1, 2, 3)},
            chains={"x": (1, 1)}, radio_on={"n0": 1.5}, duration=10.0,
        )
        bare = TrialResult(rounds=2, beacon_heard=(1, 2), duration=10.0)
        batch = TrialBatch.from_results([full, bare])
        assert batch.flows == ("m",) and batch.nodes == ("n0",)
        padded = batch.results()[1]
        assert padded.messages == {"m": (0, 0, 0)}
        assert padded.chains == {"x": (0, 0)}
        assert padded.radio_on == {"n0": 0.0}
        assert stats_json(CampaignStats.aggregate(batch)) == stats_json(
            reference_aggregate([full, bare])
        )

    def test_empty_batch(self):
        batch = TrialBatch.concat([])
        assert len(batch) == 0 and batch.results() == []
        assert batch.flows == batch.apps == batch.nodes == ()
