"""Statistical-equivalence harness for Monte-Carlo trial engines.

The ``fast`` engine is bit-identical to the reference simulator, so its
test suite can literally ``assert a == b``.  The ``vectorized`` engine
draws from different random streams by design — equal seeds give
*different realizations from the same distributions* — so "correct"
means something statistical, and hand-waving it would let a subtly
wrong sampler (a transposed Markov transition, an off-by-one burst
length) ship undetected.

:func:`assert_distribution_equivalent` makes the claim precise and
falsifiable.  Given the aggregated campaign statistics of two engines
over the *same* scenario and trial count, it checks:

* **deterministic structure is equal**, not just close: executed
  rounds, per-flow and per-chain instance totals, beacon denominators,
  and trial counts must match exactly — these do not depend on the
  loss realization, so any difference is a timeline bug, not noise;
* **collisions follow the runs' own data**: where one run is
  collision-free — always so under beacon gating, where collisions
  cannot happen — both must report exactly 0; where both runs collided
  (only the ``LOCAL_BELIEF`` ablation can), collisions depend on the
  loss draw and their per-trial means are compared at ``z`` (trials
  are independent, the slots within one trial are not);
* **every rate estimate is compatible**: the Wilson score intervals of
  the two engines (recomputed at a configurable, deliberately wide
  ``z``) must overlap for overall/per-flow deadline-miss, delivery,
  beacon-reception, and per-application chain-miss rates;
* **radio-on means agree** within a relative tolerance (radio time is
  a deterministic function of beacon reception counts, so its spread
  is narrow and a mean comparison is tight);
* **mode-change-latency samples agree** via a two-sample
  Kolmogorov-Smirnov statistic when raw per-trial samples are
  available (pass :class:`~repro.mc.campaign.PointResult`\\ s to get
  this), falling back to a mean comparison of the summaries.

Failures raise :class:`EquivalenceError` (an ``AssertionError``
subclass) naming the failing check — the harness is reusable
infrastructure for every future engine, not a one-off test helper.

The default ``z`` of 3.29 (a 99.9 % interval per side) is deliberately
wider than the reporting default of 1.96: the two engines' estimates
are *independent*, so at 95 % the overlap test would flag a healthy
pair of samplers far too often to gate CI on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..runtime.trial import TrialResult
from .stats import CampaignStats, RateEstimate, wilson_interval

#: z-quantile of a 99.9 % two-sided confidence level — wide on purpose
#: (see module docstring).
Z_STRICT = 3.2905267314919255


class EquivalenceError(AssertionError):
    """Two engines' campaign statistics are *not* compatible.

    An :class:`AssertionError` subclass so plain ``pytest.raises``
    negative tests and bare-assert test styles both work.
    """


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max ECDF distance)."""
    if not a or not b:
        raise ValueError("ks_statistic needs two non-empty samples")
    xs = sorted(a)
    ys = sorted(b)
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n and j < m:
        # Step to the next distinct value and move *both* cursors past
        # every element equal to it — the ECDFs only ever differ at
        # distinct sample values, and splitting ties inflates d.
        value = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n and xs[i] == value:
            i += 1
        while j < m and ys[j] == value:
            j += 1
        d = max(d, abs(i / n - j / m))
    return d


def ks_critical_value(n: int, m: int, c_alpha: float = 1.95) -> float:
    """KS rejection threshold ``c(alpha) * sqrt((n + m) / (n * m))``.

    ``c_alpha=1.95`` corresponds to alpha ≈ 0.001 — like the Wilson
    ``z``, deliberately conservative for CI gating.
    """
    return c_alpha * ((n + m) / (n * m)) ** 0.5


def _intervals_overlap(
    a: RateEstimate, b: RateEstimate, z: float
) -> Tuple[bool, Tuple[float, float], Tuple[float, float]]:
    low_a, high_a = wilson_interval(a.successes, a.total, z)
    low_b, high_b = wilson_interval(b.successes, b.total, z)
    return (low_a <= high_b and low_b <= high_a), (low_a, high_a), (low_b, high_b)


def _coerce(result) -> Tuple[CampaignStats, Optional[List[TrialResult]]]:
    """Accept a PointResult (stats + raw trials) or bare CampaignStats."""
    if isinstance(result, CampaignStats):
        return result, None
    stats = getattr(result, "stats", None)
    if isinstance(stats, CampaignStats):
        return stats, list(getattr(result, "trials", []) or []) or None
    raise TypeError(
        f"expected CampaignStats or PointResult, got {type(result).__name__}"
    )


def _mean_and_variance(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and unbiased sample variance (0 for one value)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, sum((v - mean) ** 2 for v in values) / (n - 1)


def _check_collisions(stats_a, trials_a, stats_b, trials_b, z, fail) -> None:
    """The collision rule (see module docstring): exact where a run is
    collision-free or per-trial samples are missing, otherwise a
    two-sample z comparison of the per-trial collision means."""
    if (
        stats_a.collisions == 0
        or stats_b.collisions == 0
        or trials_a is None
        or trials_b is None
    ):
        if stats_a.collisions != stats_b.collisions:
            fail(
                f"collision counts differ: {stats_a.collisions} vs "
                f"{stats_b.collisions}"
            )
        return
    mean_a, var_a = _mean_and_variance([t.collisions for t in trials_a])
    mean_b, var_b = _mean_and_variance([t.collisions for t in trials_b])
    se = (var_a / len(trials_a) + var_b / len(trials_b)) ** 0.5
    if abs(mean_a - mean_b) > z * se:
        fail(
            f"per-trial collision means incompatible: {mean_a:.4f} vs "
            f"{mean_b:.4f} (|difference| > z={z:g} x standard error "
            f"{se:.4f}; totals {stats_a.collisions} vs {stats_b.collisions})"
        )


def assert_distribution_equivalent(
    actual,
    reference,
    *,
    z: float = Z_STRICT,
    radio_rtol: float = 0.05,
    ks_c_alpha: float = 1.95,
    require_same_totals: bool = True,
    label: str = "",
) -> None:
    """Assert two engines produced statistically compatible campaigns.

    Args:
        actual: The engine under test — a
            :class:`~repro.mc.campaign.PointResult` (preferred; its raw
            trials enable the KS check) or a :class:`CampaignStats`.
        reference: The oracle engine's result for the *same* scenario,
            grid point, and trial count.
        z: Wilson z-quantile for the CI-overlap checks (default: a
            99.9 % interval — see module docstring).
        radio_rtol: Relative tolerance on the radio-on mean.
        ks_c_alpha: ``c(alpha)`` of the KS threshold.
        require_same_totals: Also require the deterministic structure
            (rounds, instance totals, denominators) to match exactly,
            and collisions to follow the collision rule.  Disable only
            when comparing across *different* scenarios.
        label: Prefix for failure messages (e.g. the loss kind).

    Raises:
        EquivalenceError: naming the first failing check.
    """
    stats_a, trials_a = _coerce(actual)
    stats_b, trials_b = _coerce(reference)
    prefix = f"{label}: " if label else ""

    def fail(message: str) -> None:
        raise EquivalenceError(prefix + message)

    if stats_a.n_trials != stats_b.n_trials:
        fail(
            f"trial counts differ: {stats_a.n_trials} vs {stats_b.n_trials} "
            f"— equivalence needs equally sized campaigns"
        )

    if require_same_totals:
        if stats_a.rounds != stats_b.rounds:
            fail(f"executed rounds differ: {stats_a.rounds} vs {stats_b.rounds}")
        _check_collisions(stats_a, trials_a, stats_b, trials_b, z, fail)
        if set(stats_a.flows) != set(stats_b.flows):
            fail(
                f"flow sets differ: {sorted(stats_a.flows)} vs "
                f"{sorted(stats_b.flows)}"
            )
        for flow in stats_a.flows:
            if stats_a.flows[flow].total != stats_b.flows[flow].total:
                fail(
                    f"flow {flow!r} instance totals differ: "
                    f"{stats_a.flows[flow].total} vs {stats_b.flows[flow].total}"
                )
        if set(stats_a.chain_miss) != set(stats_b.chain_miss):
            fail(
                f"chain sets differ: {sorted(stats_a.chain_miss)} vs "
                f"{sorted(stats_b.chain_miss)}"
            )
        for app in stats_a.chain_miss:
            if stats_a.chain_miss[app].total != stats_b.chain_miss[app].total:
                fail(
                    f"chain {app!r} instance totals differ: "
                    f"{stats_a.chain_miss[app].total} vs "
                    f"{stats_b.chain_miss[app].total}"
                )
        if stats_a.beacon.total != stats_b.beacon.total:
            fail(
                f"beacon denominators differ: {stats_a.beacon.total} vs "
                f"{stats_b.beacon.total}"
            )
        if stats_a.miss.total != stats_b.miss.total:
            fail(
                f"message instance totals differ: {stats_a.miss.total} vs "
                f"{stats_b.miss.total}"
            )

    rates = [
        ("overall miss rate", stats_a.miss, stats_b.miss),
        ("delivery rate", stats_a.delivery, stats_b.delivery),
        ("beacon reception rate", stats_a.beacon, stats_b.beacon),
    ]
    rates.extend(
        (f"flow {flow!r} miss rate", stats_a.flows[flow], stats_b.flows[flow])
        for flow in sorted(set(stats_a.flows) & set(stats_b.flows))
    )
    rates.extend(
        (
            f"chain {app!r} miss rate",
            stats_a.chain_miss[app],
            stats_b.chain_miss[app],
        )
        for app in sorted(set(stats_a.chain_miss) & set(stats_b.chain_miss))
    )
    for name, rate_a, rate_b in rates:
        ok, ci_a, ci_b = _intervals_overlap(rate_a, rate_b, z)
        if not ok:
            fail(
                f"{name} incompatible: {rate_a.rate:.5f} "
                f"[{ci_a[0]:.5f}, {ci_a[1]:.5f}] vs {rate_b.rate:.5f} "
                f"[{ci_b[0]:.5f}, {ci_b[1]:.5f}] (z={z:g} intervals disjoint)"
            )

    if (stats_a.radio_on is None) != (stats_b.radio_on is None):
        fail(
            f"radio accounting differs: "
            f"{'present' if stats_a.radio_on else 'absent'} vs "
            f"{'present' if stats_b.radio_on else 'absent'}"
        )
    if stats_a.radio_on is not None and stats_b.radio_on is not None:
        mean_a, mean_b = stats_a.radio_on.mean, stats_b.radio_on.mean
        scale = max(abs(mean_a), abs(mean_b), 1e-12)
        if abs(mean_a - mean_b) > radio_rtol * scale:
            fail(
                f"radio-on means differ beyond rtol={radio_rtol:g}: "
                f"{mean_a:.6f} vs {mean_b:.6f}"
            )

    delays_a = (
        [d for trial in trials_a for d in trial.switch_delays]
        if trials_a is not None
        else None
    )
    delays_b = (
        [d for trial in trials_b for d in trial.switch_delays]
        if trials_b is not None
        else None
    )
    if (stats_a.switch_delay is None) != (stats_b.switch_delay is None):
        fail(
            f"mode-change latency differs: "
            f"{'present' if stats_a.switch_delay else 'absent'} vs "
            f"{'present' if stats_b.switch_delay else 'absent'}"
        )
    if delays_a and delays_b:
        d = ks_statistic(delays_a, delays_b)
        threshold = ks_critical_value(len(delays_a), len(delays_b), ks_c_alpha)
        if d > threshold:
            fail(
                f"mode-change latency distributions differ: KS statistic "
                f"{d:.4f} > threshold {threshold:.4f} "
                f"(n={len(delays_a)}, m={len(delays_b)})"
            )
    elif stats_a.switch_delay is not None and stats_b.switch_delay is not None:
        mean_a, mean_b = stats_a.switch_delay.mean, stats_b.switch_delay.mean
        scale = max(abs(mean_a), abs(mean_b), 1e-12)
        if abs(mean_a - mean_b) > radio_rtol * scale:
            fail(
                f"mode-change latency means differ: {mean_a:.6f} vs "
                f"{mean_b:.6f} (no raw samples for a KS check)"
            )


def assert_engines_equivalent(
    scenario,
    engines: Sequence[str] = ("vectorized", "fast", "reference"),
    *,
    trials: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    sweep=None,
    cache=None,
    cache_dir=None,
    expect: Optional[dict] = None,
    z: float = Z_STRICT,
    radio_rtol: float = 0.05,
    ks_c_alpha: float = 1.95,
    label: str = "",
) -> dict:
    """Run one scenario on several engines and gate their agreement.

    The one-call form of the harness: executes the campaign once per
    engine (sharing a schedule cache, so synthesis happens once),
    asserts :func:`assert_distribution_equivalent` for every engine
    pair at every grid point, and optionally asserts which engine each
    request actually *resolved* to after the fallback to the reference
    simulator — the piece that catches a new loss kind silently
    downgrading instead of vectorizing.

    Args:
        scenario: A :class:`repro.api.Scenario` with a simulation phase.
        engines: Engine names to run and cross-compare.
        trials: Trials per grid point (default: the scenario's).
        seeds: Explicit per-trial seeds (common random numbers).
        sweep: Loss-parameter grid, as in
            :func:`repro.mc.campaign.run_campaign`.
        cache: Schedule cache to share (one is created when neither
            ``cache`` nor ``cache_dir`` is given).
        cache_dir: Persistent cache directory.
        expect: ``{requested_engine: resolved_engine}`` — assert the
            engine resolution, e.g. ``{"vectorized": "vectorized"}`` to
            prove a kind really vectorizes, or ``{"vectorized":
            "reference"}`` to pin an intentional, tested downgrade.
        z / radio_rtol / ks_c_alpha: Forwarded to
            :func:`assert_distribution_equivalent`.
        label: Failure-message prefix (e.g. the loss kind).

    Returns:
        ``{engine: CampaignResult}`` for further inspection.

    Raises:
        EquivalenceError: the first failing pairwise check or engine
            resolution expectation.
    """
    import tempfile

    from ..engine.cache import ScheduleCache
    from .campaign import run_campaign

    if len(engines) < 2 and not expect:
        raise ValueError("assert_engines_equivalent needs >= 2 engines")

    prefix = f"{label}: " if label else ""
    results = {}
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as shared_dir:
        if cache is None and cache_dir is None:
            # Share one schedule cache across the engines: synthesis is
            # identical per engine, so it should run exactly once.
            cache = ScheduleCache(shared_dir)
        for engine in engines:
            results[engine] = run_campaign(
                scenario,
                trials=trials,
                seeds=seeds,
                sweep=sweep,
                cache=cache,
                cache_dir=cache_dir,
                engine=engine,
            )

    if expect:
        for requested, resolved in expect.items():
            if requested not in results:
                continue
            used = results[requested].engines.get(scenario.name)
            if used != resolved:
                raise EquivalenceError(
                    f"{prefix}engine {requested!r} resolved to {used!r}, "
                    f"expected {resolved!r} (engine resolution moved)"
                )

    names = list(results)
    for i, name_a in enumerate(names):
        for name_b in names[i + 1:]:
            points_a = results[name_a].points
            points_b = results[name_b].points
            if len(points_a) != len(points_b):
                raise EquivalenceError(
                    f"{prefix}{name_a} vs {name_b}: grid sizes differ "
                    f"({len(points_a)} vs {len(points_b)})"
                )
            for point_a, point_b in zip(points_a, points_b):
                if point_a.point != point_b.point:
                    raise EquivalenceError(
                        f"{prefix}{name_a} vs {name_b}: grid points "
                        f"diverge ({point_a.point} vs {point_b.point})"
                    )
                point_label = f"{prefix}{name_a} vs {name_b}"
                if point_a.point:
                    point_label += f" at {point_a.point}"
                assert_distribution_equivalent(
                    point_a,
                    point_b,
                    z=z,
                    radio_rtol=radio_rtol,
                    ks_c_alpha=ks_c_alpha,
                    label=point_label,
                )
    return results
