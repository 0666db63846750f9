"""The counter-based generator behind the vectorized trial engine.

:func:`repro.core.rng.uniforms` makes draw ``i`` of key ``k`` the
``i``-th SplitMix64 output from state ``k``; :func:`stream_keys` maps
every seed type :func:`~repro.core.rng.make_rng` accepts onto such a
key.  These tests pin the stream exactly (so a numpy or Python upgrade
cannot move it silently), check its statistics over a million draws,
and check the structural properties the engine relies on: any split of
the keys and any prefix of the draw count give the same numbers.
Every seed is fixed, so the statistical checks are deterministic.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.rng import stream_keys, uniforms

MASK = (1 << 64) - 1


def splitmix64_uniform(key: int, index: int) -> float:
    """Draw ``index`` of ``key`` in plain Python integers."""
    z = (key + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return (z >> 11) * 2.0 ** -53


#: seed -> its first four uniforms.  Seed 0 maps to key 0, whose first
#: SplitMix64 output is the published 0xE220A8397B1DCDAF.
KNOWN_ANSWERS = {
    0: [0.8833108082136426, 0.43152799704850997, 0.026433771592597743,
        0.9708819781538285],
    12345: [0.4988858903732927, 0.4581311898914051, 0.538326766414223,
            0.984571553827053],
    -1: [0.4008196886302846, 0.7301098049215425, 0.7705413288596122,
         0.9373505741444247],
}


class TestKnownAnswers:
    @pytest.mark.parametrize("seed", sorted(KNOWN_ANSWERS))
    def test_first_uniforms_pinned(self, seed):
        row = uniforms(stream_keys([seed]), 4)[0]
        assert row.tolist() == KNOWN_ANSWERS[seed]

    def test_seed_zero_is_splitmix64_seeded_with_zero(self):
        assert int(stream_keys([0])[0]) == 0
        first = uniforms(stream_keys([0]), 1)[0, 0]
        assert first == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53

    def test_matches_scalar_definition_across_blocks(self):
        """Every cell equals the plain-integer definition, including
        rows that span several generation blocks."""
        keys = stream_keys([3, 2**63, -7])
        count = 70_000
        grid = uniforms(keys, count)
        for t, key in enumerate(keys.tolist()):
            for index in (0, 1, 32_767, 32_768, 65_536, count - 1):
                assert grid[t, index] == splitmix64_uniform(key, index)


class TestStatistics:
    def test_ks_uniformity_over_a_million_draws(self):
        draws = uniforms(stream_keys(range(1000)), 1000).ravel()
        assert draws.size == 10**6
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert stats.kstest(draws, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("axis", ["adjacent seeds", "adjacent draws"])
    def test_pairs_are_independent(self, axis):
        """16x16 chi-square and correlation on ``(u[t, i], u[t+1, i])``
        and ``(u[t, i], u[t, i+1])`` over about a million pairs."""
        grid = uniforms(stream_keys(range(1001)), 1001)
        if axis == "adjacent seeds":
            first, second = grid[:-1, :].ravel(), grid[1:, :].ravel()
        else:
            first, second = grid[:, :-1].ravel(), grid[:, 1:].ravel()
        counts, _, _ = np.histogram2d(first, second, bins=16,
                                      range=[[0, 1], [0, 1]])
        expected = first.size / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, 255) > 1e-3
        assert abs(np.corrcoef(first, second)[0, 1]) < 5 / np.sqrt(first.size)


class TestStructure:
    @given(
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        count=st.integers(0, 70_000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_split_and_prefix_gives_same_uniforms(self, keys, count,
                                                      data):
        keys = np.array(keys, dtype=np.uint64)
        whole = uniforms(keys, count)
        cut = data.draw(st.integers(0, len(keys)), label="cut")
        split = np.concatenate([uniforms(keys[:cut], count),
                                uniforms(keys[cut:], count)])
        np.testing.assert_array_equal(split, whole)
        prefix = data.draw(st.integers(0, count), label="prefix")
        np.testing.assert_array_equal(uniforms(keys, prefix),
                                      whole[:, :prefix])

    def test_shape_reshapes_the_flat_layout(self):
        keys = stream_keys([1, 2, 3])
        np.testing.assert_array_equal(
            uniforms(keys, (4, 5, 6)),
            uniforms(keys, 120).reshape(3, 4, 5, 6),
        )
        assert uniforms(keys, (0, 5)).shape == (3, 0, 5)
        assert uniforms(stream_keys([]), 7).shape == (0, 7)


class TestKeys:
    def test_out_of_range_ints_get_distinct_keys(self):
        seeds = [-1, 2**64 - 1, 2**70, 2**128 - 1]
        assert len(set(stream_keys(seeds).tolist())) == len(seeds)

    @given(st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_injective_on_64_bit_seeds(self, seeds):
        assert len(set(stream_keys(seeds).tolist())) == len(seeds)

    def test_stateful_seeds_are_deterministic(self):
        assert (stream_keys([random.Random(7)])
                == stream_keys([random.Random(7)])).all()
        assert (stream_keys([np.random.default_rng(7)])
                == stream_keys([np.random.default_rng(7)])).all()
        fresh = stream_keys([None, None])
        assert fresh[0] != fresh[1]
