"""Property tests for the spatial propagation model (``SpatialLoss``).

The connectivity layer's contracts, checked over randomized inputs:

* **monotonicity** — with shadowing disabled the deterministic PDR is
  non-increasing in distance (the log-distance path-loss curve only
  goes down);
* **symmetry** — with ``symmetric=True`` the PDR matrix is symmetric
  even under log-normal shadowing (one draw per unordered pair);
* **calibration** — realized per-link hit rates land inside the Wilson
  99.9 % interval of the configured PDR;
* **cross-process determinism** — equal parameters produce
  byte-identical matrices in a fresh interpreter (the sorted-node RNG
  iteration rule from ``core/rng.py``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc import wilson_interval
from repro.net import build_topology, grid2d, uniform_random
from repro.runtime import SpatialLoss

REPO_ROOT = Path(__file__).resolve().parents[2]

# Link distances of 9-14 m sit on the PDR waterfall at these radio
# parameters; the defaults put 30 m links at PDR 0.
POSITIONS = {
    "n0": [0.0, 0.0],
    "n1": [12.0, 0.0],
    "n2": [12.0, 9.0],
    "n3": [0.0, 14.0],
}
RADIO = {"tx_power_dbm": 0.0, "sensitivity_dbm": -92.0}


def spatial_topology():
    return build_topology(
        "uniform_random", {"positions": POSITIONS, "comm_range": 40.0}
    )


class TestMonotonicity:
    @given(
        exponent=st.floats(1.5, 5.0),
        d1=st.floats(1.0, 200.0),
        d2=st.floats(1.0, 200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_pdr_non_increasing_in_distance(self, exponent, d1, d2):
        model = SpatialLoss(
            spatial_topology(),
            path_loss_exponent=exponent,
            shadowing_db=0.0,
            **RADIO,
        )
        near, far = sorted((d1, d2))
        assert model.pdr_from_distance(near) >= model.pdr_from_distance(far)

    def test_pdr_bounds(self):
        model = SpatialLoss(spatial_topology(), **RADIO)
        assert model.pdr_from_distance(0.5) == 1.0
        assert model.pdr_from_distance(10_000.0) == 0.0


class TestSymmetry:
    @given(
        sigma=st.floats(0.5, 8.0),
        shadowing_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_matrix_symmetric_with_shadowing(self, sigma, shadowing_seed):
        model = SpatialLoss(
            grid2d(3, 3, spacing=11.0),
            shadowing_db=sigma,
            shadowing_seed=shadowing_seed,
            symmetric=True,
            **RADIO,
        )
        matrix = model.pdr_matrix()
        for a in matrix:
            for b in matrix:
                assert matrix[a][b] == matrix[b][a]

    def test_asymmetric_draws_differ(self):
        """With symmetric=False and shadowing on, at least one link pair
        must receive distinct draws (independent per direction)."""
        model = SpatialLoss(
            grid2d(3, 3, spacing=11.0),
            shadowing_db=6.0,
            shadowing_seed=3,
            symmetric=False,
            **RADIO,
        )
        matrix = model.pdr_matrix()
        assert any(
            matrix[a][b] != matrix[b][a]
            for a in matrix
            for b in matrix
            if a != b
        )


class TestCalibration:
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_link_hit_rates_inside_wilson_ci(self, seed):
        """Realized per-link reception frequencies match the matrix PDR
        at the 99.9 % level (z = 3.29).  The seeds are pinned
        (``derandomize``): 30 comparisons at 99.9 % each fail about one
        random draw in a hundred, which made tier-1 runs flaky."""
        topo = spatial_topology()
        model = SpatialLoss(topo, shadowing_db=3.0, shadowing_seed=5,
                            seed=seed, **RADIO)
        matrix = model.pdr_matrix()
        nodes = set(topo.nodes)
        floods = 600
        hits = {n: 0 for n in nodes}
        for _ in range(floods):
            for node in model.beacon_receivers("n0", nodes):
                hits[node] += 1
        for node in sorted(nodes - {"n0"}):
            pdr = matrix["n0"][node]
            low, high = wilson_interval(hits[node], floods, z=3.2905267314919255)
            assert low <= pdr <= high, (
                f"link n0->{node}: pdr={pdr:.3f} outside "
                f"[{low:.3f}, {high:.3f}] after {floods} floods"
            )


class TestDeterminism:
    def test_matrix_independent_of_trial_seed(self):
        a = SpatialLoss(spatial_topology(), shadowing_db=4.0,
                        shadowing_seed=9, seed=1, **RADIO)
        b = SpatialLoss(spatial_topology(), shadowing_db=4.0,
                        shadowing_seed=9, seed=999, **RADIO)
        assert a.pdr_matrix() == b.pdr_matrix()

    def test_matrix_byte_identical_across_processes(self):
        """Equal seeds -> byte-identical matrix JSON in a fresh
        interpreter: placement and shadowing are pure functions of the
        parameters, iterated in sorted node order."""
        script = (
            "import json, sys\n"
            "from repro.net import uniform_random\n"
            "from repro.runtime import SpatialLoss\n"
            "topo = uniform_random(6, side=40.0, comm_range=25.0, seed=2)\n"
            "model = SpatialLoss(topo, shadowing_db=3.0, shadowing_seed=7,\n"
            "                    tx_power_dbm=0.0, sensitivity_dbm=-92.0)\n"
            "json.dump(model.pdr_matrix(), sys.stdout, sort_keys=True)\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(hash_seed)},
                cwd=REPO_ROOT,
            ).stdout
            for hash_seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        here = SpatialLoss(
            uniform_random(6, side=40.0, comm_range=25.0, seed=2),
            shadowing_db=3.0, shadowing_seed=7, **RADIO,
        )
        assert json.loads(outputs[0]) == here.pdr_matrix()


class TestValidation:
    def test_requires_positions(self):
        from repro.net import line

        with pytest.raises(ValueError, match="positions"):
            SpatialLoss(line(4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"path_loss_exponent": 0.0},
            {"reference_distance": 0.0},
            {"waterfall_width_db": 0.0},
            {"shadowing_db": -1.0},
            {"symmetric": "yes"},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SpatialLoss(spatial_topology(), **kwargs)
