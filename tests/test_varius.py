"""Unit tests for the VARIUS-style variation model."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.pv.varius import (
    DEFAULT_PARAMS,
    VariusParams,
    place_on_grid,
    sample_delta_vth,
    spherical_correlation,
    systematic_field,
)


def test_params_sigma_total():
    params = VariusParams(sigma_systematic=0.03, sigma_random=0.04)
    assert params.sigma_total == pytest.approx(0.05)


def test_spherical_correlation_boundaries():
    assert spherical_correlation(np.array([0.0]), 0.5)[0] == pytest.approx(1.0)
    assert spherical_correlation(np.array([0.5]), 0.5)[0] == pytest.approx(0.0)
    assert spherical_correlation(np.array([2.0]), 0.5)[0] == 0.0


def test_spherical_correlation_monotone_decreasing():
    distances = np.linspace(0, 0.5, 20)
    rho = spherical_correlation(distances, 0.5)
    assert (np.diff(rho) <= 1e-12).all()


def test_systematic_field_statistics():
    rng = np.random.default_rng(0)
    sigma = 0.02
    fields = [systematic_field(16, 0.5, sigma, rng) for _ in range(40)]
    samples = np.concatenate([f.ravel() for f in fields])
    assert abs(samples.mean()) < 0.002
    assert samples.std() == pytest.approx(sigma, rel=0.15)


def test_systematic_field_is_spatially_correlated():
    rng = np.random.default_rng(1)
    corr_neighbor = []
    corr_far = []
    for _ in range(30):
        field = systematic_field(16, 0.5, 0.02, rng)
        corr_neighbor.append(np.corrcoef(field[:, 0], field[:, 1])[0, 1])
        corr_far.append(np.corrcoef(field[:, 0], field[:, 15])[0, 1])
    assert np.mean(corr_neighbor) > 0.5
    assert np.mean(corr_neighbor) > np.mean(corr_far) + 0.2


def test_zero_sigma_field_is_zero():
    rng = np.random.default_rng(2)
    field = systematic_field(8, 0.5, 0.0, rng)
    assert (field == 0).all()


def test_field_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        systematic_field(0, 0.5, 0.01, rng)
    with pytest.raises(ValueError):
        systematic_field(8, 0.5, -0.01, rng)


def test_place_on_grid_covers_in_order():
    rows, cols = place_on_grid(100, 8)
    assert len(rows) == 100
    positions = rows * 8 + cols
    assert (np.diff(positions) >= 0).all()
    assert positions[0] == 0
    assert positions[-1] <= 63


def test_place_more_nodes_than_cells():
    rows, cols = place_on_grid(1000, 4)
    assert rows.max() == 3 and cols.max() == 3


def test_sample_delta_vth_shape_and_spread():
    rng = np.random.default_rng(4)
    samples = sample_delta_vth(5000, DEFAULT_PARAMS, rng)
    assert samples.shape == (5000,)
    assert samples.std() == pytest.approx(DEFAULT_PARAMS.sigma_total, rel=0.35)


def test_sample_deterministic_for_seed():
    a = sample_delta_vth(100, DEFAULT_PARAMS, np.random.default_rng(5))
    b = sample_delta_vth(100, DEFAULT_PARAMS, np.random.default_rng(5))
    assert (a == b).all()


_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
_FABRICATE_CHIP_8 = (
    "import hashlib\n"
    "from repro.circuits.ex_stage import build_ex_stage\n"
    "from repro.pv.delaymodel import NTC\n"
    "chip = build_ex_stage(16, NTC).fabricate(seed=8)\n"
    "print(hashlib.sha256(chip.delays.tobytes()).hexdigest())\n"
)


def test_fabricated_delays_do_not_depend_on_the_blas_thread_count():
    """The grid covariance's Cholesky factor differs in its last bits
    with the BLAS thread count; importing ``repro`` pins one thread, so
    chip 8's delays hash the same with the thread variables unset, set
    to 1 and set to 2."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = {}
    for threads in (None, "1", "2"):
        env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARS}
        if threads is not None:
            env.update(dict.fromkeys(_THREAD_VARS, threads))
        env["PYTHONPATH"] = src
        done = subprocess.run(
            [sys.executable, "-c", _FABRICATE_CHIP_8],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests[threads] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests
