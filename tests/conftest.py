"""Session-scoped fixtures shared across the test suite.

The 8- and 16-bit artefacts are cheap to build but not free, so anything
immutable is built once per session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.trace import BENCHMARKS, generate_trace
from repro.circuits.alu import build_alu
from repro.circuits.ex_stage import build_ex_stage
from repro.core.scheme_sim import build_error_trace
from repro.pv.delaymodel import NTC, STC
from repro.timing.levelize import levelize


@pytest.fixture(scope="session")
def alu8():
    return build_alu(8)


@pytest.fixture(scope="session")
def alu8_circuit(alu8):
    return levelize(alu8.netlist)


@pytest.fixture(scope="session")
def alu16():
    return build_alu(16)


@pytest.fixture(scope="session")
def stage16_ntc():
    return build_ex_stage(16, NTC, buffered=True)


@pytest.fixture(scope="session")
def stage16_ntc_bufferless():
    return build_ex_stage(16, NTC, buffered=False)


@pytest.fixture(scope="session")
def stage16_stc():
    return build_ex_stage(16, STC, buffered=True)


@pytest.fixture(scope="session")
def chip16(stage16_ntc):
    """A W=16 chip with both max and min errors (FAST ch4 reference)."""
    return stage16_ntc.fabricate(seed=10)


@pytest.fixture(scope="session")
def chip16_max_only(stage16_ntc):
    """A W=16 chip with max-timing errors only (FAST ch3 reference)."""
    return stage16_ntc.fabricate(seed=8)


@pytest.fixture(scope="session")
def mcf_trace16():
    return generate_trace(BENCHMARKS["mcf"], 1500, width=16)


@pytest.fixture(scope="session")
def vortex_trace16():
    return generate_trace(BENCHMARKS["vortex"], 1500, width=16)


@pytest.fixture(scope="session")
def error_trace16(stage16_ntc, chip16, mcf_trace16):
    return build_error_trace(stage16_ntc, chip16, mcf_trace16)


@pytest.fixture(scope="session")
def error_trace16_vortex(stage16_ntc, chip16, vortex_trace16):
    return build_error_trace(stage16_ntc, chip16, vortex_trace16)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def fast_error_traces():
    """FAST_CONFIG error traces of every benchmark on both reference
    chips (the Chapter-3 chip, then the Chapter-4 chip)."""
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext(FAST_CONFIG)
    seeds = [FAST_CONFIG.ch3_chip_seed, FAST_CONFIG.ch4_chip_seed]
    return {
        benchmark: ctx.error_traces_batch(benchmark, seeds)
        for benchmark in FAST_CONFIG.benchmarks
    }
