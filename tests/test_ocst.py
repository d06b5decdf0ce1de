"""OCST's per-interval replay against the per-cycle reference loop."""

import numpy as np
import pytest

from repro.core.schemes import OcstScheme
from repro.qa.scheme_reference import ocst_reference
from repro.timing.dta import ERR_NONE, ERR_SE_MAX

from tests.util import simulate_audited, synthetic_error_trace


def _run(scheme, trace):
    """Kernel and reference results with their audit digests, asserted
    equal and type-strict; returns the kernel's result."""
    kernel = simulate_audited(OcstScheme.simulate, scheme, trace)
    assert kernel == simulate_audited(ocst_reference, scheme, trace)
    return scheme.simulate(trace)


@pytest.mark.parametrize("interval", [5000, 500, 7, 1])
def test_kernel_equals_reference_on_fast_traces(fast_error_traces, interval):
    scheme = OcstScheme(interval=interval)
    for benchmark, traces in fast_error_traces.items():
        for chip, trace in zip(("ch3", "ch4"), traces):
            kernel = simulate_audited(OcstScheme.simulate, scheme, trace)
            assert kernel == simulate_audited(ocst_reference, scheme, trace), (benchmark, chip)


def test_report_identical_with_reference_installed(tmp_path, monkeypatch):
    """fig4_10-fig4_12 compare OCST with the other schemes; their report
    bytes must not depend on which engine runs it."""
    from repro.experiments.__main__ import main

    def report(name):
        out = tmp_path / f"{name}.json"
        argv = ["fig4_10", "fig4_11", "fig4_12", "--fast", "--jobs", "1",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    kernel = report("kernel")
    monkeypatch.setattr(OcstScheme, "simulate", ocst_reference)
    assert report("reference") == kernel


def test_trailing_partial_interval_never_retunes():
    """1,050 cycles at interval 100: the last 50 cycles err on every
    cycle, but their interval never ends, so the skew stays nominal."""
    classes = np.zeros(1050, dtype=np.int8)
    classes[1000:] = ERR_SE_MAX
    trace = synthetic_error_trace(classes)
    result = _run(OcstScheme(interval=100), trace)
    assert result.flushes == 50
    assert result.extra["final_skew_ps"] == 0.0
    assert result.effective_clock_period == trace.clock_period


def test_all_error_trace_climbs_resets_and_freezes():
    """Errors beyond the skew range on every cycle: four intervals climb
    to the 12% bound, the fifth finds nothing bought and resets, and the
    next 8 stay frozen at nominal before the climb starts again."""
    interval = 10
    period = 1000.0
    scheme = OcstScheme(interval=interval)
    # the skew (ps) during each interval, then after the last one
    skews = [0.0, 30.0, 60.0, 90.0, 120.0] + [0.0] * 9 + [30.0, 60.0]
    for intervals in range(1, len(skews)):
        n = intervals * interval
        trace = synthetic_error_trace(
            np.full(n, ERR_SE_MAX, dtype=np.int8),
            t_late=np.full(n, 1.5 * period),
            clock_period=period,
        )
        result = _run(scheme, trace)
        assert result.flushes == n
        assert result.errors_predicted == 0
        assert result.extra["final_skew_ps"] == skews[intervals], intervals
        # every cycle flushes, so each weighs the same in the average
        average = period + sum(skews[:intervals]) / intervals
        assert result.effective_clock_period == pytest.approx(average, rel=1e-12)


def test_error_free_and_empty_traces():
    clean = synthetic_error_trace(np.full(30, ERR_NONE, dtype=np.int8))
    result = _run(OcstScheme(interval=7), clean)
    assert result.penalty_cycles == 0
    assert result.effective_clock_period == clean.clock_period
    empty = synthetic_error_trace(np.zeros(0, dtype=np.int8))
    result = _run(OcstScheme(interval=7), empty)
    assert result.base_cycles == 0
    assert result.effective_clock_period == 0.0
