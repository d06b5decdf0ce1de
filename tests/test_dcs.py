"""Unit tests for the DCS scheme on synthetic error traces."""

import numpy as np
import pytest

from repro.arch.pipeline import PipelineConfig
from repro.core.dcs import DcsScheme
from repro.core.kernels import Occurrences
from repro.core.trident import TridentScheme
from repro.experiments.scheme_runs import ACSLT_ENTRIES, ACSLT_WAYS, ICSLT_ENTRIES
from repro.qa.scheme_reference import dcs_reference, trident_reference
from repro.timing.dta import ERR_NONE, ERR_SE_MAX

from tests.util import simulate_audited, synthetic_error_trace


def _trace_with_repeating_error(repeats=10, period=4):
    """One errant context recurring every ``period`` cycles."""
    n = repeats * period
    classes = np.full(n, ERR_NONE, dtype=np.int8)
    classes[::period] = ERR_SE_MAX
    instr = np.arange(n, dtype=np.int16) % period  # unique per position
    return synthetic_error_trace(
        classes, instr_sens=instr, instr_init=np.roll(instr, 1)
    )


def test_first_occurrence_missed_then_predicted():
    trace = _trace_with_repeating_error(repeats=10)
    result = DcsScheme("icslt", 32).simulate(trace)
    assert result.errors_total == 10
    assert result.errors_missed == 1  # only the learning occurrence
    assert result.errors_predicted == 9
    assert result.unique_instances == 1
    assert result.prediction_accuracy == pytest.approx(0.9)


def test_penalty_accounting_math():
    pipeline = PipelineConfig(depth=11)
    trace = _trace_with_repeating_error(repeats=10)
    result = DcsScheme("icslt", 32, pipeline=pipeline).simulate(trace)
    # 1 flush (11) + 9 predicted stalls (1 each); the non-errant cycles of
    # the same tag also hit the table -> false-positive stalls
    expected = 11 + result.stalls
    assert result.penalty_cycles == expected
    assert result.flushes == 1


def test_error_free_trace_costs_nothing():
    trace = synthetic_error_trace(np.zeros(50, dtype=np.int8))
    result = DcsScheme("icslt", 32).simulate(trace)
    assert result.penalty_cycles == 0
    assert result.errors_total == 0
    assert result.prediction_accuracy == 1.0


def test_false_positives_counted():
    # context errs once, then repeats clean: every later occurrence is a
    # false-positive stall
    classes = np.zeros(10, dtype=np.int8)
    classes[0] = ERR_SE_MAX
    trace = synthetic_error_trace(classes)  # same context every cycle
    result = DcsScheme("icslt", 32).simulate(trace)
    assert result.errors_missed == 1
    assert result.false_positives == 9
    assert result.stalls == 9


def test_capacity_misses_with_tiny_table():
    # 8 distinct errant contexts cycling, table of 2 -> constant thrash
    n = 80
    classes = np.full(n, ERR_SE_MAX, dtype=np.int8)
    instr = (np.arange(n) % 8).astype(np.int16)
    trace = synthetic_error_trace(classes, instr_sens=instr, instr_init=instr)
    small = DcsScheme("icslt", 2).simulate(trace)
    large = DcsScheme("icslt", 32).simulate(trace)
    assert small.extra["capacity_misses"] > 0
    assert large.extra["capacity_misses"] == 0
    assert small.prediction_accuracy < large.prediction_accuracy


def test_dcs_only_handles_max_errors():
    classes = np.array([1, 1, 1, 1], dtype=np.int8)  # all SE_MIN
    trace = synthetic_error_trace(classes)
    result = DcsScheme("icslt", 32).simulate(trace)
    assert result.errors_total == 0  # blind to min violations
    assert result.flushes == 0


def test_variant_names_and_validation():
    assert DcsScheme("icslt").name == "DCS-ICSLT"
    assert DcsScheme("acslt").name == "DCS-ACSLT"
    with pytest.raises(ValueError):
        DcsScheme("bogus")


def test_acslt_variant_runs_and_matches_on_small_case():
    trace = _trace_with_repeating_error(repeats=6)
    icslt = DcsScheme("icslt", 32).simulate(trace)
    acslt = DcsScheme("acslt", 32, 16).simulate(trace)
    # with ample capacity both variants behave identically
    assert icslt.errors_predicted == acslt.errors_predicted
    assert icslt.penalty_cycles == acslt.penalty_cycles


def test_owm_distinguishes_tags():
    """Identical opcodes with different OWM must be distinct error tags."""
    n = 20
    classes = np.zeros(n, dtype=np.int8)
    classes[0] = ERR_SE_MAX  # errs with OWM set
    owm = np.zeros(n, dtype=bool)
    owm[0] = True
    trace = synthetic_error_trace(classes, owm=owm)
    result = DcsScheme("icslt", 32).simulate(trace)
    # the later (OWM reset) occurrences are different tags: no stalls
    assert result.false_positives == 0
    assert result.stalls == 0


def test_result_metadata(error_trace16):
    result = DcsScheme("icslt", 128).simulate(error_trace16)
    assert result.scheme == "DCS-ICSLT"
    assert result.benchmark == "mcf"
    assert result.base_cycles == len(error_trace16)
    assert 0.0 <= result.prediction_accuracy <= 1.0
    assert result.total_cycles == result.base_cycles + result.penalty_cycles


# ----------------------------------------------------------------------
# the event-compressed kernel against the per-cycle reference
# ----------------------------------------------------------------------

@pytest.mark.parametrize("low", [0, (1 << 16) - 3])
def test_occurrences_last_before_on_both_sort_keys(low):
    """Codes below 2**16 sort as a 16-bit radix key, the rest as int64;
    both must give each code's last occurrence before a cycle."""
    codes = low + np.random.default_rng(low).integers(0, 6, 300)
    occurrences = Occurrences(codes)
    for cycle in range(1, len(codes) + 1, 7):
        seen = np.unique(codes[:cycle])
        expected = [np.flatnonzero(codes[:cycle] == code)[-1] for code in seen]
        assert occurrences.last_before(seen, cycle).tolist() == expected


@pytest.mark.parametrize(
    "variant, capacity, associativity",
    [
        ("icslt", ICSLT_ENTRIES, 1),
        ("icslt", 4, 1),
        ("icslt", 16, 1),
        ("acslt", ACSLT_ENTRIES, ACSLT_WAYS),
        ("acslt", 4, 4),
        ("acslt", 16, 16),
    ],
)
def test_kernel_equals_reference_on_fast_traces(
    fast_error_traces, variant, capacity, associativity
):
    scheme = DcsScheme(variant, capacity, associativity)
    for benchmark, traces in fast_error_traces.items():
        for chip, trace in zip(("ch3", "ch4"), traces):
            kernel = simulate_audited(DcsScheme.simulate, scheme, trace)
            assert kernel == simulate_audited(dcs_reference, scheme, trace), (benchmark, chip)


def test_report_identical_with_reference_installed(tmp_path, monkeypatch, capsys):
    """fig3_8 / fig4_9 sweep the table capacities through every eviction
    regime; their report bytes must not depend on which engine runs."""
    from repro.experiments.__main__ import main

    def report(name):
        out = tmp_path / f"{name}.json"
        argv = ["fig3_8", "fig4_9", "--fast", "--jobs", "1", "--format", "json",
                "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    kernel = report("kernel")
    monkeypatch.setattr(DcsScheme, "simulate", dcs_reference)
    monkeypatch.setattr(TridentScheme, "simulate", trident_reference)
    assert report("reference") == kernel
