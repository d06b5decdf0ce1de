"""Unit tests for the Trident controller on synthetic error traces."""

import numpy as np
import pytest

from repro.arch.pipeline import PipelineConfig
from repro.core.trident import TridentScheme
from repro.experiments.scheme_runs import CET_ENTRIES
from repro.qa.scheme_reference import trident_reference
from repro.timing.dta import ERR_CE, ERR_NONE, ERR_SE_MAX, ERR_SE_MIN

from tests.util import simulate_audited, synthetic_error_trace


def _repeating(err_class, repeats=8, period=3):
    n = repeats * period
    classes = np.full(n, ERR_NONE, dtype=np.int8)
    classes[::period] = err_class
    instr = (np.arange(n) % period).astype(np.int16)
    return synthetic_error_trace(classes, instr_sens=instr, instr_init=np.roll(instr, 1))


def test_se_max_learned_then_avoided_with_one_stall_each():
    trace = _repeating(ERR_SE_MAX, repeats=8)
    result = TridentScheme(32).simulate(trace)
    assert result.errors_missed == 1
    assert result.errors_predicted == 7
    assert result.flushes == 1
    # every hit (errant or false positive) inserted one stall
    assert result.stalls == result.errors_predicted + result.false_positives


def test_se_min_is_handled_unlike_dcs():
    trace = _repeating(ERR_SE_MIN, repeats=8)
    result = TridentScheme(32).simulate(trace)
    assert result.errors_total == 8
    assert result.errors_predicted == 7


def test_ce_needs_two_stalls():
    trace = _repeating(ERR_CE, repeats=6)
    result = TridentScheme(32).simulate(trace)
    assert result.errors_predicted == 5
    predicted_hits = result.errors_predicted + result.false_positives
    # CE entries grant two stall cycles per hit
    assert result.stalls == 2 * predicted_hits


def test_understall_escalation():
    """A context first seen as SE then recurring as CE is under-stalled
    once (detection + correction fire again) and its class escalates."""
    classes = np.array([ERR_SE_MAX, ERR_CE, ERR_CE], dtype=np.int8)
    trace = synthetic_error_trace(classes)
    result = TridentScheme(32).simulate(trace)
    assert result.extra["under_stalled"] == 1
    assert result.flushes == 2  # first SE + under-stalled CE
    assert result.errors_predicted == 1  # the final CE, after escalation


def test_penalty_math():
    pipeline = PipelineConfig(depth=11)
    classes = np.array([ERR_SE_MAX, ERR_SE_MAX, ERR_NONE], dtype=np.int8)
    trace = synthetic_error_trace(classes)
    result = TridentScheme(32, pipeline=pipeline).simulate(trace)
    # cycle0: miss -> 11; cycle1: predicted -> 1 stall; cycle2: fp -> 1
    assert result.flushes == 1
    assert result.errors_predicted == 1
    assert result.false_positives == 1
    assert result.penalty_cycles == 11 + 2


def test_trident_vs_razor_on_real_trace(error_trace16):
    from repro.core.schemes import RazorScheme

    trident = TridentScheme(128).simulate(error_trace16)
    razor = RazorScheme().simulate(error_trace16)
    # Trident is responsible for at least as many errors...
    assert trident.errors_total >= razor.errors_total
    # ...and on a trace with errors its penalty relies on cheap stalls
    if razor.errors_total > 50:
        assert trident.penalty_cycles < razor.penalty_cycles + trident.errors_total


def test_capacity_thrash_reduces_accuracy():
    n = 200
    classes = np.full(n, ERR_SE_MAX, dtype=np.int8)
    instr = (np.arange(n) % 64).astype(np.int16)
    trace = synthetic_error_trace(classes, instr_sens=instr, instr_init=instr)
    tiny = TridentScheme(2).simulate(trace)
    big = TridentScheme(128).simulate(trace)
    assert tiny.prediction_accuracy < big.prediction_accuracy


def test_unique_instances_counted():
    trace = _repeating(ERR_SE_MAX, repeats=5, period=4)
    result = TridentScheme(32).simulate(trace)
    assert result.unique_instances == 1


@pytest.mark.parametrize("capacity", [CET_ENTRIES, 4, 16])
def test_kernel_equals_reference_on_fast_traces(fast_error_traces, capacity):
    scheme = TridentScheme(capacity)
    for benchmark, traces in fast_error_traces.items():
        for chip, trace in zip(("ch3", "ch4"), traces):
            kernel = simulate_audited(TridentScheme.simulate, scheme, trace)
            assert kernel == simulate_audited(trident_reference, scheme, trace), (benchmark, chip)


def test_kernel_escalates_per_tenure():
    """An entry evicted after escalating to CE comes back with the class
    of its new learning cycle, so its next CE is under-stalled again."""
    se, ce = ERR_SE_MAX, ERR_CE
    classes = np.array([se, ce, ce, se, se, ce, ce], dtype=np.int8)
    instr = np.array([1, 1, 1, 2, 1, 1, 1], dtype=np.int16)
    trace = synthetic_error_trace(classes, instr_sens=instr, instr_init=instr)
    result = TridentScheme(1).simulate(trace)
    assert result == trident_reference(TridentScheme(1), trace)
    assert result.extra["under_stalled"] == 2
    assert result.extra["capacity_misses"] == 1
