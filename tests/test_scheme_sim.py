"""Unit tests for error-trace construction from real timing runs."""

import numpy as np
import pytest

from repro.arch.operands import operand_size_class, owm_flag
from repro.core.scheme_sim import build_error_trace
from repro.timing.dta import ERR_CE


def test_alignment_sensitising_vs_initialising(error_trace16, mcf_trace16):
    assert len(error_trace16) == len(mcf_trace16) - 1
    assert (error_trace16.instr_sens == mcf_trace16.instrs[1:]).all()
    assert (error_trace16.instr_init == mcf_trace16.instrs[:-1]).all()
    assert (error_trace16.static_ids == mcf_trace16.static_ids[1:]).all()


def test_owm_and_sizes_follow_operands(error_trace16, mcf_trace16):
    owm = owm_flag(mcf_trace16.a_values, mcf_trace16.b_values, 16)
    assert (error_trace16.owm_sens == owm[1:]).all()
    assert (error_trace16.owm_init == owm[:-1]).all()
    sizes = operand_size_class(mcf_trace16.a_values, 16)
    assert (error_trace16.size_a == sizes[1:]).all()


def test_error_classes_consistent_with_arrivals(error_trace16):
    trace = error_trace16
    expect_max = trace.t_late > trace.clock_period
    expect_min = trace.t_early < trace.hold_constraint
    assert (trace.max_err == expect_max).all()
    assert (trace.min_err == expect_min).all()
    ce = expect_max & expect_min
    assert ((trace.err_class == ERR_CE) == ce).all()


def test_error_counts_sum(error_trace16):
    counts = error_trace16.error_counts()
    assert sum(counts.values()) == len(error_trace16)


def test_metadata(error_trace16, stage16_ntc):
    assert error_trace16.benchmark == "mcf"
    assert error_trace16.corner == "NTC"
    assert error_trace16.corner_vdd == pytest.approx(0.45)
    assert error_trace16.clock_period == pytest.approx(stage16_ntc.clock_period)
    assert error_trace16.hold_constraint == pytest.approx(
        stage16_ntc.hold_constraint
    )


def test_width_mismatch_rejected(stage16_ntc, chip16):
    from repro.arch.trace import BENCHMARKS, generate_trace

    wrong = generate_trace(BENCHMARKS["mcf"], 50, width=32)
    with pytest.raises(ValueError, match="width"):
        build_error_trace(stage16_ntc, chip16, wrong)


def test_deterministic(stage16_ntc, chip16, mcf_trace16):
    a = build_error_trace(stage16_ntc, chip16, mcf_trace16)
    b = build_error_trace(stage16_ntc, chip16, mcf_trace16)
    assert (a.err_class == b.err_class).all()
    assert np.allclose(a.t_late, b.t_late)


def test_reference_chip_has_both_error_kinds(error_trace16):
    """The FAST ch4 reference chip must exercise min and max paths."""
    counts = error_trace16.error_counts()
    assert counts["se_max"] > 0
    assert counts["se_min"] > 0


def test_max_only_chip(stage16_ntc, chip16_max_only, mcf_trace16):
    trace = build_error_trace(stage16_ntc, chip16_max_only, mcf_trace16)
    counts = trace.error_counts()
    assert counts["se_max"] > 0
    assert counts["se_min"] == 0


# ----------------------------------------------------------------------
# pruned timing: the transitions that cannot err are not timed
# ----------------------------------------------------------------------


def _skipped(stage, chip, trace):
    """Per-cycle mask of the transitions the pruned kernel skips on
    ``chip``: their class's static bounds lie within the period and
    the hold constraint."""
    from repro.timing import dta

    controls = trace.encode_inputs(stage.alu)[stage.circuit.controls]
    prev, curr = controls[:, :-1], controls[:, 1:]
    late, early = dta.class_bounds(
        stage.circuit, (~(prev | curr)).T, (prev & curr).T,
        chip.delays[None, :].astype(np.float32),
    )
    return ((late <= stage.clock_period) & (early >= stage.hold_constraint))[0]


def _exact(stage, chip, trace):
    """``build_error_trace`` with every class timed: an active audit
    sink turns pruning off."""
    from repro.obs import audit

    with audit.recording():
        return build_error_trace(stage, chip, trace)


def _scheme_results(trace):
    from repro.core.dcs import DcsScheme
    from repro.core.schemes import HfgScheme, OcstScheme, RazorScheme
    from repro.core.trident import TridentScheme

    schemes = (
        RazorScheme(), HfgScheme(), OcstScheme(interval=500), TridentScheme(cet_capacity=128),
        DcsScheme("icslt", capacity=128), DcsScheme("acslt", capacity=32, associativity=16),
    )
    return [scheme.simulate(trace) for scheme in schemes]


@pytest.mark.parametrize("chip_seed", [8, 10])
def test_pruned_traces_equal_unpruned_ones_on_the_pinned_fast_chips(chip_seed):
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext(FAST_CONFIG)
    stage, chip = ctx.stage(), ctx.chip(chip_seed)
    skipped_any = False
    for benchmark in FAST_CONFIG.benchmarks:
        trace = ctx.trace(benchmark)
        pruned = build_error_trace(stage, chip, trace)
        full = _exact(stage, chip, trace)
        np.testing.assert_array_equal(pruned.err_class, full.err_class)
        timed = ~_skipped(stage, chip, trace)
        assert np.array_equal(pruned.t_late[timed], full.t_late[timed])
        assert np.array_equal(pruned.t_early[timed], full.t_early[timed])
        assert _scheme_results(pruned) == _scheme_results(full)
        skipped_any |= not np.array_equal(pruned.t_late, full.t_late)
    assert skipped_any  # the comparison covers skipped cycles


def test_a_trace_without_setup_errors_is_timed_in_full(stage16_ntc, chip16_max_only):
    from repro.arch.trace import BENCHMARKS, generate_trace
    from repro.core.schemes import HfgScheme

    trace = generate_trace(BENCHMARKS["mcf"], 20, width=16)
    full = _exact(stage16_ntc, chip16_max_only, trace)
    assert not full.max_err.any()
    # the pruned kernel alone reads class bounds above the exact arrivals
    inputs = trace.encode_inputs(stage16_ntc.alu)
    kernel = stage16_ntc.timings(chip16_max_only, inputs, prune=True)
    assert kernel.t_late.max() > full.t_late.max()

    built = build_error_trace(stage16_ntc, chip16_max_only, trace)
    assert np.array_equal(built.t_late, full.t_late)
    assert np.array_equal(built.t_early, full.t_early)
    assert HfgScheme().simulate(built) == HfgScheme().simulate(full)


def test_an_audited_build_times_every_class(stage16_ntc, chip16, mcf_trace16):
    from repro.core.dcs import DcsScheme
    from repro.obs import audit

    full = stage16_ntc.timings(chip16, mcf_trace16.encode_inputs(stage16_ntc.alu))
    pruned = build_error_trace(stage16_ntc, chip16, mcf_trace16)
    with audit.recording() as sink:
        audited = build_error_trace(stage16_ntc, chip16, mcf_trace16)
        DcsScheme("icslt", capacity=128).simulate(audited)
    assert not np.array_equal(pruned.t_late, full.t_late)  # unaudited, it prunes
    assert np.array_equal(audited.t_late, full.t_late)
    assert np.array_equal(audited.t_early, full.t_early)
    runs = sink.snapshot_runs()
    assert [run["kind"] for run in runs] == ["etrace", "scheme"]
    for run in runs:
        columns = run["columns"]
        cycles = columns["cycle"]
        slack_late = (stage16_ntc.clock_period - full.t_late[cycles]).astype(np.float32)
        slack_early = (full.t_early[cycles] - stage16_ntc.hold_constraint).astype(np.float32)
        assert np.array_equal(columns["slack_late"], slack_late)
        assert np.array_equal(columns["slack_early"], slack_early)


def test_pruned_population_rows_equal_pruned_single_builds():
    """A class skipped on one chip of a population may be timed for
    another; each row still reads its own chip's bounds, as alone."""
    from repro.core.scheme_sim import build_error_traces_batch
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext(FAST_CONFIG)
    stage = ctx.stage()
    chips = [ctx.chip(FAST_CONFIG.ch3_chip_seed), ctx.chip(FAST_CONFIG.ch4_chip_seed)]
    for benchmark in ("mcf", "vortex"):
        trace = ctx.trace(benchmark)
        rows = build_error_traces_batch(stage, chips, trace)
        for chip, row in zip(chips, rows):
            alone = build_error_trace(stage, chip, trace)
            for name in ("t_late", "t_early", "err_class"):
                assert np.array_equal(getattr(row, name), getattr(alone, name)), name
