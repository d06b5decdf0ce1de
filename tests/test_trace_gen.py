"""Unit tests for the synthetic benchmark trace generators."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from repro.arch.isa import INSTRUCTIONS, Instr
from repro.arch.trace import (
    _COMMON_CONSTANTS,
    BENCHMARK_ORDER,
    BENCHMARKS,
    BenchmarkConfig,
    generate_trace,
)
from repro.circuits.alu import AluOp


def test_all_six_benchmarks_defined():
    assert set(BENCHMARK_ORDER) == set(BENCHMARKS)
    assert BENCHMARK_ORDER == ("bzip", "gap", "gzip", "mcf", "parser", "vortex")


def test_deterministic_for_config():
    a = generate_trace(BENCHMARKS["mcf"], 500, width=16)
    b = generate_trace(BENCHMARKS["mcf"], 500, width=16)
    assert (a.instrs == b.instrs).all()
    assert (a.a_values == b.a_values).all()
    assert (a.b_values == b.b_values).all()


def test_seed_override_changes_stream():
    a = generate_trace(BENCHMARKS["mcf"], 500, width=16)
    b = generate_trace(BENCHMARKS["mcf"], 500, width=16, seed=999)
    assert not (a.a_values == b.a_values).all()


def test_trace_shape_and_dtypes():
    trace = generate_trace(BENCHMARKS["gzip"], 300, width=16)
    assert len(trace) == 300
    assert trace.instrs.dtype == np.int16
    assert trace.a_values.dtype == np.uint64
    assert trace.width == 16
    assert trace.name == "gzip"


def test_operands_within_width():
    trace = generate_trace(BENCHMARKS["parser"], 800, width=16)
    assert (trace.a_values < (1 << 16)).all()
    assert (trace.b_values < (1 << 16)).all()


def test_alu_ops_match_isa_mapping():
    trace = generate_trace(BENCHMARKS["bzip"], 500, width=16)
    for instr_value, alu_value in zip(trace.instrs, trace.alu_ops):
        assert INSTRUCTIONS[Instr(int(instr_value))].alu_op == AluOp(int(alu_value))


def test_only_mix_instructions_appear():
    config = BENCHMARKS["mcf"]
    trace = generate_trace(config, 1000, width=16)
    allowed = {int(i) for i in config.instr_mix}
    assert set(np.unique(trace.instrs).tolist()) <= allowed


def test_shift_operands_bounded():
    trace = generate_trace(BENCHMARKS["gzip"], 2000, width=16)
    shift_instrs = {
        int(i) for i in Instr if INSTRUCTIONS[i].shift
    }
    mask = np.isin(trace.instrs, list(shift_instrs))
    assert (trace.b_values[mask] < 16).all()


def test_lui_shift_amount_is_half_width():
    trace = generate_trace(BENCHMARKS["mcf"], 3000, width=16)
    mask = trace.instrs == int(Instr.LUI)
    if mask.any():
        assert (trace.b_values[mask] == 8).all()


def test_immediates_in_lower_half_word():
    trace = generate_trace(BENCHMARKS["parser"], 3000, width=16)
    imm_instrs = {int(i) for i in Instr if INSTRUCTIONS[i].immediate and not INSTRUCTIONS[i].shift}
    mask = np.isin(trace.instrs, list(imm_instrs))
    if mask.any():
        assert (trace.b_values[mask] < (1 << 8)).all()


def test_static_footprints_ordered_mcf_smallest_vortex_largest():
    mcf = generate_trace(BENCHMARKS["mcf"], 100, width=16)
    vortex = generate_trace(BENCHMARKS["vortex"], 100, width=16)
    assert mcf.num_static < vortex.num_static


def test_value_locality_reuses_pool_values():
    trace = generate_trace(BENCHMARKS["mcf"], 4000, width=16)
    # strong locality -> the distinct (static, operand) pairs per static
    # instruction stay near the pool size
    per_static: dict[int, set] = {}
    for static_id, value in zip(trace.static_ids, trace.a_values):
        per_static.setdefault(int(static_id), set()).add(int(value))
    heavy = [s for s, values in per_static.items() if len(values) > 0]
    median_distinct = float(np.median([len(per_static[s]) for s in heavy]))
    pool = BENCHMARKS["mcf"].value_pool_size
    assert median_distinct <= pool + 3


def test_sequence_locality_repeats_pairs():
    trace = generate_trace(BENCHMARKS["mcf"], 4000, width=16)
    pairs = set(zip(trace.static_ids[:-1].tolist(), trace.static_ids[1:].tolist()))
    # loops mean far fewer distinct consecutive pairs than cycles
    assert len(pairs) < len(trace) / 8


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(
            name="bad", instr_mix={}, num_blocks=2, block_size_min=1,
            block_size_max=2, block_repeat_mean=2.0, value_pool_size=2,
            value_locality=0.5, p_large=0.5, seed=0,
        )
    with pytest.raises(ValueError):
        BenchmarkConfig(
            name="bad", instr_mix={Instr.OR: 1}, num_blocks=2, block_size_min=3,
            block_size_max=2, block_repeat_mean=2.0, value_pool_size=2,
            value_locality=0.5, p_large=0.5, seed=0,
        )
    with pytest.raises(ValueError):
        BenchmarkConfig(
            name="bad", instr_mix={Instr.OR: 1}, num_blocks=2, block_size_min=1,
            block_size_max=2, block_repeat_mean=2.0, value_pool_size=2,
            value_locality=1.5, p_large=0.5, seed=0,
        )


def test_zero_cycles_rejected():
    with pytest.raises(ValueError):
        generate_trace(BENCHMARKS["mcf"], 0)


def test_encode_inputs_roundtrip(alu16, mcf_trace16):
    matrix = mcf_trace16.encode_inputs(alu16)
    assert matrix.shape == (alu16.num_inputs, len(mcf_trace16))


# ----------------------------------------------------------------------
# pinned traces: the exact draw replay must not move a single value
# ----------------------------------------------------------------------

#: sha256 over (dtype, bytes) of the five arrays, for 2,000 cycles, as
#: generated by the scalar-call generator (repro.qa.trace_reference)
TRACE_PINS = {
    (16, "bzip"): "318bc26ccf12f0c4f64f7f5a87dfc9c67613821fc89c250fba39240c5e2723bb",
    (16, "gap"): "995ad964d6be15df2ff3b0f757e525a2cc83cd0b90e9e4b25439cadc6201f83f",
    (16, "gzip"): "f3a8cc0b3aa75afedd2eac29165aba8c5e38de71f9e8f0d6653b2c23a0bc23aa",
    (16, "mcf"): "67077b6e470c8473d7a1b0dba675ab4b9de87a8081d7ed6cce50ceaa48779cc0",
    (16, "parser"): "8ab814806738cfd130afb95378d715445d35accfccd1e94910a64fa9c7730249",
    (16, "vortex"): "86ec479e17b0f3975e01bcff6833f6f45d8b4e28305e5cfbd2f645357538132c",
    (32, "bzip"): "7b6986c5f713e4ae68709ba5ae216340b82cefe28696467493821a6147263952",
    (32, "gap"): "40e126beefa10b089f74a9b55c58c2627cef69cce92fb43c0de7992c7f59a555",
    (32, "gzip"): "e851c5eda906787e14fb13d768ea3dd4bebf9ea107b1ffcf4d6b39155eaaad1f",
    (32, "mcf"): "2220e1566c527154c1512e314764a791d5ea9a8845e77b9255571b2fe64d1388",
    (32, "parser"): "6db6f2a16352afa290a94389b586c8ed4e7ff94715379a7a264e8bde981e917c",
    (32, "vortex"): "02165ee1dcd602d698970ad4e891e25a78ef6946723fafde1157a23024141e5d",
}
NUM_STATIC = {"bzip": 285, "gap": 346, "gzip": 163, "mcf": 52, "parser": 531, "vortex": 1287}


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for arr in (trace.instrs, trace.static_ids, trace.alu_ops, trace.a_values, trace.b_values):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("width,name", sorted(TRACE_PINS))
def test_trace_pinned(width, name):
    trace = generate_trace(BENCHMARKS[name], 2000, width=width)
    assert _trace_digest(trace) == TRACE_PINS[width, name]
    assert trace.num_static == NUM_STATIC[name]


def test_trace_pinned_seed_override():
    trace = generate_trace(BENCHMARKS["gap"], 2000, width=32, seed=7)
    assert _trace_digest(trace) == (
        "3447809974ad46b67a2e8faf19ed570a67fb8cacd32e4e1fb03171b798ba26ac"
    )
    assert trace.num_static == 345


# ----------------------------------------------------------------------
# statistical profile (module docstring): every tolerance is a 4-sigma
# binomial bound derived from the config and the sample size
# ----------------------------------------------------------------------

PROFILE_CYCLES = 20_000
Z = 4.0


@pytest.fixture(scope="module")
def profile_traces():
    return {
        name: generate_trace(BENCHMARKS[name], PROFILE_CYCLES, width=32)
        for name in BENCHMARK_ORDER
    }


def _sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_profile_instruction_mix(profile_traces, name):
    """Each static slot draws its instruction from the configured weights,
    so the executed slots' mix is a multinomial sample of them."""
    config, trace = BENCHMARKS[name], profile_traces[name]
    _, first = np.unique(trace.static_ids, return_index=True)
    slot_instrs = trace.instrs[first]
    n = len(slot_instrs)
    total = sum(config.instr_mix.values())
    for instr, weight in config.instr_mix.items():
        p = weight / total
        share = np.count_nonzero(slot_instrs == int(instr)) / n
        assert abs(share - p) <= Z * _sigma(p, n), (instr.name, share, p)


def test_profile_static_footprint(profile_traces):
    sizes = {name: trace.num_static for name, trace in profile_traces.items()}
    for name, size in sizes.items():
        config = BENCHMARKS[name]
        assert config.num_blocks * config.block_size_min <= size
        assert size <= config.num_blocks * config.block_size_max
    assert min(sizes, key=sizes.get) == "mcf"
    assert max(sizes, key=sizes.get) == "vortex"


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_profile_value_locality(profile_traces, name):
    """Share of cycles whose operand a comes from its slot's value pool.

    A slot's pool is read off as its ``value_pool_size`` most frequent a
    values, over slots executed at least 50 times.  That count includes
    every pool hit; it may add misses that drew a common constant (a
    fifth of all misses) equal to a pooled value.  So the share lies in
    ``[v, v + 0.2 (1 - v)]`` up to binomial noise.
    """
    config, trace = BENCHMARKS[name], profile_traces[name]
    per_slot: dict[int, Counter] = {}
    for slot, value in zip(trace.static_ids.tolist(), trace.a_values.tolist()):
        per_slot.setdefault(slot, Counter())[value] += 1
    cycles = hits = 0
    for counts in per_slot.values():
        if counts.total() >= 50:
            cycles += counts.total()
            hits += sum(c for _, c in counts.most_common(config.value_pool_size))
    v = config.value_locality
    slack = Z * _sigma(0.5, cycles)
    assert v - slack <= hits / cycles <= v + 0.2 * (1.0 - v) + slack


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_profile_large_small_balance(profile_traces, name):
    """Each fresh operand value that is not a common constant is Large
    (at least half the width) with probability ``p_large``.  The distinct
    (slot, value) pairs are those draws: pool entries and escapes."""
    config, trace = BENCHMARKS[name], profile_traces[name]
    draws = {
        (slot, value)
        for slot, value in zip(trace.static_ids.tolist(), trace.a_values.tolist())
        if value not in _COMMON_CONSTANTS
    }
    large = sum(1 for _, value in draws if value >= 1 << 16) / len(draws)
    assert abs(large - config.p_large) <= Z * _sigma(config.p_large, len(draws))
