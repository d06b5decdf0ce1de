"""Dynamic timing analysis: per-cycle sensitised transition arrivals.

This is the core of the paper's "in-house STA tool": for every pair of
consecutive input vectors (the *initialising* and *sensitising* vectors,
per Xin & Joseph's observation the paper builds on) it computes, at every
node, the latest and earliest possible arrival time of the node's output
transition -- but only along *sensitised* paths, i.e. through gates whose
values actually toggle between the two vectors.

Modelling notes (documented substitutions):

* Glitch-free transition-arrival semantics: a node is considered to
  transition iff its stable logic value differs between the two vectors;
  hazards from reconvergent fanout are not modelled.  The latest arrival
  is the max over toggling fanins plus the gate delay, the earliest is the
  min -- the standard dynamic-timing approximation.
* Non-toggling nodes carry -inf (latest) / +inf (earliest), so a quiet
  fanin never wins a gate's max / min.

Batched execution model
-----------------------

The kernel is population-level: :func:`batch_cycle_timings` times *all
chips x all cycles* of a Monte Carlo population in one call.  Logic
values depend only on the input vectors -- never on delays -- so one
:func:`~repro.timing.logic_eval.evaluate_logic` pass is shared by every
chip, and the arrival propagation broadcasts a ``(num_chips, num_nodes)``
delay matrix over a chip axis.

:func:`_propagate_arrivals` keeps the latest arrivals and the *negated*
earliest arrivals in one float32 ``(num_nodes, 2, [chips,] T)`` block.
Negated, the earliest arrival's min-fold becomes a max-fold and its
quiet-node +inf becomes -inf, so both halves share one cap (+inf where
the node toggles, -inf where it is quiet) and one sequence of
operations: fold the fanins with max, add a signed delay (+d late, -d
early), clamp by the cap with min.  Negation commutes with IEEE
round-to-nearest, so the early half is bit-identical to a min-fold of
its own; it converts back with ``0.0 - x``, which keeps a toggling
input's earliest arrival at +0.0.  The inner loop is one packed
:class:`~repro.timing.levelize.LevelStep` per logic level -- one gather
per fanin slot, in-place max over the level's 2- and 3-input
suffixes, one add and one clamp -- not chips x levels x gates, nor one
pass per arrival kind.  On a restricted circuit every level's rows are
contiguous (:meth:`~repro.timing.levelize.LevelizedCircuit.restrict`),
so the delay and clamp reads are views and the write-back a slice
copy.  The single-chip :func:`cycle_timings` is a thin view over the
batch kernel -- same code path, population of one.

The pair form :func:`pair_arrivals` times K independent (prev, curr)
vector pairs in one propagation and keeps every node's arrivals; the
choke trace-back reads its columns.  It is the only caller that turns
the whole early half back into earliest arrivals; the stream kernel
reduces the output rows straight from the block.  Both forms share
:func:`_propagate_arrivals`, which takes toggle masks rather than logic
values, and both take a pair's toggles as ``curr != prev``.  The
``batch_vs_scalar`` QA oracle holds the stream kernel bit-identical to
the adjacent-pair case of the pair form, ``pair_vs_single`` holds
each pair column bit-identical to a K = 1 call, and ``dta_vs_reference``
holds both bit-identical to the float32 scalar reference
(:mod:`repro.timing.reference`), which shares no code with the kernel.

Repeated transitions and restricted circuits
--------------------------------------------

A transition's arrivals are a pure function of its (prev, curr) vector
pair and the chip, and instruction streams reuse operands, so many
transitions repeat.  :func:`batch_cycle_timings` times each distinct
transition once: :func:`_first_occurrences` keys each transition by
the packed bits of its two vectors and finds each key's first
occurrence, and every transition reads its key's result back.  At
most C - 1 transitions are timed, exactly one for a constant stream.

The distinct transitions are timed as vector pairs, so they need not
stay in stream order.  They are sorted by *class* -- the control bits
of both vectors (for the ALU, the (prev op, curr op) selects) -- and
the sorted order is cut into windows of ``chunk // num_chips`` pairs.
Each window runs on its circuit restricted to the controls constant
across all of its vectors
(:meth:`~repro.timing.levelize.LevelizedCircuit.restrict`): for a
transition from op p to op c every other unit's result-mux AND gate
holds a stable 0, so only the outputs' cone through non-stable gates
is evaluated and propagated.  A window that straddles two classes runs
on their union cone.  Controls are keyed on the initialising vector
as well as the sensitising one: a unit whose select drops in the
transition still drives the output's old value.  Windows, not one
call per class, keep the Python dispatches per call at about what a
dense stream needs.  ``dta.gate_evals`` counts the work: the gates of
each window's circuit x its pairs x chips.

:func:`_window_keys` turns every window into its key (the controls
constant over it) in one vectorised step, and
:meth:`~repro.timing.levelize.LevelizedCircuit.restrict_many` derives
all of the call's uncached restrictions together before the first
window runs, so a call with many windows pays for one forward pass and
one backward closure, not one per key.  Each restricted circuit is
levelled by its own cone's depth, so a window walks as many level
steps as its cone is deep (6 for the 16-bit ALU's logic ops, 9 for its
shifts), not the full ALU's 47.

Cutting the windows at every class boundary instead was measured and
rejected: on the 12-figure ``--fast`` sweep it raised the windows from
22 to 558, the propagation from 0.12 to 0.30 s, and the restriction
derivations from 6 to 54 (0.015 to 0.11 s) per fresh experiment
context, and the round from 0.64 to 1.13 s.  Per-level dispatch, not
element work, bounds such small windows.  Class cuts can pay only
where the restrictions are amortised over many more pairs per class,
as at the paper's scale.

The pair form stays unpruned and uncompressed, so it remains an
independent reference: ``stream_repeats_vs_pairs`` holds the stream
kernel bit-identical to it on streams drawn from small vector pools,
and ``cone_vs_full`` on multi-class streams over random netlists with
designated controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.timing.levelize import LevelizedCircuit
from repro.timing.logic_eval import evaluate_logic

_INF_BITS = np.uint32(0x7F800000)

#: Transitions per window of the stream kernel, shared by every caller.
DEFAULT_CHUNK = 1024


@dataclass
class CycleTimings:
    """Per-cycle aggregate timing of a pipestage's combinational cloud.

    Entry ``t`` describes the transition from input vector ``t`` to input
    vector ``t+1`` (the paper's errant cycle is ``t+1``; vector ``t`` is
    the initialising vector).

    * ``t_late``: latest output transition arrival (ps); 0 when no output
      toggles (nothing can be late).
    * ``t_early``: earliest output transition arrival (ps); +inf when no
      output toggles (nothing can violate the hold constraint).
    * ``output_toggles``: number of primary outputs that toggle.
    """

    t_late: np.ndarray
    t_early: np.ndarray
    output_toggles: np.ndarray

    def __len__(self) -> int:
        return len(self.t_late)

    def max_violations(self, clock_period: float) -> np.ndarray:
        """Boolean mask of cycles with a setup (maximum timing) violation."""
        return self.t_late > clock_period

    def min_violations(self, hold_constraint: float) -> np.ndarray:
        """Boolean mask of cycles with a hold (minimum timing) violation."""
        return self.t_early < hold_constraint

    def classify(self, clock_period: float, hold_constraint: float) -> np.ndarray:
        """Per-cycle error class (:data:`ERR_NONE` .. :data:`ERR_CE`).

        CE (consecutive error) is a maximum violation immediately followed
        by a minimum violation within the same detection-clock cycle,
        which in this frame is a cycle exhibiting both violation kinds.
        """
        max_violation = self.max_violations(clock_period)
        min_violation = self.min_violations(hold_constraint)
        classes = np.zeros(len(self.t_late), dtype=np.int8)
        classes[min_violation] = ERR_SE_MIN
        classes[max_violation] = ERR_SE_MAX
        classes[max_violation & min_violation] = ERR_CE
        return classes


@dataclass
class BatchCycleTimings:
    """Population-level timing: one :class:`CycleTimings` row per chip.

    ``t_late`` / ``t_early`` have shape ``(num_chips, transitions)``.
    ``output_toggles`` is ``(transitions,)`` -- logic values are
    delay-independent, so toggle counts are shared by the whole
    population.  :meth:`chip` materialises the per-chip view.
    """

    t_late: np.ndarray
    t_early: np.ndarray
    output_toggles: np.ndarray

    @property
    def num_chips(self) -> int:
        return self.t_late.shape[0]

    def __len__(self) -> int:
        return self.t_late.shape[1]

    def chip(self, index: int) -> CycleTimings:
        """The single-chip view of population member ``index``."""
        return CycleTimings(
            t_late=self.t_late[index],
            t_early=self.t_early[index],
            output_toggles=self.output_toggles,
        )


#: Error classes produced by :meth:`CycleTimings.classify`.
ERR_NONE = 0
ERR_SE_MIN = 1
ERR_SE_MAX = 2
ERR_CE = 3


def _signed_inf(shape: tuple[int, ...], negative: np.ndarray) -> np.ndarray:
    """float32 -inf where ``negative`` is set, +inf elsewhere.

    ``negative`` is (num_nodes, T) and broadcasts over the middle axes
    of ``shape`` (the block's half and chip axes).  The values are built
    on the IEEE bits (sign bit | infinity exponent): several times
    faster than ``np.where`` over a random mask.
    """
    bits = np.empty(shape, dtype=np.uint32)
    np.copyto(bits, negative.reshape((shape[0],) + (1,) * (len(shape) - 2) + (shape[-1],)))
    bits <<= 31
    bits |= _INF_BITS
    return bits.view(np.float32)


def _signed_delays(delays32: np.ndarray) -> np.ndarray:
    """Per-node delays as the block adds them: ``+d`` for the late half,
    ``-d`` for the negated-early half.

    ``delays32`` is (num_nodes,) or (num_chips, num_nodes); the result
    is (num_nodes, 2, [num_chips,] 1) and broadcasts against a level's
    (G, 2, [chips,] T) candidate block.
    """
    node_delays = delays32.T[..., None]
    return np.stack([node_delays, -node_delays], axis=1)


def _propagate_arrivals(
    circuit: LevelizedCircuit,
    toggled: np.ndarray,
    delays: np.ndarray,
) -> np.ndarray:
    """Late and negated-early transition arrivals for each column of
    ``toggled``, as one block.

    ``toggled`` is a boolean (num_nodes, T) matrix: column ``t`` marks
    the nodes whose stable value changes in transition ``t``.  The
    kernel never looks at logic values, so it serves a vector stream
    (adjacent columns) and independent vector pairs alike.  The result
    is a float32 ``(num_nodes, 2, T)`` block for a 1-D ``delays``
    vector and ``(num_nodes, 2, num_chips, T)`` for a 2-D
    ``(num_chips, num_nodes)`` delay matrix.  Half 0 holds the latest
    arrivals, -inf at non-toggling nodes; half 1 holds the *negated*
    earliest arrivals, also -inf at non-toggling nodes, so ``0.0 - x``
    turns it back into earliest arrivals (+inf where quiet, +0.0 at a
    toggling primary input).  Both modes run the identical element-wise
    float32 operations, so a population row is bit-identical to the
    corresponding single-chip run.
    """
    delays32 = np.asarray(delays).astype(np.float32, copy=False)
    num_nodes, transitions = toggled.shape
    shape = (num_nodes, 2) + delays32.shape[:-1] + (transitions,)
    # Every row starts as its node's cap: +inf where the node toggles,
    # -inf where it does not, in both halves.  Clamping a candidate
    # arrival by the cap leaves a toggling node's value exact
    # (min(x, +inf) == x) and forces a quiet node to -inf, so no
    # sensitisation mask is gathered per level.
    block = _signed_inf(shape, ~toggled)
    signed_delays = _signed_delays(delays32)

    # Primary inputs switch at the launching clock edge (t = 0).
    in_ids = circuit.input_ids
    block[in_ids] = np.minimum(block[in_ids], np.float32(0.0))

    # One step per logic level.  A gate's latest arrival is the max of
    # its fanins' plus its delay; its earliest is the min plus its
    # delay, which negated is the max of the negated fanins minus the
    # delay.  So both halves fold with max, add a signed delay and clamp
    # with min, in one pass.  Negation and round-to-nearest commute, so
    # -(a + d) == (-a) + (-d) bit for bit.  The gathers allocate (fancy
    # indexing); everything downstream accumulates in place on suffix
    # views -- the ufuncs are elementwise and deterministic, so every
    # gate sees the same float32 ops in the same order (in0, in1, in2,
    # + delay) whatever else shares its level.  ``rows`` is a slice on a
    # restricted circuit, which makes the delay and clamp reads views.
    for _nodes, in0, two, in1, mux, in2, _segments, rows in circuit.levels:
        cand = block[in0]
        if len(in1):
            np.maximum(cand[two:], block[in1], out=cand[two:])
        if len(in2):
            np.maximum(cand[mux:], block[in2], out=cand[mux:])
        np.add(cand, signed_delays[rows], out=cand)
        np.minimum(cand, block[rows], out=cand)
        block[rows] = cand
    return block


def _first_occurrences(inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct transitions of a (num_inputs, C) stream.

    Returns ``(first, first_of)``: ``first`` holds the transition index
    of each distinct (prev, curr) pair's first occurrence, and
    ``first_of`` maps each of the C - 1 transitions to the entry of
    ``first`` that times it.
    """
    # A transition's key is the packed bits of its two vectors, as
    # uint64 words.  lexsort is stable, so each run of equal keys in
    # sorted order starts at the key's first occurrence.
    packed = np.packbits(inputs, axis=0)
    total = inputs.shape[1]
    words = np.zeros((total, -(-len(packed) // 8) * 8), dtype=np.uint8)
    words[:, : len(packed)] = packed.T
    words = words.view(np.uint64)
    keys = np.concatenate([words[:-1], words[1:]], axis=1)
    order = np.lexsort(keys.T)
    ordered = keys[order]
    fresh = np.ones(total - 1, dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first_of = np.empty(total - 1, dtype=np.intp)
    first_of[order] = np.cumsum(fresh) - 1
    return order[fresh], first_of


def _class_order(controls: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Order of ``first`` sorted by class: the control bits of each
    transition's two vectors (``controls`` is the stream's control rows)."""
    if not len(controls):
        return np.arange(len(first))
    bits = np.concatenate([controls[:, first], controls[:, first + 1]])
    return np.lexsort(np.packbits(bits, axis=0)[::-1])


def _window_keys(
    controls: np.ndarray, prev: np.ndarray, curr: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The restriction key of every window: the controls constant over
    each window's vectors, the prev *and* curr vector of each pair.

    ``prev`` / ``curr`` are the pairs' columns in window order and
    window ``w`` covers pairs ``starts[w]`` up to the next start.
    Returns ``(known0, known1)``, each ``(windows, len(controls))``.
    """
    some = controls[:, prev] | controls[:, curr]
    every = controls[:, prev] & controls[:, curr]
    known0 = ~np.logical_or.reduceat(some, starts, axis=1)
    known1 = np.logical_and.reduceat(every, starts, axis=1)
    return known0.T, known1.T


def batch_cycle_timings(
    circuit: LevelizedCircuit,
    inputs: np.ndarray,
    delay_matrix: np.ndarray,
    chunk: int = DEFAULT_CHUNK,
) -> BatchCycleTimings:
    """Time a whole chip population against one input-vector stream.

    ``inputs`` has shape (num_primary_inputs, C); ``delay_matrix`` has
    shape (num_chips, num_nodes) -- one per-node delay row per
    fabricated chip.  The result covers the C-1 vector-to-vector
    transitions for every chip.

    Each distinct (prev, curr) transition is timed once, as a vector
    pair, and read back by every transition that repeats it.  The
    distinct pairs are sorted by class (their control bits) and cut
    into windows of ``chunk // num_chips`` pairs, so the population's
    working set stays close to the single-chip kernel's; each window
    runs on the circuit restricted to the controls constant across
    it (:meth:`~repro.timing.levelize.LevelizedCircuit.restrict`).
    Neither the dedup, the order, the windows nor the restriction
    changes results: each transition's arrivals are a pure function of
    its two vectors, and the restricted circuit times every output of
    a matching pair exactly.  Logic evaluation is shared across the
    population.
    """
    inputs = np.asarray(inputs, dtype=bool)
    delay_matrix = np.asarray(delay_matrix)
    if delay_matrix.ndim != 2:
        raise ValueError(
            f"delay_matrix must be (num_chips, num_nodes), got {delay_matrix.shape}"
        )
    num_chips = delay_matrix.shape[0]
    if num_chips < 1:
        raise ValueError("delay_matrix must hold at least one chip")
    total = inputs.shape[1]
    if total < 2:
        raise ValueError("need at least two input vectors")
    if chunk < 1:
        raise ValueError("chunk must be positive")

    with obs.span(
        "dta.batch_cycle_timings", cycles=total, chips=num_chips, chunk=chunk
    ):
        obs.inc("dta.evaluations")
        obs.inc("dta.cycles_analyzed", total - 1)
        obs.inc("dta.chip_cycles", num_chips * (total - 1))

        first, first_of = _first_occurrences(inputs)
        count = len(first)
        obs.inc("dta.transitions_timed", count)
        controls = inputs[circuit.controls]
        order = _class_order(controls, first)

        # The delay-matrix float32 view is computed once per call, not
        # once per window (the old per-call astype copy, hoisted).
        delays32 = delay_matrix.astype(np.float32, copy=False)
        window = max(1, chunk // num_chips)

        t_late = np.empty((num_chips, count), dtype=np.float32)
        t_early = np.empty((num_chips, count), dtype=np.float32)
        toggles = np.empty(count, dtype=np.int32)

        # Every window's restriction, derived together.
        ordered = first[order]
        starts = np.arange(0, count, window)
        restrictions = circuit.restrict_many(
            *_window_keys(controls, ordered, ordered + 1, starts)
        )
        gate_evals = 0
        for start, restricted in zip(starts.tolist(), restrictions):
            picks = order[start : start + window]
            prev = ordered[start : start + window]
            curr = prev + 1
            pairs = len(picks)
            gate_evals += restricted.gate_count * pairs * num_chips
            values = evaluate_logic(
                restricted, np.concatenate([inputs[:, prev], inputs[:, curr]], axis=1)
            )
            # Only the toggles reach the propagation, so the logic values
            # are freed before its arrival matrices allocate.
            toggled = values[:, pairs:] != values[:, :pairs]
            del values
            block = _propagate_arrivals(
                restricted, toggled, delays32[:, restricted.node_ids]
            )
            # (num_outputs, 2, num_chips, T) -> reduce over the output
            # axis: the max of the negated earliest is the negated min.
            out_ids = restricted.output_ids
            out_late, out_neg_early = block[out_ids].max(axis=0)
            out_early = 0.0 - out_neg_early
            out_toggled = toggled[out_ids].sum(axis=0)
            # Only the output rows outlive the window: free the
            # node-resolved block before the next window allocates.
            del toggled, block
            # No output transition: nothing arrives, so nothing is late and
            # nothing violates hold.
            t_late[:, picks] = np.where(np.isfinite(out_late), out_late, 0.0)
            t_early[:, picks] = out_early
            toggles[picks] = out_toggled
        obs.inc("dta.gate_evals", gate_evals)

        # Every transition reads its key's first occurrence.
        t_late = t_late[:, first_of]
        t_early = t_early[:, first_of]
        toggles = toggles[first_of]

        if obs.enabled():
            # Arrival-time extremes of this evaluation: the late tail is
            # where setup violations (and choke paths) live, the early
            # minimum is what the hold constraint fights.  One sample per
            # call keeps the histogram cheap and order-free.
            obs.observe("dta.t_late_max_ps", float(t_late.max()))
            finite_early = t_early[np.isfinite(t_early)]
            if len(finite_early):
                obs.observe("dta.t_early_min_ps", float(finite_early.min()))

    return BatchCycleTimings(t_late=t_late, t_early=t_early, output_toggles=toggles)


def cycle_timings(
    circuit: LevelizedCircuit,
    inputs: np.ndarray,
    delays: np.ndarray,
    chunk: int = DEFAULT_CHUNK,
) -> CycleTimings:
    """Compute per-cycle aggregate output timing for an input-vector stream.

    ``inputs`` has shape (num_primary_inputs, C); the result covers the
    C-1 vector-to-vector transitions.  A thin single-chip view over
    :func:`batch_cycle_timings` (population of one).
    """
    delays = np.asarray(delays)
    if delays.ndim != 1:
        raise ValueError(f"delays must be a per-node vector, got {delays.shape}")
    batch = batch_cycle_timings(circuit, inputs, delays[None, :], chunk=chunk)
    return batch.chip(0)


def pair_arrivals(
    circuit: LevelizedCircuit,
    prev: np.ndarray,
    curr: np.ndarray,
    delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-resolved arrivals for K independent vector pairs.

    ``prev`` and ``curr`` have shape (num_primary_inputs, K); column
    ``k`` is the transition ``prev[:, k] -> curr[:, k]``.  Unlike the
    stream kernel, toggles come from each (prev, curr) pair, never from
    adjacent columns, so the pairs need not share vectors (a stream of
    C vectors is the adjacent-pair case ``pair_arrivals(inputs[:, :-1],
    inputs[:, 1:])``).  Logic is evaluated once over all 2K vectors and
    the arrivals of every pair run through one propagation.

    Returns ``(late, early, toggled)``, each (num_nodes, K); column
    ``k`` is bit-identical to :func:`single_transition_arrivals` on
    that pair.
    """
    prev = np.asarray(prev, dtype=bool)
    curr = np.asarray(curr, dtype=bool)
    if prev.ndim != 2 or prev.shape != curr.shape:
        raise ValueError(
            f"prev/curr must be matching (num_inputs, K) matrices, "
            f"got {prev.shape} and {curr.shape}"
        )
    pairs = prev.shape[1]
    obs.inc("dta.single_transitions", pairs)
    values = evaluate_logic(circuit, np.concatenate([prev, curr], axis=1))
    toggled = values[:, pairs:] != values[:, :pairs]
    block = _propagate_arrivals(circuit, toggled, delays)
    return block[:, 0], 0.0 - block[:, 1], toggled


def single_transition_arrivals(
    circuit: LevelizedCircuit,
    vector_prev: np.ndarray,
    vector_curr: np.ndarray,
    delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-resolved arrivals for one vector pair: :func:`pair_arrivals`
    with K = 1.

    Returns ``(late, early, toggled)`` arrays over all nodes.
    """
    late, early, toggled = pair_arrivals(
        circuit,
        np.asarray(vector_prev, dtype=bool)[:, None],
        np.asarray(vector_curr, dtype=bool)[:, None],
        delays,
    )
    return late[:, 0], early[:, 0], toggled[:, 0]
