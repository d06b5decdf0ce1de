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
delay matrix over a chip axis.  The inner loop is one packed
:class:`~repro.timing.levelize.LevelStep` per logic level -- one gather
per fanin slot, in-place max/min over the level's 2- and 3-input
suffixes, then a clamp by each node's toggle cap -- not chips x levels
x gates.  The single-chip :func:`cycle_timings` is a thin view over the
batch kernel -- same code path, population of one.

The pair form :func:`pair_arrivals` times K independent (prev, curr)
vector pairs in one propagation and keeps every node's arrivals; the
choke trace-back reads its columns.  Both forms share
:func:`_propagate_arrivals`, which takes toggle masks rather than logic
values: the stream kernel's toggles are adjacent columns, the pair
form's are ``curr != prev``.  The ``batch_vs_scalar`` QA oracle holds
the stream kernel bit-identical to the adjacent-pair case of the pair
form, and ``pair_vs_single`` holds each pair column bit-identical to a
K = 1 call.

Repeated transitions
--------------------

A transition's arrivals are a pure function of its (prev, curr) vector
pair and the chip, and instruction streams reuse operands, so many
transitions repeat.  :func:`batch_cycle_timings` times each distinct
transition once: it keys each transition by the packed bits of its
two vectors, finds each key's first occurrence, and keeps only the
columns those first occurrences touch (``first`` and ``first + 1``).  The kept
columns form a sub-stream that runs through the same windowed kernel;
every transition then reads its key's first occurrence back.  Where
two kept columns are not adjacent, the sub-stream times a junk *seam*
transition between them, which nothing reads.  The sub-stream never
has more than C columns, so at most C - 1 transitions are timed: a
seam is only ever timed in place of a repeated transition it skipped.
With no repeats the sub-stream is the stream itself.  The pair form
stays uncompressed, so it remains an independent reference; the
``stream_repeats_vs_pairs`` oracle holds the stream kernel
bit-identical to it on streams drawn from small vector pools.
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

    ``negative`` is (num_nodes, T) and broadcasts over a chip axis.  The
    values are built on the IEEE bits (sign bit | infinity exponent):
    several times faster than ``np.where`` over a random mask.
    """
    bits = np.empty(shape, dtype=np.uint32)
    np.copyto(bits, negative if len(shape) == 2 else negative[:, None, :])
    bits <<= 31
    bits |= _INF_BITS
    return bits.view(np.float32)


def _propagate_arrivals(
    circuit: LevelizedCircuit,
    toggled: np.ndarray,
    delays: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Latest/earliest transition arrivals for each column of ``toggled``.

    ``toggled`` is a boolean (num_nodes, T) matrix: column ``t`` marks
    the nodes whose stable value changes in transition ``t``.  The
    kernel never looks at logic values, so it serves a vector stream
    (adjacent columns) and independent vector pairs alike.  With a 1-D
    ``delays`` vector the result matrices are (num_nodes, T); with a
    2-D ``(num_chips, num_nodes)`` delay matrix they gain a chip axis,
    (num_nodes, num_chips, T).  Non-toggling nodes hold -inf / +inf.
    Both modes run the identical element-wise float32 operations, so a
    population row is bit-identical to the corresponding single-chip run.
    """
    delays32 = np.asarray(delays).astype(np.float32, copy=False)
    batched = delays32.ndim == 2
    num_nodes, transitions = toggled.shape
    if batched:
        shape: tuple[int, ...] = (num_nodes, delays32.shape[0], transitions)
    else:
        shape = (num_nodes, transitions)
    # Every row starts as its node's cap: +inf / -inf (late / early)
    # where the node toggles, -inf / +inf where it does not.  Clamping a
    # candidate arrival by the cap leaves a toggling node's value exact
    # (min(x, +inf) == x) and forces a quiet node to -inf / +inf, so no
    # sensitisation mask is gathered per level.
    late = _signed_inf(shape, ~toggled)
    early = _signed_inf(shape, toggled)
    # Per-node delays broadcast against a level's (G, [chips,] T) block.
    node_delays = np.ascontiguousarray(delays32.T)[..., None]

    # Primary inputs switch at the launching clock edge (t = 0).
    in_ids = circuit.input_ids
    late[in_ids] = np.minimum(late[in_ids], np.float32(0.0))
    early[in_ids] = np.maximum(early[in_ids], np.float32(0.0))

    # One step per logic level, late then early: a gate's latest arrival
    # folds its fanins with max and is clamped by min, its earliest the
    # other way round.  The gathers allocate (fancy indexing); everything
    # downstream accumulates in place on suffix views -- the ufuncs are
    # elementwise and deterministic, so every gate sees the same float32
    # ops in the same order (in0, in1, in2, + delay) whatever else shares
    # its level.  Finishing one matrix before the other keeps a single
    # level-sized candidate block alive at a time.
    folds = ((late, np.maximum, np.minimum), (early, np.minimum, np.maximum))
    for nodes, in0, two, in1, mux, in2, _segments in circuit.levels:
        gate_delay = node_delays[nodes]
        for arrivals, fold, clamp in folds:
            cand = arrivals[in0]
            if len(in1):
                fold(cand[two:], arrivals[in1], out=cand[two:])
            if len(in2):
                fold(cand[mux:], arrivals[in2], out=cand[mux:])
            np.add(cand, gate_delay, out=cand)
            clamp(cand, arrivals[nodes], out=cand)
            arrivals[nodes] = cand
    return late, early


def _distinct_transitions(inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-compress a (num_inputs, C) stream to its distinct transitions.

    Returns ``(columns, timed)``: the ascending vector columns of the
    sub-stream to time, and for each of the C - 1 transitions the index
    of the sub-stream transition that times it -- its key's first
    occurrence.  Sub-stream transitions between non-adjacent columns
    are seams that no entry of ``timed`` points at.
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
    first = order[fresh]
    first_of = np.empty(total - 1, dtype=np.intp)
    first_of[order] = first[np.cumsum(fresh) - 1]
    keep = np.zeros(total, dtype=bool)
    keep[first] = True
    keep[first + 1] = True
    return np.flatnonzero(keep), (np.cumsum(keep) - 1)[first_of]


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

    Each distinct (prev, curr) transition is timed once, over the
    run-compressed sub-stream of :func:`_distinct_transitions`, and
    read back by every transition that repeats it.  Work proceeds in
    windows of roughly ``chunk / num_chips`` sub-stream transitions so
    the population's working set stays close to the single-chip
    kernel's; neither the compression nor the chunking changes results
    (each transition's arrivals are a pure function of its two
    vectors).  Logic evaluation is shared across the population and
    the boundary column of each window is carried over, never
    re-evaluated.
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

        columns, timed = _distinct_transitions(inputs)
        stream = inputs[:, columns]
        count = len(columns) - 1
        obs.inc("dta.transitions_timed", count)

        # The delay-matrix float32 view is computed once per call, not
        # once per window (the old per-call astype copy, hoisted).
        delays32 = delay_matrix.astype(np.float32, copy=False)
        window = max(1, chunk // num_chips)

        out_ids = circuit.output_ids
        t_late = np.empty((num_chips, count), dtype=np.float32)
        t_early = np.empty((num_chips, count), dtype=np.float32)
        toggles = np.empty(count, dtype=np.int32)

        boundary: np.ndarray | None = None
        start = 0
        while start < count:
            stop = min(start + window, count)
            if boundary is None:
                values = evaluate_logic(circuit, stream[:, start : stop + 1])
            else:
                # Window boundary: the window's first column was the
                # previous window's last -- reuse it instead of
                # re-evaluating the whole circuit for that vector.
                fresh = evaluate_logic(circuit, stream[:, start + 1 : stop + 1])
                values = np.concatenate([boundary, fresh], axis=1)
                del fresh
            boundary = values[:, -1:].copy()
            # A stream is the adjacent-pair case: vector t -> vector t+1.
            # Only the toggles reach the propagation, so the logic values
            # are freed before its arrival matrices allocate.
            toggled = values[:, 1:] != values[:, :-1]
            del values
            late, early = _propagate_arrivals(circuit, toggled, delays32)
            # (num_outputs, num_chips, T) -> reduce over the output axis.
            out_late = late[out_ids].max(axis=0)
            out_early = early[out_ids].min(axis=0)
            out_toggled = toggled[out_ids].sum(axis=0)
            # Only the output rows outlive the window: free the
            # node-resolved matrices before the next window allocates.
            del toggled, late, early
            # No output transition: nothing arrives, so nothing is late and
            # nothing violates hold.
            t_late[:, start:stop] = np.where(np.isfinite(out_late), out_late, 0.0)
            t_early[:, start:stop] = out_early
            toggles[start:stop] = out_toggled
            start = stop

        # Every transition reads its key's first occurrence; seams drop.
        t_late = t_late[:, timed]
        t_early = t_early[:, timed]
        toggles = toggles[timed]

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
    late, early = _propagate_arrivals(circuit, toggled, delays)
    return late, early, toggled


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
