"""Shared experiment context: builds and caches the expensive artefacts.

Figures within a chapter share the same stage / chip / benchmark timing
runs; the context memoises them so regenerating all seventeen
experiments costs one dynamic-timing pass per (chip, benchmark) rather
than seventeen.

With an optional :class:`~repro.runtime.checkpoint.CheckpointStore`,
the two expensive artefact classes — fabricated chips and error traces
— additionally persist to disk, keyed by a fingerprint of the full
configuration plus (seed, corner, benchmark, ...), so an interrupted
``all`` run resumes in seconds instead of recomputing from scratch.
The memo dicts stay as the first-level cache; the store is consulted
only on a memo miss, and corrupt entries silently fall back to
recomputation (see the checkpoint module's failure philosophy).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.arch.trace import BENCHMARKS, InstructionTrace, generate_trace
from repro.circuits.alu import Alu, build_alu
from repro.circuits.ex_stage import ExStage, build_ex_stage
from repro.core.scheme_sim import ErrorTrace, build_error_trace, build_error_traces_batch
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.gates.netlist import Netlist
from repro.pv.chip import ChipSample, fabricate_chip
from repro.pv.delaymodel import NTC, STC, Corner
from repro.pv.montecarlo import fabricate_population
from repro.runtime.checkpoint import CheckpointStore, artefact_key
from repro.runtime.shm import ShmCatalog, ShmPublisher, ShmReader
from repro.timing.levelize import LevelizedCircuit, levelize

_CORNERS = {"STC": STC, "NTC": NTC}


def _population_key(kind: str, corner: str, buffered: bool) -> str:
    return f"pop/{kind}/{corner}/{int(buffered)}"


class ExperimentContext:
    """Memoised factory for stages, chips, traces, and error traces."""

    def __init__(
        self,
        config: ExperimentConfig = DEFAULT_CONFIG,
        store: CheckpointStore | None = None,
        shared: ShmReader | None = None,
    ) -> None:
        self.config = config
        self.store = store
        self.shared = shared
        self._stages: dict[tuple, ExStage] = {}
        self._alus: dict[tuple, tuple[Alu, LevelizedCircuit]] = {}
        self._circuits: dict[tuple, LevelizedCircuit] = {}
        self._chips: dict[tuple, ChipSample] = {}
        self._traces: dict[tuple, InstructionTrace] = {}
        self._error_traces: dict[tuple, ErrorTrace] = {}
        #: scratch memo for experiment modules sharing derived results
        self.memo: dict = {}

    # ------------------------------------------------------------------
    def _checkpointed(self, kind: str, parts: tuple, compute):
        """Compute via the store when one is attached, else directly."""
        if self.store is None:
            return compute()
        return self.store.fetch(
            artefact_key(kind, self.config, *parts), compute
        )

    def corner(self, name: str) -> Corner:
        return _CORNERS[name]

    # ----------------------------------------------------------------
    # shared-memory consumption (strictly an accelerator: any miss or
    # shape mismatch falls back to local computation)
    # ----------------------------------------------------------------
    def _shared_chip(
        self, kind: str, seed: int, corner: str, buffered: bool, netlist: Netlist
    ) -> ChipSample | None:
        """Rebuild one chip from the parent-published population, if present."""
        if self.shared is None:
            return None
        group = _population_key(kind, corner, buffered)
        seeds = self.shared.meta.get(group)
        if not seeds or seed not in seeds:
            return None
        delays = self.shared.get(f"{group}/delays")
        delta_vth = self.shared.get(f"{group}/delta_vth")
        nominal = self.shared.get(f"{group}/nominal")
        affected = self.shared.get(f"{group}/affected")
        offsets = self.shared.get(f"{group}/aff_offsets")
        if any(a is None for a in (delays, delta_vth, nominal, affected, offsets)):
            return None
        if delays.shape != (len(seeds), netlist.num_nodes):
            return None  # published under a different configuration
        index = seeds.index(seed)
        obs.inc("runner.chips_shared")
        return ChipSample(
            netlist=netlist,
            corner=self.corner(corner),
            seed=seed,
            delta_vth=delta_vth[index],
            delays=delays[index],
            nominal_delays=nominal,
            affected_ids=affected[int(offsets[index]) : int(offsets[index + 1])],
        )

    def _levelized(self, netlist: Netlist, controls: Sequence[int]) -> LevelizedCircuit:
        """One levelised circuit per distinct netlist structure.

        The bare ALU and the unbuffered stages build equal netlists, and
        so do the buffered stages at both corners; sharing one circuit
        also shares its cache of restricted circuits.
        """
        in0, in1, in2 = netlist.fanin_arrays()
        key = (
            netlist.kinds_array().tobytes(), in0.tobytes(), in1.tobytes(), in2.tobytes(),
            netlist.input_ids, netlist.output_ids, tuple(controls),
        )
        if key not in self._circuits:
            self._circuits[key] = levelize(netlist, controls)
        return self._circuits[key]

    def stage(self, corner: str = "NTC", buffered: bool = True) -> ExStage:
        key = (corner, buffered, self.config.width)
        if key not in self._stages:
            self._stages[key] = build_ex_stage(
                self.config.width, self.corner(corner), buffered=buffered,
                levelizer=self._levelized,
            )
        return self._stages[key]

    def bare_alu(self, corner: str = "NTC") -> tuple[Alu, LevelizedCircuit]:
        """The raw (bufferless, clockless) ALU used by the per-op studies."""
        key = ("alu", self.config.width)
        if key not in self._alus:
            alu = build_alu(self.config.width)
            self._alus[key] = (alu, self._levelized(alu.netlist, alu.select_rows))
        return self._alus[key]

    def chip(
        self, seed: int, corner: str = "NTC", buffered: bool = True
    ) -> ChipSample:
        key = ("stage", seed, corner, buffered, self.config.width)
        if key not in self._chips:
            stage = self.stage(corner, buffered)

            def compute() -> ChipSample:
                shared = self._shared_chip("stage", seed, corner, buffered, stage.netlist)
                if shared is not None:
                    return shared
                with obs.span("runner.chip", seed=seed, corner=corner):
                    obs.inc("runner.chips_computed")
                    return stage.fabricate(seed=seed)

            self._chips[key] = self._checkpointed("chip", key, compute)
        return self._chips[key]

    def alu_chip(self, seed: int, corner: str) -> ChipSample:
        """A fabricated instance of the bare ALU at ``corner``."""
        key = ("alu", seed, corner, self.config.width)
        if key not in self._chips:
            alu, _ = self.bare_alu(corner)

            def compute() -> ChipSample:
                shared = self._shared_chip("alu", seed, corner, True, alu.netlist)
                if shared is not None:
                    return shared
                with obs.span("runner.alu_chip", seed=seed, corner=corner):
                    obs.inc("runner.chips_computed")
                    return fabricate_chip(alu.netlist, self.corner(corner), seed)

            self._chips[key] = self._checkpointed("chip", key, compute)
        return self._chips[key]

    def trace(self, benchmark: str) -> InstructionTrace:
        key = (benchmark, self.config.cycles, self.config.width)
        if key not in self._traces:
            with obs.span("runner.trace", benchmark=benchmark):
                obs.inc("runner.trace_generated")
                self._traces[key] = generate_trace(
                    BENCHMARKS[benchmark], self.config.cycles,
                    width=self.config.width,
                )
        return self._traces[key]

    def error_trace(
        self,
        benchmark: str,
        chip_seed: int,
        corner: str = "NTC",
        buffered: bool = True,
    ) -> ErrorTrace:
        key = (benchmark, chip_seed, corner, buffered, self.config.cycles, self.config.width)
        if key not in self._error_traces:
            def compute() -> ErrorTrace:
                with obs.span(
                    "runner.error_trace", benchmark=benchmark,
                    chip_seed=chip_seed, corner=corner,
                ):
                    obs.inc("runner.error_traces_computed")
                    stage = self.stage(corner, buffered)
                    chip = self.chip(chip_seed, corner, buffered)
                    return build_error_trace(
                        stage, chip, self.trace(benchmark), chunk=self.config.chunk
                    )

            self._error_traces[key] = self._checkpointed("etrace", key, compute)
        return self._error_traces[key]

    def error_traces_batch(
        self,
        benchmark: str,
        chip_seeds,
        corner: str = "NTC",
        buffered: bool = True,
    ) -> list[ErrorTrace]:
        """Error traces of ``benchmark`` on several chips, one kernel call.

        Seeds whose trace is already memoised or checkpointed are served
        from there; the rest share a single
        :func:`~repro.core.scheme_sim.build_error_traces_batch` pass
        (bit-identical per chip to :meth:`error_trace`) and are published
        to the store under their usual per-trace keys.
        """
        chip_seeds = [int(seed) for seed in chip_seeds]
        keys = {
            seed: (benchmark, seed, corner, buffered, self.config.cycles, self.config.width)
            for seed in chip_seeds
        }

        def cached(seed: int) -> bool:
            if keys[seed] in self._error_traces:
                return True
            return (
                self.store is not None
                and artefact_key("etrace", self.config, *keys[seed]) in self.store
            )

        missing = [seed for seed in chip_seeds if not cached(seed)]
        if missing:
            stage = self.stage(corner, buffered)
            chips = [self.chip(seed, corner, buffered) for seed in missing]
            with obs.span(
                "runner.error_traces_batch", benchmark=benchmark,
                chips=len(missing), corner=corner,
            ):
                obs.inc("runner.error_traces_computed", len(missing))
                traces = build_error_traces_batch(
                    stage, chips, self.trace(benchmark), chunk=self.config.chunk
                )
            for seed, trace in zip(missing, traces):
                self._error_traces[keys[seed]] = self._checkpointed(
                    "etrace", keys[seed], lambda value=trace: value
                )
        return [
            self.error_trace(benchmark, seed, corner, buffered)
            for seed in chip_seeds
        ]

    # convenience accessors for the two reference chips ------------------
    def ch3_error_trace(self, benchmark: str) -> ErrorTrace:
        return self.error_trace(benchmark, self.config.ch3_chip_seed)

    def ch4_error_trace(self, benchmark: str) -> ErrorTrace:
        return self.error_trace(benchmark, self.config.ch4_chip_seed)


# ----------------------------------------------------------------------
# parallel pre-warming: which artefacts will a set of experiments need?
# ----------------------------------------------------------------------

#: experiments that walk the Chapter-3 reference chip over every benchmark
_CH3_SWEEP = frozenset(
    {"fig3_8", "fig3_9", "fig3_10", "fig3_11", "fig3_12", "abl_tags"}
)
#: experiments that walk the Chapter-4 reference chip over every benchmark
_CH4_SWEEP = frozenset(
    {"fig4_3", "fig4_4", "fig4_8", "fig4_9", "fig4_10", "fig4_11", "fig4_12"}
)
#: the four (corner, buffered) EX-stage configurations of fig4_2
_FIG4_2_CONFIGS = (("NTC", False), ("NTC", True), ("STC", False), ("STC", True))


def prefetch_plan(
    config: ExperimentConfig, experiment_ids
) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """The (chip specs, error-trace specs) the given experiments will need.

    Chip specs are ``(kind, seed, corner, buffered)`` with kind
    ``"stage"`` (:meth:`ExperimentContext.chip`) or ``"alu"``
    (:meth:`ExperimentContext.alu_chip`, ``buffered`` ignored); trace
    specs are ``(benchmark, chip_seed, corner, buffered)``
    (:meth:`ExperimentContext.error_trace`).  The plan is intentionally
    a *hint*: an under-estimate just means a worker computes the
    artefact itself through the claimed store, an over-estimate wastes
    one pool slot.  Every error trace's chip is included, so the chip
    phase fully feeds the trace phase.
    """
    ids = set(experiment_ids)
    chips: dict[tuple, None] = {}  # insertion-ordered de-dup
    traces: dict[tuple, None] = {}

    ch3_benchmarks: list[str] = []
    if "fig3_4" in ids:
        ch3_benchmarks.append("vortex")
    if ids & _CH3_SWEEP:
        ch3_benchmarks = [b for b in config.benchmarks]
    for benchmark in ch3_benchmarks:
        chips[("stage", config.ch3_chip_seed, "NTC", True)] = None
        traces[(benchmark, config.ch3_chip_seed, "NTC", True)] = None

    if ids & _CH4_SWEEP:
        chips[("stage", config.ch4_chip_seed, "NTC", True)] = None
        for benchmark in config.benchmarks:
            traces[(benchmark, config.ch4_chip_seed, "NTC", True)] = None

    if "fig3_2" in ids or "fig3_3" in ids:
        corners = ("STC", "NTC") if "fig3_2" in ids else ("NTC",)
        for corner in corners:
            for chip_index in range(config.characterization_chips):
                chips[("alu", 1000 + chip_index, corner, True)] = None

    if "fig4_2" in ids:
        chips_per_config = max(2, config.characterization_chips // 3)
        for corner, buffered in _FIG4_2_CONFIGS:
            for chip_index in range(chips_per_config):
                seed = config.ch4_chip_seed + chip_index * 37
                chips[("stage", seed, corner, buffered)] = None

    return tuple(chips), tuple(traces)


def group_trace_specs(
    traces: tuple[tuple, ...]
) -> tuple[tuple[str, tuple[int, ...], str, bool], ...]:
    """Group per-trace prefetch specs into batch-kernel work units.

    ``(benchmark, chip_seed, corner, buffered)`` specs sharing everything
    but the seed collapse into one ``(benchmark, seeds, corner,
    buffered)`` unit — one :meth:`ExperimentContext.error_traces_batch`
    call per unit times all its chips in a single kernel pass.
    """
    groups: dict[tuple[str, str, bool], list[int]] = {}
    for benchmark, chip_seed, corner, buffered in traces:
        groups.setdefault((benchmark, corner, bool(buffered)), []).append(int(chip_seed))
    return tuple(
        (benchmark, tuple(seeds), corner, buffered)
        for (benchmark, corner, buffered), seeds in groups.items()
    )


def build_shared_artefacts(
    config: ExperimentConfig, experiment_ids
) -> tuple[ShmCatalog | None, ShmPublisher | None]:
    """Publish the run's chip populations to shared memory for a fleet run.

    Fabricates every chip the :func:`prefetch_plan` names as one
    population per (kind, corner, buffered) group — bit-identical per
    seed to on-demand fabrication — and copies them into
    :mod:`multiprocessing.shared_memory` segments.  Returns the
    picklable catalog (to ship inside the ``WorkerSpec``) and the
    publisher that owns the segments; the caller must ``unlink()`` it
    when the run finishes.  Returns ``(None, None)`` when the plan needs
    no chip.

    Instruction traces and their encoded input streams are not shared:
    the workers that build error traces need the trace itself, and
    encoding one costs well under a millisecond, so the coordinator
    generates no trace.
    """
    chips, _ = prefetch_plan(config, experiment_ids)
    if not chips:
        return None, None
    ctx = ExperimentContext(config)
    publisher = ShmPublisher()
    try:
        with obs.span("runner.build_shared", chips=len(chips)):
            groups: dict[tuple[str, str, bool], list[int]] = {}
            for kind, seed, corner, buffered in chips:
                # alu_chip ignores ``buffered``; normalise its group key.
                key = (kind, corner, bool(buffered) if kind == "stage" else True)
                if int(seed) not in groups.setdefault(key, []):
                    groups[key].append(int(seed))
            for (kind, corner, buffered), seeds in groups.items():
                if kind == "stage":
                    netlist = ctx.stage(corner, buffered).netlist
                else:
                    netlist = ctx.bare_alu(corner)[0].netlist
                population = fabricate_population(
                    netlist, ctx.corner(corner), seeds
                )
                group = _population_key(kind, corner, buffered)
                publisher.put(f"{group}/delays", population.delays)
                publisher.put(f"{group}/delta_vth", population.delta_vth)
                publisher.put(f"{group}/nominal", population.nominal_delays)
                counts = [len(ids) for ids in population.affected_ids]
                offsets = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                packed = (
                    np.concatenate(population.affected_ids)
                    if offsets[-1]
                    else np.array([], dtype=np.int64)
                )
                publisher.put(f"{group}/affected", packed.astype(np.int64))
                publisher.put(f"{group}/aff_offsets", offsets)
                publisher.put_meta(group, tuple(seeds))
    except Exception:
        publisher.unlink()
        raise
    return publisher.catalog(), publisher
