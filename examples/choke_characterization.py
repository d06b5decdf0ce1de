#!/usr/bin/env python3
"""Post-silicon choke characterisation of a fabricated chip.

The scenario from the paper's motivation (Section 3.2): a batch of
identical NTC chips comes back from the fab; each one hides a different
set of choke points that no design-time analysis could have predicted.
This script plays the role of the characterisation bench: it drives each
ALU operation with random operand vectors, finds the cycles whose
sensitised path exceeds the PV-free critical path, traces the choke
paths, and reports CDL / CGL per operation -- the raw material of the
paper's Fig. 3.2.

Run:  python examples/choke_characterization.py
"""

import numpy as np

from repro import NTC, build_alu, fabricate_chip
from repro.circuits.alu import CH3_OPS
from repro.experiments.charstudy import collect_choke_events, op_vector_stream
from repro.pv.delaymodel import nominal_gate_delays
from repro.timing.levelize import levelize
from repro.timing.sta import arrival_times


def main() -> None:
    width = 16
    alu = build_alu(width)
    circuit = levelize(alu.netlist, alu.select_rows)
    nominal = nominal_gate_delays(alu.netlist, NTC)
    arrivals = arrival_times(alu.netlist, nominal, "max")
    critical = max(float(arrivals[bit]) for bit in alu.output_bits)
    print(
        f"{width}-bit ALU: {alu.netlist.num_gates} gates, "
        f"PV-free critical path {critical:.0f} ps at {NTC}"
    )

    for chip_seed in (3, 9, 14):
        chip = fabricate_chip(alu.netlist, NTC, seed=chip_seed)
        print(
            f"\nchip #{chip_seed}: {len(chip.affected_ids)} strongly "
            f"PV-affected gates (worst slow ratio "
            f"{chip.delay_ratio().max():.1f}x)"
        )
        header = f"  {'op':8s} {'events':>6s} {'worst CDL%':>10s} {'min CGL%':>9s}"
        print(header)
        for op in CH3_OPS:
            rng = np.random.default_rng(1000 + int(op))
            inputs = op_vector_stream(alu, op, 120, rng)
            events = collect_choke_events(circuit, chip, inputs, critical)
            if not events:
                print(f"  {op.name:8s} {'-':>6s}")
                continue
            worst = max(events, key=lambda e: e.cdl_percent)
            smallest = min(events, key=lambda e: e.cgl_percent)
            print(
                f"  {op.name:8s} {len(events):6d} {worst.cdl_percent:10.1f} "
                f"{smallest.cgl_percent:9.3f}"
            )
        # show one concrete choke path
        for op in CH3_OPS:
            rng = np.random.default_rng(1000 + int(op))
            inputs = op_vector_stream(alu, op, 120, rng)
            events = collect_choke_events(circuit, chip, inputs, critical)
            if events:
                event = max(events, key=lambda e: e.cdl_percent)
                kinds = [
                    alu.netlist.kind(node).name for node in event.choke_gate_ids
                ]
                print(
                    f"  example: a {op.name} choke path of "
                    f"{len(event.path)} nodes, dominated by "
                    f"{event.num_choke_gates} PV-affected gate(s) {kinds} "
                    f"-> CDL {event.cdl_percent:.1f}%"
                )
                break


if __name__ == "__main__":
    main()
