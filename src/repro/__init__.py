"""repro: reproduction of "Revamping timing error resilience to tackle
choke points at NTC systems" (Bal, Saha, Roy, Chakraborty -- DATE 2017),
plus the dissertation's Trident extension (TVLSI/DATE 2018).

Quick tour of the public API::

    from repro import (
        build_ex_stage, NTC,            # circuit + corner
        BENCHMARKS, generate_trace,     # workloads
        build_error_trace,              # per-cycle timing-error trace
        DcsScheme, TridentScheme,       # the paper's techniques
        RazorScheme, HfgScheme, OcstScheme,  # baselines
    )

    stage = build_ex_stage(width=32, corner=NTC)
    chip = stage.fabricate(seed=41)
    trace = generate_trace(BENCHMARKS["mcf"], 20_000, width=32)
    errors = build_error_trace(stage, chip, trace)
    result = DcsScheme("icslt", capacity=128).simulate(errors)
    print(result.prediction_accuracy, result.penalty_cycles)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.

Importing the package pins the BLAS/OpenMP thread pools to one thread
(the variables below are set before numpy loads).  The grid covariance's
Cholesky factor (:mod:`repro.pv.varius`) differs in its last bits with
the BLAS thread count, and every fabricated chip's delays with it; one
thread keeps chips independent of the core count and the environment.  A program that imports
numpy before ``repro`` keeps whatever pool numpy started with.
"""

import os

os.environ.update(
    dict.fromkeys(
        (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        ),
        "1",
    )
)

from repro.analysis import ShmooResult, shmoo_sweep
from repro.arch.cpu import InOrderPipeline, MitigationKind, run_pipeline
from repro.arch.trace import BENCHMARKS, BenchmarkConfig, generate_trace
from repro.circuits.alu import Alu, AluOp, alu_reference, build_alu
from repro.circuits.ex_stage import ExStage, build_ex_stage
from repro.core.dcs import DcsScheme
from repro.core.scheme_sim import ErrorTrace, build_error_trace
from repro.core.schemes import HfgScheme, OcstScheme, RazorScheme, SchemeResult
from repro.core.trident import TridentScheme
from repro.gates.builder import NetlistBuilder
from repro.gates.netlist import Netlist
from repro.pv.chip import ChipSample, fabricate_chip
from repro.pv.delaymodel import NTC, STC, Corner
from repro.pv.varius import VariusParams
from repro.timing.report import timing_report

__version__ = "1.0.0"

__all__ = [
    "Alu",
    "AluOp",
    "BENCHMARKS",
    "BenchmarkConfig",
    "ChipSample",
    "Corner",
    "DcsScheme",
    "ErrorTrace",
    "ExStage",
    "HfgScheme",
    "InOrderPipeline",
    "MitigationKind",
    "NTC",
    "Netlist",
    "NetlistBuilder",
    "OcstScheme",
    "RazorScheme",
    "STC",
    "SchemeResult",
    "ShmooResult",
    "TridentScheme",
    "VariusParams",
    "alu_reference",
    "build_alu",
    "build_error_trace",
    "build_ex_stage",
    "fabricate_chip",
    "generate_trace",
    "run_pipeline",
    "shmoo_sweep",
    "timing_report",
    "__version__",
]
