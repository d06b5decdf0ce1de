"""Trident: comprehensive choke-error mitigation (Chapter 4 / TVLSI'18).

Four hardware components regulate Trident's three mechanisms:

* :mod:`repro.core.trident.tdc` -- Transition Detector & Counter: flags
  illegal transitions during the detection clock's transparent phase and
  classifies errors (SE(Min), SE(Max), CE) by their count,
* :mod:`repro.core.trident.cet` -- Choke Error Table: EID storage with
  pseudo-LRU replacement,
* :mod:`repro.core.trident.ccr` -- Choke Clearance Register: the
  DE-to-WB instruction buffer providing EID details and replay addresses,
* :mod:`repro.core.trident.controller` -- Choke Detection Controller:
  detection, correction (flush + replay), and avoidance (1 stall per SE,
  2 per CE).
"""

from repro.core.trident.tdc import TransitionDetectorCounter
from repro.core.trident.cet import ChokeErrorTable
from repro.core.trident.ccr import ChokeClearanceRegister, InstructionRecord
from repro.core.trident.controller import TridentScheme

__all__ = [
    "ChokeClearanceRegister",
    "ChokeErrorTable",
    "InstructionRecord",
    "TransitionDetectorCounter",
    "TridentScheme",
]
