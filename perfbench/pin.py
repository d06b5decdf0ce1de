#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from one round of each workload.

    python3 perfbench/pin.py

Run it only when a change is meant to alter the program's outputs; a
change to the simulator alone must leave every pinned digest as it is.
Each (workload, input variant) runs in its own process.  ``fleet``
has no digests of its own: its report must equal ``sweep``'s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, OUT, ROOT, SRC, THREAD_ENV

PINNED = ("sweep", "replay", "characterize")


def pin_one(name: str, variant: int) -> dict:
    sys.path.insert(0, SRC)
    import workloads

    workloads.install_inputs(variant)
    wl = workloads.WORKLOADS[name](variant, None, OUT)
    wl.prepare()
    return wl.pin(wl.run_round())


def main() -> int:
    if len(sys.argv) == 3:
        print(json.dumps(pin_one(sys.argv[1], int(sys.argv[2]))))
        return 0
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import workloads

    pins = {}
    for name in PINNED:
        for variant in range(len(workloads.VARIANTS)):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), name, str(variant)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            pins.setdefault(name, {})[str(variant)] = json.loads(done.stdout.splitlines()[-1])
            print(f"pinned {name} variant {variant}", file=sys.stderr)
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
