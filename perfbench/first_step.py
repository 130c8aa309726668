"""One ``setup_s`` sample: a fresh process runs a workload up to its first step.

    python3 perfbench/first_step.py <workload> <seed> <workdir>

``run.py`` starts this before its first measured call and after each call,
once it has written the workload's inputs into ``<workdir>``. The process
imports numpy and phasecast, sets the workload up and starts its first call;
as the first timed step begins it prints the reading of ``CLOCK_MONOTONIC``,
which every process on the machine shares, and exits at once. The parent
subtracts the reading it took before starting the process.

Each sample is a process of its own, so that it includes import and starts
from what a user's process starts from. Samples are spread over the run
because set-up time (imports, and at N = 321 about 1.3 GB of fresh pages)
drifts over seconds with the load on the machine: samples taken back to back
move together.
"""

import os
import sys
import time
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import harness
import workloads


class FirstStepTracer(harness.Tracer):
    def begin_step(self, windows: int) -> None:
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        os._exit(0)


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    loaded = run.load_program()
    if loaded is None:
        print("perfbench: phasecast sources not found", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name](loaded[0], workdir, seed)
    tracer = FirstStepTracer(workload.step_kind)
    harness.install(tracer)
    tracer.measuring = True
    workload.call(workload.setup())
    print("perfbench: the workload call ended without a step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
