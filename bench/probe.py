"""Set-up time of one workload, measured inside a fresh interpreter.

Usage: python3 bench/probe.py <workload> <seed>

Times importing numpy and screwalg (and the CLI module, for the cli
workload) plus one warm-up operation of each kind the workload runs. Making
the warm-up inputs is the benchmark's own work and is left out. Prints the
seconds on the last line.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (numpy, screwalg, the references)


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    w = workloads.WORKLOADS[name]()
    t_imported = time.perf_counter()
    rng = random.Random(f"{name}/{seed}/probe")
    kinds = [k for k in dict.fromkeys(w.kinds) if k not in w.known_fault]
    cases = [w.make(k, rng, 0) for k in kinds]
    t_made = time.perf_counter()
    outs = [w.call(c) for c in cases]
    elapsed = (t_imported - T0) + (time.perf_counter() - t_made)
    for c, out in zip(cases, outs):
        w.check(c, out)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
