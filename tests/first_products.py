"""Time the first brute-force witness products of fresh processes.

    PYTHONPATH=src python3 tests/first_products.py [PROCESSES]

Each of PROCESSES fresh interpreters (default 12), started one after another,
builds three seeded colorings: a random 3-atom partition of Z/113 (113
points), a Johnson n = 5 trial (462 points) and a random 3-atom partition of
(Z/2)^10 (1024 points).  It times ``verify_bruteforce`` against 52_65 over
the whole pair walk on each, smallest first, once cold (the process's first
BLAS products of that size) and then once warm, and counts the minor page
faults of the warm walk (``ru_minflt`` of the process itself), which are 0
once the walk's buffers are kept from the cold one.  One line per size lists
the cold and then the warm milliseconds of every process, sorted, so a stall
in some processes shows as a second cluster, and then the warm walks' faults.
Then one line per process, in run order, gives its cold milliseconds and,
right after each cold walk, whether the calling thread and a BLAS worker
thread last ran on the same CPU (field 39 of ``/proc/self/task/*/stat``):
``same CPU``, ``apart``, ``no worker`` (one-thread BLAS) or ``n/a`` where
``/proc`` is missing.  A stalled product in a process whose two threads
share a CPU points at the worker spinning beside the caller.
The environment passes through, so ``OPENBLAS_NUM_THREADS=1`` in front of the
command times one-thread BLAS.
A script, not a test: it only measures.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

SIZES = ("Z/113", "Johnson n=5", "(Z/2)^10")


def _colorings():
    from relrep import (ColoredPartition, ElementSet, GroupSpec, JohnsonUniverse,
                        cayley_coloring, partition_coloring, random_equitable_partition)

    def random_partition(group, seed):
        rng = np.random.default_rng(seed)
        buckets = {name: [] for name in "abc"}
        for x in range(1, group.order):
            if x <= group.neg(x):
                pick = buckets["abc"[rng.integers(3)]]
                pick += sorted({x, group.neg(x)})
        return ColoredPartition(group, {name: ElementSet.from_indices(group, members)
                                        for name, members in buckets.items()})

    universe = JohnsonUniverse(5)
    return [cayley_coloring(random_partition(GroupSpec.cyclic(113), 1)),
            partition_coloring(universe, random_equitable_partition(universe, 1)),
            cayley_coloring(random_partition(GroupSpec.power(2, 10), 1))]


def _placement() -> str:
    """Whether this thread and another thread of the process (OpenBLAS's
    workers; this script starts no other) last ran on the same CPU."""
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return "n/a"
    cpus = {}
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/stat") as stat:
                text = stat.read()
        except OSError:  # the thread ended since the listing
            continue
        # fields 3 onwards follow the parenthesised command name; field 39 is the CPU
        cpus[int(tid)] = int(text[text.rindex(")") + 2:].split()[39 - 3])
    caller = cpus.pop(threading.get_native_id(), None)
    if caller is None:
        return "n/a"
    if not cpus:
        return "no worker"
    return "same CPU" if caller in cpus.values() else "apart"


def child() -> None:
    """Print [cold ms, warm ms, warm minor faults, placement after the cold walk]
    for each size, as JSON."""
    from relrep import builtin_52_65, verify_bruteforce

    spec, timings = builtin_52_65(), []
    for coloring in _colorings():
        calls = []
        for walk in ("cold", "warm"):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            verify_bruteforce(spec, coloring, early_exit=False)
            calls.append((time.perf_counter() - start) * 1e3)
            if walk == "cold":
                placement = _placement()
        calls += [resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, placement]
        timings.append(calls)
    print(json.dumps(timings))


def run(processes: int) -> list[str]:
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--child"], check=True,
                                      capture_output=True, text=True).stdout)
            for _ in range(processes)]
    lines = []
    for size, per_process in zip(SIZES, zip(*runs)):
        cold, warm, faults, _ = zip(*per_process)
        cold, warm = (" ".join(f"{ms:.1f}" for ms in sorted(calls)) for calls in (cold, warm))
        lines.append(f"{size}: cold ms {cold}; warm ms {warm}; "
                     f"warm minor faults {' '.join(str(f) for f in sorted(faults))}")
    for number, sizes in enumerate(runs, 1):
        lines.append(f"process {number}: " + "; ".join(
            f"{size} cold {cold:.1f} ms, {placement}"
            for size, (cold, _, _, placement) in zip(SIZES, sizes)))
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        print("\n".join(run(int(sys.argv[1]) if len(sys.argv) > 1 else 12)))
