"""relrep benchmark: drive the relrep CLI in-process on a seeded workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout with ``src/relrep``).  Every op is
one call of ``relrep.cli.main(["--format", "json", ...])`` with stdout
captured.  The op list is generated from the seed before timing and run in
whole passes until ``--seconds`` have elapsed (at least two passes and 100
ops); each op's output is checked after timing, and every repeat of an op
must print the same bytes as its first run.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, with the tracing overhead.  The last stdout line is the
JSON result; the lines before it record the environment and a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # at least; one before the first pass and one after each pass
MAX_SETUP_PROBES = 9
MIN_OPS = 100
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def call(argv) -> tuple[int | None, str, float]:
    """One in-process CLI call: (exit code, stdout, seconds).

    If the call raised, the exit code is None and the traceback stands in
    for stdout.
    """
    import relrep.cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = relrep.cli.main(["--format", "json", *argv])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc, out = None, io.StringIO(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - start


def resolve(op, work: Path) -> list[str]:
    return [arg.replace("{work}", str(work)).replace("{root}", str(ROOT)) for arg in op.argv]


def write_inputs(workload, work: Path) -> None:
    work.mkdir(parents=True)
    for name, text in workload.files:
        (work / name).write_text(text)


# -- set-up probes ------------------------------------------------------------------


def probe_main(args) -> int:
    """In a fresh interpreter: import relrep.cli, run the warm-up op, print seconds."""
    workload = workloads.generate(args.workload, args.seed)
    start = time.perf_counter()
    import relrep.cli  # noqa: F401  (timed: import plus lazy set-up)
    rc, _, _ = call(resolve(workload.warmup, Path(args.work)))
    print(json.dumps({"setup_s": time.perf_counter() - start, "rc": rc}))
    return 0


class SetupProbes:
    """Set-up time samples, each from a fresh interpreter.

    One probe runs before the first pass and one after each pass, so the
    samples spread over the whole run instead of one slow moment.
    """

    def __init__(self, args, work: Path):
        self.cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--work", str(work)]
        self.samples: list[tuple[float, int | None]] = []

    def __call__(self) -> None:
        if len(self.samples) >= MAX_SETUP_PROBES:
            return
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        result = json.loads(done.stdout.splitlines()[-1])
        self.samples.append((result["setup_s"], result["rc"]))

    def complete(self) -> list[tuple[float, int | None]]:
        while len(self.samples) < SETUP_PROBES:
            self()
        return self.samples


# -- environment -----------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> tuple[int | None, str | None]:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and config is not None:
                    get.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return get(), config().decode()
    return None, None


def environment() -> dict:
    import numpy

    threads, config = _blas_threads()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": config,
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


# -- measurement ---------------------------------------------------------------------


def measure(workload, work: Path, seconds: float, tracer, between=None):
    """Run whole passes over the op list until the time and op minimums are met.

    With a tracer, passes alternate untraced and traced.  ``between`` runs
    after every pass, outside the timed budget.  Returns the pass records
    and the first-pass outputs; later passes keep only the indices of ops
    whose exit code or bytes differ from the first pass.
    """
    ops = [resolve(op, work) for op in workload.ops]
    first: list[tuple[int | None, str]] = []
    passes = []
    timed = 0.0
    while len(passes) < MIN_PASSES or len(passes) * len(ops) < MIN_OPS or timed < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        latencies, differs = [], set()
        start = time.perf_counter()
        try:
            for i, argv in enumerate(ops):
                rc, text, elapsed = call(argv)
                latencies.append(elapsed)
                if not passes:
                    first.append((rc, text))
                elif (rc, text) != first[i]:
                    differs.add(i)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        timed += wall
        passes.append({"traced": traced, "wall_s": wall,
                       "latencies": latencies, "differs": differs,
                       "layers": tracer.metrics() if traced else None})
        if between is not None:
            between()
    return passes, first


def count_failures(workload, first, passes, warm, probes) -> tuple[int, list[str]]:
    """Failed ops of a run, and the reasons found.

    Each op's first output is checked once; in every pass an op fails if
    that output is bad or if this pass printed other bytes or another exit
    code.  The warm-up op and each set-up probe count as one op each.
    """
    import checks

    reasons = [checks.check(op, rc, text) for op, (rc, text) in zip(workload.ops, first)]
    bad = {i for i, reason in enumerate(reasons) if reason}
    warm_reason = checks.check(workload.warmup, *warm)
    others = [f"warm-up: {warm_reason}"] if warm_reason else []
    others += [f"set-up probe exit code {rc}, in-process {warm[0]}"
               for _, rc in probes if rc != warm[0]]
    failed = sum(len(bad | p["differs"]) for p in passes) + len(others)
    return failed, [reasons[i] for i in sorted(bad)] + others


def percentile(values, q: int) -> float:
    """The q-th percentile, q in 1..99, by statistics.quantiles' inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time; the benchmark command passes run_seconds "
                             "from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relrep" / "__init__.py").is_file():
        print(f"error: no relrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe_main(args)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = config["per_layer" if args.trace else "end_to_end"]
    workload = workloads.generate(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        write_inputs(workload, work)
        return run(args, workload, work, wanted)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def run(args, workload, work: Path, wanted: list[dict]) -> int:
    import relrep.cli

    if not Path(relrep.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: relrep was imported from {relrep.cli.__file__}", file=sys.stderr)
        return 2
    import tracing

    setup = None if args.trace else SetupProbes(args, work)
    if setup:
        setup()
    warm_rc, warm_text, _ = call(resolve(workload.warmup, work))
    passes, first = measure(workload, work, args.seconds,
                            tracing.Tracer() if args.trace else None, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = setup.complete() if setup else []

    failed, failures = count_failures(workload, first, passes, (warm_rc, warm_text), probes)
    attempted = sum(len(p["latencies"]) for p in passes) + 1 + len(probes)

    untraced = [p for p in passes if not p["traced"]]
    latencies_ms = [t * 1e3 for p in untraced for t in p["latencies"]]
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    p90 = percentile(latencies_ms, 90)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        traced_wall_s = statistics.median(p["wall_s"] for p in traced)
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values.update({"trace.untraced_wall_s": wall_s,
                       "trace.traced_wall_s": traced_wall_s,
                       "trace.overhead_pct": (traced_wall_s / wall_s - 1) * 100})
    else:
        values = {"setup_s": statistics.median(s for s, _ in probes),
                  "wall_s": wall_s,
                  "op_p50_ms": statistics.median(latencies_ms),
                  "op_p90_ms": p90,
                  "peak_rss_mb": peak_rss_mb,
                  "ok_ratio": (attempted - failed) / attempted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"relrep bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"ops: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:g}; "
          f"{len(passes)} passes of {len(workload.ops)} ops; {len(latencies_ms)} untraced "
          f"latency samples, {sum(t > p90 for t in latencies_ms)} beyond p90")
    for reason in failures[:10]:
        print(f"  failed check: {reason}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
