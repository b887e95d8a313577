"""Benchmark screwalg end to end, or layer by layer with --trace 1.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {motion,theorems,fit,cli} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See bench/README.md
for the workloads, the metrics and reference figures.

One caller runs operations in a closed loop, a round of operation kinds at
a time, until ``--seconds`` have passed; inputs come from ``--seed`` and
every output is checked. With --trace 0 the end-to-end metrics are measured
with no tracing installed. With --trace 1 rounds alternate between untraced
and traced with the layer wrappers of bench/layertrace.py; the per-layer
metrics come from the traced rounds, and spans plus per-function totals are
written to bench/out/.
"""

import os

# One BLAS thread. The oracle's least-squares problems are at most a few
# thousand rows by 3 columns, too small to gain from threads, and on a
# 2-core machine a second BLAS thread contends with the benchmark itself.
# Set before numpy is imported, here and in every child process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
PROCESS_RUNS = 21  # whole CLI processes per run, cycling the workload's documents
WINDOW_OPS = 100  # least operations per latency window: 10 lie beyond its p90
IMPORT_PROBES = 5  # fresh interpreters for cli.import_ms
COUNT_ROUNDS = 3  # traced rounds whose counts give the *_per_op count metrics
SPAN_ROUNDS = 2  # traced rounds whose spans are written out
CHILD_TIMEOUT = 60


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)  # BLAS_ENV is already in os.environ


class Failure:
    """An operation that raised instead of returning or refusing."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # seconds; failed operations count as inf
        self.busy = 0.0
        self.rounds = 0
        self.mismatches: list[str] = []
        self.failures: dict[str, int] = {}


def run_round(w, rng, tally: Tally, tracer=None) -> None:
    """One round: make every input, time every program call, then check every output."""
    clock = time.perf_counter
    cases = [w.make(kind, rng, tally.rounds) for kind in w.kinds]
    outs = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op = tally.rounds * len(cases) + i
            tracer.active = True
        t0 = clock()
        try:
            out = w.call(case)
        except Exception as exc:  # noqa: BLE001  the operation failed; counted below
            out = Failure(exc)
        t1 = clock()
        if tracer is not None:
            tracer.active = False
        tally.busy += t1 - t0
        tally.latencies.append(float("inf") if isinstance(out, Failure) else t1 - t0)
        outs.append(out)
    for case, out in zip(cases, outs):
        tally.attempted += 1
        if isinstance(out, Failure):
            tally.failed += 1
            key = f"{case.kind}: {type(out.exc).__name__}"
            tally.failures[key] = tally.failures.get(key, 0) + 1
            continue
        try:
            w.check(case, out)
        except Exception as exc:  # noqa: BLE001  any check error is a wrong output
            tally.mismatches.append(f"{case.kind}: {type(exc).__name__}: {exc}")
    tally.rounds += 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def windowed_percentile(latencies: list, q: float, round_len: int) -> float:
    """The q-th percentile of each window of consecutive whole rounds holding at
    least WINDOW_OPS operations, averaged over the run's full windows.

    The host's speed drifts over seconds. A window lasts well under that, so
    its percentile sees one speed, and the average weighs the speeds by time
    spent in them. A percentile over the whole run instead jumps from the
    fast to the slow level as their shares cross it.
    """
    size = round_len * -(-WINDOW_OPS // round_len)
    windows = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    return statistics.fmean(percentile(win, q) for win in windows or [latencies])


def probe_setup(workload: str, seed: int) -> float:
    """One fresh interpreter's set-up time, in seconds."""
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "probe.py"), workload, str(seed)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if p.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{p.stderr}")
    return float(p.stdout.strip().splitlines()[-1])


def run_process(case, tally: Tally) -> float:
    """One whole ``python -m screwalg.cli`` process, checked; its wall time in seconds."""
    import workloads

    t0 = time.perf_counter()
    p = subprocess.run(
        [sys.executable, "-m", "screwalg.cli", *case.argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    elapsed = time.perf_counter() - t0
    try:
        workloads.check_cli(case, p.returncode, p.stdout, p.stderr)
    except Exception as exc:  # noqa: BLE001
        tally.mismatches.append(f"process {case.kind}: {type(exc).__name__}: {exc}")
    return elapsed


def import_ms() -> float:
    """screwalg's own import time without numpy, from -X importtime; median ms."""
    code = "import numpy, sys; sys.stderr.write('-- numpy loaded --\\n'); import screwalg.cli"
    totals = []
    for _ in range(IMPORT_PROBES):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
        if p.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{p.stderr}")
        after = p.stderr.split("-- numpy loaded --", 1)[1]
        totals.append(sum(
            int(line.split(":", 1)[1].split("|")[0])
            for line in after.splitlines() if line.startswith("import time:")
        ))
    return statistics.median(totals) / 1000.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w, workload: str, seed: int, seconds: float):
    import workloads

    tally = Tally()
    rng = random.Random(f"{workload}/{seed}/ops")
    process_rng = random.Random(f"{workload}/{seed}/process")
    setup_s, process_s = [], []
    # The set-up probes and the whole processes are spread evenly over the
    # run, between rounds, so that their medians see the same machine as the
    # in-process operations; the host's speed drifts over seconds.
    probes = [lambda: setup_s.append(probe_setup(workload, seed))] * SETUP_PROBES
    kinds = itertools.islice(itertools.cycle(w.process_kinds), PROCESS_RUNS)
    processes = [
        lambda case=workloads.make_cli_case(kind, process_rng):
            process_s.append(run_process(case, tally))
        for kind in kinds
    ]
    tasks = _interleave(probes, processes)

    run_round(w, random.Random(f"{workload}/{seed}/warm-up"), Tally())
    start = time.perf_counter()
    due = [start + (k + 0.5) * seconds / len(tasks) for k in range(len(tasks))]
    done = 0
    while True:
        run_round(w, rng, tally)
        now = time.perf_counter()
        while done < len(tasks) and now >= due[done]:
            tasks[done]()
            done += 1
            now = time.perf_counter()
        if done == len(tasks) and now >= start + seconds:
            break

    ok = tally.attempted - tally.failed
    metrics = {
        "ops_per_s": metric(ok / tally.busy, "1/s"),
        "latency_p50_us": metric(windowed_percentile(tally.latencies, 50, len(w.kinds)) * 1e6, "us"),
        "latency_p90_us": metric(windowed_percentile(tally.latencies, 90, len(w.kinds)) * 1e6, "us"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "process_p50_ms": metric(statistics.median(process_s) * 1e3, "ms"),
    }
    return tally, metrics


def _interleave(a: list, b: list) -> list:
    """Merge two lists, each spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, i) for i in range(len(a))]
    keyed += [((i + 0.5) / len(b), 1, i) for i in range(len(b))]
    return [(a, b)[which][i] for _, which, i in sorted(keyed)]


def layer_by_layer(w, workload: str, seed: int, seconds: float):
    import layertrace

    imp_ms = import_ms()
    rng = random.Random(f"{workload}/{seed}/ops")
    run_round(w, random.Random(f"{workload}/{seed}/warm-up"), Tally())
    tracer = layertrace.Tracer()
    plain, traced = Tally(), Tally()
    snapshot = {}
    # Untraced and traced rounds alternate, so that both see the same
    # machine; their ratio of rates is the tracing overhead.
    deadline = time.perf_counter() + seconds
    while True:
        run_round(w, rng, plain)
        tracer.record_spans = traced.rounds < SPAN_ROUNDS
        tracer.enable()
        try:
            run_round(w, rng, traced, tracer=tracer)
        finally:
            tracer.disable()
        if traced.rounds == COUNT_ROUNDS:
            snapshot = tracer.counts()
        if snapshot and time.perf_counter() >= deadline:
            break

    count_ops = COUNT_ROUNDS * len(w.kinds)
    self_s = tracer.self_seconds()
    metrics = {}
    for layer in layertrace.LAYERS[:-1]:
        metrics[f"{layer}.calls_per_op"] = metric(snapshot[f"{layer}.calls"] / count_ops, "count")
        metrics[f"{layer}.self_us_per_op"] = metric(self_s[layer] * 1e6 / traced.attempted, "us")
    for layer in ("dual", "linalg"):
        metrics[f"{layer}.objects_per_op"] = metric(snapshot[f"{layer}.objects"] / count_ops, "count")
    for layer in ("theorems", "oracle"):
        metrics[f"{layer}.refusals_per_op"] = metric(snapshot[f"{layer}.refusals"] / count_ops, "count")
    metrics["oracle.lstsq_rows_per_op"] = metric(snapshot["oracle.lstsq_rows"] / count_ops, "count")
    metrics["cli.argparse_us_per_op"] = metric(self_s["argparse"] * 1e6 / traced.attempted, "us")
    metrics["cli.import_ms"] = metric(imp_ms, "ms")
    untraced_rate = (plain.attempted - plain.failed) / plain.busy
    traced_rate = (traced.attempted - traced.failed) / traced.busy
    metrics["trace.overhead_ratio"] = metric(untraced_rate / traced_rate, "ratio")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": workload, "seed": seed, "traced_ops": traced.attempted,
            "count_ops": count_ops, "metrics": metrics, "counts": snapshot,
            "functions": tracer.functions(), "spans": tracer.span_records(),
        }, f)
    print(f"trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)

    tally = Tally()
    for t in (plain, traced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.mismatches += t.mismatches
        for key, n in t.failures.items():
            tally.failures[key] = tally.failures.get(key, 0) + n
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("motion", "theorems", "fit", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "screwalg", "__init__.py")):
        print(f"error: no screwalg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import screwalg
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(screwalg.__file__))) != SRC:
        print(f"error: screwalg was imported from {screwalg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]()
    measure = layer_by_layer if args.trace else end_to_end
    tally, metrics = measure(w, args.workload, args.seed, args.seconds)

    for key, n in sorted(tally.failures.items()):
        print(f"failed: {n} x {key}", file=sys.stderr)
    for line in tally.mismatches[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
