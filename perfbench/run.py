"""Benchmark command: run one workload against the library in ``src/``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload seminorm-batch --seed 1 --seconds 40 --trace 0

The library is imported from the checkout's own ``src/`` (nothing is
installed); the command exits with code 2 if it is not there.  A run

1. sets up: imports, seeded input generation, the workload's amortized
   library objects and a warm-up call into every layer;
2. runs whole rounds of instances in a closed loop (one caller, each
   instance waits for the previous one) until ``--seconds`` of loop time
   have passed and the workload's minimum number of instances has run.
   Between rounds, the set-up is repeated in fresh child processes, so the
   set-up samples span the whole run; ``setup_s`` is their median;
3. checks every instance's answers and prints one JSON line
   ``{"correct", "attempted", "failed", "metrics"}`` last on stdout.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every instance runs twice, once untraced and once traced (alternating which
goes first), and the metrics are the per-layer ones from ``spans.py`` plus
the tracing overhead.  Each run also writes a record with the environment,
every latency and, when traced, every span to ``.bench_results/``.  The
command exits with code 1 when any check fails, and with code 2, printing
no result, when it cannot run or cannot finish the run inside its time cap.
"""

import time

_T0 = time.perf_counter()

import os

# One BLAS thread unless the caller chose otherwise: on a small shared
# machine, a second BLAS thread that spins while its core is taken turns
# short waits into long ones (see README.md, "How a run works").  Set
# before numpy loads; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
# set-ups per untraced run: this process and SETUP_SAMPLES - 1 children
SETUP_SAMPLES = 7
# a run that would start an instance this long after process start is
# abandoned, so the command ends well inside 180 s
HARD_CAP_S = 150.0
CHILD_TIMEOUT_S = 20.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import the package from the checkout's src/, and nothing else."""
    if not (SRC / "commutant" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'commutant'}")
    sys.path.insert(0, str(SRC))
    import commutant

    if Path(commutant.__file__).resolve().parent != (SRC / "commutant").resolve():
        fail(f"imported commutant from {commutant.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(args):
    """Import, generate inputs, build amortized objects, warm up every layer."""
    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed, "tiny" if args.tiny else "full")
    w.setup()
    warm_failures = []
    for raw in w.warmup_inputs():
        inst = w.prepare(raw)
        warm_failures += w.check(inst, w.run(inst))[0]
    if warm_failures:
        fail(f"warm-up instances failed their checks: {warm_failures}")
    return w


def child_setup_time(args) -> float:
    """Set up once in a fresh process; return that process's set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"set-up child did not finish in {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        fail(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def execute(w, inst, k: int, tracer) -> list:
    """[(traced, seconds, output)]: one untraced run, plus a traced one with a tracer.

    The traced run goes second for even instances and first for odd ones,
    so a cache warmed by the first run favours neither side.
    """
    order = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
    runs = []
    for traced in order:
        with tracer.patched(k) if traced else nullcontext():
            start = time.perf_counter()
            out = w.run(inst)
            runs.append((traced, time.perf_counter() - start, out))
    return runs


def measure(w, seconds: float, min_instances: int, tracer=None, between_rounds=None) -> dict:
    """Closed loop over whole rounds until `seconds` have passed and `min_instances` ran.

    `between_rounds()`, if given, runs after each round; its time does not
    count toward `seconds`.
    """
    lat, traced_lat, failures, kinds = [], [], [], []
    attempted = uncertified = 0
    start = time.perf_counter()
    paused = 0.0
    r = 0
    while True:
        for raw in w.round_inputs(r):
            if time.perf_counter() - _T0 > HARD_CAP_S:
                fail(f"run cut at the {HARD_CAP_S:.0f} s cap after {attempted} instances "
                     f"(needs {min_instances} and {seconds} s of loop time)")
            k = attempted
            attempted += 1
            msgs, reports = [], []
            try:
                inst = w.prepare(raw)
                for traced, dt, out in execute(w, inst, k, tracer):
                    (traced_lat if traced else lat).append(dt)
                    if not traced:
                        kinds.append((raw["kind"], raw["n"]))
                    m, reps = w.check(inst, out)
                    msgs += m
                    reports += reps
            except Exception as exc:  # an instance that raises counts as failed
                msgs.append(f"{type(exc).__name__}: {exc}")
            uncertified += any(not rep.converged for rep in reports)
            if msgs:
                failures.append({"instance": k, "kind": raw["kind"], "n": raw["n"],
                                 "messages": msgs})
        r += 1
        if between_rounds is not None:
            t = time.perf_counter()
            between_rounds()
            paused += time.perf_counter() - t
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds and attempted >= min_instances:
            break
    return {"latencies_s": lat, "traced_latencies_s": traced_lat, "kinds": kinds,
            "failures": failures, "attempted": attempted, "uncertified": uncertified,
            "rounds": r, "elapsed_s": elapsed}


def end_to_end(res: dict, setup_samples: list) -> dict:
    lat = res["latencies_s"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(setup_samples),
        # whole rounds only, so this is the throughput of the workload's mix
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(res: dict, tracer) -> dict:
    import spans

    out = spans.layer_metrics(tracer.spans, res["attempted"])
    untraced, traced = sum(res["latencies_s"]), sum(res["traced_latencies_s"])
    out["trace.overhead_fraction"] = (traced - untraced) / untraced
    out["trace.unattributed_fraction"] = 1.0 - spans.covered_time(tracer.spans) / traced
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count/inst",
        "self_s": "s/inst",
        "iterations": "count/inst",
        "system_mb": "MB",
        "consensus_ratio": "ratio",
        "gap_max_rel": "ratio",
    }.get(suffix, "fraction")


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = None
    git = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "seed": args.seed,
        "command": [sys.executable] + sys.argv,
        "git_commit": git,
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    w = set_up(args)
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setup_samples = [own_setup]
    tracer = between_rounds = None
    if args.trace:  # the traced run does not report setup_s
        import spans

        tracer = spans.Tracer()
    else:
        wanted = 2 if args.tiny else SETUP_SAMPLES

        def between_rounds():
            if len(setup_samples) < wanted:
                setup_samples.append(child_setup_time(args))

    # the traced run reports means, which need no minimum count
    min_instances = 1 if args.tiny or args.trace else w.min_instances
    res = measure(w, args.seconds, min_instances, tracer, between_rounds)
    if between_rounds is not None:
        while len(setup_samples) < wanted:
            between_rounds()
    fractions = {
        "failed_fraction": len(res["failures"]) / res["attempted"],
        "uncertified_fraction": res["uncertified"] / res["attempted"],
    }
    metrics = {**per_layer(res, tracer), **fractions} if tracer else end_to_end(res, setup_samples)
    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(args),
        "setup_samples_s": setup_samples,
        "input_digest": w.input_digest(),
        "rounds": res["rounds"],
        "elapsed_s": res["elapsed_s"],
        **fractions,
        "failures": res["failures"],
        "latencies_s": res["latencies_s"],
        "instance_kinds": res["kinds"],
        "traced_latencies_s": res["traced_latencies_s"],
        "result": result,
    }
    if tracer is not None:
        record["span_fields"] = ["name", "start", "end", "parent", "instance", "attrs"]
        record["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, default=str))
    print(f"record: {RESULTS / name}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
