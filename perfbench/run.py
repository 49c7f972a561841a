"""The vexplain benchmark.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload walkthrough --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # every workload, one process each

A run builds its inputs from ``--seed``, runs closed-loop passes of the
workload until ``--seconds`` seconds have passed (one whole pass at least;
after that time a later pass starts no further operation), checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` (tracing off): the end-to-end metrics of BENCHMARK.json:
  ``setup_s``; ``pass_ref``, the mean time of one pass (from the timed
  operations of every pass, see ``stats.pass_estimate``) in multiples of
  the reference operation's time (see reference.py); ``work_per_ref``, the
  workload's work units per pass over the time, in the same unit, of the
  operations doing them; ``peak_rss_mb``.
* ``--trace 1``: one untraced pass, then one traced pass; the per-layer
  metrics of BENCHMARK.json (see layers.py) and the tracing overhead: the
  traced pass's wall time minus the untraced one's, and an estimate from
  the number of wrapped calls.

The line before it, ``report: {...}``, gives every metric by name with its
unit (the workload's own ones, ``failed_frac``, and the plain times behind
the end-to-end ratios: ``pass_s``, ``work_per_s``, ``reference_ms`` and
the median complete pass ``wall_s``, all without the reference's share),
the pass count, the environment and any failed check. Reports and spans
are also written to perfbench/out/. Setup time is a fresh interpreter
importing the package and building the workload's inputs, the median of
eight starts, half before the passes and half after.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported: on a small
# shared machine more threads make timings slower and noisier.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from layers import PACKAGE, UNITS, Instrumentation  # noqa: E402
from reference import Pacer, Reference  # noqa: E402
from spans import NullTracer, Tracer, installed, wrapper_costs  # noqa: E402
from stats import pass_estimate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("walkthrough", "score", "selfcheck")
SETUP_STARTS = 4  # before the passes, and as many again after them
# (name, unit, better); BENCHMARK.json lists exactly these as end_to_end.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_ref", "ref", "lower"),
    ("work_per_ref", "1/ref", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def import_package():
    """Import vexplain from this checkout's sources and nowhere else."""
    if not (SRC / "vexplain" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'vexplain'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import vexplain

    if Path(vexplain.__file__).resolve().parent != SRC / "vexplain":
        sys.exit(f"error: imported vexplain from {vexplain.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall times of SETUP_STARTS fresh interpreters that import the package
    and build the workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(seed), "--setup-only"],
                              check=True, stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT)
        # The child stamps the moment its inputs are ready on the same
        # system-wide clock; waiting for its exit would add polling delay.
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def untraced_run(wl, args):
    # Half the set-up starts before the passes and half after, so that one
    # slow spell of the shared machine does not cover all of them.
    setup_times = measure_setup(args.workload, args.seed)
    wl.setup()
    passes = []
    reference = Reference()
    clock = reference.clock
    with reference.sampling():
        deadline = clock() + args.seconds
        while not passes or clock() < deadline:
            # The first pass is complete, whatever the deadline; later ones
            # start no operation after it.
            pacer = Pacer(clock, deadline if passes else None)
            result = wl.run_pass(NullTracer(), len(passes), pacer)
            wl.check(result)
            passes.append(result)
    setup_times += measure_setup(args.workload, args.seed)
    ops = [p.ops for p in passes]
    pass_s = pass_estimate(ops)
    work_per_s = passes[0].work_units / pass_estimate(ops, wl.WORK_OPS)
    ref_s = reference.seconds()
    values = {
        "setup_s": median(setup_times),
        "pass_ref": pass_s / ref_s,
        "work_per_ref": work_per_s * ref_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    plain = {"pass_s": (pass_s, "s"), "work_per_s": (work_per_s, "1/s"),
             "reference_ms": (ref_s * 1e3, "ms"),
             "reference_samples": (len(reference.samples), "count")}
    return passes, metrics, plain


def traced_run(wl, args):
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    replacements = instrumentation.replacements()
    with installed(PACKAGE, replacements), tracer.stage_span("setup"):
        wl.setup()
    base = wl.run_pass(NullTracer(), 0, Pacer())
    wl.check(base)
    with installed(PACKAGE, replacements), tracer.stage_span("pass"):
        traced = wl.run_pass(tracer, 1, Pacer())
    wl.check(traced)
    spans = tracer.finish()
    metrics = instrumentation.metrics(spans)
    aggregated_calls = sum(row[0] for s in spans for row in s.agg.values())
    agg_cost, span_cost = wrapper_costs()
    metrics.update({
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": base.wall_s,
        "trace.overhead_s": traced.wall_s - base.wall_s,
        # The difference above carries the machine's run-to-run noise; the
        # estimate counts wrapped calls times the measured cost of a wrapper.
        "trace.overhead_est_s": aggregated_calls * agg_cost + len(spans) * span_cost,
        "trace.wrapped_calls": aggregated_calls + len(spans),
        "trace.spans": len(spans),
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps([s.to_json() for s in spans]))
    return [base, traced], {k: (v, UNITS[k]) for k, v in metrics.items()}, {}


def run_workload(args) -> None:
    import_package()
    from workloads import WORKLOADS

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.setup_only:
            wl.setup()
            print(time.clock_gettime(time.CLOCK_MONOTONIC))
            return
        passes, metrics, plain = (traced_run if args.trace else untraced_run)(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = passes[:1] if args.trace else passes
    named = {**metrics, **plain}
    named["wall_s"] = (median(p.wall_s for p in untraced if p.complete), "s")
    named.update(type(wl).named_metrics(untraced))
    named["failed_frac"] = (failed / attempted, "ratio")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "work_unit": wl.work_unit,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "info": [p.info for p in passes],
        "problems": [q for p in passes for q in p.problems][:50],
        "waiting": "not applicable: no layer has a queue or a retry",
        "env": environment(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_all(args) -> None:
    """Each workload in a fresh process; prints every metric by name."""
    combined, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        report = json.loads(next(line for line in lines if line.startswith("report: "))[8:])
        for metric, v in report["metrics"].items():
            print(f"{name:<12} {metric:<42} {v['value']:>16.6g} {v['unit']}")
        for problem in report["problems"]:
            print(f"{name:<12} FAILED: {problem}")
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; data and run seeds are derived from it")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for at least this long (one pass at least)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
