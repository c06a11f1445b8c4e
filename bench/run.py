"""gscsim benchmark: one seeded workload per run, timed from outside.

    python3 bench/run.py --workload eq_ladder --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``eq_ladder``: ``gscsim equilibrium`` on a ladder of economies plus stiff
  draws that the damped solver fails on;
* ``shock_sourcing``: ``gscsim simulate --matrix --plot`` for planner and
  individual configs, ``monte_carlo_survival`` and ``simulate_regime``;
* ``reliance_tables``: ``gscsim fir --diff`` and ``gscsim fmr`` on two
  generated 1200-sector tables.

A run imports gscsim from ``src/`` next to this directory, writes the
seeded inputs (three times, for a median), runs one warm-up pass of every
operation and checks its outputs against the library, then repeats timed
passes for ``--seconds`` (at least three).  Every later output must repeat
the checked one byte for byte.  With ``--trace 1`` untraced and traced passes
alternate; traced passes also time the benchmark's probes of each layer.
All load comes from this one process, with BLAS threads capped at nproc.

End-to-end metrics (``--trace 0``):

* ``wall_s``: sum over operations of the median time per pass;
* ``ok_frac``: share of attempted operations that succeeded and passed
  their checks, i.e. 1 - failed_frac;
* ``setup_s``: from the first line of this script through imports, the
  median input generation and the warm-up pass;
* ``peak_rss_mb``: maximum resident memory of this process.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs tiny inputs in seconds.
Inputs and outputs live under ``--out``; the inputs are deleted at exit and
``report.json`` (and ``spans.json`` when tracing) are kept.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("eq_ladder", "shock_sourcing", "reliance_tables")
SETUP_REPS = 3
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts(nproc: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run (at least three run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_run",
                        help="directory for inputs, outputs and reports")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gscsim" / "__init__.py").is_file():
        print(f"error: no gscsim sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, str(SRC))
    import gscsim
    if Path(gscsim.__file__).resolve().parent != (SRC / "gscsim").resolve():
        print(f"error: imported gscsim from {gscsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    import workloads
    import_s = time.perf_counter() - T_START

    run_dir = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work)
        setup_reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup()
            setup_reps.append(time.perf_counter() - t0)
        ops = workload.operations()
        tally = harness.Tally()
        tracer = tracing.Tracer() if args.trace else tracing.NoTracer()
        with tracer.span("warm-up"):
            warmup_s, references = harness.warm_up(ops, tally, tracer)
        setup_s = import_s + statistics.median(setup_reps) + warmup_s

        untraced = [[] for _ in ops]
        traced = [[] for _ in ops]
        layers = []
        start = time.perf_counter()
        passes = 0
        while passes < (MIN_TRACE_PAIRS if args.trace else MIN_PASSES) \
                or time.perf_counter() - start < args.seconds:
            harness.timed_pass(ops, references, tally, tracing.NoTracer(), untraced)
            if args.trace:
                counters = Counter()
                first_span = len(tracer.spans)
                with tracer.span("pass"):
                    harness.timed_pass(ops, references, tally, tracer, traced, counters)
                layers.append(harness.layer_metrics(tracer.spans[first_span:], ops, counters))
            passes += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "wall_s": harness.median_sum(untraced),
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer = {}
    if args.trace:
        per_layer = {m: statistics.median(p[m] for p in layers) for m in layers[0]}
        per_layer["trace.overhead_s"] = harness.median_sum(traced) - harness.median_sum(untraced)
        tracer.write(run_dir / "spans.json")
    metrics = per_layer if args.trace else end_to_end

    baseline = {}
    baseline_path = HERE / "baseline.json"
    if baseline_path.is_file() and not args.smoke:
        baseline = json.loads(baseline_path.read_text())["workloads"].get(args.workload, {})
    facts = machine_facts(nproc)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": facts,
        "passes": passes, "setup": {"import_s": import_s, "inputs_s": setup_reps,
                                     "warmup_s": warmup_s},
        "operations": {op.name: {"untraced_median_s": statistics.median(untraced[k]),
                                 "traced_median_s": statistics.median(traced[k])
                                 if traced[k] else None}
                       for k, op in enumerate(ops)},
        "end_to_end": end_to_end, "per_layer": per_layer, "baseline": baseline,
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"gscsim benchmark: {args.workload}, seed {args.seed}, {passes} pass(es)"
          f"{' traced' if args.trace else ''}{', smoke' if args.smoke else ''}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for message in tally.wrong:
        print(f"WRONG {message}")
    for name, value in {**end_to_end, **per_layer}.items():
        base = baseline.get(name)
        note = f"   baseline {base:.6g}" if base is not None else ""
        print(f"{name:30s} {value:14.6g} {harness.unit_of(name):6s}{note}")
    print(json.dumps({
        "correct": not tally.wrong, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": harness.unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
