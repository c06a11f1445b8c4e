"""Passes, checks and per-layer metrics of one benchmark run."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from collections import Counter

from workloads import LAYER_COUNTS, LAYER_TIMES, CheckFailed, check


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def judge(self, op, outcome, check_output):
        """Count one execution; returns what ``check_output`` returns, or None
        when the operation raised or its output failed a check."""
        self.attempted += 1
        try:
            if isinstance(outcome, Exception):
                raise CheckFailed(f"raised {outcome!r}")
            result = check_output()
        except CheckFailed as err:
            self.failed += 1
            self.wrong.append(f"{op.name}: {err}")
            return None
        if op.failed(outcome):
            self.failed += 1
        return result


def execute(op, tracer, op_id):
    op.prepare()
    t0 = time.perf_counter()
    with tracer.span(op.span, op_id):
        try:
            outcome = op.run()
        except Exception as err:  # reported as a failed operation
            traceback.print_exc(file=sys.stderr)
            outcome = err
    return outcome, time.perf_counter() - t0


def warm_up(ops, tally, tracer):
    """One pass of every operation, then a full check of each output.

    Returns the pass time and each output's signature (None if it failed a
    check), which later passes must repeat.
    """
    t0 = time.perf_counter()
    outcomes = [execute(op, tracer, k)[0] for k, op in enumerate(ops)]
    warmup_s = time.perf_counter() - t0

    references = []
    for k, (op, outcome) in enumerate(zip(ops, outcomes)):
        def full_check(k=k, op=op, outcome=outcome):
            signature = op.signature(outcome)
            try:
                refs = op.probe(tracer, Counter(), k)
            except Exception as err:
                raise CheckFailed(f"library probe raised {err!r}") from err
            op.verify(outcome, refs)
            return signature

        references.append(tally.judge(op, outcome, full_check))
    return warmup_s, references


def timed_pass(ops, references, tally, tracer, times, counters=None):
    """One timed pass; with ``counters`` the probes run too, for a traced pass."""
    for k, op in enumerate(ops):
        outcome, dt = execute(op, tracer, k)

        def same_output(op=op, outcome=outcome, ref=references[k]):
            check(ref is not None, "no verified output to compare with")
            check(op.signature(outcome) == ref, "output differs from the verified pass")

        tally.judge(op, outcome, same_output)
        times[k].append(dt)
        if counters is not None:
            try:
                op.probe(tracer, counters, k)
            except Exception as err:
                tally.wrong.append(f"{op.name}: library probe raised {err!r}")


def layer_metrics(spans, ops, counters):
    """Per-layer numbers of one traced pass from its spans and counters."""
    by_name = Counter()
    cli_s = 0.0
    for s in spans:
        by_name[s["name"]] += s["end"] - s["start"]
    for k, op in enumerate(ops):
        if not op.span.startswith("cli."):
            continue
        for s in spans:
            if s["op"] != k:
                continue
            if s["name"] == op.span:
                cli_s += s["end"] - s["start"]
            elif s["name"] in op.equivalents:
                cli_s -= s["end"] - s["start"]
    out = {metric: by_name[span] for metric, span in LAYER_TIMES.items()}
    out.update({metric: counters[metric] for metric in LAYER_COUNTS})
    scored = counters["sourcing.candidates_scored"]
    out["sourcing.useful_ratio"] = counters["sourcing.distinct_candidates"] / scored if scored else 0.0
    out["cli.overhead_s"] = cli_s
    return out


def unit_of(metric: str) -> str:
    if metric in LAYER_COUNTS:
        return LAYER_COUNTS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "ratio" if metric.endswith("ratio") else "frac"


def median_sum(times) -> float:
    return sum(statistics.median(t) for t in times)
