#!/usr/bin/env python3
"""Benchmark of tritforge: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload rca_truth --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead.  Every pass's outputs
are checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--record-goldens``
rewrites ``bench/goldens.json`` from the current code.

The package is imported from ``src/`` next to this directory, never from
an installed copy.  Each workload runs single-threaded in its own process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDENS = BENCH / "goldens.json"
SETUPS = 21  # set-ups per run; setup_s is their median


def fresh_import():
    """Import tritforge from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "tritforge" or m.startswith("tritforge.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tritforge")
    if Path(pkg.__file__).resolve().parent != (SRC / "tritforge").resolve():
        raise SystemExit(f"tritforge was imported from {pkg.__file__}, not {SRC}")


def set_up(cls, seed, goldens):
    """Import the package and build the workload's inputs; returns seconds too."""
    start = perf_counter()
    fresh_import()
    workload = cls(seed, goldens, WORK)
    return workload, perf_counter() - start


@dataclass
class Run:
    passes: list = field(default_factory=list)  # (seconds, command seconds, spans)
    attempted: int = 0
    failed: int = 0
    outputs: object = None  # the last pass's outputs
    rss_mib: float = 0.0  # peak RSS after set-up and the first pass


def measure(workload, seconds, tracer=None) -> Run:
    """Run and check passes until the next one could overrun ``seconds``.

    With a tracer, passes alternate untraced and traced, at least one each.
    """
    run = Run()
    began = perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(run.passes) % 2 == 1
        gc.collect()
        start = perf_counter()
        if traced:
            tracer.install()
        try:
            run.outputs, cmd_seconds = workload.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        run.passes.append((sum(cmd_seconds), cmd_seconds,
                           tracer.take() if traced else None))
        if len(run.passes) == 1:
            run.rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed = workload.check(run.outputs)
        run.attempted += attempted
        run.failed += failed
        longest = max(longest, perf_counter() - start)
        if (len(run.passes) >= (2 if tracer else 1)
                and perf_counter() - began + longest > seconds):
            return run


def pass_quantile_ms(run, q):
    """Median over passes of each pass's q-quantile of command latency.

    A median over passes keeps one slow stretch of the host from setting
    the figure.  Within a pass, cli_pipeline's commands split into a fast
    and a slow half, so a median pooled over the run would be one extreme
    command.
    """
    def quantile(values):
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]

    return statistics.median(quantile(p[1]) for p in run.passes) * 1e3


def end_to_end(workload, setups, run):
    run_s = statistics.median(p[0] for p in run.passes)
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "states_per_s": workload.states_per_pass / run_s,
        "cmd_p50_ms": pass_quantile_ms(run, 0.5),
        "cmd_p90_ms": pass_quantile_ms(run, 0.9),
        "peak_rss_mib": run.rss_mib,
    }


def per_layer(spans_mod, setup_spans, passes):
    traced = [p for p in passes if p[2] is not None]
    each = [spans_mod.pass_metrics(p[2]) for p in traced]
    # median_low keeps counts whole when the number of traced passes is even
    metrics = {key: statistics.median_low(m[key] for m in each) for key in each[0]}
    metrics.update(spans_mod.cli_medians_ms([p[2] for p in traced]))
    metrics["generate.gen_s"] += spans_mod.gen_seconds(setup_spans)
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in traced)
        - statistics.median(p[0] for p in passes if p[2] is None))
    metrics["src.lines"] = sum(
        len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))
    return metrics


def record_goldens(workloads):
    goldens = {}
    for name in ("cell_metrics", "cli_pipeline"):
        workload, _ = set_up(workloads[name], 0, {})
        outputs, _ = workload.run_pass()
        goldens[name] = workload.digests(outputs)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "tritforge" / "__init__.py").is_file():
        print(f"no tritforge sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  a dependency: imported before set-up is timed

    import spans as spans_mod
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    if args.record_goldens:
        record_goldens(WORKLOADS)
        return 0
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    goldens = json.loads(GOLDENS.read_text())
    cls = WORKLOADS[args.workload]

    tracer = spans_mod.Tracer() if args.trace else None
    setups = []
    for _ in range(1 if tracer else SETUPS):
        workload, seconds = set_up(cls, args.seed, goldens)
        setups.append(seconds)
    setup_spans = []
    if tracer is not None:
        # build the inputs once more, traced, now that every module is imported
        tracer.install()
        try:
            workload = cls(args.seed, goldens, WORK)
        finally:
            tracer.uninstall()
        setup_spans = tracer.take()

    run = measure(workload, args.seconds, tracer)
    _, caught = workload.check(workload.corrupt(run.outputs))
    if not caught:
        print("the output check accepted a corrupted output", file=sys.stderr)
        return 3

    if tracer is None:
        values = end_to_end(workload, setups, run)
        listed = spec["end_to_end"]
        commands = sum(len(p[1]) for p in run.passes)
        note = f"{len(run.passes)} passes, {commands} commands, {SETUPS} set-ups"
    else:
        values = per_layer(spans_mod, setup_spans, run.passes)
        listed = spec["per_layer"]
        note = f"{len(run.passes) // 2} traced of {len(run.passes)} passes"
        spans_mod.write_spans(
            WORK / f"spans_{args.workload}.jsonl",
            [("setup", setup_spans)]
            + [(f"pass{i}", p[2]) for i, p in enumerate(run.passes) if p[2] is not None])

    print(f"{args.workload} seed {args.seed}: {note}")
    print(f"  failed_ops {run.failed / run.attempted:.6f} "
          f"({run.failed} of {run.attempted} operations)")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:28s} {values[m['name']]:14.6f} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
