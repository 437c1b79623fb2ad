#!/usr/bin/env python3
"""Re-measure the seed baselines that ROADMAP item 1 lists.

Run from the repository root: ``python3 bench/baselines.py``.  Prints the
host seconds of the 4- and 3-digit RCA truth sweeps, ``simulate_pattern``
and ``full_swing_lint`` on each style's testbench, and ``simplify_pipeline``
with carry rebind on each complete cell.  Takes about a minute.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tritforge import (  # noqa: E402
    AssumptionDomain, Cascade, Completeness, Level, PatternKind, Style,
    StyleSpec, decoded_truth, full_swing_lint, gen_pattern, gen_rca,
    gen_testbench, gen_tfa, simplify_pipeline, simulate_pattern,
)
from tritforge.trits import Encoding  # noqa: E402


def seconds(fn, *args, repeat=1):
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def span(values):
    return f"{min(values):.3f}-{max(values):.3f} s"


def main():
    rca = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                    carry_encoding=Encoding.FULL_VDD_HIGH)
    print(f"rca4 truth          {seconds(decoded_truth, gen_rca(4, rca)):.3f} s")
    print(f"rca3 truth          {seconds(decoded_truth, gen_rca(3, rca), repeat=3):.3f} s")
    sim, lint = [], []
    for style in Style:
        tb = gen_testbench(gen_tfa(StyleSpec(style, Completeness.COMPLETE)))
        rows = list(gen_pattern(list(tb.inputs), PatternKind.COMPLETE_TRANSITIONS).rows)
        sim.append(seconds(simulate_pattern, tb, rows))
        lint.append(seconds(full_swing_lint, tb, repeat=3))
        print(f"  {style.value:12s} simulate {sim[-1]:.3f} s  lint {lint[-1]:.3f} s")
    print(f"simulate_pattern    {span(sim)} per style")
    print(f"full_swing_lint     {span(lint)} per style")
    assume = AssumptionDomain("cin", frozenset({Level.GND, Level.HALF}))
    simp = [seconds(simplify_pipeline, gen_tfa(StyleSpec(style, Completeness.COMPLETE,
                                                         cascade=cascade)),
                    assume, True, "carry", repeat=5)
            for style in Style for cascade in Cascade]
    print(f"simplify_pipeline   {span(simp)} over {len(simp)} complete cells")


if __name__ == "__main__":
    main()
