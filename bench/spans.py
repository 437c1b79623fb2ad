"""Span tracer for the traced benchmark run.

The tracer replaces public functions of tritforge's layers with wrappers
that record one span per call: (name, start, end, parent, root, info).
Wrapping happens on module attributes, in every tritforge module that
holds the function, so internal calls such as ``simplify_pipeline`` ->
``apply_assumption`` and ``passes`` -> ``solver.truth_signature`` are
captured too.  ``CompiledNetlist.solve_batch`` and ``__init__`` are wrapped
on the class.  Nothing under ``src/`` is edited; ``uninstall`` restores
every original, so traced and untraced passes can alternate in one process.

Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions wrapped; the span name is "<layer>.<function>"
TARGETS = {
    "solver": ("compiled", "truth_table", "truth_signature", "decoded_truth",
               "division_counts", "simulate_pattern", "full_swing_lint"),
    "passes": ("simplify_pipeline", "apply_assumption", "prune_dead",
               "factor_parallel", "rebind_carry"),
    "netlist": ("parse", "serialize", "validate"),
    "generate": ("gen_tfa", "gen_tha", "gen_gate", "gen_rca", "gen_testbench",
                 "gen_pattern"),
    "cli": ("run",),
}

# spans whose time counts as "truth" (the exhaustive-sweep views)
TRUTH = {"solver.truth_table", "solver.truth_signature", "solver.decoded_truth",
         "solver.division_counts"}
CLI_SUBCOMMANDS = ("gen", "truth", "simplify", "lint")


def _solve_batch_info(args, result):
    rounds = result[2]
    if not rounds.size:
        return (0, 0, 0, 0)
    top = int(rounds.max())
    return (int(rounds.size), int((rounds + 1).sum()), int(rounds.size) * (top + 1), top)


def _simplify_info(args, result):
    return len(args[0].devices) - len(result[0].devices)


def _cli_info(args, result):
    return args[0][0]


INFO = {
    "solver.solve_batch": _solve_batch_info,
    "passes.simplify_pipeline": _simplify_info,
    "cli.run": _cli_info,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, root, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, root, info(args, result))
            return result

        return traced

    def install(self):
        """Wrap every target that the imported tritforge modules define."""
        mods = [m for key, m in list(sys.modules.items())
                if key == "tritforge" or key.startswith("tritforge.")]
        for layer, names in TARGETS.items():
            mod = sys.modules.get(f"tritforge.{layer}")
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in mods:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapped)
        cls = getattr(sys.modules.get("tritforge.solver"), "CompiledNetlist", None)
        for attr, name in (("solve_batch", "solver.solve_batch"),
                           ("__init__", "solver.CompiledNetlist")):
            fn = getattr(cls, "__dict__", {}).get(attr)
            if fn is not None:
                self._restore.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, groups) -> None:
    """Write (label, spans) groups as JSON lines, one span a line."""
    with open(path, "w") as fh:
        for label, spans in groups:
            for i, (name, start, end, parent, root, info) in enumerate(spans):
                fh.write(json.dumps({
                    "group": label, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "root": root, "info": info,
                }) + "\n")


def gen_seconds(spans) -> float:
    """Host time in outermost generator calls."""
    return sum(end - start for name, start, end, parent, _, _ in spans
               if name.startswith("generate.")
               and not _has_ancestor(spans, parent, lambda n: n.startswith("generate.")))


def _has_ancestor(spans, idx, pred) -> bool:
    while idx >= 0:
        if pred(spans[idx][0]):
            return True
        idx = spans[idx][3]
    return False


def pass_metrics(spans) -> dict:
    """Per-layer figures of one traced pass."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    # solve_batch time, solve_batch calls and compilations nested in each span
    sb_time = [0.0] * len(spans)
    sb_calls = [0] * len(spans)
    builds = [0] * len(spans)
    child_time = [0.0] * len(spans)
    totals = defaultdict(float)
    counts = defaultdict(int)
    states = active = full = top = 0
    for i, (name, _, _, parent, _, info) in enumerate(spans):
        totals[name] += dur[i]
        counts[name] += 1
        if parent >= 0:
            child_time[parent] += dur[i]
        if name == "solver.solve_batch":
            states += info[0]
            active += info[1]
            full += info[2]
            top = max(top, info[3])
        p = parent
        while p >= 0:
            if name == "solver.solve_batch":
                sb_time[p] += dur[i]
                sb_calls[p] += 1
            elif name == "solver.CompiledNetlist":
                builds[p] += 1
            p = spans[p][3]

    def self_time(pred):
        return sum(dur[i] - sb_time[i] for i, s in enumerate(spans)
                   if pred(s[0]) and not _has_ancestor(spans, s[3], pred))

    simplify = [i for i, s in enumerate(spans) if s[0] == "passes.simplify_pipeline"]
    compiles = [i for i, s in enumerate(spans) if s[0] == "solver.compiled"]
    return {
        "solver.solve_batch_s": totals["solver.solve_batch"],
        "solver.solve_batch_calls": counts["solver.solve_batch"],
        "solver.states": states,
        "solver.active_state_ratio": active / full if full else 0.0,
        "solver.max_settle_rounds": top,
        "solver.compile_s": totals["solver.compiled"],
        "solver.compile_calls": len(compiles),
        "solver.compile_hit_ratio": (
            sum(1 for i in compiles if builds[i] == 0) / len(compiles)
            if compiles else 0.0),
        "solver.truth_self_s": self_time(TRUTH.__contains__),
        "solver.simulate_self_s": self_time("solver.simulate_pattern".__eq__),
        "solver.swing_lint_s": totals["solver.full_swing_lint"],
        "solver.swing_lint_self_s": self_time("solver.full_swing_lint".__eq__),
        "passes.simplify_s": totals["passes.simplify_pipeline"],
        "passes.apply_assumption_s": totals["passes.apply_assumption"],
        "passes.prune_dead_s": totals["passes.prune_dead"],
        "passes.factor_parallel_s": totals["passes.factor_parallel"],
        "passes.rebind_carry_s": totals["passes.rebind_carry"],
        "passes.sweeps_per_simplify": (
            sum(sb_calls[i] for i in simplify) / len(simplify) if simplify else 0.0),
        "passes.devices_removed": sum(spans[i][5] for i in simplify),
        "netlist.parse_s": totals["netlist.parse"],
        "netlist.serialize_s": totals["netlist.serialize"],
        "netlist.parse_calls": counts["netlist.parse"],
        "generate.gen_s": gen_seconds(spans),
        "cli.self_s": sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                          if s[0] == "cli.run"),
    }


def cli_medians_ms(span_groups) -> dict:
    """Median cli.run latency per subcommand over all traced passes."""
    by_sub = defaultdict(list)
    for spans in span_groups:
        for name, start, end, _, _, info in spans:
            if name == "cli.run":
                by_sub[info].append((end - start) * 1e3)
    return {f"cli.{sub}_ms": statistics.median(by_sub[sub]) if by_sub[sub] else 0.0
            for sub in CLI_SUBCOMMANDS}
