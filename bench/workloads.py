"""The benchmark's workloads.

``BENCHMARK.json`` lists ``rca_truth`` and ``cli_pipeline``; ``cell_metrics``
runs on request (see README.md).

Each workload is built from the public API of a freshly imported
``tritforge`` (its constructor is the timed set-up), runs one pass with
``run_pass`` and checks that pass's outputs with ``check``.  A pass returns
its outputs and the host seconds of each user-level command in it; only
those command calls are timed.  Calls go through module attributes, so the
tracer's wrappers see them.

Why these (see README.md for the layer predictions):

- ``rca_truth``: one exhaustive 13,122-state sweep of a 4-digit ripple-carry
  adder; nearly all its time is a single batched ``solve_batch``.
- ``cell_metrics``: the ``tritforge metrics`` flow on four testbenches;
  2,812 sequential single-state solves plus the swing lint.
- ``cli_pipeline``: 48 in-process CLI commands per pass over files, with
  parse/serialize, every simplification pass and many 27-state sweeps.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import itertools
import json
import random
import shutil
import tempfile
import traceback
from pathlib import Path
from time import perf_counter


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _modules():
    names = ("generate", "solver", "trits")
    return [importlib.import_module(f"tritforge.{name}") for name in names]


class RcaTruth:
    """Decoded truth of the 4-digit ternary-CMOS RCA, checked against base 3.

    The sweep is exhaustive, so the seed changes nothing.
    """

    DIGITS = 4

    def __init__(self, seed: int, goldens: dict, work_dir: Path):
        gen, self.solver, trits = _modules()
        spec = gen.StyleSpec(gen.Style.TERNARY_CMOS, gen.Completeness.PARTIAL,
                             carry_encoding=trits.Encoding.FULL_VDD_HIGH)
        self.netlist = gen.gen_rca(self.DIGITS, spec)
        self.states_per_pass = 3 ** (2 * self.DIGITS) * 2

    def run_pass(self):
        # a fresh object per pass, as decoded_truth(gen_rca(...)) would see
        n = copy.copy(self.netlist)
        start = perf_counter()
        table = self.solver.decoded_truth(n)
        return table, [perf_counter() - start]

    def check(self, table) -> tuple[int, int]:
        d = self.DIGITS
        failed = 0
        for pt in itertools.product(*[range(3)] * (2 * d), range(2)):
            a = sum(t * 3 ** i for i, t in enumerate(pt[:d]))
            b = sum(t * 3 ** i for i, t in enumerate(pt[d:2 * d]))
            total = a + b + pt[-1]
            want = tuple(total // 3 ** i % 3 for i in range(d)) + (total // 3 ** d,)
            failed += table.get(pt) != want
        return self.states_per_pass, failed

    def corrupt(self, table):
        bad = dict(table)
        key = next(iter(bad))
        bad[key] = ((bad[key][0] + 1) % 3,) + bad[key][1:]
        return bad


class CellMetrics:
    """``tritforge metrics`` on the testbench of each complete full adder.

    The seed relabels the 27 input states of the complete-transition walk,
    so every ordered state pair still appears exactly once.  Seed 0 keeps
    the generated walk; only then are the metrics JSON and trace CSV
    compared byte for byte with the goldens, because relabeling changes
    held charge and so ``activity`` and ``static_div_mean``.
    """

    def __init__(self, seed: int, goldens: dict, work_dir: Path):
        gen, self.solver, _ = _modules()
        self.goldens = goldens.get("cell_metrics", {})
        self.byte_goldens = seed == 0
        self.benches = []
        for style in gen.Style:
            cell = gen.gen_tfa(gen.StyleSpec(style, gen.Completeness.COMPLETE))
            tb = gen.gen_testbench(cell)
            pattern = gen.gen_pattern(list(tb.inputs), gen.PatternKind.COMPLETE_TRANSITIONS)
            states = list(dict.fromkeys(pattern.rows))
            shuffled = list(states)
            if seed:
                random.Random(seed).shuffle(shuffled)
            relabel = dict(zip(states, shuffled))
            self.benches.append((style.value, tb, [relabel[r] for r in pattern.rows]))
        self.states_per_pass = sum(len(rows) for _, _, rows in self.benches)
        self._reference = None

    def run_pass(self):
        # one command: the metrics of all four testbenches.  A single style's
        # flow lasts 1.5-3 s, too short to outlast the host's speed drift.
        benches = [(style, copy.copy(tb), rows) for style, tb, rows in self.benches]
        outputs = []
        start = perf_counter()
        for style, n, rows in benches:  # fresh objects: one compile each
            trace, report = self.solver.simulate_pattern(n, rows)
            report.warnings = [[w.net, w.polarity.value, w.headroom]
                               for w in self.solver.full_swing_lint(n)]
            outputs.append((style, trace, report.to_json() + "\n",
                            self.solver.trace_csv(n, trace)))
        return outputs, [perf_counter() - start]

    def digests(self, outputs) -> dict:
        return {style: {"metrics.json": digest(metrics_json),
                        "trace.csv": digest(csv),
                        "warnings": digest(json.dumps(json.loads(metrics_json)["warnings"]))}
                for style, _, metrics_json, csv in outputs}

    def check(self, outputs) -> tuple[int, int]:
        if self._reference is None:
            # exhaustive truth of each testbench, the per-step oracle
            self._reference = {style: self.solver.truth_table(tb)
                               for style, tb, _ in self.benches}
        attempted = failed = 0
        got = self.digests(outputs)
        for (style, tb, rows), (_, trace, _, _) in zip(self.benches, outputs):
            table = self._reference[style]
            wrong = sum(
                1 for row, step in itertools.zip_longest(rows, trace)
                if row is None or step is None
                or tuple(step[o] for o in tb.output_names) != table[row])
            keys = ("metrics.json", "trace.csv", "warnings") if self.byte_goldens else ("warnings",)
            if any(got[style][k] != self.goldens.get(style, {}).get(k) for k in keys):
                wrong = max(wrong, 1)
            attempted += len(rows)
            failed += min(wrong, len(rows))
        return attempted, failed

    def corrupt(self, outputs):
        style, trace, metrics_json, csv = outputs[0]
        step = dict(trace[1])
        name = self.benches[0][1].output_names[0]
        step[name] = next(lv for lv in type(step[name]) if lv is not step[name])
        return [(style, trace[:1] + [step] + trace[2:], metrics_json, csv)] + outputs[1:]


# (argv template, files the command writes); file names become paths
_PIPELINE = (
    (["gen", "tfa", "--style", "{style}", "--cascade", "{cascade}", "--complete",
      "-o", "cell.tn"], ("cell.tn",)),
    (["truth", "cell.tn", "--expect", "table2-complete", "-o", "cell.truth"],
     ("cell.truth",)),
    (["simplify", "cell.tn", "--assume", "cin=01", "--rebind-carry", "carry",
      "-o", "slim.tn", "--report", "report.json"], ("slim.tn", "report.json")),
    (["truth", "slim.tn", "--expect", "table2-partial", "-o", "slim.truth"],
     ("slim.truth",)),
    (["lint", "cell.tn", "-o", "cell.lint"], ("cell.lint",)),
    (["lint", "slim.tn", "-o", "slim.lint"], ("slim.lint",)),
)
_FILES = ("cell.tn", "slim.tn", "report.json", "cell.truth", "slim.truth",
          "cell.lint", "slim.lint")


class CliPipeline:
    """gen -> truth -> simplify -> truth -> lint x2 through ``cli.run``.

    One job per style and cascade, 48 commands a pass, each writing files in
    a fresh directory.  The seed shuffles the job order.
    """

    def __init__(self, seed: int, goldens: dict, work_dir: Path):
        self.cli = importlib.import_module("tritforge.cli")
        gen = importlib.import_module("tritforge.generate")
        self.goldens = goldens.get("cli_pipeline", {})
        self.jobs = [(s.value, c.value) for s in gen.Style for c in gen.Cascade]
        random.Random(seed).shuffle(self.jobs)
        self.work_dir = work_dir
        # rows printed by the two truth commands: 27 complete + 18 partial
        self.states_per_pass = len(self.jobs) * (27 + 18)

    def run_pass(self):
        pass_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        codes, seconds, files = [], [], {}
        try:
            for style, cascade in self.jobs:
                job = f"{style}/{cascade}"
                job_dir = pass_dir / f"{style}_{cascade}"
                job_dir.mkdir()
                for step, (template, _) in enumerate(_PIPELINE):
                    argv = [str(job_dir / a) if a in _FILES
                            else a.format(style=style, cascade=cascade)
                            for a in template]
                    start = perf_counter()
                    try:
                        code = self.cli.run(argv)
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                    except Exception:  # a traceback breaks the CLI's contract
                        traceback.print_exc()
                        code = None
                    seconds.append(perf_counter() - start)
                    codes.append((job, step, code))
                files[job] = {name: (job_dir / name).read_bytes()
                              for name in _FILES if (job_dir / name).exists()}
        finally:
            shutil.rmtree(pass_dir)
        return (codes, files), seconds

    def digests(self, outputs) -> dict:
        _, files = outputs
        return {job: {name: digest(data) for name, data in sorted(out.items())}
                for job, out in files.items()}

    def check(self, outputs) -> tuple[int, int]:
        codes, _ = outputs
        got = self.digests(outputs)
        failed = 0
        for job, step, code in codes:
            want = self.goldens.get(job, {})
            if code != 0 or any(got.get(job, {}).get(f) != want.get(f)
                                for f in _PIPELINE[step][1]):
                failed += 1
        return len(codes), failed

    def corrupt(self, outputs):
        codes, files = outputs
        job = codes[0][0]
        slim = bytearray(files[job]["slim.tn"])
        slim[-2] ^= 1
        return codes, {**files, job: {**files[job], "slim.tn": bytes(slim)}}


WORKLOADS = {
    "rca_truth": RcaTruth,
    "cell_metrics": CellMetrics,
    "cli_pipeline": CliPipeline,
}
