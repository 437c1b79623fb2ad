"""Command-line front end.

Exit codes: 0 success, 1 domain/data errors (diagnostic on stderr),
2 usage errors (argparse's convention).  All outputs are deterministic
for fixed inputs and flags.

:func:`run` may be called any number of times in one process.  It builds
the argument parser on its first call and reuses it: ``parse_args`` gives
each call a fresh namespace, so no call sees another's flags.  Importing
this module builds no parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import catalog as cat
from .errors import TritforgeError
from .generate import (
    Cascade,
    Completeness,
    GateKind,
    PatternKind,
    Style,
    StyleSpec,
    gen_gate,
    gen_pattern,
    gen_rca,
    gen_testbench,
    gen_tfa,
    gen_tha,
    pattern_from_text,
    pattern_to_text,
)
from .netlist import parse, parse_domain, serialize, validate
from .passes import REFUSALS, AssumptionDomain, PassReport, simplify
from .simulate import simulate_pattern, trace_csv
from .solver import decoded_truth, full_swing_lint
from .trits import CARRY_NAMES, full_add_complete, full_add_partial


def _write(path: str | None, text: str, force: bool) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    p = Path(path)
    if p.exists() and not force:
        raise TritforgeError(f"{path} exists; pass --force to overwrite")
    p.write_text(text)


def _read_netlist(path: str):
    return parse(Path(path).read_text())


def _spec_from_args(args) -> StyleSpec:
    completeness = Completeness.PARTIAL if args.partial else Completeness.COMPLETE
    return StyleSpec(
        style=Style(args.style),
        completeness=completeness,
        carry_encoding=CARRY_NAMES[args.carry],
        cascade=Cascade(args.cascade),
    )


def _add_style_flags(p, carry_default="half"):
    p.add_argument("--style", required=True,
                   choices=[s.value for s in Style])
    p.add_argument("--carry", choices=sorted(CARRY_NAMES), default=carry_default)
    p.add_argument("--cascade", choices=[c.value for c in Cascade],
                   default=Cascade.DIRECT.value)


def _add_out_flags(p):
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing output file")


def _parse_assumption(flag: str) -> AssumptionDomain:
    if "=" not in flag:
        raise TritforgeError("--assume takes <net>=<ternary|binary|halfpair>")
    net, token = flag.split("=", 1)
    try:
        levels = parse_domain(token)
    except ValueError as exc:
        raise TritforgeError(f"--assume: {exc}") from None
    return AssumptionDomain(net=net, levels=levels)


def _pattern_rows(n, pattern):
    """Pattern rows re-mapped onto the declared input order."""
    order = {sig: i for i, sig in enumerate(pattern.signals)}
    missing = [name for name in n.input_names if name not in order]
    if missing:
        raise TritforgeError(f"pattern does not drive inputs {missing}")
    return [tuple(row[order[name]] for name in n.input_names) for row in pattern.rows]


# -- subcommand bodies -----------------------------------------------------


def _cmd_gen(args) -> int:
    if args.what == "gate":
        net = gen_gate(GateKind(args.kind))
    elif args.what == "tfa":
        net = gen_tfa(_spec_from_args(args))
    elif args.what == "tha":
        net = gen_tha(Style(args.style), CARRY_NAMES[args.carry])
    elif args.what == "rca":
        net = gen_rca(args.digits, _spec_from_args(args))
    elif args.what == "testbench":
        net = gen_testbench(_read_netlist(args.cell))
    elif args.what == "pattern":
        cell = _read_netlist(args.cell)
        domains = cell.inputs
        kind = (PatternKind.STATIC_STATES if args.kind == "static"
                else PatternKind.COMPLETE_TRANSITIONS)
        _write(args.output, pattern_to_text(gen_pattern(domains, kind), domains),
               args.force)
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.what)
    _write(args.output, serialize(net), args.force)
    return 0


def _cmd_sim(args) -> int:
    n = _read_netlist(args.netlist)
    pattern = pattern_from_text(Path(args.pattern).read_text(), n.inputs)
    trace, report = simulate_pattern(n, _pattern_rows(n, pattern))
    _write(args.output, trace_csv(n, trace), args.force)
    if args.report:
        _write(args.report, report.to_json() + "\n", args.force)
    return 0


def _truth_lines(n, table, fmt: str) -> str:
    in_names = list(n.input_names)
    out_names = list(n.output_names)
    rows = sorted(table.items())
    if fmt == "json":
        data = [
            {**dict(zip(in_names, pt)), **dict(zip(out_names, val))}
            for pt, val in rows
        ]
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(in_names + out_names)]
        lines += [",".join(str(x) for x in pt + val) for pt, val in rows]
        return "\n".join(lines) + "\n"
    lines = [" ".join(in_names) + " | " + " ".join(out_names)]
    for pt, val in rows:
        lines.append(" ".join(str(x) for x in pt)
                     + " | " + " ".join(str(x) for x in val))
    return "\n".join(lines) + "\n"


def _cmd_truth(args) -> int:
    n = _read_netlist(args.netlist)
    idx = {name: i for i, name in enumerate(n.output_names)}
    if args.expect is not None:
        if "sum" not in idx or "carry" not in idx:
            raise TritforgeError("--expect needs outputs named sum and carry")
        if len(n.inputs) != 3:
            raise TritforgeError("--expect needs a full adder with three inputs")
    table = decoded_truth(n)
    _write(args.output, _truth_lines(n, table, args.format), args.force)
    if args.expect is None:
        return 0
    oracle = (full_add_complete if args.expect == "table2-complete"
              else full_add_partial)
    bad = []
    for pt, val in sorted(table.items()):
        carry, total = oracle(*pt)
        if (val[idx["sum"]], val[idx["carry"]]) != (total, carry):
            bad.append(pt)
    if bad:
        print(f"truth mismatch on {len(bad)} of {len(table)} points: "
              f"{bad[:5]}", file=sys.stderr)
        return 1
    return 0


def _cmd_simplify(args) -> int:
    n = _read_netlist(args.netlist)
    assumption = _parse_assumption(args.assume)
    try:
        out, report = simplify(n, assumption, carry_net=args.rebind_carry)
    except REFUSALS as exc:
        print(f"tritforge: simplify refused ({type(exc).__name__}: {exc}); "
              "output is the input unchanged", file=sys.stderr)
        out, report = n, PassReport()
    _write(args.output, serialize(out), args.force)
    if args.report:
        _write(args.report, report.to_json() + "\n", args.force)
    return 0


def _cmd_lint(args) -> int:
    n = _read_netlist(args.netlist)
    findings = [str(d) for d in validate(n)]
    findings += [
        f"non-full-swing: net {w.net} reaches a rail only through "
        f"{w.polarity.value}-type devices (headroom {w.headroom:.4f} V)"
        for w in full_swing_lint(n)
    ]
    if args.format == "json":
        _write(args.output, json.dumps(findings, indent=2) + "\n", args.force)
    else:
        _write(args.output, "".join(f + "\n" for f in findings), args.force)
    return 0


def _cmd_metrics(args) -> int:
    n = _read_netlist(args.netlist)
    domains = n.inputs
    if args.pattern:
        pattern = pattern_from_text(Path(args.pattern).read_text(), domains)
    else:
        pattern = gen_pattern(domains, PatternKind.COMPLETE_TRANSITIONS)
    _, report = simulate_pattern(n, _pattern_rows(n, pattern))
    report.warnings = [
        [w.net, w.polarity.value, w.headroom] for w in full_swing_lint(n)
    ]
    _write(args.output, report.to_json() + "\n", args.force)
    return 0


def _catalog_records(args):
    if args.data == "survey":
        return cat.load_survey()
    if args.data == "results":
        return cat.load_results()
    return cat.load_catalog(Path(args.data).read_text())


def _cmd_catalog(args) -> int:
    records = _catalog_records(args)
    if args.what == "stats":
        agg = cat.aggregate(records, args.field)
        if args.format == "json":
            text = json.dumps(
                {k: {"count": c, "percent": p} for k, (c, p) in agg.items()},
                indent=2, sort_keys=True) + "\n"
        elif args.format == "csv":
            lines = [f"{args.field},count,percent"]
            lines += [f"{k},{c},{p:.1f}" for k, (c, p) in agg.items()]
            text = "\n".join(lines) + "\n"
        else:
            text = "".join(f"{k}: {c}/{len(records)} ({p:.1f}%)\n"
                           for k, (c, p) in agg.items())
        _write(args.output, text, args.force)
        return 0
    # pdp-check
    checks = cat.pdp_check(records)
    if args.format == "json":
        text = json.dumps(
            [{"key": k, "pdp_fj": round(v, 4), "consistent": ok}
             for k, v, ok in checks], indent=2) + "\n"
    elif args.format == "csv":
        lines = ["key,pdp_fj,consistent"]
        lines += [f"{k},{v:.4f},{str(ok).lower()}" for k, v, ok in checks]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(f"{k}: {v:.4f} fJ {'ok' if ok else 'INCONSISTENT'}\n"
                       for k, v, ok in checks)
    _write(args.output, text, args.force)
    return 0 if all(ok for _, _, ok in checks) else 1


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tritforge",
        description="Ternary transistor-netlist toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate netlists and stimuli")
    gsub = gen.add_subparsers(dest="what", required=True)

    g = gsub.add_parser("gate", help="single logic gate")
    g.add_argument("kind", choices=[k.value for k in GateKind])
    _add_out_flags(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("tfa", help="single-digit full adder")
    _add_style_flags(g)
    mode = g.add_mutually_exclusive_group()
    mode.add_argument("--complete", dest="partial", action="store_false")
    mode.add_argument("--partial", dest="partial", action="store_true")
    g.set_defaults(partial=False)
    _add_out_flags(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("tha", help="half adder")
    _add_style_flags(g)
    _add_out_flags(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("rca", help="ripple-carry adder from partial cells")
    _add_style_flags(g, carry_default="vdd")
    g.add_argument("--digits", type=int, default=4)
    _add_out_flags(g)
    g.set_defaults(partial=True, func=_cmd_gen)

    g = gsub.add_parser("testbench", help="wrap a cell with buffers and loads")
    g.add_argument("cell")
    _add_out_flags(g)
    g.set_defaults(func=_cmd_gen)

    g = gsub.add_parser("pattern", help="stimulus over a cell's input domains")
    g.add_argument("cell")
    g.add_argument("--kind", choices=["static", "transitions"],
                   default="transitions")
    _add_out_flags(g)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sim", help="run a stimulus, write a level trace")
    p.add_argument("netlist")
    p.add_argument("--pattern", required=True)
    p.add_argument("--report", default=None)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("truth", help="exhaustive decoded truth table")
    p.add_argument("netlist")
    p.add_argument("--expect", choices=["table2-complete", "table2-partial"],
                   default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_truth)

    p = sub.add_parser("simplify", help="apply assumption-driven passes")
    p.add_argument("netlist")
    p.add_argument("--assume", required=True,
                   metavar="NET=ternary|binary|halfpair")
    p.add_argument("--rebind-carry", default=None, metavar="NET")
    p.add_argument("--report", default=None)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("lint", help="structural and full-swing checks")
    p.add_argument("netlist")
    p.add_argument("--format", choices=["json", "text"], default="text")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("metrics", help="delay/static/activity proxies")
    p.add_argument("netlist")
    p.add_argument("--pattern", default=None)
    _add_out_flags(p)
    p.set_defaults(func=_cmd_metrics)

    c = sub.add_parser("catalog", help="survey data queries")
    csub = c.add_subparsers(dest="what", required=True)
    p = csub.add_parser("stats", help="categorical counts")
    p.add_argument("--data", default="survey",
                   help="survey, results, or a CSV path")
    p.add_argument("--field", default="completeness")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_catalog)
    p = csub.add_parser("pdp-check", help="recompute delay x power")
    p.add_argument("--data", default="results",
                   help="survey, results, or a CSV path")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    _add_out_flags(p)
    p.set_defaults(func=_cmd_catalog)

    return top


# built on the first run() and kept for the process
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TritforgeError, OSError) as exc:
        print(f"tritforge: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry point
    raise SystemExit(run())


if __name__ == "__main__":
    main()
