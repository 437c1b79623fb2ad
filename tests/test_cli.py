import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tritforge.catalog as cat
import tritforge.cli as cli
from tritforge.cli import run


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run(["gen", "tfa", "--style", "quantum", "-o", "-"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["nonsense"])
    assert err.value.code == 2


def test_gen_tfa_writes_file_and_respects_force(tmp_path, capsys):
    out = tmp_path / "cell.tn"
    assert run(["gen", "tfa", "--style", "ternary-cmos", "-o", str(out)]) == 0
    first = out.read_text()
    assert first.startswith(".title")
    # refuses to clobber without --force
    assert run(["gen", "tfa", "--style", "ternary-cmos", "-o", str(out)]) == 1
    assert "exists" in capsys.readouterr().err
    assert run(["gen", "tfa", "--style", "ternary-cmos", "-o", str(out),
                "--force"]) == 0
    assert out.read_text() == first


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.tn", tmp_path / "b.tn"
    args = ["gen", "tfa", "--style", "mux", "--partial", "--carry", "vdd"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_truth_expectation_gate(tmp_path, capsys):
    cell = tmp_path / "cell.tn"
    run(["gen", "tfa", "--style", "ntpt", "--complete", "-o", str(cell)])
    assert run(["truth", str(cell), "--expect", "table2-complete"]) == 0
    assert capsys.readouterr().err == ""
    # a complete cell sweeps cin over all three trits, so checking it
    # against the partial table is a domain error
    assert run(["truth", str(cell), "--expect", "table2-partial"]) == 1
    assert "carry-in" in capsys.readouterr().err


def test_simplify_emits_report_json(tmp_path, capsys):
    cell = tmp_path / "cell.tn"
    slim = tmp_path / "slim.tn"
    rpt = tmp_path / "report.json"
    run(["gen", "tfa", "--style", "ntpt", "--complete", "-o", str(cell)])
    code = run(["simplify", str(cell), "--assume", "cin=01",
                "--rebind-carry", "carry", "-o", str(slim),
                "--report", str(rpt)])
    assert code == 0
    report = json.loads(rpt.read_text())
    assert report["wired"] > 0 and report["pruned"] > 0
    assert slim.read_text().count("\nm ") < cell.read_text().count("\nm ")
    # the simplified netlist still passes its own truth gate
    assert run(["truth", str(slim), "--expect", "table2-partial"]) == 0


def test_sim_pipeline(tmp_path, capsys):
    cell = tmp_path / "g.tn"
    pat = tmp_path / "g.pat"
    trace = tmp_path / "trace.csv"
    run(["gen", "gate", "sti", "-o", str(cell)])
    assert run(["gen", "pattern", str(cell), "--kind", "transitions",
                "-o", str(pat)]) == 0
    assert run(["sim", str(cell), "--pattern", str(pat),
                "-o", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert lines[0].split(",")[0] == "step"
    assert len(lines) == 8  # 3 states -> 6 transitions -> 7 rows + header


def test_metrics_and_lint(tmp_path, capsys):
    cell = tmp_path / "cell.tn"
    run(["gen", "tha", "--style", "ntpt", "-o", str(cell)])
    assert run(["metrics", str(cell)]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["device_total"] > 0
    assert run(["lint", str(cell)]) == 0


def test_catalog_commands(capsys):
    assert run(["catalog", "stats", "--field", "completeness"]) == 0
    out = capsys.readouterr().out
    assert "Complete" in out and "54.5" in out
    assert run(["catalog", "pdp-check", "--data", "survey"]) == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_catalog_stats_formats_hold_the_aggregate(capsys, fmt):
    want = cat.aggregate(cat.load_survey(), "completeness")
    assert run(["catalog", "stats", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        got = {k: (v["count"], v["percent"]) for k, v in json.loads(out).items()}
    else:
        header, *rows = out.splitlines()
        assert header == "completeness,count,percent"
        got = {k: (int(c), float(p)) for k, c, p in (row.split(",") for row in rows)}
        want = {k: (c, round(p, 1)) for k, (c, p) in want.items()}
    assert got == want


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_catalog_pdp_check_formats_hold_the_check(capsys, fmt):
    want = [(k, round(v, 4), ok) for k, v, ok in cat.pdp_check(cat.load_results())]
    assert not all(ok for *_, ok in want)  # the shipped 35-original row (test_06)
    assert run(["catalog", "pdp-check", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "json":
        got = [(r["key"], r["pdp_fj"], r["consistent"]) for r in json.loads(out)]
    else:
        header, *rows = out.splitlines()
        assert header == "key,pdp_fj,consistent"
        got = [(k, float(v), {"true": True, "false": False}[ok])
               for k, v, ok in (row.split(",") for row in rows)]
    assert got == want


def test_catalog_reads_a_csv_path(tmp_path, capsys):
    data = tmp_path / "mine.csv"
    data.write_text(
        "key,year,style,technology,lg_nm,completeness,carry_encoding,cascade,"
        "delay_ps,power_uw,pdp_fj,transistors\n"
        "x1,2020,Ternary CMOS,CNFET,32,Complete,,Direct,100,2,0.2,100\n"
        "x2,2021,Ternary CMOS,CNFET,32,Partial,half,Direct,100,2,0.3,90\n"
    )
    assert run(["catalog", "stats", "--data", str(data), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "Complete": {"count": 1, "percent": 50.0},
        "Partial": {"count": 1, "percent": 50.0},
    }
    assert run(["catalog", "pdp-check", "--data", str(data), "--format", "csv"]) == 1
    # the recomputed delay x power, against x2's recorded 0.3 fJ
    assert capsys.readouterr().out == (
        "key,pdp_fj,consistent\nx1,0.2000,true\nx2,0.2000,false\n"
    )


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["truth", str(tmp_path / "absent.tn")]) == 1
    assert capsys.readouterr().err


def _fails_cleanly(argv, capsys):
    """The command exits 1 with one ``tritforge:`` diagnostic, no traceback."""
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("tritforge:") == 1 and "Traceback" not in err
    return err


def test_bad_assumption_levels_exit_1(tmp_path, capsys):
    cell = tmp_path / "cell.tn"
    run(["gen", "tfa", "--style", "ternary-cmos", "-o", str(cell)])
    err = _fails_cleanly(["simplify", str(cell), "--assume", "cin=07"], capsys)
    assert "'07'" in err


def test_assumption_without_equals_exits_1(tmp_path, capsys):
    cell, out = tmp_path / "cell.tn", tmp_path / "out.tn"
    run(["gen", "tha", "--style", "ntpt", "-o", str(cell)])
    err = _fails_cleanly(["simplify", str(cell), "--assume", "cin", "-o", str(out)], capsys)
    assert "--assume takes <net>=" in err
    assert not out.exists()


def test_lint_prints_each_dangling_net_once(tmp_path, capsys):
    cell = tmp_path / "sti.tn"
    assert run(["gen", "gate", "sti", "-o", str(cell)]) == 0
    cell.write_text(cell.read_text().replace(".output y\n", ".output y\n.net lonely\n"))
    capsys.readouterr()
    assert run(["lint", str(cell)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [x for x in lines if "lonely" in x] == [
        "dangling-net: net 'lonely' is connected to nothing"
    ]


@pytest.mark.parametrize("table", ["table2-complete", "table2-partial"])
def test_truth_expectation_needs_three_inputs(tmp_path, capsys, table):
    cell = tmp_path / "tha.tn"
    run(["gen", "tha", "--style", "ntpt", "-o", str(cell)])
    err = _fails_cleanly(["truth", str(cell), "--expect", table], capsys)
    assert "three inputs" in err


def test_truth_expectation_refusal_writes_no_table(tmp_path, capsys):
    cell, out = tmp_path / "tha.tn", tmp_path / "out.txt"
    run(["gen", "tha", "--style", "ntpt", "-o", str(cell)])
    _fails_cleanly(["truth", str(cell), "--expect", "table2-complete",
                    "-o", str(out)], capsys)
    assert not out.exists()
    assert run(["truth", str(cell), "--expect", "table2-complete"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["sim", "metrics"])
def test_pattern_missing_an_input_exits_1(tmp_path, capsys, command):
    cell = tmp_path / "cell.tn"
    pat = tmp_path / "ab.pat"
    run(["gen", "tfa", "--style", "ternary-cmos", "-o", str(cell)])
    pat.write_text(".signals a b\n0 0\n1 2\n")
    err = _fails_cleanly([command, str(cell), "--pattern", str(pat)], capsys)
    assert "cin" in err


@pytest.mark.parametrize("vdd", ["nan", "inf"])
@pytest.mark.parametrize("command", ["truth", "lint"])
def test_non_finite_supply_exits_1(tmp_path, capsys, vdd, command):
    cell = tmp_path / "sti.tn"
    assert run(["gen", "gate", "sti", "-o", str(cell)]) == 0
    cell.write_text(f".vdd {vdd}\n" + cell.read_text().replace(".vdd 0.9\n", ""))
    err = _fails_cleanly([command, str(cell)], capsys)
    assert "vdd must be positive and finite" in err


@pytest.mark.parametrize("style", ["ternary-cmos", "ntpt", "mux", "decenc"])
def test_gen_rca_adds_in_base_3(tmp_path, capsys, style):
    cell = tmp_path / "rca.tn"
    assert run(["gen", "rca", "--style", style, "--digits", "2",
                "-o", str(cell)]) == 0
    capsys.readouterr()
    assert run(["truth", str(cell)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "a0 a1 b0 b1 cin | s0 s1 cout"
    assert len(rows) == 162
    for row in rows:
        ins, outs = row.split(" | ")
        a0, a1, b0, b1, cin = map(int, ins.split())
        s0, s1, cout = map(int, outs.split())
        assert s0 + 3 * s1 + 9 * cout == a0 + 3 * a1 + b0 + 3 * b1 + cin, row


def test_gen_rca_takes_its_carry_flag(tmp_path, capsys):
    argv = ["gen", "rca", "--style", "ternary-cmos", "--digits", "1"]
    default, vdd, half = (tmp_path / f"{name}.tn" for name in ("default", "vdd", "half"))
    assert run(argv + ["-o", str(default)]) == 0
    assert run(argv + ["--carry", "vdd", "-o", str(vdd)]) == 0
    assert default.read_bytes() == vdd.read_bytes()
    assert "cout enc=binary" in default.read_text()
    # ripple composition needs full-supply carries
    err = _fails_cleanly(argv + ["--carry", "half", "-o", str(half)], capsys)
    assert "FullVddHigh" in err
    assert not half.exists()


def test_truth_json_and_csv_match_the_text_table(tmp_path, capsys):
    cell = tmp_path / "tha.tn"
    run(["gen", "tha", "--style", "mux", "-o", str(cell)])
    capsys.readouterr()
    tables = {}
    for fmt in ("text", "json", "csv"):
        assert run(["truth", str(cell), "--format", fmt]) == 0
        tables[fmt] = capsys.readouterr().out
    header, *rows = tables["text"].splitlines()
    names = header.replace(" |", "").split()
    want = [[int(x) for x in row.replace(" |", "").split()] for row in rows]
    assert [[rec[k] for k in names] for rec in json.loads(tables["json"])] == want
    csv_header, *csv_rows = tables["csv"].splitlines()
    assert csv_header.split(",") == names
    assert [[int(x) for x in row.split(",")] for row in csv_rows] == want


# a standard ternary inverter from a to y, y substituted per output
STI_OF_A = (
    "m {y}0 p hvt g=a s=VDD d={y}\n"
    "m {y}1 n hvt g=a s={y} d=GND\n"
    "m {y}2 p mvt g=a s=VDD d={y}.m1\n"
    "m {y}3 n mvt g=VDD s={y}.m1 d={y}\n"
    "m {y}4 p mvt g=GND s={y} d={y}.m2\n"
    "m {y}5 n mvt g=a s={y}.m2 d=GND\n"
)


def test_truth_expectation_mismatch_exits_1(tmp_path, capsys):
    # sum = carry = 2 - a agrees with a full adder only at (1, 1, 2) and (1, 2, 1)
    cell = tmp_path / "bad.tn"
    cell.write_text(".input a ternary\n.input b ternary\n.input cin ternary\n"
                    ".output sum\n.output carry\n" + STI_OF_A.format(y="sum")
                    + STI_OF_A.format(y="carry") + ".end\n")
    assert run(["truth", str(cell), "--expect", "table2-complete"]) == 1
    assert "truth mismatch on 25 of 27 points" in capsys.readouterr().err


def _outcome(argv, capsys, out_dir):
    """Exit code, stdout, stderr and the files in ``out_dir`` after one command."""
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_reused_parser_gives_what_a_fresh_one_gives(tmp_path, capsys):
    cell = tmp_path / "cell.tn"
    assert run(["gen", "tfa", "--style", "ntpt", "--complete", "-o", str(cell)]) == 0
    sequence = [
        ["gen", "tfa", "--style", "quantum"],
        ["truth", str(cell)],
        ["truth", str(cell), "--format", "json"],
        ["truth", str(cell)],
        ["gen", "tfa", "--style", "mux", "--partial"],
        ["gen", "tfa", "--style", "mux", "--complete"],
        ["simplify", str(cell), "--assume", "cin=01", "--rebind-carry", "carry",
         "--report", "{dir}/r.json"],
        ["simplify", str(cell), "--assume", "cin=01", "--rebind-carry", "carry"],
    ]
    outcomes = {}
    for fresh in (True, False):
        out_dir = tmp_path / ("fresh" if fresh else "reused")
        out_dir.mkdir()
        cli._parser.cache_clear()
        outcomes[fresh] = []
        for argv in sequence:
            if fresh:  # each command runs first, on a parser of its own
                cli._parser.cache_clear()
            argv = [a.format(dir=out_dir) for a in argv]
            outcomes[fresh].append(_outcome(argv, capsys, out_dir))
        assert cli._parser.cache_info().misses == 1
    assert outcomes[False] == outcomes[True]
    assert [o[0] for o in outcomes[True]] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert outcomes[True][1][1] == outcomes[True][3][1] != outcomes[True][2][1]
    assert outcomes[True][4][1] != outcomes[True][5][1]
    assert list(outcomes[True][6][3]) == list(outcomes[True][7][3]) == ["r.json"]


def test_importing_the_cli_builds_no_parser():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import argparse\n"
        "built = []\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(a)\n"
        "import tritforge.cli\n"
        "assert not built, built\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=600,
                   env=dict(os.environ, PYTHONPATH=str(src)))
