"""Property test of the CLI contract on well-formed netlists.

Every command exits 0, 1 or 2, never prints a traceback, and every netlist
that ``simplify`` writes parses back to the netlist the pipeline returned.
"""

import contextlib
import io
import tempfile
import traceback
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tritforge.cli import _parse_assumption, run
from tritforge.generate import Completeness, GateKind, Style, StyleSpec, gen_gate, gen_tfa, gen_tha
from tritforge.netlist import (
    DOMAIN_BINARY,
    DOMAIN_HALFPAIR,
    DOMAIN_TERNARY,
    Device,
    Netlist,
    Polarity,
    ThresholdClass,
    parse,
    serialize,
)
from tritforge.passes import simplify_pipeline
from tritforge.trits import Encoding

GENERATED = [
    gen_gate(GateKind.STI),
    gen_gate(GateKind.NTI),
    gen_tha(Style.TERNARY_CMOS),
    gen_tha(Style.NTPT),
    gen_tfa(StyleSpec(Style.MUX_PTTG, Completeness.PARTIAL)),
]

INTERNAL = ["n0", "n1", "n2", "n3"]


@st.composite
def random_netlists(draw):
    inputs = [(name, draw(st.sampled_from([DOMAIN_TERNARY, DOMAIN_BINARY, DOMAIN_HALFPAIR])))
              for name in ["a", "b"][: draw(st.integers(1, 2))]]
    names = [name for name, _ in inputs]
    channel = INTERNAL + ["VDD", "GND"] + names
    devices = []
    for i in range(draw(st.integers(1, 10))):
        source, drain = draw(st.lists(st.sampled_from(channel), min_size=2, max_size=2,
                                      unique=True))
        devices.append(Device(
            f"m{i}", draw(st.sampled_from(list(Polarity))),
            draw(st.sampled_from(list(ThresholdClass))),
            draw(st.sampled_from(channel)), source, drain,
            frozenset({"divider"}) if draw(st.booleans()) else frozenset(),
        ))
    outs = draw(st.lists(st.sampled_from(INTERNAL), min_size=1, max_size=2, unique=True))
    outputs = tuple((name, draw(st.sampled_from(list(Encoding)))) for name in outs)
    return Netlist(inputs=tuple(inputs), outputs=outputs, devices=tuple(devices))


def _run(argv):
    """Exit code and everything the command printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # noqa: BLE001 - an escaped error is the failure
            code = None
            err.write(traceback.format_exc())
    text = out.getvalue() + err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in text, (argv, code, text)
    return code


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    netlist=st.one_of(st.sampled_from(GENERATED), random_netlists()),
    levels=st.sampled_from(["0", "1", "2", "01", "02", "12", "012", "binary", "halfpair"]),
    data=st.data(),
)
def test_cli_contract(netlist, levels, data):
    assumed = data.draw(st.sampled_from(netlist.input_names))
    carry = data.draw(st.sampled_from([None, *netlist.output_names]))
    _check_contract(netlist, levels, assumed, carry)


# x = 2 wires the outputs together, so a simplify that merged the nets would
# write `.output y1` twice
TWO_OUTPUTS = parse("""\
.input a ternary
.input x binary
.output y1
.output y2
m m0 p mvt g=a s=VDD d=y1
m m1 n mvt g=a s=y1 d=GND
m m2 p mvt g=a s=VDD d=y2
m m3 n mvt g=a s=y2 d=GND
m m4 n lvt g=x s=y1 d=y2
.end
""")


def test_cli_contract_on_two_outputs_a_wire_would_join():
    for carry in (None, "y1"):
        _check_contract(TWO_OUTPUTS, "2", "x", carry)


def _check_contract(netlist, levels, assumed, carry):
    with tempfile.TemporaryDirectory() as tmp:
        path = {key: str(Path(tmp) / key) for key in ("cell", "pat", "tb", "slim", "csv", "rpt")}
        Path(path["cell"]).write_text(serialize(netlist))
        cell = path["cell"]
        _run(["truth", cell, "-o", "-"])
        _run(["truth", cell, "--expect", "table2-complete"])
        _run(["truth", cell, "--expect", "table2-partial"])
        _run(["lint", cell, "--format", "json"])
        _run(["gen", "testbench", cell, "-o", path["tb"]])
        if _run(["gen", "pattern", cell, "--kind", "static", "-o", path["pat"]]) == 0:
            _run(["sim", cell, "--pattern", path["pat"], "-o", path["csv"],
                  "--report", path["rpt"]])
            _run(["metrics", cell, "--pattern", path["pat"]])
        flags = ["--assume", f"{assumed}={levels}", "-o", path["slim"]]
        if carry is not None:
            flags += ["--rebind-carry", carry]
        if _run(["simplify", cell, *flags]) == 0:
            written = parse(Path(path["slim"]).read_text())
            out, _ = simplify_pipeline(
                parse(Path(cell).read_text()), _parse_assumption(f"{assumed}={levels}"),
                carry_net=carry,
            )
            assert written == out
