"""Property test of the netlist parser on malformed text.

Every text either parses to a netlist that ``serialize`` writes back to an
equal one, or raises a ``TritforgeError`` subclass; strict mode accepts
the same netlist or refuses the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tritforge.errors import TritforgeError
from tritforge.generate import Completeness, GateKind, Style, StyleSpec, gen_gate, gen_tfa, gen_tha
from tritforge.netlist import parse, serialize
from tritforge.trits import Encoding

SEEDS = [
    serialize(gen_gate(GateKind.STI)),
    serialize(gen_tha(Style.NTPT, Encoding.HALF_VDD_HIGH)),
    serialize(gen_tfa(StyleSpec(Style.MUX_PTTG, Completeness.PARTIAL))),
    ".title loads and nets\n.vdd 1.2\n.input a 02\n.input b halfpair\n"
    ".output y enc=halfpair\n.net spare\n"
    "M m0 P LVT G=a S=VDD D=y TAG=divider\nm m1 n ulvt g=b s=y d=GND # pull-down\n"
    "C c0 y 1e-15\nc c1 a 0\n.end\n",
]

TOKENS = [
    ".title", ".vdd", ".input", ".output", ".net", ".end", ".bogus", "m", "M", "c", "C",
    "n", "p", "N", "hvt", "mvt", "lvt", "ulvt", "xvt", "g=a", "s=VDD", "d=y", "G=GND",
    "g=", "s=", "d=d=d", "tag=divider", "tag=", "enc=binary", "enc=halfpair", "enc=",
    "enc=octal", "ternary", "binary", "halfpair", "012", "0", "21", "011", "3", "",
    "nan", "inf", "-inf", "-1", "-0.0", "1e-12", "1e400", "0.9", "0x1p-3", "#", "=",
    "VDD", "GND", "a", "y", "x=y", "\t", "\r", "\u00a0", "\u2028", "\u00e9",
]

VALUES = ["nan", "NaN", "inf", "-inf", "1e400", "-1", "-0.0", "0", "1e-12", "0.9", "1_0",
          "0x1p-3", "volts", ""]


@st.composite
def malformed_texts(draw):
    lines = draw(st.sampled_from(SEEDS)).splitlines()
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(
            ["drop line", "copy line", "swap lines", "drop token", "insert token",
             "replace token", "new value", "new line", "truncate"]
        ))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [" ".join(draw(st.lists(st.sampled_from(TOKENS), max_size=8)))]
        elif op == "drop line":
            del lines[i]
        elif op == "copy line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "new line":
            tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=8))
            lines.insert(draw(st.integers(0, len(lines))), " ".join(tokens))
        elif op == "new value":
            # .vdd and C lines end in their numbers
            numeric = [j for j, line in enumerate(lines) if line.lower().startswith((".vdd", "c "))]
            j = draw(st.sampled_from(numeric or [i]))
            lines[j] = " ".join(lines[j].split(" ")[:-1] + [draw(st.sampled_from(VALUES))])
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            if op == "drop token":
                del tokens[k]
            elif op == "insert token":
                tokens.insert(k, draw(st.sampled_from(TOKENS)))
            else:
                tokens[k] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n# tail\n"]))


def _parse_or_error(text, strict=False):
    try:
        return parse(text, strict=strict)
    except TritforgeError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(malformed_texts())
def test_parse_round_trips_or_raises_a_tritforge_error(text):
    got = _parse_or_error(text)
    if not isinstance(got, type):
        assert parse(serialize(got)) == got
    strict = _parse_or_error(text, strict=True)
    if not isinstance(strict, type):
        assert strict == got
