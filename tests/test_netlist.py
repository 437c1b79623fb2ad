import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from tritforge.catalog import improvement_percent
from tritforge.errors import NetlistSemanticError, NetlistSyntaxError, TritforgeError
from tritforge.netlist import (
    DOMAIN_BINARY,
    DOMAIN_HALFPAIR,
    DOMAIN_TERNARY,
    Device,
    Netlist,
    Polarity,
    ThresholdClass,
    device_count,
    domain_encoding,
    domain_token,
    parse,
    parse_domain,
    serialize,
    validate,
)
from tritforge.passes import REFUSALS
from tritforge.trits import Encoding, Level

STI_TEXT = """\
.title standard inverter
.input a ternary
.output y
m mp p hvt g=a s=VDD d=y
m mn n hvt g=a s=y d=GND
m mpu p mvt g=a s=VDD d=m1
m mdn n mvt g=VDD s=m1 d=y tag=divider
m mdp p mvt g=GND s=y d=m2 tag=divider
m mnd n mvt g=a s=m2 d=GND
.end
"""


def test_parse_basic():
    n = parse(STI_TEXT)
    assert n.title == "standard inverter"
    assert n.vdd == 0.9
    assert n.inputs == (("a", DOMAIN_TERNARY),)
    assert n.outputs == (("y", Encoding.STANDARD),)
    assert len(n.devices) == 6
    divider_ids = {d.id for d in n.devices if "divider" in d.tags}
    assert divider_ids == {"mdn", "mdp"}


def test_roundtrip_is_identity():
    n = parse(STI_TEXT)
    assert parse(serialize(n)) == n
    # serialization is canonical: a second round trip is byte-identical
    assert serialize(parse(serialize(n))) == serialize(n)


def test_threshold_classes_follow_tube_diameter():
    # Vt = 0.43 / (0.0783 * n) for chirality (n, 0)
    assert ThresholdClass.HVT.chirality == (10, 0)
    assert ThresholdClass.MVT.chirality == (14, 0)
    assert ThresholdClass.LVT.chirality == (19, 0)
    assert ThresholdClass.ULVT.chirality == (25, 0)
    assert ThresholdClass.HVT.vt_volts == pytest.approx(0.549, abs=1e-3)
    assert ThresholdClass.MVT.vt_volts == pytest.approx(0.392, abs=1e-3)
    assert ThresholdClass.LVT.vt_volts == pytest.approx(0.289, abs=1e-3)
    assert ThresholdClass.ULVT.vt_volts == pytest.approx(0.220, abs=1e-3)


def test_domain_tokens():
    assert parse_domain("ternary") == DOMAIN_TERNARY
    assert parse_domain("binary") == DOMAIN_BINARY
    assert parse_domain("halfpair") == DOMAIN_HALFPAIR
    assert parse_domain("01") == DOMAIN_HALFPAIR
    assert parse_domain("02") == DOMAIN_BINARY
    assert domain_token(DOMAIN_HALFPAIR) == "halfpair"
    with pytest.raises(ValueError):
        parse_domain("quaternary")
    with pytest.raises(ValueError):
        parse_domain("00")


def test_domain_vocabulary_round_trips():
    g, h, v = Level.GND, Level.HALF, Level.VDD
    carries = {frozenset({g, v}): Encoding.FULL_VDD_HIGH,
               frozenset({g, h}): Encoding.HALF_VDD_HIGH}
    subsets = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations((g, h, v), r)]
    assert len(subsets) == 7
    for d in subsets:
        assert parse_domain(domain_token(d)) == d
        assert domain_encoding(d) is carries.get(d, Encoding.STANDARD)
    for name, enc in [("ternary", Encoding.STANDARD),
                      ("binary", Encoding.FULL_VDD_HIGH),
                      ("halfpair", Encoding.HALF_VDD_HIGH)]:
        n = parse(f".output y enc={name}\n.end\n")
        assert n.output_encoding("y") is enc
        assert parse(serialize(n)) == n
    # every encoding's value is its one name in the format
    for enc in Encoding:
        assert parse_domain(enc.value) == enc.levels
        assert domain_token(enc.levels) == enc.value
        assert parse(f".output y enc={enc.value}\n.end\n").output_encoding("y") is enc


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(NetlistSyntaxError) as err:
        parse(".input a ternary\nm bad p hvt g=a s=VDD\n.end\n")
    assert err.value.line == 2
    with pytest.raises(NetlistSyntaxError) as err:
        parse(".vdd\n")
    assert err.value.line == 1
    with pytest.raises(NetlistSyntaxError):
        parse(".frobnicate x\n")
    with pytest.raises(NetlistSyntaxError):
        parse(".end\nm x p hvt g=a s=VDD d=y\n")


def test_device_tokens_are_case_insensitive():
    n = parse(".output y\nM m0 N LVT G=VDD S=y D=GND\nm m1 P uLvT g=GND s=VDD d=y\n.end\n")
    assert [(d.polarity, d.vt) for d in n.devices] == [
        (Polarity.N, ThresholdClass.LVT), (Polarity.P, ThresholdClass.ULVT)]


@pytest.mark.parametrize("text,message,line", [
    (".output y\nm m0 x lvt g=VDD s=y d=GND\n.end\n", "line 2: bad polarity 'x'", 2),
    (".output y\nm m0 X LVT g=VDD s=y d=GND\n", "line 2: bad polarity 'X'", 2),
    (".output y\n\nm m0 n svt g=VDD s=y d=GND\n.end\n",
     "line 3: bad threshold class 'svt'", 3),
    (".output y\nm m0 N sVt g=VDD s=y d=GND\n", "line 2: bad threshold class 'sVt'", 2),
])
def test_bad_device_tokens_name_the_token_and_line(text, message, line):
    # messages and line numbers as recorded before device tokens were table-driven
    with pytest.raises(NetlistSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.line) == (message, line)


def test_semantic_errors():
    with pytest.raises(NetlistSemanticError):
        parse(".input VDD ternary\n.end\n")
    with pytest.raises(NetlistSemanticError):
        parse(".input a ternary\n.input a binary\n.end\n")
    with pytest.raises(NetlistSemanticError):
        parse("m a p hvt g=x s=VDD d=y\nm a n hvt g=x s=y d=GND\n.end\n")
    with pytest.raises(NetlistSemanticError):
        parse(".vdd -0.9\n.end\n")


def test_line_errors_keep_their_messages_and_classes():
    # the two line-numbered errors share a constructor but no class, so a
    # simplify refusal catches the semantic error and never the syntax error
    for cls in (NetlistSyntaxError, NetlistSemanticError):
        with_line, without = cls("bad", line=4), cls("bad")
        assert (str(with_line), with_line.line) == ("line 4: bad", 4)
        assert (str(without), without.line) == ("bad", None)
        assert isinstance(with_line, TritforgeError)
    assert not issubclass(NetlistSyntaxError, NetlistSemanticError)
    assert not issubclass(NetlistSemanticError, NetlistSyntaxError)
    assert issubclass(NetlistSemanticError, REFUSALS)
    assert not issubclass(NetlistSyntaxError, REFUSALS)


@pytest.mark.parametrize("line", [".vdd nan", ".vdd inf", ".vdd -inf", ".vdd NaN",
                                  "c c0 y nan", "c c0 y inf"])
def test_non_finite_values_are_rejected(line):
    with pytest.raises(NetlistSemanticError):
        parse(f".output y\n{line}\nm m0 n lvt g=VDD s=y d=GND\n.end\n")


def test_strict_mode_requires_declarations():
    text = "m m0 p hvt g=a s=VDD d=y\n.end\n"
    parse(text)  # lenient: nets appear on first use
    with pytest.raises(NetlistSemanticError):
        parse(text, strict=True)
    ok = ".input a ternary\n.output y\n" + text
    assert parse(ok, strict=True).devices


def test_output_encoding_option():
    n = parse(".output c enc=binary\n.end\n")
    assert n.output_encoding("c") is Encoding.FULL_VDD_HIGH
    with pytest.raises(NetlistSyntaxError):
        parse(".output c enc=decimal\n.end\n")


def test_netlist_canonical_ordering():
    d1 = Device("b", Polarity.P, ThresholdClass.HVT, "a", "VDD", "y")
    d2 = Device("a", Polarity.N, ThresholdClass.HVT, "a", "y", "GND")
    assert Netlist(devices=(d1, d2)) == Netlist(devices=(d2, d1))


def test_validate_flags_structural_problems():
    n = parse(
        ".input a ternary\n.output a\n.output q\n.net lonely\n"
        "m m0 p hvt g=a s=VDD d=VDD\n"
        "m m1 n hvt g=VDD s=GND d=VDD\n.end\n"
    )
    codes = {d.code for d in validate(n)}
    assert codes == {
        "input-output-overlap",
        "undriven-output",
        "all-rail-device",
        "degenerate-device",
        "dangling-net",
    }
    assert validate(parse(STI_TEXT)) == []


def test_validate_flags_each_dangling_net_once():
    n = parse(STI_TEXT.replace(".output y\n", ".output y\n.net lonely\n"))
    assert [str(d) for d in validate(n)] == [
        "dangling-net: net 'lonely' is connected to nothing"
    ]
    # an extra net that a device touches is connected, however it was declared
    touched = Netlist(devices=n.devices, extra_nets=frozenset({"y"}))
    assert "dangling-net" not in {d.code for d in validate(touched)}


def test_device_count():
    dc = device_count(parse(STI_TEXT))
    assert dc.total == 6
    assert dc.count(Polarity.P, ThresholdClass.HVT) == 1
    assert dc.count(Polarity.N, ThresholdClass.MVT) == 2
    assert dc.count(Polarity.N, ThresholdClass.ULVT) == 0


def test_device_keeps_its_frozen_dataclass_behaviour():
    # the frozen-dataclass behaviour callers rely on: equality, hashing,
    # replace, asdict, pickling and the constructor's signature
    d = Device("m1", Polarity.N, ThresholdClass.LVT, "a", "y", "GND")
    assert d == Device(id="m1", polarity=Polarity.N, vt=ThresholdClass.LVT,
                       gate="a", source="y", drain="GND", tags=frozenset())
    assert hash(d) == hash(dataclasses.replace(d))
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.gate = "b"
    tagged = dataclasses.replace(d, tags=frozenset({"divider"}))
    assert tagged != d and tagged.tags == {"divider"} and tagged.gate == "a"
    assert dataclasses.asdict(d) == {
        "id": "m1", "polarity": Polarity.N, "vt": ThresholdClass.LVT,
        "gate": "a", "source": "y", "drain": "GND", "tags": frozenset(),
    }
    assert pickle.loads(pickle.dumps(tagged)) == tagged
    with pytest.raises(TypeError, match="drain"):
        Device("m1", Polarity.N, ThresholdClass.LVT, "a", "y")


def test_reduction_percent():
    # device-count reductions go through catalog.improvement_percent
    assert improvement_percent(106, 74) == pytest.approx(30.2, abs=0.05)
    assert improvement_percent(132, 76) == pytest.approx(42.4, abs=0.05)
    assert improvement_percent(100, 100) == 0.0
    with pytest.raises(ZeroDivisionError):
        improvement_percent(0, 0)


# -- property: parse(serialize(n)) == n over generated netlists ----------

names = st.text(alphabet="abcxyz", min_size=1, max_size=3)
net_names = st.sampled_from(["VDD", "GND", "a", "b", "n1", "n2", "n3", "out"])


@st.composite
def netlists(draw):
    k = draw(st.integers(0, 8))
    devices = []
    for i in range(k):
        devices.append(Device(
            f"m{i}",
            draw(st.sampled_from(list(Polarity))),
            draw(st.sampled_from(list(ThresholdClass))),
            draw(net_names),
            draw(net_names),
            draw(net_names),
            frozenset(draw(st.lists(st.sampled_from(["divider", "x"]),
                                    max_size=2))),
        ))
    ins = draw(st.lists(
        st.sampled_from([("a", DOMAIN_TERNARY), ("b", DOMAIN_HALFPAIR)]),
        unique_by=lambda p: p[0], max_size=2))
    outs = [("out", draw(st.sampled_from(list(Encoding))))] if draw(st.booleans()) else []
    loads = [("out", draw(st.floats(0, 1e-12, allow_nan=False)))] if outs and draw(st.booleans()) else []
    return Netlist(
        title=draw(st.sampled_from(["", "t", "two words"])),
        vdd=draw(st.sampled_from([0.9, 1.0, 1.2])),
        inputs=tuple(ins),
        outputs=tuple(outs),
        devices=tuple(devices),
        loads=tuple(loads),
    )


@given(netlists())
def test_serialize_parse_roundtrip(n):
    assert parse(serialize(n)) == n
