import itertools

import pytest

from tritforge.netlist import DOMAIN_BINARY, DOMAIN_TERNARY, ThresholdClass, validate
from tritforge.solver import decoded_truth, division_counts
from tritforge.synth import (
    Builder,
    build_binary_gate,
    build_sop_binary,
    build_ternary_gate,
    merge_cubes,
)
from tritforge.trits import Encoding, Level

G, H, V = Level.GND, Level.HALF, Level.VDD


def _gate(domains, func, binary=False):
    b = Builder()
    names = []
    for i, dom in enumerate(domains):
        names.append(b.declare_input(f"x{i}", dom))
    b.declare_output("y", Encoding.FULL_VDD_HIGH if binary else Encoding.STANDARD)
    build = build_binary_gate if binary else build_ternary_gate
    build(b, names, list(domains), func, "y")
    return b.build()


def test_merge_cubes_collapses_full_axis():
    # ON everywhere on a ternary axis -> single don't-care cube
    pts = [(lv,) for lv in (G, H, V)]
    cubes = merge_cubes(pts, [DOMAIN_TERNARY])
    assert cubes == [(frozenset({G, H, V}),)]


def test_merge_cubes_covers_exactly():
    pts = [(G, G), (G, V), (V, G)]
    cubes = merge_cubes(pts, [DOMAIN_BINARY, DOMAIN_BINARY])
    covered = set()
    for cube in cubes:
        covered.update(itertools.product(*cube))
    assert covered == set(pts)


def test_ternary_gate_sti_function():
    n = _gate([DOMAIN_TERNARY], lambda pt: {G: 2, H: 1, V: 0}[pt[0]])
    assert decoded_truth(n) == {(0,): (2,), (1,): (1,), (2,): (0,)}
    assert validate(n) == []


def test_ternary_gate_two_input_min():
    order = {G: 0, H: 1, V: 2}
    n = _gate([DOMAIN_TERNARY] * 2, lambda pt: min(order[pt[0]], order[pt[1]]))
    truth = decoded_truth(n)
    for a in range(3):
        for b in range(3):
            assert truth[(a, b)] == (min(a, b),)


def test_ternary_gate_constant_one_divides_rails():
    n = _gate([DOMAIN_TERNARY], lambda pt: 1)
    assert decoded_truth(n) == {(0,): (1,), (1,): (1,), (2,): (1,)}


@pytest.mark.parametrize("value, devices", [
    (0, [("n", "VDD", "y", "GND", False)]),
    (1, [("n", "VDD", "VDD", "y", True), ("p", "GND", "y", "GND", True)]),
    (2, [("p", "GND", "VDD", "y", False)]),
])
def test_ternary_gate_of_a_constant_is_always_on(value, devices):
    # a network that conducts at every point is one always-on MVT device;
    # f = 1 leaves the bare divider, which divides in every state
    n = _gate([DOMAIN_TERNARY], lambda pt: value)
    assert {d.vt for d in n.devices} == {ThresholdClass.MVT}
    assert [(d.polarity.value, d.gate, d.source, d.drain, "divider" in d.tags)
            for d in n.devices] == devices
    assert decoded_truth(n) == {(t,): (value,) for t in range(3)}
    assert division_counts(n) == [int(value == 1)] * 3


def test_binary_gate_nand():
    n = _gate([DOMAIN_BINARY] * 2,
              lambda pt: 0 if pt == (V, V) else 1, binary=True)
    truth = decoded_truth(n)
    assert truth == {(0, 0): (1,), (0, 1): (1,), (1, 0): (1,), (1, 1): (0,)}


def test_sop_binary_or_of_ands():
    b = Builder()
    b.declare_input("p", DOMAIN_BINARY)
    b.declare_input("q", DOMAIN_BINARY)
    b.declare_input("r", DOMAIN_BINARY)
    b.declare_output("y", Encoding.FULL_VDD_HIGH)
    # y = (p AND q) OR (NOT r)
    build_sop_binary(b, [[("p", True), ("q", True)], [("r", False)]], "y")
    n = b.build()
    truth = decoded_truth(n)
    for p in (0, 1):
        for q in (0, 1):
            for r in (0, 1):
                assert truth[(p, q, r)] == (int((p and q) or not r),), (p, q, r)


def test_companion_nets_are_shared():
    b = Builder()
    b.declare_input("a", DOMAIN_TERNARY)
    first = b.companion("a", "nti")
    second = b.companion("a", "nti")
    assert first == second == "a.nti"
    before = len(b.build().devices)
    b.companion("a", "nti")
    assert len(b.build().devices) == before


@pytest.mark.parametrize("kind,expected", [
    ("nti", {(0,): (2,), (1,): (0,), (2,): (0,)}),
    ("pti", {(0,): (2,), (1,): (2,), (2,): (0,)}),
])
def test_companion_inverter_truths(kind, expected):
    b = Builder()
    b.declare_input("a", DOMAIN_TERNARY)
    y = b.companion("a", kind)
    b.declare_output(y)
    assert decoded_truth(b.build()) == expected
