"""Transistor-network synthesis from level-domain truth functions.

Gates are built the classic way: the ON-set of a condition is covered by
cubes (greedy single-coordinate merging of minterms), each cube becomes a
series branch, and each literal in a cube is realized by the threshold-class
device that conducts exactly on the wanted gate levels — adding an NTI/PTI
companion inverter where a polarity needs the complemented view of a signal.

Binary-valued signals get plain LVT complementary devices throughout.

:class:`Builder` alone lays down the circuit primitives, which the passes
recognise from the same definitions: the NTI, PTI and binary ``inverter``,
the ``always_on`` device, the always-on ``divider`` pair that makes the half
level, and the six-device standard ternary inverter (``sti``).
"""

from __future__ import annotations

import itertools

from .errors import DomainError
from .netlist import (
    ALWAYS_ON_GATE,
    DOMAIN_BINARY,
    DOMAIN_HALFPAIR,
    Device,
    Netlist,
    Polarity,
    ThresholdClass,
    TAG_DIVIDER,
)
from .trits import DEFAULT_VDD, Encoding, Level

_G, _H, _V = Level.GND, Level.HALF, Level.VDD

# (P vt, N vt) of each two-device inverter kind
_INVERTERS = {
    "nti": (ThresholdClass.HVT, ThresholdClass.MVT),
    "pti": (ThresholdClass.MVT, ThresholdClass.HVT),
    "binv": (ThresholdClass.LVT, ThresholdClass.LVT),
}


class Builder:
    """Accumulates devices and declarations, then freezes into a Netlist."""

    def __init__(self, title: str = "", vdd: float = DEFAULT_VDD):
        self.title = title
        self.vdd = vdd
        self.inputs: list[tuple[str, frozenset[Level]]] = []
        self.outputs: list[tuple[str, Encoding]] = []
        self.devices: list[Device] = []
        self.loads: list[tuple[str, float]] = []
        self._nets = itertools.count()
        self._devs = itertools.count()
        self._companions: set[str] = set()

    def net(self, prefix: str = "n") -> str:
        return f"{prefix}{next(self._nets)}"

    def add(self, polarity, vt, gate, source, drain, tags=()) -> Device:
        dev = Device(
            f"m{next(self._devs)}", polarity, vt, gate, source, drain, frozenset(tags)
        )
        self.devices.append(dev)
        return dev

    def declare_input(self, name: str, domain: frozenset[Level]) -> str:
        self.inputs.append((name, domain))
        return name

    def declare_output(self, name: str, enc: Encoding = Encoding.STANDARD) -> str:
        self.outputs.append((name, enc))
        return name

    def load(self, net: str, farads: float):
        self.loads.append((net, farads))

    def build(self) -> Netlist:
        return Netlist(
            title=self.title,
            vdd=self.vdd,
            inputs=tuple(self.inputs),
            outputs=tuple(self.outputs),
            devices=tuple(self.devices),
            loads=tuple(self.loads),
        )

    # circuit primitives

    def inverter(self, kind: str, x: str, y: str):
        """Two-device inverter from x to y: 'nti', 'pti' or 'binv' (binary)."""
        if kind not in _INVERTERS:
            raise DomainError(f"unknown inverter kind {kind!r}")
        p_vt, n_vt = _INVERTERS[kind]
        self.add(Polarity.P, p_vt, x, "VDD", y)
        self.add(Polarity.N, n_vt, x, y, "GND")

    def always_on(self, polarity: Polarity, a: str, b: str, tags=()):
        """Rail-gated device that conducts unconditionally."""
        self.add(polarity, ThresholdClass.MVT, ALWAYS_ON_GATE[polarity], a, b, tags)

    def divider(self, up: str, out: str, down: str, tags=()):
        """Always-on N/P pair up → out → down: out divides to the half
        level while up is at VDD and down at GND."""
        dtags = frozenset(tags) | {TAG_DIVIDER}
        self.always_on(Polarity.N, up, out, dtags)
        self.always_on(Polarity.P, out, down, dtags)

    def sti(self, x: str, y: str) -> list[Device]:
        """Six-device standard ternary inverter with a conditioned divider
        pair; returns its devices."""
        HVT, MVT = ThresholdClass.HVT, ThresholdClass.MVT
        self.add(Polarity.P, HVT, x, "VDD", y)
        self.add(Polarity.N, HVT, x, y, "GND")
        m1, m2 = self.net("sti"), self.net("sti")
        self.add(Polarity.P, MVT, x, "VDD", m1)
        self.divider(m1, y, m2)
        self.add(Polarity.N, MVT, x, m2, "GND")
        return self.devices[-6:]

    def companion(self, x: str, kind: str) -> str:
        """Inverted view of a signal, one inverter of each kind per signal."""
        y = f"{x}.{kind}"
        if y not in self._companions:
            self.inverter(kind, x, y)
            self._companions.add(y)
        return y


# -- cube covering -------------------------------------------------------

Cube = tuple  # tuple of frozenset[Level], one per input position


def merge_cubes(points, domains) -> list[Cube]:
    """Cover a set of minterms by cubes via greedy adjacent merging.

    Two cubes merge when they agree on all coordinates but one; the union
    of any two covered cubes is still inside the ON-set by construction.
    Result is deterministic (cubes processed in sorted order) and subsumed
    cubes are dropped.
    """
    cubes = {tuple(frozenset([lv]) for lv in pt) for pt in points}

    def key(cube):
        return tuple(tuple(sorted(lv.value for lv in c)) for c in cube)

    merged = True
    while merged:
        merged = False
        ordered = sorted(cubes, key=key)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                a, b = ordered[i], ordered[j]
                diff = [k for k in range(len(a)) if a[k] != b[k]]
                if len(diff) != 1:
                    continue
                k = diff[0]
                c = a[:k] + (a[k] | b[k],) + a[k + 1 :]
                cubes.discard(a)
                cubes.discard(b)
                cubes.add(c)
                merged = True
                break
            if merged:
                break

    def subsumed(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    final = [c for c in cubes if not any(subsumed(c, d) for d in cubes)]
    return sorted(final, key=key)


# -- literal realization -------------------------------------------------

# Each entry maps a wanted conduction set over a full ternary signal to
# parallel options; an option is a series list of (vt, companion-kind).
# companion-kind None means the signal itself gates the device.
_P_LITERALS = {
    frozenset({_G}): [[(ThresholdClass.HVT, None)]],
    frozenset({_G, _H}): [[(ThresholdClass.MVT, None)]],
    frozenset({_H, _V}): [[(ThresholdClass.MVT, "nti")]],
    frozenset({_V}): [[(ThresholdClass.HVT, "pti")]],
    frozenset({_H}): [[(ThresholdClass.MVT, None), (ThresholdClass.MVT, "nti")]],
    frozenset({_G, _V}): [[(ThresholdClass.HVT, None)], [(ThresholdClass.HVT, "pti")]],
}

_N_LITERALS = {
    frozenset({_V}): [[(ThresholdClass.HVT, None)]],
    frozenset({_H, _V}): [[(ThresholdClass.MVT, None)]],
    frozenset({_G, _H}): [[(ThresholdClass.MVT, "pti")]],
    frozenset({_G}): [[(ThresholdClass.HVT, "nti")]],
    frozenset({_H}): [[(ThresholdClass.MVT, None), (ThresholdClass.MVT, "pti")]],
    frozenset({_G, _V}): [[(ThresholdClass.HVT, None)], [(ThresholdClass.HVT, "nti")]],
}


def literal_options(builder, polarity, x, levels, domain):
    """Parallel options (series lists of (vt, gate-net)) conducting iff x∈levels."""
    levels = frozenset(levels) & frozenset(domain)
    if not levels:
        return []
    if levels == frozenset(domain):
        return [[]]  # always conducting
    if frozenset(domain) == DOMAIN_BINARY:
        # binary signals: plain LVT complementary logic
        want_v = _V in levels
        if polarity is Polarity.P:
            gate = builder.companion(x, "binv") if want_v else x
        else:
            gate = x if want_v else builder.companion(x, "binv")
        return [[(ThresholdClass.LVT, gate)]]
    if frozenset(domain) == DOMAIN_HALFPAIR and len(levels) == 1:
        # single devices suffice on the {GND, HALF} carry domain
        want_h = _H in levels
        if polarity is Polarity.P:
            gate = builder.companion(x, "nti") if want_h else x
            return [[(ThresholdClass.HVT, gate)]]
        gate = x if want_h else builder.companion(x, "nti")
        return [[(ThresholdClass.MVT if want_h else ThresholdClass.HVT, gate)]]
    table = _P_LITERALS if polarity is Polarity.P else _N_LITERALS
    # every non-empty proper subset of the three levels is a key
    return [
        [(vt, x if kind is None else builder.companion(x, kind)) for vt, kind in opt]
        for opt in table[levels]
    ]


def build_network(builder, polarity, top, bottom, inputs, domains, on_set, tags=()):
    """Instantiate a switch network between two nets conducting on on_set.

    Returns "never", "always", or "built".  The caller decides how to wire
    the degenerate cases (no device can express a permanent short here).
    """
    on_set = sorted(set(on_set), key=lambda pt: tuple(lv.value for lv in pt))
    if not on_set:
        return "never"
    cubes = merge_cubes(on_set, domains)
    built_any = False
    for cube in cubes:
        elements = []
        degenerate = False
        for x, dom, levels in zip(inputs, domains, cube):
            opts = literal_options(builder, polarity, x, levels, dom)
            if opts == [[]]:
                continue  # literal always true
            if not opts:
                degenerate = True
                break
            elements.append(opts)
        if degenerate:
            continue
        if not elements:
            return "always"
        _chain(builder, polarity, top, bottom, elements, tags)
        built_any = True
    return "built" if built_any else "never"


def _chain(builder, polarity, top, bottom, elements, tags):
    cur = top
    for idx, options in enumerate(elements):
        nxt = bottom if idx == len(elements) - 1 else builder.net("t")
        for option in options:
            node = cur
            for i, (vt, gate) in enumerate(option):
                tgt = nxt if i == len(option) - 1 else builder.net("t")
                builder.add(polarity, vt, gate, node, tgt, tags)
                node = tgt
        cur = nxt


# -- gate construction ---------------------------------------------------


def build_ternary_gate(builder, inputs, domains, func, out, tags=()):
    """Single-supply ternary gate for func: level tuple -> trit {0,1,2}.

    Strong complementary networks produce 0 and 2; the middle level comes
    from deliberate voltage division between two always-on divider devices,
    conditioned by f>=1 on the pull-up side and f<=1 on the pull-down side.
    """
    pts = list(itertools.product(*[sorted(d, key=lambda l: l.value) for d in domains]))
    vals = {pt: func(pt) for pt in pts}
    on2 = [pt for pt in pts if vals[pt] == 2]
    on0 = [pt for pt in pts if vals[pt] == 0]
    _place(builder, Polarity.P, "VDD", out, inputs, domains, on2, tags)
    _place(builder, Polarity.N, out, "GND", inputs, domains, on0, tags)
    if any(v == 1 for v in vals.values()):
        up = [pt for pt in pts if vals[pt] >= 1]
        dn = [pt for pt in pts if vals[pt] <= 1]
        dtags = frozenset(tags) | {TAG_DIVIDER}
        r = build_network(builder, Polarity.P, "VDD", m := builder.net("d"), inputs, domains, up, tags)
        if r == "always":
            m = "VDD"
        builder.always_on(Polarity.N, m, out, dtags)
        r = build_network(builder, Polarity.N, m2 := builder.net("d"), "GND", inputs, domains, dn, tags)
        if r == "always":
            m2 = "GND"
        builder.always_on(Polarity.P, out, m2, dtags)


def build_binary_gate(builder, inputs, domains, func, out, tags=()):
    """Complementary gate for func: level tuple -> {0, 1}; output GND/VDD."""
    pts = list(itertools.product(*[sorted(d, key=lambda l: l.value) for d in domains]))
    on1 = [pt for pt in pts if func(pt) == 1]
    on0 = [pt for pt in pts if func(pt) == 0]
    _place(builder, Polarity.P, "VDD", out, inputs, domains, on1, tags)
    _place(builder, Polarity.N, out, "GND", inputs, domains, on0, tags)


def _place(builder, polarity, top, bottom, inputs, domains, on_set, tags):
    r = build_network(builder, polarity, top, bottom, inputs, domains, on_set, tags)
    if r == "always":
        builder.always_on(polarity, top, bottom, tags)


def build_sop_binary(builder, products, out, tags=()):
    """CMOS gate computing an OR of ANDs over binary control nets.

    products: list of products; each product is a list of (net, active_high).
    The pull-down network is the De Morgan dual, so the output is full-swing
    with no division.
    """
    LVT = ThresholdClass.LVT
    for product in products:
        node = "VDD"
        for i, (ctrl, positive) in enumerate(product):
            tgt = out if i == len(product) - 1 else builder.net("t")
            gate = builder.companion(ctrl, "binv") if positive else ctrl
            builder.add(Polarity.P, LVT, gate, node, tgt, tags)
            node = tgt
    node = out
    for idx, product in enumerate(products):
        tgt = "GND" if idx == len(products) - 1 else builder.net("t")
        for ctrl, positive in product:
            gate = builder.companion(ctrl, "binv") if positive else ctrl
            builder.add(Polarity.N, LVT, gate, node, tgt, tags)
        node = tgt
