"""Transistor-network synthesis from level-domain truth functions.

Gates are built the classic way: the ON-set of a condition is covered by
cubes (greedy single-coordinate merging of minterms), each cube becomes a
series branch, and each literal in a cube is realized by the threshold-class
device that conducts exactly on the wanted gate levels — adding an NTI/PTI
companion inverter where a polarity needs the complemented view of a signal.

Binary-valued signals get plain LVT complementary devices throughout.  A
binary gate is the ternary gate of a function that never takes the value 1:
its two strong networks without the divider.

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


def _adjacent(ordered):
    """The first pair of cubes, in the given order, that differ in exactly
    one place, with that place; None if there is none."""
    for a, b in itertools.combinations(ordered, 2):
        diff = [k for k in range(len(a)) if a[k] != b[k]]
        if len(diff) == 1:
            return a, b, diff[0]
    return None


def merge_cubes(points, domains) -> list[Cube]:
    """Cover a set of minterms by cubes via greedy adjacent merging.

    Two cubes merge when they agree on all coordinates but one; the union
    of any two covered cubes is still inside the ON-set by construction.
    Result is deterministic (cubes processed in sorted order) and subsumed
    cubes are dropped.
    """

    def key(cube):
        return tuple(tuple(sorted(lv.value for lv in c)) for c in cube)

    # each cube with its sort key, made once: every merge re-sorts them all
    cubes = {c: key(c) for c in (tuple(frozenset([lv]) for lv in pt) for pt in points)}
    while pair := _adjacent(sorted(cubes, key=cubes.__getitem__)):
        a, b, k = pair
        c = a[:k] + (a[k] | b[k],) + a[k + 1 :]
        del cubes[a], cubes[b]
        cubes[c] = key(c)

    def subsumed(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    final = [c for c in cubes if not any(subsumed(c, d) for d in cubes)]
    return sorted(final, key=cubes.__getitem__)


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

# The N table mirrors the P table: an N device of the same vt conducts on
# the GND↔VDD mirror of a P device's levels, and the mirror of an NTI
# companion is a PTI.
_MIRROR = {_G: _V, _H: _H, _V: _G, None: None, "nti": "pti", "pti": "nti"}
_N_LITERALS = {
    frozenset(_MIRROR[lv] for lv in levels): [
        [(vt, _MIRROR[kind]) for vt, kind in opt] for opt in opts
    ]
    for levels, opts in _P_LITERALS.items()
}


def literal_options(builder, polarity, x, levels, domain):
    """Parallel options (series lists of (vt, gate-net)) conducting iff x∈levels,
    a non-empty subset of x's domain."""
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

    Returns True when a cube of on_set is always true: no device can express
    that permanent short, so the caller decides how to wire it.
    """
    for cube in merge_cubes(on_set, domains):
        elements = []
        for x, dom, levels in zip(inputs, domains, cube):
            opts = literal_options(builder, polarity, x, levels, dom)
            if opts != [[]]:  # else the literal is always true
                elements.append(opts)
        if not elements:
            return True
        _chain(builder, polarity, top, bottom, elements, tags)
    return False


def _chain(builder, polarity, top, bottom, elements, tags):
    # elements in series from top to bottom; each element is parallel
    # options, and each option a series list of (vt, gate-net)
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

    def network(polarity, top, bottom, keep):
        on_set = [pt for pt in pts if keep(vals[pt])]
        return build_network(builder, polarity, top, bottom, inputs, domains, on_set, tags)

    for polarity, top, bottom, v in ((Polarity.P, "VDD", out, 2), (Polarity.N, out, "GND", 0)):
        if network(polarity, top, bottom, lambda x: x == v):
            builder.always_on(polarity, top, bottom, tags)
    if 1 in vals.values():
        dtags = frozenset(tags) | {TAG_DIVIDER}
        if network(Polarity.P, "VDD", m := builder.net("d"), lambda x: x >= 1):
            m = "VDD"
        builder.always_on(Polarity.N, m, out, dtags)
        if network(Polarity.N, m2 := builder.net("d"), "GND", lambda x: x <= 1):
            m2 = "GND"
        builder.always_on(Polarity.P, out, m2, dtags)


def build_binary_gate(builder, inputs, domains, func, out, tags=()):
    """Complementary gate for func: level tuple -> {0, 1}; output GND/VDD.

    It is the ternary gate of 2·func: with no point at 1 it has no divider.
    """
    build_ternary_gate(builder, inputs, domains, lambda pt: 2 * func(pt), out, tags)


def build_sop_binary(builder, products, out, tags=()):
    """CMOS gate computing an OR of ANDs over binary control nets.

    products: list of products; each product is a list of (net, active_high).
    The pull-up is one series chain per product, and the pull-down is its
    De Morgan dual, the products in series with each one's literals in
    parallel, so the output is full-swing with no division.
    """
    LVT = ThresholdClass.LVT

    def literals(product):
        return [(LVT, builder.companion(c, "binv") if pos else c) for c, pos in product]

    for product in products:
        _chain(builder, Polarity.P, "VDD", out, [[[x]] for x in literals(product)], tags)
    _chain(builder, Polarity.N, out, "GND", [[[x] for x in literals(p)] for p in products], tags)
