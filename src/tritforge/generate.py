"""Reference circuit generators: inverters, adders in four logic styles,
test benches, input patterns, and ripple-carry composition.

Adder cells compute sum = (Σ inputs) mod 3 and carry = (Σ inputs) div 3
over per-input decoded domains, so the same machinery produces complete
cells, partial cells (carry-in restricted to {0,1}), half adders for the
cascaded variant, and both carry output conventions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import DomainError, UnsupportedCombinationError
from .netlist import (
    DOMAIN_BINARY,
    DOMAIN_TERNARY,
    Netlist,
    Polarity,
    TAG_CARRY_GEN,
    TAG_DIVIDER,
    ThresholdClass,
    _lines,
    domain_encoding,
)
from .synth import (
    Builder,
    build_binary_gate,
    build_sop_binary,
    build_ternary_gate,
)
from .trits import Encoding, Level, decode, encode

_G, _H, _V = Level.GND, Level.HALF, Level.VDD


class Style(enum.Enum):
    TERNARY_CMOS = "ternary-cmos"
    NTPT = "ntpt"
    MUX_PTTG = "mux"
    DEC_ENC = "decenc"


class Completeness(enum.Enum):
    COMPLETE = "complete"
    PARTIAL = "partial"


class Cascade(enum.Enum):
    DIRECT = "direct"
    TWO_THA = "two-tha"


@dataclass(frozen=True)
class StyleSpec:
    """Which adder cell to build.

    carry_encoding applies to partial cells: HALF_VDD_HIGH keeps carry '1'
    at the half level, FULL_VDD_HIGH re-encodes it to the full supply.  A
    complete cell's carry is a plain ternary signal, so it forbids
    FULL_VDD_HIGH.
    """

    style: Style
    completeness: Completeness
    carry_encoding: Encoding = Encoding.HALF_VDD_HIGH
    cascade: Cascade = Cascade.DIRECT

    def __post_init__(self):
        if self.carry_encoding is Encoding.STANDARD:
            raise UnsupportedCombinationError("carry encoding must be half or vdd")
        if (
            self.completeness is Completeness.COMPLETE
            and self.carry_encoding is Encoding.FULL_VDD_HIGH
        ):
            raise UnsupportedCombinationError(
                "a complete cell's carry reaches 2; FullVddHigh requires Partial"
            )


class GateKind(enum.Enum):
    NTI = "nti"
    PTI = "pti"
    STI = "sti"
    BINARY_INVERTER = "bininv"
    TERNARY_DECODER = "decoder"
    TERNARY_BUFFER = "buffer"


# -- term bookkeeping ----------------------------------------------------


@dataclass(frozen=True)
class _Term:
    """One adder operand: a net plus the encoding its levels decode under."""

    net: str
    encoding: Encoding = Encoding.STANDARD

    def trit(self, level: Level) -> int:
        return decode(level, self.encoding)

    def levels(self):
        return sorted(self.encoding.levels, key=lambda l: l.value)


def _carry_out_encoding(spec: StyleSpec) -> Encoding:
    if spec.completeness is Completeness.COMPLETE:
        return Encoding.STANDARD
    return spec.carry_encoding


def _sum_of(terms, pt):
    return sum(t.trit(lv) for t, lv in zip(terms, pt))


def _gate(builder, terms, func, out, enc, tags=()):
    """Gate for func over the terms at the output encoding: the binary gate
    at the full supply, the ternary gate otherwise."""
    build = build_binary_gate if enc is Encoding.FULL_VDD_HIGH else build_ternary_gate
    build(builder, [t.net for t in terms], [t.encoding.levels for t in terms], func, out, tags)


# -- styles: single-supply ternary CMOS and NT/PT function pairs ----------


def _ntpt_output(builder, terms, func, out, enc, tags=()):
    """A ternary value as two binary function gates joined by dividers.

    The negative-threshold gate asserts where func = 2, the positive one
    where func >= 1; where they disagree the always-on pair divides to the
    half level.
    """
    binary = Encoding.FULL_VDD_HIGH
    if enc is binary:
        _gate(builder, terms, func, out, enc, tags)
        return
    if {func(pt) for pt in itertools.product(*[t.levels() for t in terms])} <= {0, 1}:
        lo = "GND"
    else:
        lo = builder.net("nt")
        _gate(builder, terms, lambda pt: 1 if func(pt) == 2 else 0, lo, binary, tags)
    hi = builder.net("pt")
    _gate(builder, terms, lambda pt: 1 if func(pt) >= 1 else 0, hi, binary, tags)
    builder.divider(lo, out, hi, tags)


def _adder_from(output):
    """An adder whose sum and carry are each built by ``output``: ``_gate``
    for ternary CMOS, ``_ntpt_output`` for NT/PT pairs."""

    def adder(builder, terms, sum_out, carry_out, carry_enc):
        output(builder, terms, lambda pt: _sum_of(terms, pt) % 3, sum_out, Encoding.STANDARD)
        output(builder, terms, lambda pt: _sum_of(terms, pt) // 3, carry_out, carry_enc,
               (TAG_CARRY_GEN,))

    return adder


# -- style: MUX over pass-transistor / transmission-gate trees ------------


def _indicators(builder, term: _Term):
    """One-hot binary indicator and complement per value of a selector input."""
    ind = {}
    for lv in term.levels():
        v = term.trit(lv)
        if term.encoding is Encoding.FULL_VDD_HIGH and lv is _V:
            pos = term.net  # the signal is already its own '1' indicator
        else:
            pos = builder.net(f"{term.net}.is{v}")
            _gate(builder, [term], lambda pt, want=lv: 1 if pt[0] is want else 0, pos,
                  Encoding.FULL_VDD_HIGH)
        ind[v] = (pos, builder.companion(pos, "binv"))
    return ind


def _tg(builder, src, dst, pos, neg, tags=()):
    builder.add(Polarity.N, ThresholdClass.LVT, pos, src, dst, tags)
    builder.add(Polarity.P, ThresholdClass.LVT, neg, src, dst, tags)


def _line_for(builder, term, values, enc, cache, tags=()):
    """Net carrying a function of the first operand at the given encoding.

    values: tuple of trits indexed by the operand's decoded value.
    Constant lines collapse to rails or the shared half-rail.
    """
    key = (values, enc)
    if key in cache:
        return cache[key]
    distinct = set(values)
    if len(distinct) > 1:
        net = builder.net("ln")
        _gate(builder, [term], lambda pt: values[term.trit(pt[0])], net, enc, tags)
    else:
        net = {_G: "GND", _V: "VDD"}.get(encode(distinct.pop(), enc), cache.get(("halfrail", enc)))
        if net is None:
            net = builder.net("hr")
            builder.divider("VDD", net, "GND", tags)
            cache[("halfrail", enc)] = net
    cache[key] = net
    return net


def _mux_route(builder, out, routes, selectors, tags=()):
    """Route one of several lines to out through TG chains.

    routes: map selector-value-tuple -> line net; selectors: list of
    indicator maps aligned with the value tuples.
    """
    for combo in sorted(routes):
        node = routes[combo]
        for depth, v in enumerate(combo):
            pos, neg = selectors[depth][v]
            dst = out if depth == len(combo) - 1 else builder.net("mx")
            _tg(builder, node, dst, pos, neg, tags)
            node = dst


def _adder_mux(builder, terms, sum_out, carry_out, carry_enc):
    first, rest = terms[0], terms[1:]
    if first.encoding is not Encoding.STANDARD:
        raise DomainError("mux style expects a ternary first operand")
    selectors = [_indicators(builder, t) for t in rest]
    cache: dict = {}
    sum_routes = {}
    carry_routes = {}
    for combo_lv in itertools.product(*[t.levels() for t in rest]):
        combo = tuple(t.trit(lv) for t, lv in zip(rest, combo_lv))
        s = sum(combo)
        sum_routes[combo] = _line_for(
            builder, first, tuple((x + s) % 3 for x in range(3)), Encoding.STANDARD, cache
        )
        carry_routes[combo] = _line_for(
            builder,
            first,
            tuple((x + s) // 3 for x in range(3)),
            carry_enc,
            cache,
            (TAG_CARRY_GEN,),
        )
    _mux_route(builder, sum_out, sum_routes, selectors)
    _mux_route(builder, carry_out, carry_routes, selectors, (TAG_CARRY_GEN,))


# -- style: decoder / binary middle / encoder -----------------------------


def _adder_decenc(builder, terms, sum_out, carry_out, carry_enc):
    selectors = [_indicators(builder, t) for t in terms]
    max_total = sum(max(t.trit(lv) for lv in t.encoding.levels) for t in terms)
    u_nets = {}
    for k in range(max_total + 1):
        products = []
        for combo in itertools.product(*[sorted(sel) for sel in selectors]):
            if sum(combo) != k:
                continue
            products.append([(selectors[i][v][0], True) for i, v in enumerate(combo)])
        net = builder.net(f"u{k}")
        build_sop_binary(builder, products, net)
        u_nets[k] = net
    _onehot_encoder(
        builder, {k: k % 3 for k in range(max_total + 1)}, u_nets, sum_out, Encoding.STANDARD
    )
    _onehot_encoder(
        builder,
        {k: k // 3 for k in range(max_total + 1)},
        u_nets,
        carry_out,
        carry_enc,
        (TAG_CARRY_GEN,),
    )


def _onehot_encoder(builder, value_of, ctrl_nets, out, enc, tags=()):
    """Drive an output from one-hot binary controls.

    A control pulls up where its value is the one held at VDD (1 at the
    full supply, 2 otherwise) and down where it is 0.  A ternary output
    reaches the half level through an always-on divider, conditioned on
    value >= 1 above and value <= 1 below.
    """
    LVT = ThresholdClass.LVT

    def pull(polarity, node, keep):
        # one LVT device from node to the rail per control whose value passes keep
        for k in sorted(k for k, v in value_of.items() if keep(v)):
            if polarity is Polarity.P:
                gate = builder.companion(ctrl_nets[k], "binv")
                builder.add(polarity, LVT, gate, "VDD", node, tags)
            else:
                builder.add(polarity, LVT, ctrl_nets[k], node, "GND", tags)
        return node

    high = 1 if enc is Encoding.FULL_VDD_HIGH else 2
    values = set(value_of.values())
    pull(Polarity.P, out, lambda v: v == high)
    pull(Polarity.N, out, lambda v: v == 0)
    if high == 2 and 1 in values:
        dtags = frozenset(tags) | {TAG_DIVIDER}
        m = pull(Polarity.P, builder.net("e"), lambda v: v >= 1) if 0 in values else "VDD"
        builder.always_on(Polarity.N, m, out, dtags)
        m2 = pull(Polarity.N, builder.net("e"), lambda v: v <= 1) if 2 in values else "GND"
        builder.always_on(Polarity.P, out, m2, dtags)


_ADDER_BUILDERS = {
    Style.TERNARY_CMOS: _adder_from(_gate),
    Style.NTPT: _adder_from(_ntpt_output),
    Style.MUX_PTTG: _adder_mux,
    Style.DEC_ENC: _adder_decenc,
}


# -- cell composition ----------------------------------------------------


def _build_cell(builder, spec: StyleSpec, a, b, c, sum_out, carry_out):
    """Wire one adder cell (direct or two cascaded half adders) into builder."""
    build = _ADDER_BUILDERS[spec.style]
    carry_enc = _carry_out_encoding(spec)
    terms = [_Term(a), _Term(b), _Term(c, carry_enc)]
    if spec.cascade is Cascade.DIRECT:
        build(builder, terms, sum_out, carry_out, carry_enc)
        return
    # two cascaded half adders: (a,b) then (s1, cin); a half adder's carry
    # is at most 1, so it takes the carry encoding even in a complete cell
    tha_enc = spec.carry_encoding
    c1, s1 = builder.net("c1"), builder.net("s1")
    c2 = builder.net("c2")
    build(builder, terms[:2], s1, c1, tha_enc)
    build(builder, [_Term(s1), terms[2]], sum_out, c2, tha_enc)
    combine = [_Term(c1, tha_enc), _Term(c2, tha_enc)]
    _gate(builder, combine, lambda pt: _sum_of(combine, pt), carry_out, carry_enc,
          (TAG_CARRY_GEN,))


def gen_tfa(spec: StyleSpec) -> Netlist:
    """Full adder cell in the requested style; inputs a, b, cin; outputs sum, carry."""
    b = Builder(title=f"tfa {spec.style.value} {spec.completeness.value} "
                      f"carry={spec.carry_encoding.value} {spec.cascade.value}")
    b.declare_input("a", DOMAIN_TERNARY)
    b.declare_input("b", DOMAIN_TERNARY)
    carry = _carry_out_encoding(spec)
    b.declare_input("cin", carry.levels)  # a carry-in is the previous cell's carry
    b.declare_output("sum", Encoding.STANDARD)
    b.declare_output("carry", carry)
    _build_cell(b, spec, "a", "b", "cin", "sum", "carry")
    return b.build()


def gen_tha(style: Style, carry_encoding: Encoding = Encoding.HALF_VDD_HIGH) -> Netlist:
    """Half adder: two ternary operands, sum and a binary-valued carry."""
    if carry_encoding is Encoding.STANDARD:
        raise UnsupportedCombinationError("half-adder carry is binary-valued")
    b = Builder(title=f"tha {style.value} carry={carry_encoding.value}")
    b.declare_input("a", DOMAIN_TERNARY)
    b.declare_input("b", DOMAIN_TERNARY)
    b.declare_output("sum", Encoding.STANDARD)
    b.declare_output("carry", carry_encoding)
    terms = [_Term("a"), _Term("b")]
    _ADDER_BUILDERS[style](b, terms, "sum", "carry", carry_encoding)
    return b.build()


# -- small gates ----------------------------------------------------------


_GATE_INVERTERS = {GateKind.NTI: "nti", GateKind.PTI: "pti", GateKind.BINARY_INVERTER: "binv"}


def gen_gate(kind: GateKind) -> Netlist:
    b = Builder(title=f"gate {kind.value}")
    binary = kind is GateKind.BINARY_INVERTER
    b.declare_input("a", DOMAIN_BINARY if binary else DOMAIN_TERNARY)
    if kind is not GateKind.TERNARY_DECODER:
        b.declare_output("y", Encoding.FULL_VDD_HIGH if binary else Encoding.STANDARD)
    if kind in _GATE_INVERTERS:
        b.inverter(_GATE_INVERTERS[kind], "a", "y")
    elif kind is GateKind.STI:
        b.sti("a", "y")
    elif kind is GateKind.TERNARY_DECODER:
        for v, lv in enumerate((_G, _H, _V)):
            out = b.declare_output(f"y{v}", Encoding.FULL_VDD_HIGH)
            build_binary_gate(
                b, ["a"], [DOMAIN_TERNARY],
                lambda pt, want=lv: 1 if pt[0] is want else 0, out,
            )
    elif kind is GateKind.TERNARY_BUFFER:
        mid = b.net("bf")
        b.sti("a", mid)
        b.sti(mid, "y")
    else:
        raise DomainError(f"unknown gate kind {kind!r}")
    return b.build()


# -- test bench -----------------------------------------------------------


def gen_testbench(dut: Netlist) -> Netlist:
    """Wrap a cell with input buffers and ternary fan-out-of-4 output loads."""
    b = Builder(title=f"testbench {dut.title}".strip(), vdd=dut.vdd)
    # namespace the cell's internal nets so they cannot collide with bench nets
    interface = set(dut.input_names) | set(dut.output_names) | {"VDD", "GND"}
    rename = {n: f"dut.{n}" for n in dut.nets() if n not in interface}
    renamed = set(rename.values())
    for name, dom in dut.inputs:
        b.declare_input(name, dom)
        inner = f"{name}.buf"
        mid = b.net("tb")
        b.sti(name, mid)
        b.sti(mid, inner)
        rename[name] = inner
    for name, enc in dut.outputs:
        b.declare_output(name, enc)
        for _ in range(4):
            b.sti(name, b.net("fo"))
    # the bench's devices so far touch a port only at a gate, so the nets on
    # their channels, rails aside, are the bench's own; no two of those, the
    # ports and the renamed internal nets may share a name
    made = {t for d in b.devices for t in (d.source, d.drain)} - {"VDD", "GND"}
    clash = sorted(made & (renamed | interface) | renamed & interface)
    if clash:
        raise DomainError(f"the testbench would short two nets named {clash[0]!r}")
    for dev in dut.devices:
        b.add(
            dev.polarity,
            dev.vt,
            rename.get(dev.gate, dev.gate),
            rename.get(dev.source, dev.source),
            rename.get(dev.drain, dev.drain),
            dev.tags,
        )
    for net, farads in dut.loads:
        b.load(rename.get(net, net), farads)
    return b.build()


# -- ripple-carry adder ----------------------------------------------------


def gen_rca(digits: int, spec: StyleSpec) -> Netlist:
    """Chain of partial FullVddHigh cells; carries ripple at the full supply."""
    if digits < 1:
        raise DomainError("digits must be >= 1")
    if (
        spec.completeness is not Completeness.PARTIAL
        or spec.carry_encoding is not Encoding.FULL_VDD_HIGH
    ):
        raise UnsupportedCombinationError(
            "ripple composition requires Partial cells with FullVddHigh carries"
        )
    b = Builder(title=f"rca{digits} {spec.style.value} {spec.cascade.value}")
    for i in range(digits):
        b.declare_input(f"a{i}", DOMAIN_TERNARY)
    for i in range(digits):
        b.declare_input(f"b{i}", DOMAIN_TERNARY)
    b.declare_input("cin", DOMAIN_BINARY)
    carry = "cin"
    for i in range(digits):
        nxt = "cout" if i == digits - 1 else b.net(f"cy{i}.")
        b.declare_output(f"s{i}", Encoding.STANDARD)
        _build_cell(b, spec, f"a{i}", f"b{i}", carry, f"s{i}", nxt)
        carry = nxt
    b.declare_output("cout", Encoding.FULL_VDD_HIGH)
    return b.build()


# -- patterns --------------------------------------------------------------


class PatternKind(enum.Enum):
    STATIC_STATES = "static"
    COMPLETE_TRANSITIONS = "transitions"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Pattern:
    signals: tuple
    rows: tuple  # tuple of level tuples
    kind: PatternKind

    @property
    def transitions(self) -> int:
        return max(len(self.rows) - 1, 0)


def gen_pattern(domains, kind: PatternKind) -> Pattern:
    """Build a stimulus over named input domains.

    domains: ordered list of (signal, level set).  StaticStates enumerates
    the domain product; CompleteTransitions walks an Eulerian circuit of
    the complete transition digraph, so every ordered state pair appears
    exactly once (k(k-1) transitions over k states).
    """
    if not domains:
        raise DomainError("at least one signal required")
    signals = tuple(name for name, _ in domains)
    states = [
        tuple(pt)
        for pt in itertools.product(
            *[sorted(dom, key=lambda l: l.value) for _, dom in domains]
        )
    ]
    if kind is PatternKind.STATIC_STATES:
        return Pattern(signals, tuple(states), kind)
    if kind is not PatternKind.COMPLETE_TRANSITIONS:
        raise DomainError("gen_pattern builds static or complete-transition kinds")
    k = len(states)
    if k == 1:
        return Pattern(signals, tuple(states), kind)
    # Hierholzer over the complete digraph; sorted successor stacks make
    # the circuit deterministic.
    succ = {i: sorted((j for j in range(k) if j != i), reverse=True) for i in range(k)}
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    assert len(circuit) == k * (k - 1) + 1
    return Pattern(signals, tuple(states[i] for i in circuit), kind)


def pattern_to_text(p: Pattern, domains) -> str:
    """Serialize a pattern; digits are trits under each signal's encoding."""
    enc = [domain_encoding(dom) for _, dom in domains]
    lines = [".signals " + " ".join(p.signals)]
    for row in p.rows:
        lines.append(" ".join(str(decode(lv, e)) for lv, e in zip(row, enc)))
    return "\n".join(lines) + "\n"


def pattern_from_text(text: str, domains) -> Pattern:
    enc = {name: domain_encoding(dom) for name, dom in domains}
    signals = None
    rows = []
    for lineno, tokens in _lines(text):
        if tokens[0] == ".signals":
            signals = tuple(tokens[1:])
            unknown = [s for s in signals if s not in enc]
            if unknown:
                raise DomainError(f"line {lineno}: unknown signals {unknown}")
            dup = [s for i, s in enumerate(signals) if s in signals[:i]]
            if dup:
                raise DomainError(f"line {lineno}: duplicate signal {dup[0]!r}")
            continue
        if signals is None:
            raise DomainError(f"line {lineno}: rows before .signals header")
        if len(tokens) != len(signals):
            raise DomainError(f"line {lineno}: expected {len(signals)} values")
        try:
            row = tuple(
                encode(int(tok), enc[sig]) for tok, sig in zip(tokens, signals)
            )
        except (ValueError, DomainError) as exc:
            raise DomainError(f"line {lineno}: {exc}")
        rows.append(row)
    if signals is None:
        raise DomainError("pattern file has no .signals header")
    return Pattern(signals, tuple(rows), PatternKind.CUSTOM)
