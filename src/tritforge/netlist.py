"""Transistor-level netlist IR: data model, text format, validation, counting.

The text format ("tritforge-net v1") is whitespace-separated tokens with
``#`` comments, case-insensitive keywords and case-sensitive net names:

    .title <string>
    .vdd <volts>                      # default 0.9
    .input <net> <domain>             # ternary | binary | halfpair | level digits
    .output <net> [enc=<ternary|binary|halfpair>]
    .net <net>                        # optional explicit declaration
    M <id> <n|p> <hvt|mvt|lvt|ulvt> G=<net> S=<net> D=<net> [tag=<string>]...
    C <id> <net> <farads>
    .end

``VDD`` and ``GND`` are reserved rail names.  Nets are created implicitly
on first use unless strict mode is requested.

The encodings and the levels each one uses are defined once, by
:class:`~tritforge.trits.Encoding`.  This module adds only their format
names (``_ENC_NAMES``): an input domain named by an encoding is that
encoding's ``levels``, and level digits are trits of the standard encoding.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .errors import NetlistSemanticError, NetlistSyntaxError
from .trits import DEFAULT_VDD, Encoding, Level, decode, encode

RAILS = ("VDD", "GND")

# CNT chirality (n, 0) per threshold class; the threshold voltage follows
# the zigzag-tube diameter relation Vt = 0.43 / d with d = 0.0783 * n nm.
_CHIRALITY = {"hvt": 10, "mvt": 14, "lvt": 19, "ulvt": 25}


class ThresholdClass(enum.Enum):
    HVT = "hvt"
    MVT = "mvt"
    LVT = "lvt"
    ULVT = "ulvt"

    @property
    def chirality(self) -> tuple[int, int]:
        return (_CHIRALITY[self.value], 0)

    @property
    def diameter_nm(self) -> float:
        return 0.0783 * _CHIRALITY[self.value]

    @property
    def vt_volts(self) -> float:
        return 0.43 / self.diameter_nm


class Polarity(enum.Enum):
    N = "n"
    P = "p"


# Device-line tokens, lower-cased, to their members: a dict lookup instead of
# an enum constructor call per device.
_POLARITY = {p.value: p for p in Polarity}
_THRESHOLD = {t.value: t for t in ThresholdClass}

# Every (polarity, threshold class) pair, the N classes first.  A device's
# class number is its pair's position here; ``DEVICE_CLASSES.index`` finds it
# by identity comparisons, where keying a dict by the pair hashes both enums.
DEVICE_CLASSES = tuple(itertools.product(Polarity, ThresholdClass))

# Reserved role tags consumed by the carry rebind pass.
TAG_DIVIDER = "divider"
TAG_CARRY_GEN = "carry-gen"

# The rail that holds a device of each polarity permanently on.
ALWAYS_ON_GATE = {Polarity.N: "VDD", Polarity.P: "GND"}

DOMAIN_TERNARY = Encoding.STANDARD.levels
DOMAIN_BINARY = Encoding.FULL_VDD_HIGH.levels
DOMAIN_HALFPAIR = Encoding.HALF_VDD_HIGH.levels

# The one name table of the text format: ``.input`` domains and ``.output enc=``.
_ENC_NAMES = {
    "ternary": Encoding.STANDARD,
    "binary": Encoding.FULL_VDD_HIGH,
    "halfpair": Encoding.HALF_VDD_HIGH,
}
_DOMAIN_TOKEN = {enc.levels: name for name, enc in _ENC_NAMES.items()}
_DOMAIN_ENCODING = {enc.levels: enc for enc in Encoding}


def parse_domain(token: str) -> frozenset[Level]:
    """Parse an encoding name or a compact level-digit string like ``01``."""
    low = token.lower()
    if low in _ENC_NAMES:
        return _ENC_NAMES[low].levels
    if low and all(ch in "012" for ch in low) and len(set(low)) == len(low):
        return frozenset(encode(int(ch)) for ch in low)
    raise ValueError(f"unknown input domain {token!r}")


def domain_token(domain: frozenset[Level]) -> str:
    """Canonical serialization of an input domain: its encoding name, else level digits."""
    if domain in _DOMAIN_TOKEN:
        return _DOMAIN_TOKEN[domain]
    return "".join(sorted(str(decode(lv)) for lv in domain))


def domain_encoding(domain: frozenset[Level]) -> Encoding:
    """Encoding under which levels of this input domain decode to trits."""
    return _DOMAIN_ENCODING.get(domain, Encoding.STANDARD)


@dataclass(frozen=True)
class Device:
    """A single FET: polarity, threshold class, and three net terminals."""

    id: str
    polarity: Polarity
    vt: ThresholdClass
    gate: str
    source: str
    drain: str
    tags: frozenset[str] = frozenset()

    @property
    def degenerate(self) -> bool:
        return self.source == self.drain

    def terminals(self) -> tuple[str, str, str]:
        return (self.gate, self.source, self.drain)


@dataclass(frozen=True)
class Netlist:
    """An immutable flat transistor netlist.

    ``inputs`` pairs each input net with the set of levels it may take;
    ``outputs`` pairs each output net with the encoding used to decode it.
    Devices and nets are kept in canonical (sorted) order so that equal
    circuits compare equal regardless of construction order.
    """

    title: str = ""
    vdd: float = DEFAULT_VDD
    inputs: tuple[tuple[str, frozenset[Level]], ...] = ()
    outputs: tuple[tuple[str, Encoding], ...] = ()
    devices: tuple[Device, ...] = ()
    loads: tuple[tuple[str, float], ...] = ()
    extra_nets: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "devices", tuple(sorted(self.devices, key=lambda d: d.id))
        )
        object.__setattr__(self, "loads", tuple(sorted(self.loads)))

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.outputs)

    def input_domain(self, name: str) -> frozenset[Level]:
        for net, dom in self.inputs:
            if net == name:
                return dom
        raise KeyError(name)

    def output_encoding(self, name: str) -> Encoding:
        for net, enc in self.outputs:
            if net == name:
                return enc
        raise KeyError(name)

    def nets(self) -> tuple[str, ...]:
        """All nets including rails, in canonical (sorted) order."""
        seen = set(RAILS)
        seen.update(self.extra_nets)
        seen.update(name for name, _ in self.inputs)
        seen.update(name for name, _ in self.outputs)
        for dev in self.devices:
            seen.update(dev.terminals())
        seen.update(net for net, _ in self.loads)
        return tuple(sorted(seen))


@dataclass
class Diagnostic:
    """One validation finding; ``code`` is stable, ``message`` is for humans."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


def parse(text: str, strict: bool = False) -> Netlist:
    """Parse netlist text into a :class:`Netlist`.

    In strict mode every net must be declared via .input/.output/.net
    before use; otherwise device lines create nets implicitly.
    """
    title = ""
    vdd = DEFAULT_VDD
    inputs: list[tuple[str, frozenset[Level]]] = []
    outputs: list[tuple[str, Encoding]] = []
    devices: list[Device] = []
    loads: list[tuple[str, float]] = []
    declared: set[str] = set(RAILS)
    explicit: set[str] = set()
    dev_ids: set[str] = set()
    ended = False

    def check_net(name: str, lineno: int) -> str:
        if strict and name not in declared:
            raise NetlistSemanticError(f"undeclared net {name!r}", line=lineno)
        declared.add(name)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise NetlistSyntaxError("content after .end", line=lineno)
        tokens = line.split()
        head = tokens[0].lower()

        if head == ".title":
            title = " ".join(tokens[1:])
        elif head == ".vdd":
            if len(tokens) != 2:
                raise NetlistSyntaxError(".vdd expects one value", line=lineno)
            try:
                vdd = float(tokens[1])
            except ValueError:
                raise NetlistSyntaxError(f"bad voltage {tokens[1]!r}", line=lineno)
            if not 0 < vdd < math.inf:
                raise NetlistSemanticError("vdd must be positive and finite", line=lineno)
        elif head == ".input":
            if len(tokens) != 3:
                raise NetlistSyntaxError(".input expects <net> <domain>", line=lineno)
            name = tokens[1]
            if name in RAILS:
                raise NetlistSemanticError(f"rail {name} cannot be an input", line=lineno)
            if any(name == n for n, _ in inputs):
                raise NetlistSemanticError(f"duplicate input {name!r}", line=lineno)
            try:
                dom = parse_domain(tokens[2])
            except ValueError as exc:
                raise NetlistSyntaxError(str(exc), line=lineno)
            inputs.append((name, dom))
            declared.add(name)
        elif head == ".output":
            if len(tokens) not in (2, 3):
                raise NetlistSyntaxError(".output expects <net> [enc=...]", line=lineno)
            name = tokens[1]
            if name in RAILS:
                raise NetlistSemanticError(f"rail {name} cannot be an output", line=lineno)
            if any(name == n for n, _ in outputs):
                raise NetlistSemanticError(f"duplicate output {name!r}", line=lineno)
            enc = Encoding.STANDARD
            if len(tokens) == 3:
                opt = tokens[2].lower()
                if not opt.startswith("enc="):
                    raise NetlistSyntaxError(f"unknown output option {tokens[2]!r}", line=lineno)
                try:
                    enc = _ENC_NAMES[opt[4:]]
                except KeyError:
                    raise NetlistSyntaxError(f"unknown encoding {opt[4:]!r}", line=lineno)
            outputs.append((name, enc))
            declared.add(name)
        elif head == ".net":
            if len(tokens) != 2:
                raise NetlistSyntaxError(".net expects one name", line=lineno)
            if tokens[1] in RAILS:
                raise NetlistSemanticError("rails need no declaration", line=lineno)
            declared.add(tokens[1])
            explicit.add(tokens[1])
        elif head == "m":
            if len(tokens) < 7:
                raise NetlistSyntaxError(
                    "device line needs id, polarity, vt, G=, S=, D=", line=lineno
                )
            dev_id = tokens[1]
            if dev_id in dev_ids:
                raise NetlistSemanticError(f"duplicate device id {dev_id!r}", line=lineno)
            pol = _POLARITY.get(tokens[2].lower())
            if pol is None:
                raise NetlistSyntaxError(f"bad polarity {tokens[2]!r}", line=lineno)
            vt = _THRESHOLD.get(tokens[3].lower())
            if vt is None:
                raise NetlistSyntaxError(f"bad threshold class {tokens[3]!r}", line=lineno)
            terms: dict[str, str] = {}
            tags: set[str] = set()
            for tok in tokens[4:]:
                key, _, value = tok.partition("=")
                key = key.lower()
                if not value:
                    raise NetlistSyntaxError(f"bad device option {tok!r}", line=lineno)
                if key in ("g", "s", "d"):
                    if key in terms:
                        raise NetlistSyntaxError(f"duplicate terminal {key.upper()}", line=lineno)
                    terms[key] = check_net(value, lineno)
                elif key == "tag":
                    tags.add(value)
                else:
                    raise NetlistSyntaxError(f"unknown device option {tok!r}", line=lineno)
            if set(terms) != {"g", "s", "d"}:
                raise NetlistSyntaxError("device needs G=, S= and D=", line=lineno)
            devices.append(
                Device(dev_id, pol, vt, terms["g"], terms["s"], terms["d"], frozenset(tags))
            )
            dev_ids.add(dev_id)
        elif head == "c":
            if len(tokens) != 4:
                raise NetlistSyntaxError("load line needs id, net, farads", line=lineno)
            net = check_net(tokens[2], lineno)
            try:
                farads = float(tokens[3])
            except ValueError:
                raise NetlistSyntaxError(f"bad capacitance {tokens[3]!r}", line=lineno)
            if not 0 <= farads < math.inf:
                raise NetlistSemanticError(
                    "capacitance must be non-negative and finite", line=lineno
                )
            loads.append((net, farads))
        elif head == ".end":
            ended = True
        else:
            raise NetlistSyntaxError(f"unknown statement {tokens[0]!r}", line=lineno)

    used = set(RAILS)
    for dev in devices:
        used.update(dev.terminals())
    used.update(n for n, _ in inputs)
    used.update(n for n, _ in outputs)
    used.update(n for n, _ in loads)
    extra = frozenset(explicit - used)

    return Netlist(
        title=title,
        vdd=vdd,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        devices=tuple(devices),
        loads=tuple(loads),
        extra_nets=extra,
    )


def serialize(n: Netlist) -> str:
    """Canonical text form: declarations first, devices sorted by id."""
    lines = []
    if n.title:
        lines.append(f".title {n.title}")
    lines.append(f".vdd {n.vdd!r}")
    for name, dom in n.inputs:
        lines.append(f".input {name} {domain_token(dom)}")
    for name, enc in n.outputs:
        if enc is Encoding.STANDARD:
            lines.append(f".output {name}")
        else:
            lines.append(f".output {name} enc={domain_token(enc.levels)}")
    for name in sorted(n.extra_nets):
        lines.append(f".net {name}")
    for dev in n.devices:  # already id-sorted
        parts = [
            "m",
            dev.id,
            dev.polarity.value,
            dev.vt.value,
            f"g={dev.gate}",
            f"s={dev.source}",
            f"d={dev.drain}",
        ]
        parts.extend(f"tag={t}" for t in sorted(dev.tags))
        lines.append(" ".join(parts))
    for idx, (net, farads) in enumerate(n.loads):
        lines.append(f"c cl{idx} {net} {farads!r}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def validate(n: Netlist) -> list[Diagnostic]:
    """Structural lint. An empty list means the netlist is well-formed."""
    diags: list[Diagnostic] = []
    in_names = set(n.input_names)
    out_names = set(n.output_names)

    for name in in_names & out_names:
        diags.append(Diagnostic("input-output-overlap", f"net {name!r} is both input and output"))
    for name, dom in n.inputs:
        if not dom:
            diags.append(Diagnostic("empty-domain", f"input {name!r} has an empty domain"))

    touched: set[str] = set()
    driven: set[str] = set()  # nets with a source/drain terminal
    for dev in n.devices:
        touched.update(dev.terminals())
        driven.add(dev.source)
        driven.add(dev.drain)
        if all(t in RAILS for t in dev.terminals()):
            diags.append(
                Diagnostic("all-rail-device", f"device {dev.id!r} has all terminals on rails")
            )
        if dev.degenerate:
            diags.append(
                Diagnostic("degenerate-device", f"device {dev.id!r} has source == drain")
            )

    for name in n.output_names:
        if name not in driven and name not in in_names:
            diags.append(Diagnostic("undriven-output", f"output {name!r} is driven by no device"))

    known = touched | in_names | out_names | set(RAILS) | {net for net, _ in n.loads}
    for name in n.nets():
        if name not in known:
            diags.append(Diagnostic("dangling-net", f"net {name!r} is connected to nothing"))
    for name in n.extra_nets:
        diags.append(Diagnostic("dangling-net", f"net {name!r} is connected to nothing"))

    return diags


@dataclass(frozen=True)
class DeviceCount:
    """Transistor counts by polarity and threshold class; total is the area proxy."""

    by_class: tuple[tuple[tuple[Polarity, ThresholdClass], int], ...]
    total: int

    def count(self, polarity: Polarity, vt: ThresholdClass) -> int:
        return dict(self.by_class).get((polarity, vt), 0)


def device_count(n: Netlist) -> DeviceCount:
    counts: dict[tuple[Polarity, ThresholdClass], int] = {}
    for dev in n.devices:
        key = (dev.polarity, dev.vt)
        counts[key] = counts.get(key, 0) + 1
    ordered = tuple(sorted(counts.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)))
    return DeviceCount(by_class=ordered, total=len(n.devices))
