"""Pure ternary algebra: trits, voltage levels, encodings, and closed-form metrics.

A trit is an unsigned ternary digit in {0, 1, 2}.  Balanced ternary
({-1, 0, +1}) is deliberately rejected everywhere.  The three logic values
map onto the physical levels 0V, half the supply, and the full supply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError

TRITS = (0, 1, 2)

DEFAULT_VDD = 0.9


def check_trit(value: int) -> int:
    """Validate an unsigned trit. Balanced digits (-1) are rejected."""
    if not isinstance(value, int) or isinstance(value, bool) or value not in (0, 1, 2):
        raise DomainError(f"not an unsigned trit: {value!r}")
    return value


class Level(enum.Enum):
    """One of the three stable node voltages, plus the solver's X/Z states."""

    GND = "0"
    HALF = "h"
    VDD = "1"
    X = "x"  # unresolved, only ever seen mid-iteration
    Z = "z"  # floating / held charge

    def __repr__(self):
        return f"Level.{self.name}"


STABLE_LEVELS = (Level.GND, Level.HALF, Level.VDD)


def level_volts(level: Level, vdd: float = DEFAULT_VDD) -> float:
    """Numeric voltage of a stable level. HALF is exactly vdd / 2."""
    if level is Level.GND:
        return 0.0
    if level is Level.HALF:
        return vdd / 2.0
    if level is Level.VDD:
        return vdd
    raise DomainError(f"level {level} has no defined voltage")


class Encoding(enum.Enum):
    """How logical values map onto voltage levels for one signal.

    STANDARD is the three-level mapping 0/1/2 -> GND/HALF/VDD.  The two
    carry encodings cover binary-valued carry signals: HALF_VDD_HIGH keeps
    logic '1' at the half level, FULL_VDD_HIGH re-encodes it to the full
    supply so that no voltage division is needed to produce it.

    Each value is the encoding's name in the netlist text format.
    """

    STANDARD = "ternary"
    HALF_VDD_HIGH = "halfpair"
    FULL_VDD_HIGH = "binary"

    @property
    def levels(self) -> frozenset[Level]:
        """The voltage levels this encoding uses: an input domain."""
        return _ENC_LEVELS[self]


_ENC_TABLE = {
    Encoding.STANDARD: {0: Level.GND, 1: Level.HALF, 2: Level.VDD},
    Encoding.HALF_VDD_HIGH: {0: Level.GND, 1: Level.HALF},
    Encoding.FULL_VDD_HIGH: {0: Level.GND, 1: Level.VDD},
}
_ENC_LEVELS = {enc: frozenset(table.values()) for enc, table in _ENC_TABLE.items()}

# Short names of the two carry encodings, as the CLI and the catalog spell them.
CARRY_NAMES = {"half": Encoding.HALF_VDD_HIGH, "vdd": Encoding.FULL_VDD_HIGH}


def encode(trit: int, enc: Encoding = Encoding.STANDARD) -> Level:
    """Map a trit to its voltage level under the given encoding."""
    check_trit(trit)
    table = _ENC_TABLE[enc]
    if trit not in table:
        raise DomainError(f"trit {trit} not representable under {enc.value}")
    return table[trit]


def decode(level: Level, enc: Encoding = Encoding.STANDARD) -> int:
    """Inverse of :func:`encode`. Raises DomainError for levels outside the encoding."""
    for trit, lv in _ENC_TABLE[enc].items():
        if lv is level:
            return trit
    raise DomainError(f"level {level} not valid under encoding {enc.value}")


class InverterKind(enum.Enum):
    NTI = "nti"
    PTI = "pti"
    STI = "sti"


# Reference truth table for the three ternary inverters.  The standard
# inverter is the level-arithmetic mean of the negative and positive ones.
_INVERTER_TABLE = {
    InverterKind.NTI: (2, 0, 0),
    InverterKind.PTI: (2, 2, 0),
    InverterKind.STI: (2, 1, 0),
}


def ternary_inverter(kind: InverterKind, t: int) -> int:
    """Negative, positive, or standard ternary inversion of a trit."""
    check_trit(t)
    return _INVERTER_TABLE[kind][t]


def full_add_complete(a: int, b: int, c: int) -> tuple[int, int]:
    """Complete ternary full addition: 3*carry + sum == a + b + c.

    All three inputs range over {0, 1, 2}; the output carry reaches 2 only
    for a == b == c == 2.
    """
    total = check_trit(a) + check_trit(b) + check_trit(c)
    return total // 3, total % 3


def full_add_partial(a: int, b: int, cin: int) -> tuple[int, int]:
    """Partial ternary full addition: the carry-in is restricted to {0, 1}.

    Agrees with :func:`full_add_complete` on the restricted domain, and the
    output carry is itself restricted to {0, 1} there.
    """
    check_trit(cin)
    if cin == 2:
        raise DomainError("partial adder carry-in must be 0 or 1")
    return full_add_complete(a, b, cin)


def pdp(delay_s: float, power_w: float) -> float:
    """Power-delay product in joules: average power times maximum delay."""
    if delay_s < 0 or power_w < 0:
        raise DomainError("delay and power must be non-negative")
    return delay_s * power_w


@dataclass(frozen=True)
class PowerBreakdown:
    """Inputs to the dynamic + static power decomposition.

    activity:   per-cycle switching activity factor (dimensionless)
    load_f:     capacitive load in farads
    frequency:  operating frequency in hertz
    supply_v:   supply voltage in volts
    i_static:   static current in amperes
    """

    activity: float
    load_f: float
    frequency: float
    supply_v: float
    i_static: float = 0.0

    def __post_init__(self):
        for name in ("activity", "load_f", "frequency", "supply_v", "i_static"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")


def power_total(p: PowerBreakdown) -> float:
    """Total power in watts: a*C*f*V^2 plus I_static*V.

    The static term does not depend on the load or the frequency.
    """
    dynamic = p.activity * p.load_f * p.frequency * p.supply_v**2
    static = p.i_static * p.supply_v
    return dynamic + static
