"""Catalog of surveyed ternary-adder designs and their reported figures.

Two seed datasets ship with the package: ``survey.csv`` (one row per
published design, with the numbers reported by the original authors) and
``results.csv`` (re-simulated original/simplified pairs under a common
test-bed, plus 4-digit ripple-carry rows).  A third file,
``improvements.csv``, holds the stated improvement percentages so they can
be recomputed from the underlying values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import SchemaError, UnknownFieldError
from .generate import Completeness
from .trits import CARRY_NAMES, Encoding

__all__ = [
    "CascadeKind",
    "DesignRecord",
    "Improvement",
    "aggregate",
    "improvement_percent",
    "load_catalog",
    "load_improvements",
    "load_results",
    "load_survey",
    "pdp_check",
]

HEADER = [
    "key", "year", "style", "technology", "lg_nm", "completeness",
    "carry_encoding", "cascade", "delay_ps", "power_uw", "pdp_fj",
    "transistors",
]

# reported PDP must match delay × power to within this relative tolerance
PDP_RTOL = 0.005


class CascadeKind(Enum):
    DIRECT = "direct"
    TWO_THA = "two-tha"
    BOTH = "both"


_CASCADE_ALIASES = {
    "direct": CascadeKind.DIRECT,
    "twotha": CascadeKind.TWO_THA,
    "two-tha": CascadeKind.TWO_THA,
    "cascaded": CascadeKind.TWO_THA,
    "both": CascadeKind.BOTH,
}

# a carry encoding is spelled by its short name or by its netlist format name
_CARRY_ALIASES = {**CARRY_NAMES, **{e.value: e for e in CARRY_NAMES.values()}}
_CARRY_LABEL = {enc: name for name, enc in CARRY_NAMES.items()}


@dataclass(frozen=True)
class DesignRecord:
    """One catalog row; ``None`` marks a value the source did not report."""

    key: str
    year: int | None
    style: str
    technology: str
    lg_nm: float | None
    completeness: Completeness | None
    carry_encoding: Encoding | None
    cascade: CascadeKind | None
    delay_ps: float | None
    power_uw: float | None
    pdp_fj: float | None
    transistors: int | None


def _number(cell: str, row: int, col: str, kind=float):
    if not cell:
        return None
    try:
        value = kind(cell)
    except ValueError:
        raise SchemaError(f"{col}: not a number: {cell!r}", row=row) from None
    if not math.isfinite(value):
        raise SchemaError(f"{col}: not a finite number: {cell!r}", row=row)
    if value < 0:
        raise SchemaError(f"{col}: negative value {cell}", row=row)
    return value


def load_catalog(text: str) -> list[DesignRecord]:
    """Parse catalog CSV text into validated records.

    Raises SchemaError with the offending 1-based data row number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty catalog: missing header") from None
    if header != HEADER:
        raise SchemaError(f"bad header {header!r}, expected {HEADER!r}")

    records = []
    seen = set()
    for i, cells in enumerate(reader, start=1):
        if not cells or cells == [""]:
            continue
        if len(cells) != len(HEADER):
            raise SchemaError(f"expected {len(HEADER)} cells, got {len(cells)}", row=i)
        row = dict(zip(HEADER, (c.strip() for c in cells)))
        if not row["key"]:
            raise SchemaError("missing key", row=i)
        if row["key"] in seen:
            raise SchemaError(f"duplicate key {row['key']!r}", row=i)
        seen.add(row["key"])

        def choice(col, names):
            """Column ``col``'s cell looked up lower-cased in ``names``; None if empty."""
            if not row[col]:
                return None
            if (value := names.get(row[col].lower())) is None:
                raise SchemaError(f"{col}: {row[col]!r}", row=i)
            return value

        completeness = choice("completeness", {c.value: c for c in Completeness})
        carry = choice("carry_encoding", _CARRY_ALIASES)
        if completeness is Completeness.COMPLETE and carry is Encoding.FULL_VDD_HIGH:
            raise SchemaError(
                "a complete adder has a three-valued carry; it cannot "
                "declare the two-rail carry encoding", row=i,
            )
        cascade = choice("cascade", _CASCADE_ALIASES)

        records.append(DesignRecord(
            key=row["key"],
            year=_number(row["year"], i, "year", int),
            style=row["style"],
            technology=row["technology"],
            lg_nm=_number(row["lg_nm"], i, "lg_nm"),
            completeness=completeness,
            carry_encoding=carry,
            cascade=cascade,
            delay_ps=_number(row["delay_ps"], i, "delay_ps"),
            power_uw=_number(row["power_uw"], i, "power_uw"),
            pdp_fj=_number(row["pdp_fj"], i, "pdp_fj"),
            transistors=_number(row["transistors"], i, "transistors", int),
        ))
    return records


def _seed(name: str) -> list[DesignRecord]:
    text = resources.files("tritforge").joinpath(f"data/{name}").read_text()
    return load_catalog(text)


def load_survey() -> list[DesignRecord]:
    """The shipped survey of published single-digit adder designs."""
    return _seed("survey.csv")


def load_results() -> list[DesignRecord]:
    """The shipped original/simplified re-simulation results."""
    return _seed("results.csv")


_CATEGORICAL = ("year", "style", "technology", "completeness",
                "carry_encoding", "cascade")


def _label(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, Completeness):
        return value.value.capitalize()
    if isinstance(value, Encoding):
        return _CARRY_LABEL[value]
    if isinstance(value, Enum):
        return value.value
    return str(value)


def aggregate(records, field: str) -> dict[str, tuple[int, float]]:
    """Count records per category of `field`, with percentages of the total."""
    if field not in _CATEGORICAL:
        raise UnknownFieldError(
            f"{field!r} is not a categorical record field; pick one of "
            f"{', '.join(_CATEGORICAL)}"
        )
    counts: dict[str, int] = {}
    for rec in records:
        label = _label(getattr(rec, field))
        counts[label] = counts.get(label, 0) + 1
    total = len(records)
    return {
        label: (count, 100.0 * count / total)
        for label, count in sorted(counts.items())
    }


def pdp_check(records) -> list[tuple[str, float, bool]]:
    """Recompute delay × power for each record that has both.

    Returns (key, recomputed PDP in fJ, consistent?) triples.  A record
    without a reported PDP is vacuously consistent; records missing delay
    or power are skipped entirely.
    """
    out = []
    for rec in records:
        if rec.delay_ps is None or rec.power_uw is None:
            continue
        recomputed = rec.delay_ps * rec.power_uw * 1e-3  # ps·µW = 1e-18 J
        if rec.pdp_fj is None:
            ok = True
        else:
            ok = abs(recomputed - rec.pdp_fj) <= PDP_RTOL * rec.pdp_fj
        out.append((rec.key, recomputed, ok))
    return out


def improvement_percent(old: float, new: float) -> float:
    """Relative reduction from `old` to `new`, in percent."""
    if old == 0:
        raise ZeroDivisionError("improvement is undefined for a zero baseline")
    return (old - new) / old * 100.0


@dataclass(frozen=True)
class Improvement:
    table: int
    metric: str
    old_value: float
    new_value: float
    stated_percent: float

    @property
    def recomputed_percent(self) -> float:
        return improvement_percent(self.old_value, self.new_value)


def load_improvements() -> list[Improvement]:
    """The shipped stated-improvement rows (metric, before/after, percent)."""
    text = resources.files("tritforge").joinpath("data/improvements.csv").read_text()
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for i, row in enumerate(reader, start=1):
        try:
            rows.append(Improvement(
                table=int(row["table"]),
                metric=row["metric"],
                old_value=float(row["old_value"]),
                new_value=float(row["new_value"]),
                stated_percent=float(row["stated_percent"]),
            ))
        except (KeyError, TypeError, ValueError):
            raise SchemaError("malformed improvement row", row=i) from None
    return rows
