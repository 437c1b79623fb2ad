"""Seeded solves: ``solve_state`` resolves one input assignment, from an
earlier fixed point if given, and ``simulate_pattern`` steps through input
vectors, each solve seeded with the last.  Both run :func:`_step`, one state
in the Jacobi rounds of :meth:`CompiledNetlist.solve_batch`, which count
settling rounds and let floating nets hold their charge.  Each call compiles
its own netlist, so nothing outlives the caller's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, OscillationError, UnknownNetError, UnresolvableError
from .kernel import (
    CODE_V, CODE_Z, _BIT_G, _BIT_V, _CODE_OF_LEVEL, _LEVEL_OF_CODE, CompiledNetlist, _Rows,
)
from .netlist import Netlist
from .trits import Level


@dataclass
class SolveResult:
    """Settled node levels plus the events observed on the way there."""

    levels: dict[str, Level]
    division_events: frozenset[str]
    floating: frozenset[str]
    settle_rounds: int


@dataclass
class MetricsReport:
    """Discrete proxies standing in for analog delay and power figures."""

    delay_rounds: int
    static_div_mean: float
    activity: float
    device_total: int
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _step(cn: CompiledNetlist, inputs: dict[str, Level], prev=None, memo=None):
    """Levels, drive masks and settling rounds of the state ``inputs``, from
    the (1, nets) seed ``prev`` and the :class:`_Rows` ``memo``, if given.
    Raises :class:`DomainError` for an input unassigned or off its domain,
    then for a name not an input (:class:`UnknownNetError` if no net has it);
    :class:`OscillationError` if the state does not settle; and, unseeded,
    :class:`UnresolvableError` if an output floats."""
    n = cn.netlist
    codes = np.empty((1, len(n.inputs)), dtype=np.int8)
    for i, (name, dom) in enumerate(n.inputs):
        if name not in inputs:
            raise DomainError(f"input {name!r} not assigned")
        if (level := inputs[name]) not in dom:
            raise DomainError(f"input {name!r} may not take level {level}")
        codes[0, i] = _CODE_OF_LEVEL[level]
    if len(inputs) > codes.shape[1]:
        name = min(inputs.keys() - set(n.input_names))
        if name not in cn.index:
            raise UnknownNetError(f"no net named {name!r}")
        raise DomainError(f"{name!r} is not a declared input")
    lv, masks, rounds, stable = cn.solve_batch(codes, prev, memo)
    if not stable[0]:
        raise OscillationError(f"no fixed point within {cn.round_budget} rounds")
    if prev is None:
        for name, code in zip(n.output_names, lv[0, cn.output_idx].tolist()):
            if code == CODE_Z:
                raise UnresolvableError(f"output {name!r} floats with no previous state")
    return lv[0], masks[0], rounds[0]


def _result(cn: CompiledNetlist, lv, masks, rounds) -> SolveResult:
    """The :class:`SolveResult` of one state's levels, masks and rounds."""
    both, nets = _BIT_G | _BIT_V, np.array(cn.nets, dtype=object)
    return SolveResult(
        levels=dict(zip(cn.nets, map(_LEVEL_OF_CODE.__getitem__, lv.tolist()))),
        division_events=frozenset(nets[(masks & both) == both]),
        floating=frozenset(nets[~cn.is_driver & (masks == 0)]),
        settle_rounds=int(rounds),
    )


def solve_state(
    n: Netlist, inputs: dict[str, Level], prev: SolveResult | None = None
) -> SolveResult:
    """Resolve all node levels for one input assignment.

    ``prev`` seeds the iteration with an earlier fixed point; floating nets
    then hold their previous charge instead of reading as errors.
    """
    cn = CompiledNetlist(n)
    seed = None if prev is None else np.array(
        [[_CODE_OF_LEVEL[prev.levels.get(x, Level.Z)] for x in cn.nets]], dtype=np.int8)
    return _result(cn, *_step(cn, inputs, seed))


def simulate_pattern(n: Netlist, rows: list[tuple[Level, ...]]):
    """Run an ordered list of input vectors, seeding each solve with the last.

    Returns (trace, report).  The trace is one dict of net levels per step;
    the report carries the delay proxy (max settling rounds over the
    transitions), the static proxy (mean division-event count over the
    settled states) and the voltage-weighted switching activity.
    """
    if not rows:
        raise DomainError("pattern must contain at least one vector")
    cn = CompiledNetlist(n)
    # one memo for all steps, unless a CCC too wide to key takes new rows at every find
    memo = None if cn._all.unkeyed.size else _Rows(cn._all, 1)
    steps = len(rows)
    levels = np.empty((steps, cn.n_nets), dtype=np.int8)
    masks = np.empty((steps, cn.n_nets), dtype=np.uint8)
    rounds = np.empty(steps, dtype=np.int64)
    for step, row in enumerate(rows):
        if len(row) > len(n.input_names):  # a short row names its missing input below
            raise DomainError(f"step {step}: {len(row)} values for {len(n.input_names)} inputs")
        prev = levels[step - 1 : step] if step else None
        levels[step], masks[step], rounds[step] = _step(cn, dict(zip(n.input_names, row)), prev, memo)
    divisions = ((masks & (_BIT_G | _BIT_V)) == (_BIT_G | _BIT_V)).sum(axis=1)
    # G, H and V are the codes 0, 1 and 2, so the code distance of a net is
    # its swing in units of vdd/2; a floating (Z) side counts for nothing
    before, after = levels[:-1].astype(np.int64), levels[1:].astype(np.int64)
    swing = (before <= CODE_V) & (after <= CODE_V)
    activity = np.where(swing, np.abs(after - before), 0).sum(axis=1)
    report = MetricsReport(
        delay_rounds=int(rounds[1:].max(initial=0)),
        static_div_mean=float(np.mean(divisions)),
        activity=float(np.mean(activity)) if steps > 1 else 0.0,
        device_total=len(n.devices),
    )
    trace = [
        {"step": step, **dict(zip(cn.nets, map(_LEVEL_OF_CODE.__getitem__, row)))}
        for step, row in enumerate(levels.tolist())
    ]
    return trace, report


def trace_csv(n: Netlist, trace) -> str:
    """Render a simulation trace as CSV with one column per net."""
    nets = n.nets()
    rows = (f"{row['step']}," + ",".join(row[net].value for net in nets) for row in trace)
    return "\n".join(["step," + ",".join(nets), *rows]) + "\n"
