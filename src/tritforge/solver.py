"""Switch-level solves, exhaustive sweeps and pattern simulation.

The batched CCC kernel that all of them run on is :mod:`tritforge.kernel`.

Every exhaustive view of a netlist (truth table, decoded truth, truth
signature, division counts, a net's image, full-swing lint) reads one
:class:`Sweep` over the input space, the product of the declared input
domains (narrowed, for a sweep under an assumption).  A sweep stays
factored, with no (states, nets) mask array: each CCC's rows with their
drive masks, a row index by CCC and state, and level columns, of every net
after Jacobi rounds, else only of the nets a later rank reads.  Outputs
gather their columns, rail reach and division counts per-row flags; an
image is the union of the rows some state ended in, and the swing lint
relaxes each such row once, every group's in one pass.

There is no compile cache: a :class:`Sweep` owns its
:class:`CompiledNetlist`, and ``solve_state`` and ``simulate_pattern``
build their own, so nothing keeps a netlist alive after its caller lets go.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OscillationError, UnknownNetError, UnresolvableError
from .kernel import (
    CODE_G, CODE_V, CODE_X, CODE_Z, _BIT_G, _BIT_OF_CODE, _BIT_V, _CODE_OF_LEVEL,
    _LEVEL_OF_CODE, _MASK_TO_CODE, CompiledNetlist, SolveResult, _pick, _Rows,
)
from .netlist import DEVICE_CLASSES, Netlist, Polarity, domain_encoding
from .trits import Encoding, Level, decode


class SwingWarning(NamedTuple):
    """A net that reaches a rail only through the wrong device polarity."""

    net: str
    polarity: Polarity
    headroom: float


def _solve_one(cn: CompiledNetlist, codes, prev, rows=None):
    """Solve one state of input ``codes``, ``prev`` and ``rows`` as for
    ``solve_batch``; raise :class:`OscillationError` if it does not settle."""
    lv, masks, rounds, stable = cn.solve_batch(codes[None, :], prev, rows)
    if not stable[0]:
        raise OscillationError(f"no fixed point within {cn.round_budget} rounds")
    return lv[0], masks[0], rounds[0]


def solve_state(
    n: Netlist, inputs: dict[str, Level], prev: SolveResult | None = None
) -> SolveResult:
    """Resolve all node levels for one input assignment.

    ``prev`` seeds the iteration with an earlier fixed point; floating nets
    then hold their previous charge instead of reading as errors.
    """
    cn = CompiledNetlist(n)
    prev_codes = None
    if prev is not None:
        held = [_CODE_OF_LEVEL[prev.levels.get(x, Level.Z)] for x in cn.nets]
        prev_codes = np.array([held], dtype=np.int8)
    lv, masks, rounds = _solve_one(cn, cn.codes_for_inputs(inputs), prev_codes)
    if prev is None:
        cn.require_driven_outputs(lv)
    return cn.result_from_state(lv, masks, rounds)


def _input_axes(n: Netlist) -> list[np.ndarray]:
    """Each input's level codes, ascending: the axes of the input space."""
    return [
        np.array(sorted(map(_CODE_OF_LEVEL.__getitem__, dom)), dtype=np.int8)
        for _, dom in n.inputs
    ]


def _input_codes(n: Netlist) -> np.ndarray:
    """(points, inputs) level codes of the input space, in the order of
    :func:`input_space`: each earlier input's code repeats over all the
    combinations of the later ones."""
    codes = np.zeros((1, 0), dtype=np.int8)
    for axis in _input_axes(n):
        codes = np.column_stack([np.repeat(codes, axis.size, axis=0), np.tile(axis, len(codes))])
    return codes


def _level_tuples(codes: np.ndarray) -> list[tuple[Level, ...]]:
    """One tuple of Levels per row of a code array."""
    return [tuple(map(_LEVEL_OF_CODE.__getitem__, row)) for row in codes.tolist()]


def input_space(n: Netlist) -> list[tuple[Level, ...]]:
    """All input level combinations, lexicographic in declared input order."""
    return _level_tuples(_input_codes(n))


# Trit of each level code under each encoding; -1 for levels outside it.
_TRIT_OF_CODE = {
    enc: np.array([decode(lv, enc) if lv in enc.levels else -1 for lv in _LEVEL_OF_CODE], np.int8)
    for enc in Encoding
}


class Sweep:
    """One batched solve of a netlist over its input space, and its views.

    Holds the compiled netlist, the input ``codes`` (one row per point,
    lexicographic in declared input order), the ``stable`` flags and the
    factored solve: ``rows``, the :class:`_Rows` of each group, and
    ``levels``, the level columns of the nets ``kept``.  With CCC ranks a
    group is a rank (:meth:`CompiledNetlist.solve_ranked`), every state is
    stable and the nets kept are those a later rank reads.  Any other
    netlist takes the Jacobi rounds of ``solve_batch`` in one group, ``_all``,
    and keeps every net: a state stopped by the round budget keeps its
    levels from before the last recompute.  Views that need every state
    settled raise :class:`OscillationError` naming the first that is not.
    """

    def __init__(self, n: Netlist | CompiledNetlist):
        self.cn = cn = n if isinstance(n, CompiledNetlist) else CompiledNetlist(n)
        self.codes = _input_codes(cn.netlist)
        self.stable = np.ones(len(self.codes), dtype=bool)
        if cn.ccc_rank is None:
            self.kept, self.rows = np.arange(cn.n_nets), [_Rows(cn._all, len(self.codes))]
            self.levels, _, _, self.stable = cn.solve_batch(self.codes, rows=self.rows[0])
        else:
            self.kept = cn.kept
            self.levels, self.rows = cn.solve_ranked(self.codes)

    @cached_property
    def points(self) -> list[tuple[Level, ...]]:
        """The input level tuple of each state."""
        return _level_tuples(self.codes)

    def _require_stable(self):
        if not self.stable.all():
            bad = int(np.flatnonzero(~self.stable)[0])
            raise OscillationError(f"no fixed point at input point {self.points[bad]}")

    @cached_property
    def _place(self) -> np.ndarray:
        """(group in ``rows``, place in its ``out_net``) of each non-driver net."""
        place = np.full((2, self.cn.n_nets), -1, dtype=np.intp)
        for r, t in enumerate(self.rows):
            place[0, t.g.out_net], place[1, t.g.out_net] = r, np.arange(t.g.out_net.size)
        return place

    def _net(self, name: str) -> int:
        """The index of net ``name``; raises :class:`UnknownNetError` if there is none."""
        if (i := self.cn.index.get(name)) is None:
            raise UnknownNetError(f"no net named {name!r}")
        return i

    def _net_rows(self, i: int, redone=None):
        """Net ``i``'s drive mask in each row of its CCC, read from
        ``redone`` (each group's rows) if given, and each state's row."""
        r, k = self._place[:, i].tolist()
        t = self.rows[r]
        return (t.masks if redone is None else redone[r])[t.g.out_col[k]], t.index[t.g.out_ccc[k]]

    def _outputs(self) -> np.ndarray:
        return self.levels[:, np.searchsorted(self.kept, self.cn.output_idx)]

    def _resolved_outputs(self) -> np.ndarray:
        """(states, outputs) level codes; raises :class:`UnresolvableError`
        naming the first output that is X or Z, in point order."""
        self._require_stable()
        out = self._outputs()
        bad = (out == CODE_X) | (out == CODE_Z)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            name = self.cn.netlist.output_names[j]
            raise UnresolvableError(f"output {name!r} unresolved at input {self.points[i]}")
        return out

    def truth_table(self) -> dict[tuple[Level, ...], tuple[Level, ...]]:
        """Input level tuple -> output level tuple; see :func:`truth_table`."""
        return dict(zip(self.points, _level_tuples(self._resolved_outputs())))

    def truth_signature(self) -> dict[tuple[Level, ...], tuple]:
        """Outputs decoded to trits, with per-point failure sentinels, so
        two netlists compare including their error behavior.

        A state without a fixed point reads ``("error", "OscillationError")``,
        a state with an unresolved output ``("error", "UnresolvableError")``,
        and an output level outside its encoding ``("level", code)``.
        """
        tables = [_TRIT_OF_CODE[enc].tolist() for _, enc in self.cn.netlist.outputs]
        sig = {}
        for pt, ok, row in zip(self.points, self.stable.tolist(), self._outputs().tolist()):
            if not ok:
                sig[pt] = ("error", "OscillationError")
            elif CODE_X in row or CODE_Z in row:
                sig[pt] = ("error", "UnresolvableError")
            else:
                sig[pt] = tuple(t[c] if t[c] >= 0 else ("level", c) for c, t in zip(row, tables))
        return sig

    def decoded_truth(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Truth table decoded to trits on both sides; see :func:`decoded_truth`.

        Raises the error of :meth:`truth_table`, or the :class:`DomainError`
        of the first level, in point order and inputs before outputs, that
        its encoding does not hold.
        """
        n = self.cn.netlist
        encs = [domain_encoding(dom) for _, dom in n.inputs] + [enc for _, enc in n.outputs]
        codes = np.column_stack([self.codes, self._resolved_outputs()])
        table = np.array([_TRIT_OF_CODE[enc] for enc in encs]).reshape(len(encs), 5)
        trits = _pick(table, np.arange(len(encs)), codes.T).T
        bad = trits < 0
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            decode(_LEVEL_OF_CODE[codes[i, j]], encs[j])  # raises DomainError
        # the points again, as trit tuples straight from the input axes
        axes = [_TRIT_OF_CODE[enc][axis].tolist() for enc, axis in zip(encs, _input_axes(n))]
        outs = trits[:, len(n.inputs) :].T.tolist()
        return dict(zip(itertools.product(*axes), zip(*outs) if outs else itertools.repeat(())))

    def rail_reach(self, nets) -> tuple[np.ndarray, np.ndarray]:
        """(states, nets) flags: whether GND, and whether VDD, drives each of
        the named nets."""
        self._require_stable()
        return self._reach(nets)

    def _reach_without(self, nets, off) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`rail_reach` of the netlist without the devices of the mask
        ``off``: each group holding one of ``nets`` closes its rows again
        with those devices' gates at ``CODE_Z``, which conducts in no class.

        Exact on a ranked sweep when no net the devices' CCCs read is
        downstream of them, as when they all sit in one CCC: its gates come
        from lower ranks, which the devices do not touch.
        """
        redone = [t.masks for t in self.rows]
        for r in {self._place[0, i] for i in map(self._net, nets) if not self.cn.is_driver[i]}:
            t = self.rows[r]
            gates = np.where(off[t.g.dev, None], CODE_Z, t.gates)
            redone[r] = t.g.closure(_MASK_TO_CODE[t.masks[t.g.drv_cols]].T, gates.T)
        return self._reach(nets, redone)

    def _reach(self, nets, redone=None):
        masks = np.empty((len(self.codes), len(nets)), dtype=np.uint8)
        for j, i in enumerate(map(self._net, nets)):
            if self.cn.is_driver[i]:
                masks[:, j] = _BIT_OF_CODE[self.levels[:, np.searchsorted(self.kept, i)]]
            else:
                rows, index = self._net_rows(i, redone)
                masks[:, j] = rows[index]
        return (masks & _BIT_G) != 0, (masks & _BIT_V) != 0

    def image(self, net: str) -> frozenset[Level]:
        """The levels ``net`` takes over the swept states, unsettled states
        included with the levels they stopped at: its level column if the
        sweep keeps it, else its CCC's rows that some state ended in."""
        i = self._net(net)
        if i in self.kept:
            codes = self.levels[:, np.searchsorted(self.kept, i)]
        else:
            codes = _MASK_TO_CODE[np.take(*self._net_rows(i))]
        return frozenset(_LEVEL_OF_CODE[code] for code in np.unique(codes).tolist())

    def division_counts(self, net: str | None = None) -> list[int]:
        """Division events per state, of the whole netlist or of one net,
        counted per CCC row and added up over each state's rows."""
        if net is not None:
            gnd, vdd = self.rail_reach([net])
            return (gnd & vdd)[:, 0].astype(int).tolist()
        self._require_stable()
        both = _BIT_G | _BIT_V
        total = np.zeros(len(self.codes), dtype=np.int64)
        for t in self.rows:
            g = t.g
            per_row = np.zeros((g.n_ccc, t.masks.shape[1]), dtype=np.int64)
            np.add.at(per_row, g.out_ccc, (t.masks[g.out_col] & both) == both)
            total += per_row[np.arange(g.n_ccc)[:, None], t.index].sum(axis=0)
        return total.tolist()

    def full_swing_lint(self) -> list[SwingWarning]:
        """Degraded rail passes; see :func:`full_swing_lint`.

        The closure's ``relax`` with max and min for or and and, once per
        CCC row and for the VDD and GND targets side by side: a widest-path
        relaxation.  A path's width is the least cost of its devices, the
        gate overdrive of a conducting wrong-polarity device, ``inf`` for a
        right-polarity one, ``-inf`` if off.  Widths start at ``inf`` on the
        driver copies at the target level.  A net at that level with a
        finite width is degraded; its headroom is the least over the rows
        that some state ended in.  Only those rows are relaxed (a Jacobi memo
        also holds earlier rounds' rows, a table rows no state reached), all
        groups' in one relaxation over the layout of ``_all``.
        """
        self._require_stable()
        cn, g = self.cn, self.cn._all
        n = cn.netlist
        parts = []
        for t in self.rows:
            ended = np.zeros((t.g.n_ccc, t.masks.shape[1]), dtype=bool)
            ended[np.arange(t.g.n_ccc)[:, None], t.index] = True
            parts.append((t, np.flatnonzero(ended.any(axis=0)), ended))
        # groups are runs of _all: pad their live rows with rows driving, conducting, ending nowhere
        R = max(live.size for _, live, _ in parts)
        masks = np.zeros((g.n_cols, R), dtype=np.uint8)
        gates = np.full((g.dev.size, R), CODE_Z, dtype=np.int8)
        ended = np.zeros((g.n_ccc, R), dtype=bool)
        c = d = k = 0  # each group's first local column, device and CCC
        for t, live, e in parts:
            masks[c : c + t.g.n_cols, : live.size] = t.masks[:, live]
            gates[d : d + t.g.dev.size, : live.size] = t.gates[:, live]
            ended[k : k + t.g.n_ccc, : live.size] = e[:, live]
            c, d, k = c + t.g.n_cols, d + t.g.dev.size, k + t.g.n_ccc
        vt = np.array([vt.vt_volts for _, vt in DEVICE_CLASSES])[cn.dev_class]
        volts = np.array([0.0, n.vdd / 2, n.vdd, 0.0, 0.0])
        gv, dvt, is_n = volts[gates], vt[g.dev, None], cn.dev_is_n[g.dev, None]
        # the wrong polarity is N toward VDD and P toward GND
        to_vdd = np.where(is_n, gv - dvt, np.inf)
        to_gnd = np.where(is_n, np.inf, (n.vdd - gv) - dvt)
        on = g.lut[np.arange(g.dev.size)[:, None], gates]
        cost = np.where(np.tile(on, 2), np.concatenate([to_vdd, to_gnd], axis=1), -np.inf)
        lv = _MASK_TO_CODE[masks]
        at = np.concatenate([lv == CODE_V, lv == CODE_G], axis=1)
        width = np.full(at.shape, -np.inf)
        width[g.drv_cols] = np.where(at[g.drv_cols], np.inf, -np.inf)
        width = g.relax(width, cost, np.maximum, np.minimum)
        head = np.where(at & np.isfinite(width), width, np.inf).reshape(g.n_cols, 2, R)
        head = np.where(ended[g.out_ccc, None], head[g.out_col], np.inf)
        worst = np.full((2, cn.n_nets), np.inf)
        worst[:, g.out_net] = head.min(axis=2, initial=np.inf).T
        warnings = [
            SwingWarning(cn.nets[i], pol, float(worst[k, i]))
            for k, pol in enumerate((Polarity.N, Polarity.P))
            for i in np.flatnonzero(np.isfinite(worst[k])).tolist()
        ]
        return sorted(warnings, key=lambda w: (w.net, w.polarity.value))


def truth_table(n: Netlist) -> dict[tuple[Level, ...], tuple[Level, ...]]:
    """Exhaustive solve over the input domain product.

    Maps each input level tuple (declared input order) to the output level
    tuple.  A floating output makes the whole sweep fail, with the offending
    input point named.
    """
    return Sweep(n).truth_table()


def decoded_truth(n: Netlist) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Truth table decoded to trits on both sides.

    Inputs decode through their declared domain (binary inputs read VDD as
    logic 1), outputs through their declared encoding.
    """
    return Sweep(n).decoded_truth()


def division_counts(n: Netlist, net: str | None = None) -> list[int]:
    """Division-event count per stable input state (whole netlist or one net)."""
    return Sweep(n).division_counts(net)


def full_swing_lint(n: Netlist) -> list[SwingWarning]:
    """Flag nets that reach a rail only through the wrong device polarity.

    A net at VDD whose every conducting path to VDD passes an N device (or
    dually, GND through P devices) would be degraded in an analog circuit;
    the reported headroom is the best-case gate overdrive along the least
    degraded path, and the least such headroom over all input states.
    """
    return Sweep(n).full_swing_lint()


# -- pattern simulation ------------------------------------------------


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
    memo = _Rows(cn._all, 1)  # a CCC row met at any step is closed once
    steps = len(rows)
    levels = np.empty((steps, cn.n_nets), dtype=np.int8)
    masks = np.empty((steps, cn.n_nets), dtype=np.uint8)
    rounds = np.empty(steps, dtype=np.int64)
    for step, row in enumerate(rows):
        if len(row) > len(n.input_names):  # a short row names its missing input below
            raise DomainError(f"step {step}: {len(row)} values for {len(n.input_names)} inputs")
        codes = cn.codes_for_inputs(dict(zip(n.input_names, row)))
        prev = levels[step - 1 : step] if step else None
        levels[step], masks[step], rounds[step] = _solve_one(cn, codes, prev, memo)
        if not step:
            cn.require_driven_outputs(levels[0])
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
