"""Discrete steady-state switch-level solver over {GND, HALF, VDD}.

Node voltages are resolved by fixed-point iteration: each round, device
conduction is recomputed from the current gate levels, then every net takes
the level implied by its conducting paths to the rails and the input nets.
A net with paths to both rails settles at the half level and is recorded as
a voltage-division event; a net with no path floats (holds charge during
transition simulation).

The core is batched and works per channel-connected component (CCC): a
maximal group of non-driver nets joined by device channels, where the rails
and the inputs are the drivers (Bryant, IEEE Trans. Computers 1984).  A
CCC's drive masks depend only on its key nets, the gate nets and driver
nets its devices touch; held charge enters after the closure.  So both
solvers close CCCs in one place, a key -> row memo (:class:`_Rows`).

Most netlists, every generated one among them, have CCC ranks: the graph
with an edge from the CCC of each device's gate net to the CCC of its
channel has no cycle.  Their sweeps are solved rank by rank, keyed from the
final levels of the ranks below (the rank-ordered compiled evaluation of
COSMOS, Bryant et al., DAC 1987), a memo per rank.  Jacobi rounds solve the
rest: netlists with feedback, solves seeded by an earlier state
(``solve_state(prev=...)``, ``simulate_pattern``, whose memo lasts all its
steps) and callers that count settling rounds.  Each round looks every
moving state's rows up in a memo of the whole netlist; states that reach a
fixed point or a period-2 cycle leave early.  On a netlist with ranks both
give the same levels and masks, bit for bit.

A compile lays the kernel out once, in rank order: CCCs, local columns,
devices, key digits, closure scatter and non-driver nets all run rank by
rank, so each rank's group is a set of slices of shared arrays.  The
closure packs 21 rows into each uint64 word once it closes a few rows.

Every exhaustive view of a netlist (truth table, decoded truth, truth
signature, division counts, a net's image, full-swing lint) reads one
:class:`Sweep` over the input space, the product of the declared input
domains (narrowed, for a sweep under an assumption).  A sweep stays
factored, with no (states, nets) mask array: each CCC's rows with their
drive masks, a row index by CCC and state, and level columns, of every net
after Jacobi rounds, else only of the nets a later rank reads.  Outputs
gather their columns, rail reach and division counts per-row flags; an
image is the union of rows, and the swing lint relaxes each row once.

There is no compile cache: a :class:`Sweep` owns its
:class:`CompiledNetlist`, and ``solve_state`` and ``simulate_pattern``
build their own, so nothing keeps a netlist alive after its caller lets go.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OscillationError, UnresolvableError
from .netlist import DEVICE_CLASSES, Netlist, Polarity, RAILS, domain_encoding
from .trits import Encoding, Level, decode, level_volts

# Internal level codes; X never survives a successful solve.
CODE_G, CODE_H, CODE_V, CODE_X, CODE_Z = range(5)

_LEVEL_OF_CODE = (Level.GND, Level.HALF, Level.VDD, Level.X, Level.Z)
_CODE_OF_LEVEL = {lv: i for i, lv in enumerate(_LEVEL_OF_CODE)}

# Drive-mask bits: which strongly driven levels reach a net.
_BIT_G, _BIT_H, _BIT_V = 1, 2, 4

# Resolved level for each drive-mask value 0..7; any mixed mask sits at HALF.
_MASK_TO_CODE = np.array(
    [CODE_Z, CODE_G, CODE_H, CODE_H, CODE_V, CODE_H, CODE_H, CODE_H], dtype=np.int8
)

# Drive mask of a driver net for each level code.
_BIT_OF_CODE = np.array([_BIT_G, _BIT_H, _BIT_V, 0, 0], dtype=np.uint8)

# States solved together; bounds the working arrays of a large sweep.
_CHUNK = 2048

# From this many rows on, the closure packs 21 rows into each uint64 word.
_PACK_ROWS = 4
_LANE_SHIFT = np.arange(21, dtype=np.uint64) * 3  # bit offset of each packed row


def conduction(polarity: Polarity, vt, gate: Level, vdd: float = 0.9) -> bool:
    """Whether a device conducts for the given gate level.

    N devices compare the gate voltage against the threshold referenced to
    GND; P devices compare the gate-to-supply drop.  Unresolved or floating
    gates do not conduct.
    """
    if gate not in (Level.GND, Level.HALF, Level.VDD):
        return False
    gv = level_volts(gate, vdd)
    if polarity is Polarity.N:
        return gv >= vt.vt_volts
    return (vdd - gv) >= vt.vt_volts


@cache
def _conduction_table(vdd: float) -> np.ndarray:
    """:func:`conduction` of each device class (rows) at each level code."""
    return np.array([[conduction(*k, lv, vdd) for lv in _LEVEL_OF_CODE] for k in DEVICE_CLASSES])


@dataclass
class SolveResult:
    """Settled node levels plus the events observed on the way there."""

    levels: dict[str, Level]
    division_events: frozenset[str]
    floating: frozenset[str]
    settle_rounds: int


class SwingWarning(NamedTuple):
    """A net that reaches a rail only through the wrong device polarity."""

    net: str
    polarity: Polarity
    headroom: float


class _Step(NamedTuple):
    """A closure's scatter: channel end e runs device ``dev[e]`` from column
    ``src[e]`` into its run's target column ``tgt``; the ends are sorted by
    target, and runs start at ``starts``."""

    dev: np.ndarray
    src: np.ndarray
    starts: np.ndarray
    tgt: np.ndarray

    def split(self):
        """The same ends as two steps: the first end into each target, then
        the rest.  A reduceat pays for each end past the first of its run,
        so on the wide float rows of the swing lint two steps of short runs
        relax faster than one of long runs."""
        rest = np.ones(self.dev.size, dtype=bool)
        rest[self.starts] = False
        rest = np.flatnonzero(rest)
        tgt = np.repeat(self.tgt, np.diff(self.starts, append=self.dev.size))[rest]
        starts = np.flatnonzero(np.diff(tgt, prepend=-1))
        first = _Step(self.dev[self.starts], self.src[self.starts], np.arange(self.tgt.size), self.tgt)
        return first, _Step(self.dev[rest], self.src[rest], starts, tgt[starts])


class _Group(NamedTuple):
    """CCCs solved side by side on their local columns (see ``_partition``).

    Arrays named ``*_src`` pick the nets the group reads, as columns of a
    level array: every net for the Jacobi rounds, the nets ``kept`` for a
    ranked sweep.  Net ``out_net`` reads local column ``out_col`` in its
    CCC ``out_ccc``.
    """

    n_ccc: int
    n_cols: int
    drv_cols: np.ndarray  # local columns holding a copy of a driver net
    drv_ccc: np.ndarray
    drv_src: np.ndarray
    dev: np.ndarray  # netlist index of each device
    lut: np.ndarray  # (device, gate code) -> conducts
    dev_ccc: np.ndarray
    dev_src: np.ndarray  # gate nets
    scatter: _Step  # both ends of every channel
    key_src: np.ndarray  # row-key digits, grouped by CCC
    key_weight: np.ndarray
    key_ccc: np.ndarray  # the CCCs with key digits, and where their digits start
    key_first: np.ndarray
    key_offset: np.ndarray  # keeps the keys of different CCCs apart
    unkeyed: np.ndarray  # CCCs too wide to key: one row per state
    out_net: np.ndarray
    out_ccc: np.ndarray
    out_col: np.ndarray
    put_dst: np.ndarray  # the kept out nets: kept column, CCC, local column
    put_ccc: np.ndarray
    put_col: np.ndarray

    def relax(self, x, w, join, meet, steps):
        """Fixed point of ``x`` (local column, row) along the channels: each
        of the ``steps`` in turn joins every non-driver column with
        ``meet(x[source], w)`` over the devices into it, ``w`` being
        (device, row)."""
        steps = [(s.src, w[s.dev], s.starts, s.tgt) for s in steps if s.tgt.size]
        changed = True
        while changed:
            changed = False
            for src, w_src, starts, tgt in steps:
                old = x[tgt]
                new = join(old, join.reduceat(meet(x[src], w_src), starts, axis=0))
                if not (new == old).all():
                    x[tgt] = new
                    changed = True
        return x

    def closure(self, drv_codes, gate_codes):
        """Inner fixed point on the local columns: push driver levels along
        conducting channels.  Returns (local column, row) drive masks.

        From ``_PACK_ROWS`` rows on, the rows are packed 21 to a uint64
        word, 3 mask bits each, so one or and one and move 21 rows; with
        fewer rows the packing costs more than it saves.
        """
        R, C, D = drv_codes.shape[0], self.n_cols, self.lut.shape[0]
        on = self.lut[np.arange(D)[:, None], gate_codes.T]
        if R < _PACK_ROWS:
            masks = np.zeros((C, R), dtype=np.uint8)
            masks[self.drv_cols] = _BIT_OF_CODE[drv_codes.T]
            return self.relax(masks, on, np.bitwise_or, np.multiply, [self.scatter])
        W = -(-R // 21)
        x = np.zeros((C + D, W, 21), dtype=np.uint64)
        rows = x.reshape(C + D, W * 21)
        rows[self.drv_cols, :R] = _BIT_OF_CODE[drv_codes.T]
        rows[C:, :R] = on * 7
        x <<= _LANE_SHIFT  # in place: one uint64 array at a time
        x, w = np.split(x.sum(axis=2, dtype=np.uint64), [C])
        x = self.relax(x, w, np.bitwise_or, np.bitwise_and, [self.scatter])
        x = x[:, :, None] >> _LANE_SHIFT
        x &= 7
        return x.reshape(C, W * 21)[:, :R].astype(np.uint8)


class _Rows:
    """The rows of a group's CCCs met in a solve of ``S`` states, and the
    (CCCs, states) ``index`` of each state's latest rows, uint8 while it fits.

    Row r of CCC c is column r of c's local columns in ``masks`` (drive
    masks) and of c's devices in ``gates`` (gate codes).  A batch of new
    rows takes new columns, slot j for the j-th new row of each CCC; a CCC
    with fewer fills its slot with a row of a state of the batch.  The memo
    (sorted ``keys``, ``key_row``) maps every key met so far to its row, so
    a key is closed once.  A CCC too wide to key takes a fresh key, and so
    a new row, at every find.
    """

    def __init__(self, g: _Group, S: int):
        self.g = g
        self.index = np.zeros((g.n_ccc, S), dtype=np.uint8)
        self.masks = np.zeros((g.n_cols, 0), dtype=np.uint8)
        self.gates = np.zeros((g.dev.size, 0), dtype=np.int8)
        # a sentinel above every key ends the memo: lookups land on an entry
        self.keys = np.array([np.iinfo(np.int64).max])
        self.key_row = np.zeros(1, dtype=np.intp)

    def find(self, src, states):
        """Index and return the row of each state in every CCC, (CCCs,
        states), for the ``states`` (a slice or index array) whose (nets,
        states) levels ``src`` holds; new keys get new rows."""
        g = self.g
        A = src.shape[1]
        # a CCC's key: the sum of its digits, offset apart from other CCCs'
        keys = np.repeat(g.key_offset[:, None], A, axis=1)
        digits = src[g.key_src] * g.key_weight[:, None]
        keys[g.key_ccc] += np.add.reduceat(digits, g.key_first, axis=0)
        if g.unkeyed.size:  # counted from the rows so far: each find adds A or more
            keys[g.unkeyed] += self.masks.shape[1] + np.arange(A)
        flat = keys.ravel()
        at = np.searchsorted(self.keys, flat)
        rows, miss = self.key_row[at], np.flatnonzero(self.keys[at] != flat)
        if miss.size:
            # the sorted new keys ascend in CCC with the key offsets
            order = miss[np.argsort(flat[miss], kind="stable")]
            key = flat[order]
            lead = np.concatenate(([True], key[1:] != key[:-1]))
            new, (ccc, state) = key[lead], np.divmod(order[lead], A)
            j = np.arange(new.size) - np.searchsorted(ccc, ccc)
            rep = np.zeros((j.max() + 1, g.n_ccc), dtype=np.intp)
            rep[j, ccc] = state
            gates = src[g.dev_src, rep[:, g.dev_ccc]]
            masks = g.closure(src[g.drv_src, rep[:, g.drv_ccc]], gates)
            j += self.masks.shape[1]
            rows[order] = j[np.cumsum(lead) - 1]
            keys = np.concatenate([self.keys, new])
            order = keys.argsort(kind="stable")
            self.keys, self.key_row = keys[order], np.concatenate([self.key_row, j])[order]
            self.masks = np.concatenate([self.masks, masks], axis=1)
            self.gates = np.concatenate([self.gates, gates.T], axis=1)
            if (R := self.masks.shape[1]) > 256:
                wide = np.promote_types(self.index.dtype, np.min_scalar_type(R - 1))
                self.index = self.index.astype(wide, copy=False)
        rows = self.index[:, states] = rows.reshape(g.n_ccc, A)
        return rows


class CompiledNetlist:
    """Index-based view of a netlist, reused across many solves."""

    def __init__(self, n: Netlist):
        self.netlist = n
        self.nets = n.nets()
        self.index = {name: i for i, name in enumerate(self.nets)}
        self.n_nets = len(self.nets)

        self.input_idx = np.array([self.index[x] for x in n.input_names], dtype=np.intp)
        self.output_idx = np.array([self.index[x] for x in n.output_names], dtype=np.intp)
        self.is_driver = np.zeros(self.n_nets, dtype=bool)
        self.is_driver[[self.index[rail] for rail in RAILS] + self.input_idx.tolist()] = True
        self.driver_idx = np.flatnonzero(self.is_driver)
        self.nondriver_idx = np.flatnonzero(~self.is_driver)
        self.gnd_idx = self.index["GND"]
        self.vdd_idx = self.index["VDD"]

        devs = n.devices
        self.n_devices = len(devs)
        self.dev_gate = np.array([self.index[d.gate] for d in devs], dtype=np.intp)
        self.dev_a = np.array([self.index[d.source] for d in devs], dtype=np.intp)
        self.dev_b = np.array([self.index[d.drain] for d in devs], dtype=np.intp)
        # conduction by gate level code, one row per device class that occurs
        classes = [DEVICE_CLASSES.index((d.polarity, d.vt)) for d in devs]
        self.dev_class = np.array(classes, dtype=np.intp)
        self.dev_is_n = self.dev_class < len(DEVICE_CLASSES) // 2
        self.dev_lut = np.zeros((max(self.n_devices, 1), 5), dtype=bool)
        self.dev_lut[: self.n_devices] = _conduction_table(n.vdd)[self.dev_class]
        self._partition()

    def _partition(self):
        """Split the non-driver nets into CCCs, rank them and lay them out.

        ``net_ccc`` labels every non-driver net with its CCC (drivers get -1).
        Each CCC with devices gets local columns, its nets and a copy of each
        driver its channels touch, and a row key: the codes of its gate nets
        and driver terminals (rails aside) in radix 5.

        ``ccc_rank`` is each kernel CCC's rank: the longest path to it along
        the edges that run from the CCC of a device's gate net to the CCC of
        the device's channel.  Gates on drivers, or on nets that no channel
        touches (they read Z), add no edge.  It is None when the graph has a
        cycle, a CCC gating itself included.

        The layout is one set of arrays in rank order: CCCs, local columns,
        devices, key digits, closure scatter and non-driver nets.  ``_all``
        reads it whole; each group of ``_ranks`` is one rank's slices of it,
        reading the ``kept`` nets (see ``_rank_groups``).
        """
        N = self.n_nets
        nd = ~self.is_driver
        nd_idx = self.nondriver_idx
        a, b = self.dev_a, self.dev_b

        # min-label propagation with pointer jumping over channels between
        # non-driver nets; each net ends labelled by one net of its CCC
        label = np.arange(N)
        both = nd[a] & nd[b]
        ea, eb = np.concatenate([a[both], b[both]]), np.concatenate([b[both], a[both]])
        while True:
            new = label.copy()
            np.minimum.at(new, ea, label[eb])
            new = new[new]
            if (new == label).all():
                break
            label = new
        self.net_ccc = np.full(N, -1, dtype=np.intp)
        self.net_ccc[nd] = np.unique(label[nd], return_inverse=True)[1]

        # the kernel (``ker``): devices with a non-driver end; untouched nets join CCC 0
        live = np.flatnonzero(nd[a] | nd[b])
        la, lb = a[live], b[live]
        anchor = self.net_ccc[np.where(nd[la], la, lb)]
        has = np.bincount(anchor, minlength=nd_idx.size + 1) > 0
        kid = np.cumsum(has) - 1
        C = max(int(kid[-1]) + 1, 1)
        ker = np.full(N, -1, dtype=np.intp)
        ker[nd_idx] = np.where(has, kid, -1)[self.net_ccc[nd_idx]]
        dev_k, gate = kid[anchor], self.dev_gate[live]

        # a CCC takes the next rank once every CCC gating it has one; cycles get none
        src = ker[gate]
        src, dst = src[src >= 0], dev_k[src >= 0]
        rank = np.full(C, -1, dtype=np.intp)
        waiting = np.bincount(dst, minlength=C)
        while (front := (waiting == 0) & (rank < 0)).any():
            rank[front] = rank.max() + 1
            waiting -= np.bincount(dst[front[src]], minlength=C)
        rank *= (ranked := rank.min() >= 0)  # without ranks, one run of every CCC

        # CCCs numbered by rank; devices and non-driver nets by rank, then netlist
        order = np.argsort(rank, kind="stable")
        rank, renum = rank[order], np.argsort(order)
        self.ccc_rank = rank if ranked else None
        dev_k = renum[dev_k]
        order = np.argsort(rank[dev_k], kind="stable")
        live, dev_k, gate, la, lb = live[order], dev_k[order], gate[order], la[order], lb[order]
        net_k = renum[np.maximum(ker[nd_idx], 0)]
        order = np.argsort(rank[net_k], kind="stable")
        out_net, out_k = nd_idx[order], net_k[order]
        L = live.size
        self.kept = np.unique(np.concatenate([self.driver_idx, self.output_idx, gate]))
        kcol = self._kept_col = np.full(N, -1, dtype=np.intp)
        kcol[self.kept] = np.arange(self.kept.size)

        # local columns: one per (CCC, net) pair, in CCC order
        ends = np.concatenate([dev_k * N + la, dev_k * N + lb, out_k * N + out_net])
        cols, inv = np.unique(ends, return_inverse=True)
        col_ccc, col_net = np.divmod(cols, N)
        col_drv = self.is_driver[col_net]
        drv = np.flatnonzero(col_drv)

        # row keys: one radix-5 digit per non-rail key net of each CCC
        digits = np.sort(np.concatenate([dev_k * N + gate, cols[drv]]))
        key_ccc, key_net = np.divmod(digits, N)
        keep = (key_net != self.gnd_idx) & (key_net != self.vdd_idx)
        keep[1:] &= digits[1:] != digits[:-1]
        key_ccc, key_net = key_ccc[keep], key_net[keep]
        bounds = np.searchsorted(key_ccc, np.arange(C + 1))
        width = bounds[1:] - bounds[:-1]
        place = np.arange(key_ccc.size) - bounds[key_ccc]
        # a CCC too wide to pack is keyed by state instead (no sharing)
        cap = (1 << 62) // C
        span = 5 ** np.minimum(width, 26)  # exact in int64, as 5 ** 27 > 2 ** 62
        keyed = (width <= 26) & (span <= cap)
        key_weight = np.where(keyed[key_ccc], 5 ** np.minimum(place, 26), 0)
        span = np.where(keyed, span, cap)
        key_offset = np.cumsum(span) - span
        firsts = np.flatnonzero(width)  # the CCCs with key digits
        unkeyed = np.flatnonzero(~keyed)

        # the closure's scatter: both ends of each channel into a non-driver
        # column, by target column (so by rank)
        tgt = inv[: 2 * L]
        into = np.flatnonzero(~col_drv[tgt])
        into = into[np.argsort(tgt[into], kind="stable")]
        other, tgt = inv[(into + L) % max(2 * L, 1)], tgt[into]
        starts = np.flatnonzero(np.diff(tgt, prepend=-1))

        out_col = inv[2 * L :]
        put = np.flatnonzero(kcol[out_net] >= 0)
        self._all = _Group(
            n_ccc=C, n_cols=cols.size,
            drv_cols=drv, drv_ccc=col_ccc[drv], drv_src=col_net[drv],
            dev=live, lut=self.dev_lut[live], dev_ccc=dev_k, dev_src=gate,
            scatter=_Step(into % max(L, 1), other, starts, tgt[starts]),
            key_src=key_net, key_weight=key_weight, key_ccc=firsts, key_first=bounds[firsts],
            key_offset=key_offset, unkeyed=unkeyed,
            out_net=out_net, out_ccc=out_k, out_col=out_col,
            put_dst=kcol[out_net[put]], put_ccc=out_k[put], put_col=out_col[put],
        )
        if ranked:
            self._rank_groups(rank, col_ccc, key_ccc)

    def _rank_groups(self, rank, col_ccc, key_ccc):
        """``_ranks``, one ``_Group`` per rank: the rank's run of every array
        of ``_all``.

        ``rank``, ``col_ccc`` and ``key_ccc`` give the rank of each kernel
        CCC and the CCC of each local column and key digit.  A group numbers
        its CCCs, local columns, devices, channel ends and key digits from
        the first of its rank's run, and its ``*_src`` arrays read the
        ``kept`` nets.
        """
        g, kcol = self._all, self._kept_col
        ranks = np.arange(rank[-1] + 2)

        def starts(ccc):
            """Where each rank's run of the items of CCCs ``ccc`` starts, and the end."""
            return np.searchsorted(rank[ccc], ranks)

        def runs(at):
            at = at.tolist()
            return [slice(i, j) for i, j in zip(at, at[1:])]

        # the first CCC, local column, device, channel end and key digit of
        # each rank; an item refers to items of its own CCC, so of its own rank
        s, end_ccc = g.scatter, g.dev_ccc[g.scatter.dev]  # an end's CCC is its device's
        ccc0, col0, dev0 = starts(np.arange(g.n_ccc)), starts(col_ccc), starts(g.dev_ccc)
        end0, key0 = starts(end_ccc), starts(key_ccc)
        r = rank[end_ccc]
        run_rank = r[s.starts]
        sc = _Step(s.dev - dev0[r], s.src - col0[r], s.starts - end0[run_rank], s.tgt - col0[run_rank])
        r = rank[g.drv_ccc]
        drv_cols, drv_ccc, drv_src = g.drv_cols - col0[r], g.drv_ccc - ccc0[r], kcol[g.drv_src]
        dev_ccc, dev_src = g.dev_ccc - ccc0[rank[g.dev_ccc]], kcol[g.dev_src]
        key_src, r = kcol[g.key_src], rank[g.key_ccc]
        key_ccc_l, key_first = g.key_ccc - ccc0[r], g.key_first - key0[r]
        unkeyed = g.unkeyed - ccc0[rank[g.unkeyed]]
        r = rank[g.out_ccc]
        out_ccc, out_col = g.out_ccc - ccc0[r], g.out_col - col0[r]
        r = rank[g.put_ccc]
        put_ccc, put_col = g.put_ccc - ccc0[r], g.put_col - col0[r]
        groups = []
        for c, col, dr, d, e, t, k, f, u, o, p in zip(
            runs(ccc0), runs(col0), runs(starts(g.drv_ccc)), runs(dev0), runs(end0),
            runs(np.searchsorted(run_rank, ranks)), runs(key0), runs(starts(g.key_ccc)),
            runs(starts(g.unkeyed)), runs(starts(g.out_ccc)), runs(starts(g.put_ccc)),
        ):
            groups.append(_Group(
                n_ccc=c.stop - c.start, n_cols=col.stop - col.start,
                drv_cols=drv_cols[dr], drv_ccc=drv_ccc[dr], drv_src=drv_src[dr],
                dev=g.dev[d], lut=g.lut[d], dev_ccc=dev_ccc[d], dev_src=dev_src[d],
                scatter=_Step(sc.dev[e], sc.src[e], sc.starts[t], sc.tgt[t]),
                key_src=key_src[k], key_weight=g.key_weight[k],
                key_ccc=key_ccc_l[f], key_first=key_first[f],
                key_offset=g.key_offset[c], unkeyed=unkeyed[u],
                out_net=g.out_net[o], out_ccc=out_ccc[o], out_col=out_col[o],
                put_dst=g.put_dst[p], put_ccc=put_ccc[p], put_col=put_col[p],
            ))
        self._ranks = groups

    # -- batched solves --------------------------------------------------

    def solve_ranked(self, input_codes: np.ndarray):
        """Solve unseeded states rank by rank; needs ``ccc_rank``.

        A CCC reads only the levels of CCCs of lower rank, final by the time
        its rank comes, so each distinct row is closed once and the result is
        the fixed point ``solve_batch`` reaches; every state is stable.
        Returns the level columns of the nets ``kept``, (states, kept), and
        the :class:`_Rows` of each rank.
        """
        S = input_codes.shape[0]
        lv = np.full((self.kept.size, S), CODE_X, dtype=np.int8)
        col = self._kept_col
        lv[col[self.gnd_idx]] = CODE_G
        lv[col[self.vdd_idx]] = CODE_V
        lv[col[self.input_idx]] = input_codes.T
        tables = [_Rows(g, S) for g in self._ranks]
        for lo in range(0, S, _CHUNK):
            block = lv[:, lo : lo + _CHUNK]
            for t in tables:
                g, rows = t.g, t.find(block, slice(lo, lo + _CHUNK))
                codes = _MASK_TO_CODE[t.masks[g.put_col]]  # the kept out nets, in one gather
                block[g.put_dst] = codes[np.arange(len(codes))[:, None], rows[g.put_ccc]]
        return lv.T, tables

    def solve_batch(self, input_codes: np.ndarray, prev: np.ndarray | None = None, rows=None):
        """Solve many input states at once by Jacobi rounds.

        input_codes: (S, n_inputs) level codes.
        prev:        optional (S, n_nets) seed levels for transition solves.
        rows:        optional :class:`_Rows` of ``_all`` for S states, whose
                     memo an earlier solve may have filled; its index ends
                     with each state's rows of its last round.

        Returns (levels, masks, rounds, stable) arrays; ``stable`` is False
        for states that failed to reach a fixed point within the budget of
        4·n_nets rounds, or that fell into a period-2 cycle (those stop
        early, with the levels and masks of their last round).
        """
        g = self._all
        nd = g.out_net  # the non-driver nets
        S = input_codes.shape[0]
        t = _Rows(g, S) if rows is None else rows
        lv = np.full((S, self.n_nets), CODE_X, dtype=np.int8)
        lv[:, self.gnd_idx] = CODE_G
        lv[:, self.vdd_idx] = CODE_V
        lv[:, self.input_idx] = input_codes
        if prev is not None:
            lv[:, nd] = prev[:, nd]
        rounds = np.zeros(S, dtype=np.int64)
        stable = np.zeros(S, dtype=bool)
        for lo in range(0, S, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            hold = None if prev is None else prev[part][:, nd]
            self._solve_chunk(t, lo, lv[part], rounds[part], stable[part], hold)
        masks = np.zeros((S, self.n_nets), dtype=np.uint8)
        masks[:, self.driver_idx] = _BIT_OF_CODE[lv[:, self.driver_idx]]
        masks[:, nd] = t.masks[g.out_col[:, None], t.index[g.out_ccc]].T
        return lv, masks, rounds, stable

    def _solve_chunk(self, t, lo, lv, rounds, stable, hold):
        """Jacobi rounds over the chunk of states from ``lo``, filling the
        outputs in place and the rows ``t``.

        Each round finds each active state's CCC rows from its own levels; a
        net that nothing drives keeps its charge from ``hold``, if given.  A
        state leaves the active set when a round leaves it unchanged (a fixed
        point, which it keeps forever) or, from the third round on, when its
        levels repeat those of two rounds back while differing from the last
        (a period-2 cycle, which the deterministic round map never leaves).
        One round past the budget tells which states still move.
        """
        g = self._all
        nd = g.out_net
        act = np.arange(lv.shape[0])
        cur = lv.copy()
        budget = max(4 * self.n_nets, 8)
        for r in range(budget + 1):
            rows = t.find(cur.T, lo + act)
            table = t.masks[g.out_col[:, None], rows[g.out_ccc]].T
            new = _MASK_TO_CODE[table]
            if hold is not None:
                new = np.where((table == 0) & (hold <= CODE_V), hold, new)
            last = cur[:, nd]
            changed = (new != last).any(axis=1)
            if r == budget:
                lv[act[:, None], nd] = last
                stable[act] = ~changed
                return
            rounds[act] += changed
            done = ~changed
            if r >= 2:
                done |= (new == back).all(axis=1)
            if done.any():
                idx = act[done]
                lv[idx[:, None], nd] = new[done]
                stable[idx] = ~changed[done]
                keep = ~done
                act, cur, new, last = act[keep], cur[keep], new[keep], last[keep]
                if hold is not None:
                    hold = hold[keep]
                if not act.size:
                    return
            back = last
            cur[:, nd] = new

    # -- helpers --------------------------------------------------------

    def conducts(self, device: int, levels) -> list[bool]:
        """Whether the netlist's ``device``-th device conducts at each gate level of ``levels``."""
        return [bool(self.dev_lut[device, _CODE_OF_LEVEL[lv]]) for lv in levels]

    def channel_component(self, start: str):
        """Nets joined to ``start`` by channels, not crossing driver nets,
        and the devices touching them, in netlist order.

        A driver ``start`` yields itself plus every CCC its channels reach.
        """
        i = self.index[start]
        ccc = self.net_ccc[i : i + 1]
        if self.is_driver[i]:
            touch = (self.dev_a == i) | (self.dev_b == i)
            ccc = self.net_ccc[np.r_[self.dev_a[touch], self.dev_b[touch]]]
        inside = np.isin(self.net_ccc, ccc[ccc >= 0])
        inside[i] = True
        nets = {self.nets[j] for j in np.flatnonzero(inside).tolist()}
        devs = self.netlist.devices
        picked = np.flatnonzero(inside[self.dev_a] | inside[self.dev_b]).tolist()
        return nets, [devs[k] for k in picked]

    def codes_for_inputs(self, assignment: dict[str, Level]) -> np.ndarray:
        row = np.empty(len(self.netlist.inputs), dtype=np.int8)
        for i, (name, dom) in enumerate(self.netlist.inputs):
            if name not in assignment:
                raise DomainError(f"input {name!r} not assigned")
            level = assignment[name]
            if level not in dom:
                raise DomainError(f"input {name!r} may not take level {level}")
            row[i] = _CODE_OF_LEVEL[level]
        return row

    def require_driven_outputs(self, lv_row):
        """Raise :class:`UnresolvableError` naming the first output that
        floats in a state solved without a previous one."""
        for name, code in zip(self.netlist.output_names, lv_row[self.output_idx].tolist()):
            if code == CODE_Z:
                raise UnresolvableError(f"output {name!r} floats with no previous state")

    def result_from_state(self, lv_row, mask_row, rounds, from_scratch=True) -> SolveResult:
        if from_scratch:
            self.require_driven_outputs(lv_row)
        both = _BIT_G | _BIT_V
        return SolveResult(
            levels=dict(zip(self.nets, map(_LEVEL_OF_CODE.__getitem__, lv_row.tolist()))),
            division_events=self._names((mask_row & both) == both),
            floating=self._names(~self.is_driver & (mask_row == 0)),
            settle_rounds=int(rounds),
        )

    def _names(self, flags) -> frozenset[str]:
        return frozenset(self.nets[i] for i in np.flatnonzero(flags).tolist())


def _solve_one(cn: CompiledNetlist, codes, prev, rows=None):
    """Solve one state of input ``codes``, ``prev`` and ``rows`` as for
    ``solve_batch``; raise :class:`OscillationError` if it does not settle."""
    lv, masks, rounds, stable = cn.solve_batch(codes[None, :], prev, rows)
    if not stable[0]:
        raise OscillationError(f"no fixed point within {4 * cn.n_nets} rounds")
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
    return cn.result_from_state(lv, masks, rounds, from_scratch=prev is None)


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


def _trit_table(enc: Encoding) -> np.ndarray:
    """Trit of each level code under ``enc``; -1 for levels outside it."""
    table = np.full(len(_LEVEL_OF_CODE), -1, dtype=np.int8)
    for code, level in enumerate(_LEVEL_OF_CODE):
        try:
            table[code] = decode(level, enc)
        except DomainError:
            pass
    return table


_TRIT_OF_CODE = {enc: _trit_table(enc) for enc in Encoding}


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

    def _net_rows(self, i: int):
        """Net ``i``'s drive mask in each row of its CCC, and each state's row."""
        r, k = self._place[:, i].tolist()
        t = self.rows[r]
        return t.masks[t.g.out_col[k]], t.index[t.g.out_ccc[k]]

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
        trits = table[np.arange(len(encs)), codes]
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
        masks = np.empty((len(self.codes), len(nets)), dtype=np.uint8)
        for j, i in enumerate(self.cn.index[name] for name in nets):
            if self.cn.is_driver[i]:
                masks[:, j] = _BIT_OF_CODE[self.levels[:, np.searchsorted(self.kept, i)]]
            else:
                rows, index = self._net_rows(i)
                masks[:, j] = rows[index]
        return (masks & _BIT_G) != 0, (masks & _BIT_V) != 0

    def image(self, net: str) -> frozenset[Level]:
        """The levels ``net`` takes over the swept states, unsettled states
        included with the levels they stopped at: its level column if the
        sweep keeps it, else its CCC's rows (every one some state's)."""
        i = self.cn.index[net]
        if i in self.kept:
            codes = self.levels[:, np.searchsorted(self.kept, i)]
        else:
            codes = _MASK_TO_CODE[self._net_rows(i)[0]]
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
        that some state ended in (a Jacobi memo also holds earlier rounds').
        """
        self._require_stable()
        cn = self.cn
        n = cn.netlist
        vt = np.array([vt.vt_volts for _, vt in DEVICE_CLASSES])[cn.dev_class]
        volts = np.array([0.0, n.vdd / 2, n.vdd, 0.0, 0.0])
        worst = np.full((2, cn.n_nets), np.inf)
        for t in self.rows:
            g, R = t.g, t.masks.shape[1]
            gv, dvt, is_n = volts[t.gates], vt[g.dev, None], cn.dev_is_n[g.dev, None]
            # the wrong polarity is N toward VDD and P toward GND
            to_vdd = np.where(is_n, gv - dvt, np.inf)
            to_gnd = np.where(is_n, np.inf, (n.vdd - gv) - dvt)
            on = g.lut[np.arange(g.dev.size)[:, None], t.gates]
            cost = np.where(np.tile(on, 2), np.concatenate([to_vdd, to_gnd], axis=1), -np.inf)
            lv = _MASK_TO_CODE[t.masks]
            at = np.concatenate([lv == CODE_V, lv == CODE_G], axis=1)
            width = np.full(at.shape, -np.inf)
            width[g.drv_cols] = np.where(at[g.drv_cols], np.inf, -np.inf)
            width = g.relax(width, cost, np.maximum, np.minimum, g.scatter.split())
            head = np.where(at & np.isfinite(width), width, np.inf).reshape(g.n_cols, 2, R)
            ended = np.zeros((g.n_ccc, R), dtype=bool)
            ended[np.arange(g.n_ccc)[:, None], t.index] = True
            head = np.where(ended[g.out_ccc, None], head[g.out_col], np.inf)
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
