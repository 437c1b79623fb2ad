"""The channel-connected-component (CCC) kernel of the switch-level solver.

Node voltages over {GND, HALF, VDD} are resolved by fixed-point iteration:
each round, device conduction is recomputed from the current gate levels,
then every net takes the level implied by its conducting paths to the rails
and the input nets.  A net with paths to both rails settles at the half
level and is recorded as a voltage-division event; a net with no path
floats (holds charge during transition simulation).

The core is batched and works per channel-connected component (CCC): a
maximal group of non-driver nets joined by device channels, where the rails
and the inputs are the drivers (Bryant, IEEE Trans. Computers 1984).  A
CCC's drive masks depend only on its key nets, the gate nets and driver
nets its devices touch; held charge enters after the closure.  So both
solvers close CCCs in one place, a key -> row memo (:class:`_Rows`), or
for one-input CCCs a five-row table indexed by the key net's level code.

Most netlists, every generated one among them, have CCC ranks: the graph
with an edge from the CCC of each device's gate net to the CCC of its
channel has no cycle.  Their sweeps are solved rank by rank, keyed from the
final levels of the ranks below (the rank-ordered compiled evaluation of
COSMOS, Bryant et al., DAC 1987), a memo per rank.  Jacobi rounds solve the
rest: netlists with feedback, and the solves seeded by an earlier state
that count settling rounds (:mod:`tritforge.simulate`, where a pattern's
memo may last all its steps).  Each round looks every moving state's rows
up in a memo of the whole netlist; states that reach a fixed point or a
period-2 cycle leave early.  On a netlist with ranks both give the same
levels and masks, bit for bit.

A compile lays the kernel out once, in rank order: CCCs, local columns,
devices, closure scatter and non-driver nets all run rank by rank, so each
rank's group is a set of slices of shared arrays.  A row key is one sum
over a CCC's row of a (CCC, place) digit grid, and rows are read through
flat gathers.  From a few rows on, the closure packs 21 rows to a uint64.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .netlist import DEVICE_CLASSES, Netlist, Polarity, RAILS
from .trits import Level, level_volts

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


def _pick(table, rows, idx):
    """``table[rows[k], idx[k]]`` for each row k of ``idx``, in one flat gather."""
    return table.ravel()[idx + (rows * table.shape[1])[:, None]]


def components(n: int, ea, eb) -> np.ndarray:
    """Each of the nodes ``0..n-1`` labelled by the least node of its
    component under the edges ``ea[k]`` -- ``eb[k]``: min-label propagation
    with pointer jumping."""
    label = np.arange(n)
    ea, eb = np.concatenate([ea, eb]), np.concatenate([eb, ea])
    while True:
        new = label.copy()
        np.minimum.at(new, ea, label[eb])
        new = new[new]
        if (new == label).all():
            return label
        label = new


class _Step(NamedTuple):
    """A closure's scatter: channel end e runs device ``dev[e]`` from column
    ``src[e]`` into its run's target column ``tgt``; the ends are sorted by
    target, and runs start at ``starts``."""

    dev: np.ndarray
    src: np.ndarray
    starts: np.ndarray
    tgt: np.ndarray


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
    key_src: np.ndarray  # (CCC, place) grid of row-key digits, padded with a rail
    key_weight: np.ndarray  # their radix-5 weights; 0 on padding and unkeyed CCCs
    key_offset: np.ndarray  # keeps the keys of different CCCs apart
    unkeyed: np.ndarray  # CCCs too wide to key: one row per state
    out_net: np.ndarray
    out_ccc: np.ndarray
    out_col: np.ndarray
    put_dst: np.ndarray  # the kept out nets: kept column, CCC, local column
    put_ccc: np.ndarray
    put_col: np.ndarray

    def keys(self, src):
        """(CCCs, states) row keys of the (nets, states) levels ``src``."""
        digits = src[self.key_src] * self.key_weight[:, :, None]
        return digits.sum(axis=1) + self.key_offset[:, None]

    def relax(self, x, w, join, meet):
        """Fixed point of ``x`` (local column, row) along the channels: each
        step joins every non-driver column with ``meet(x[source], w)`` over
        the devices into it, ``w`` being (device, row)."""
        s = self.scatter
        w_src = w[s.dev]
        while s.tgt.size:
            old = x[s.tgt]
            new = join(old, join.reduceat(meet(x[s.src], w_src), s.starts, axis=0))
            if (new == old).all():
                break
            x[s.tgt] = new
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
            return self.relax(masks, on, np.bitwise_or, np.multiply)
        W = -(-R // 21)
        x = np.zeros((C + D, W, 21), dtype=np.uint64)
        rows = x.reshape(C + D, W * 21)
        rows[self.drv_cols, :R] = _BIT_OF_CODE[drv_codes.T]
        rows[C:, :R] = on * 7
        x <<= _LANE_SHIFT  # in place: one uint64 array at a time
        x, w = np.split(x.sum(axis=2, dtype=np.uint64), [C])
        x = self.relax(x, w, np.bitwise_or, np.bitwise_and)
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

    A group of CCCs with at most one key net each is a ``table`` instead:
    the first find closes row r of each CCC with its key net at level code
    r, for all five codes, and a state's row is its key net's code (0 for
    a CCC without one), so a table may hold rows that no state reached.
    """

    def __init__(self, g: _Group, S: int):
        self.g = g
        self.index = np.zeros((g.n_ccc, S), dtype=np.uint8)
        self.masks = np.zeros((g.n_cols, 0), dtype=np.uint8)
        self.gates = np.zeros((g.dev.size, 0), dtype=np.int8)
        self.table = g.key_src.shape[1] <= 1 and not g.unkeyed.size
        # a sentinel above every key ends the memo: lookups land on an entry
        self.keys = np.array([np.iinfo(np.int64).max])
        self.key_row = np.zeros(1, dtype=np.intp)

    def find(self, src, states):
        """Index and return the row of each state in every CCC, (CCCs,
        states), for the ``states`` (a slice or index array) whose (nets,
        states) levels ``src`` holds; new keys get new rows."""
        g = self.g
        if self.table:
            if not self.masks.shape[1]:  # off the key net, drivers and gates are rails
                key, r = np.where(g.key_weight > 0, g.key_src, -1), np.arange(5, dtype=np.int8)
                drv, gates = (np.where((key[c] == net[:, None]).any(axis=1), r[:, None], src[net, 0])
                              for net, c in ((g.drv_src, g.drv_ccc), (g.dev_src, g.dev_ccc)))
                self.masks, self.gates = g.closure(drv, gates), gates.T
            if g.key_src.shape[1]:  # the grid's padding reads GND, code 0
                self.index[:, states] = src[g.key_src[:, 0]]
            return self.index[:, states]
        A = src.shape[1]
        keys = g.keys(src)
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
        self.round_budget = 4 * self.n_nets  # Jacobi rounds; the two rails make it >= 8

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

        The layout is one set of arrays in rank order: CCCs (key grid rows
        too), local columns, devices, closure scatter and non-driver nets.
        ``_all`` reads it whole; each group of ``_ranks`` is one rank's
        slices of it, reading the ``kept`` nets (see ``_rank_groups``).
        """
        N = self.n_nets
        nd = ~self.is_driver
        nd_idx = self.nondriver_idx
        a, b = self.dev_a, self.dev_b

        both = nd[a] & nd[b]  # channels between non-driver nets
        label = components(N, a[both], b[both])
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

        # row keys: one radix-5 digit per non-rail key net of each CCC, in a
        # (CCC, place) grid; padding and CCCs too wide to key read GND at weight 0
        digits = np.sort(np.concatenate([dev_k * N + gate, cols[drv]]))
        key_ccc, key_net = np.divmod(digits, N)
        keep = (key_net != self.gnd_idx) & (key_net != self.vdd_idx)
        keep[1:] &= digits[1:] != digits[:-1]
        key_ccc, key_net = key_ccc[keep], key_net[keep]
        width = np.bincount(key_ccc, minlength=C)
        place = np.arange(key_ccc.size) - (np.cumsum(width) - width)[key_ccc]
        # a CCC too wide to pack is keyed by state instead (no sharing)
        cap = (1 << 62) // C
        span = 5 ** np.minimum(width, 26)  # exact in int64, as 5 ** 27 > 2 ** 62
        keyed = (width <= 26) & (span <= cap)
        width, at = np.where(keyed, width, 0), keyed[key_ccc]
        key_src = np.full((C, width.max(initial=0)), self.gnd_idx)
        key_weight = np.zeros(key_src.shape, dtype=np.int64)
        cell = key_ccc[at], place[at]
        key_src[cell], key_weight[cell] = key_net[at], 5 ** place[at]
        span = np.where(keyed, span, cap)
        key_offset = np.cumsum(span) - span
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
            key_src=key_src, key_weight=key_weight, key_offset=key_offset, unkeyed=unkeyed,
            out_net=out_net, out_ccc=out_k, out_col=out_col,
            put_dst=kcol[out_net[put]], put_ccc=out_k[put], put_col=out_col[put],
        )
        if ranked:
            self._rank_groups(rank, col_ccc, width)

    def _rank_groups(self, rank, col_ccc, width):
        """``_ranks``, one ``_Group`` per rank: the rank's run of every array
        of ``_all``.

        ``rank``, ``col_ccc`` and ``width`` give the rank of each kernel CCC,
        the CCC of each local column and each CCC's keyed digits.  A group
        numbers its CCCs, local columns, devices and channel ends from the
        first of its rank's run, its key grid is trimmed to its widest CCC,
        and its ``*_src`` arrays read the ``kept`` nets.
        """
        g, kcol = self._all, self._kept_col
        ranks = np.arange(rank[-1] + 2)

        def starts(ccc):
            """Where each rank's run of the items of CCCs ``ccc`` starts, and the end."""
            return np.searchsorted(rank[ccc], ranks)

        def runs(at):
            at = at.tolist()
            return [slice(i, j) for i, j in zip(at, at[1:])]

        # the first CCC, local column, device and channel end of each rank;
        # an item refers to items of its own CCC, so of its own rank
        s, end_ccc = g.scatter, g.dev_ccc[g.scatter.dev]  # an end's CCC is its device's
        ccc0, col0, dev0 = starts(np.arange(g.n_ccc)), starts(col_ccc), starts(g.dev_ccc)
        end0, r = starts(end_ccc), rank[end_ccc]
        run_rank = r[s.starts]
        sc = _Step(s.dev - dev0[r], s.src - col0[r], s.starts - end0[run_rank], s.tgt - col0[run_rank])
        r = rank[g.drv_ccc]
        drv_cols, drv_ccc, drv_src = g.drv_cols - col0[r], g.drv_ccc - ccc0[r], kcol[g.drv_src]
        dev_ccc, dev_src = g.dev_ccc - ccc0[rank[g.dev_ccc]], kcol[g.dev_src]
        key_src, unkeyed = kcol[g.key_src], g.unkeyed - ccc0[rank[g.unkeyed]]
        r = rank[g.out_ccc]
        out_ccc, out_col = g.out_ccc - ccc0[r], g.out_col - col0[r]
        r = rank[g.put_ccc]
        put_ccc, put_col = g.put_ccc - ccc0[r], g.put_col - col0[r]
        groups = []
        for c, col, dr, d, e, t, u, o, p in zip(
            runs(ccc0), runs(col0), runs(starts(g.drv_ccc)), runs(dev0), runs(end0),
            runs(np.searchsorted(run_rank, ranks)), runs(starts(g.unkeyed)),
            runs(starts(g.out_ccc)), runs(starts(g.put_ccc)),
        ):
            k = slice(None, width[c].max(initial=0))
            groups.append(_Group(
                n_ccc=c.stop - c.start, n_cols=col.stop - col.start,
                drv_cols=drv_cols[dr], drv_ccc=drv_ccc[dr], drv_src=drv_src[dr],
                dev=g.dev[d], lut=g.lut[d], dev_ccc=dev_ccc[d], dev_src=dev_src[d],
                scatter=_Step(sc.dev[e], sc.src[e], sc.starts[t], sc.tgt[t]),
                key_src=key_src[c, k], key_weight=g.key_weight[c, k],
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
        lv[col[self.gnd_idx]], lv[col[self.vdd_idx]] = CODE_G, CODE_V
        lv[col[self.input_idx]] = input_codes.T
        tables = [_Rows(g, S) for g in self._ranks]
        for lo in range(0, S, _CHUNK):
            block = lv[:, lo : lo + _CHUNK]
            for t in tables:
                g, rows = t.g, t.find(block, slice(lo, lo + _CHUNK))
                block[g.put_dst] = _MASK_TO_CODE[_pick(t.masks, g.put_col, rows[g.put_ccc])]
        return lv.T, tables

    def solve_batch(self, input_codes: np.ndarray, prev: np.ndarray | None = None, rows=None):
        """Solve many input states at once by Jacobi rounds.

        input_codes: (S, n_inputs) level codes.
        prev:        optional (S, n_nets) seed levels for transition solves.
        rows:        optional :class:`_Rows` of ``_all`` for S states, whose
                     memo an earlier solve may have filled; its index ends
                     with each state's rows of its last round.

        Returns (levels, masks, rounds, stable) arrays; ``stable`` is False
        for states that failed to reach a fixed point within the
        ``round_budget`` rounds, or that fell into a period-2 cycle (those stop
        early, with the levels and masks of their last round).
        """
        g = self._all
        nd = g.out_net  # the non-driver nets
        S = input_codes.shape[0]
        t = _Rows(g, S) if rows is None else rows
        lv = np.full((S, self.n_nets), CODE_X, dtype=np.int8)
        lv[:, self.gnd_idx], lv[:, self.vdd_idx] = CODE_G, CODE_V
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
        masks[:, nd] = _pick(t.masks, g.out_col, t.index[g.out_ccc]).T
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
        for r in range(self.round_budget + 1):
            rows = t.find(cur.T, lo + act)
            table = _pick(t.masks, g.out_col, rows[g.out_ccc]).T
            new = _MASK_TO_CODE[table]
            if hold is not None:
                new = np.where((table == 0) & (hold <= CODE_V), hold, new)
            last = cur[:, nd]
            changed = (new != last).any(axis=1)
            if r == self.round_budget:
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
