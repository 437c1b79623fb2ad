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
nets its devices touch, so a CCC is closed once per distinct row of their
levels.

Most netlists, every generated one among them, have CCC ranks: the graph
with an edge from the CCC of each device's gate net to the CCC of its
channel has no cycle.  Their sweeps are solved rank by rank, keyed from the
final levels of the ranks below (the rank-ordered compiled evaluation of
COSMOS, Bryant et al., DAC 1987), through a key -> row memo that lasts the
whole sweep, so each chunk of states closes only the rows no earlier chunk
met.  Jacobi rounds solve the rest: netlists with feedback, solves seeded
by an earlier state (``solve_state(prev=...)``, ``simulate_pattern``) and
callers that count settling rounds; states that reach a fixed point or a
period-2 cycle leave early.  On a netlist with ranks both give the same
levels and masks, bit for bit.

Every exhaustive view of a netlist (truth table, decoded truth, truth
signature, division counts, a net's image, full-swing lint) reads one
:class:`Sweep` over the input space, the product of the declared input
domains (narrowed, for a sweep under an assumption).  A ranked sweep stays
factored, with no (states, nets) array: each CCC's rows with their drive
masks, a row index by CCC and state, and level columns only for the
drivers, the outputs and the gate nets, all a later rank reads.  Outputs
gather their columns, rail reach and division counts per-row flags; an
image is the union of rows, and the swing lint relaxes each row once.

There is no compile cache.  Whoever solves builds the
:class:`CompiledNetlist` and holds it: a :class:`Sweep` owns its compile,
``solve_state`` compiles for its one state, and ``simulate_pattern``
compiles once and steps through int8 level arrays, building the Level-dict
trace only when it returns.  Nothing keeps a netlist alive after its
caller lets go.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
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


class _Group(NamedTuple):
    """CCCs solved side by side on their local columns (see ``_partition``).

    Arrays named ``*_src`` pick the nets the group reads, as columns of a
    level array: every net for the Jacobi rounds, the nets ``kept`` for a
    ranked sweep.  Each of the group's non-driver nets ``out_net`` reads
    local column ``out_col`` in its CCC ``out_ccc``.
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
    steps: list  # closure scatter per channel direction
    key_src: np.ndarray  # row-key digits, grouped by CCC
    key_weight: np.ndarray
    key_ccc: np.ndarray  # the CCCs with key digits, and where their digits start
    key_first: np.ndarray
    key_offset: np.ndarray  # keeps the keys of different CCCs apart
    unkeyed: np.ndarray  # CCCs too wide to key: one row per state
    out_net: np.ndarray
    out_ccc: np.ndarray
    out_col: np.ndarray

    def relax(self, x, w, join, meet):
        """Fixed point of ``x`` (local column, row) along the channels: each
        step joins every non-driver column with ``meet(x[source], w)`` over
        the devices into it, ``w`` being (device, row)."""
        steps = [(src, w[order], starts, tgt) for order, src, starts, tgt in self.steps]
        while True:
            before = x.copy()
            for src, w_src, starts, tgt in steps:
                x[tgt] = join(x[tgt], join.reduceat(meet(x[src], w_src), starts, axis=0))
            if np.array_equal(x, before):
                return x

    def closure(self, drv_codes, gate_codes):
        """Inner fixed point on the local columns: push driver levels along
        conducting channels.  Returns (local column, row) drive masks."""
        masks = np.zeros((self.n_cols, drv_codes.shape[0]), dtype=np.uint8)
        masks[self.drv_cols] = _BIT_OF_CODE[drv_codes.T]
        on = self.lut[np.arange(self.lut.shape[0])[:, None], gate_codes.T]
        return self.relax(masks, on, np.bitwise_or, np.multiply)


class _Rows:
    """The rows of a group's CCCs met in a sweep of ``S`` states, and the
    (CCCs, states) row ``index`` of those states, uint8 while it fits.

    Row r of CCC c is column r of c's local columns in ``masks`` (drive
    masks) and of c's devices in ``gates`` (gate codes).  A batch of new
    rows takes new columns, slot j for the j-th new row of each CCC; a CCC
    with fewer fills its slot with a row of a state of the batch, so every
    row occurs in the sweep.  The memo (sorted ``keys``, ``key_row``) maps
    each key met so far to its row, so a key is closed once per sweep.
    """

    def __init__(self, g: _Group, S: int):
        self.g = g
        self.index = np.zeros((g.n_ccc, S), dtype=np.uint8)
        self.masks = np.zeros((g.n_cols, 0), dtype=np.uint8)
        self.gates = np.zeros((g.dev.size, 0), dtype=np.int8)
        # a sentinel above every key ends the memo: lookups land on an entry
        self.keys = np.array([np.iinfo(np.int64).max])
        self.key_row = np.zeros(1, dtype=np.intp)

    def find(self, src, lo):
        """Index and return each state's row in every CCC, (CCCs, states),
        for the states ``lo``, ``lo + 1``, ... of the sweep, whose (nets,
        states) levels ``src`` holds; new keys get new rows."""
        g = self.g
        A = src.shape[1]
        # a CCC's key: the sum of its digits, offset apart from other CCCs'
        keys = np.repeat(g.key_offset[:, None], A, axis=1)
        digits = src[g.key_src] * g.key_weight[:, None]
        keys[g.key_ccc] += np.add.reduceat(digits, g.key_first, axis=0)
        if g.unkeyed.size:
            keys[g.unkeyed] += lo + np.arange(A)
        flat = keys.ravel()
        at = np.searchsorted(self.keys, flat)
        miss = np.flatnonzero(self.keys[at] != flat)
        if miss.size:
            # the sorted new keys ascend in CCC with the key offsets
            new, first = np.unique(flat[miss], return_index=True)
            ccc, state = np.divmod(miss[first], A)
            j = np.arange(new.size) - np.searchsorted(ccc, ccc)
            rep = np.zeros((j.max() + 1, g.n_ccc), dtype=np.intp)
            rep[j, ccc] = state
            gates = src[g.dev_src, rep[:, g.dev_ccc]]
            masks = g.closure(src[g.drv_src, rep[:, g.drv_ccc]], gates)
            keys = np.concatenate([self.keys, new])
            order = keys.argsort(kind="stable")
            self.keys = keys[order]
            self.key_row = np.concatenate([self.key_row, self.masks.shape[1] + j])[order]
            self.masks = np.concatenate([self.masks, masks], axis=1)
            self.gates = np.concatenate([self.gates, gates.T], axis=1)
            wide = np.promote_types(self.index.dtype, np.min_scalar_type(self.masks.shape[1] - 1))
            self.index = self.index.astype(wide, copy=False)
            at = np.searchsorted(self.keys, flat)
        rows = self.index[:, lo : lo + A] = self.key_row[at].reshape(g.n_ccc, A)
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
        table = np.zeros((len(DEVICE_CLASSES), 5), dtype=bool)
        for k in set(classes):
            table[k] = [conduction(*DEVICE_CLASSES[k], lv, n.vdd) for lv in _LEVEL_OF_CODE]
        self.dev_lut = np.zeros((max(self.n_devices, 1), 5), dtype=bool)
        self.dev_lut[: self.n_devices] = table[self.dev_class]
        self._partition()

    def _partition(self):
        """Split the non-driver nets into CCCs, lay them out and rank them.

        ``net_ccc`` labels every non-driver net with its CCC (drivers get -1).
        The kernel numbers the CCCs that have devices and gives each one
        local columns: its own nets plus a private copy of each driver net
        its channels touch, so one closure over the local columns solves
        several CCCs side by side.  A CCC's row key packs the level codes of
        its key nets (the gate nets and driver terminals of its devices,
        rails aside) in mixed radix 5.

        ``ccc_rank`` is each kernel CCC's rank: the longest path to it along
        the edges that run from the CCC of a device's gate net to the CCC of
        the device's channel.  Gates on drivers, or on nets that no channel
        touches (they read Z), add no edge.  It is None when the graph has a
        cycle, a CCC gating itself included.

        ``kept`` lists the nets whose level columns a ranked sweep keeps:
        the drivers, the outputs and the gate nets, all a later rank reads.
        """
        N = self.n_nets
        nd = ~self.is_driver
        nd_idx = self.nondriver_idx
        a, b = self.dev_a, self.dev_b

        # min-label propagation with pointer jumping over channels between
        # non-driver nets; each net ends labelled by one net of its CCC
        label = np.arange(N)
        both = nd[a] & nd[b]
        ea, eb = a[both], b[both]
        while True:
            new = label.copy()
            lo = np.minimum(label[ea], label[eb])
            np.minimum.at(new, ea, lo)
            np.minimum.at(new, eb, lo)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        self.net_ccc = np.full(N, -1, dtype=np.intp)
        self.net_ccc[nd] = np.unique(label[nd], return_inverse=True)[1]

        # devices with a non-driver terminal, numbered by CCC among those;
        # a net that no channel touches joins CCC 0 in a column of its own,
        # which no device drives, so it always reads mask 0
        live = np.flatnonzero(nd[a] | nd[b])
        anchor = np.where(nd[a[live]], a[live], b[live])
        ccc_ids, dev_k = np.unique(self.net_ccc[anchor], return_inverse=True)
        nd_ccc = self.net_ccc[nd_idx]
        touched = np.isin(nd_ccc, ccc_ids)
        net_k = np.where(touched, np.searchsorted(ccc_ids, nd_ccc), 0)
        C = max(ccc_ids.size, 1)
        L = live.size
        gate = self.dev_gate[live]
        lut = self.dev_lut[live]
        self.kept = np.unique(np.r_[self.driver_idx, self.output_idx, gate])
        self._kept_col = np.full(N, -1, dtype=np.intp)
        self._kept_col[self.kept] = np.arange(self.kept.size)

        # local columns: one per (CCC, net) pair, in CCC order
        cols, inv = np.unique(
            np.r_[dev_k * N + a[live], dev_k * N + b[live], net_k * N + nd_idx],
            return_inverse=True,
        )
        col_ccc, col_net = np.divmod(cols, N)
        col_drv = self.is_driver[col_net]
        loc_a, loc_b, out_col = inv[:L], inv[L : 2 * L], inv[2 * L :]

        # row keys: one radix-5 digit per non-rail key net of each CCC
        # (return_index keeps np.unique on its sorting path; the hash path
        # loads numpy.ma, a megabyte of resident memory)
        digits = np.unique(np.r_[dev_k * N + gate, cols[col_drv]], return_index=True)[0]
        key_ccc, key_net = np.divmod(digits, N)
        keep = ~np.isin(key_net, (self.gnd_idx, self.vdd_idx))
        key_ccc, key_net = key_ccc[keep], key_net[keep]
        bounds = np.searchsorted(key_ccc, np.arange(C + 1))
        width = np.diff(bounds)
        place = np.arange(key_ccc.size) - bounds[key_ccc]
        # a CCC too wide to pack is keyed by state instead (no sharing)
        cap = (1 << 62) // C
        keyed = np.array([5 ** int(w) <= cap for w in width], dtype=bool)
        span = [5 ** int(w) if k else cap for w, k in zip(width, keyed)]
        key_weight = np.where(keyed[key_ccc], 5 ** np.minimum(place, 26), 0)
        key_offset = np.cumsum([0] + span[:-1], dtype=np.int64)

        def group(ks, col):
            """The _Group of the kernel CCCs ``ks`` (ascending), reading the
            level columns ``col`` of the nets."""
            member = np.zeros(C, dtype=bool)
            member[ks] = True
            k_local = np.zeros(C, dtype=np.intp)
            k_local[ks] = np.arange(ks.size)
            csel = member[col_ccc]
            local = np.cumsum(csel) - 1
            g_drv = col_drv[csel]
            drv = np.flatnonzero(csel & col_drv)
            dsel = np.flatnonzero(member[dev_k])
            ga, gb = local[loc_a[dsel]], local[loc_b[dsel]]
            # per-direction groupings for duplicate-free scatter of
            # drive-mask contributions (bitwise_or.reduceat over sorted targets)
            steps = []
            for tgt, src in ((ga, gb), (gb, ga)):
                keep = np.flatnonzero(~g_drv[tgt])
                if keep.size:
                    order = keep[np.argsort(tgt[keep], kind="stable")]
                    tgt_sorted = tgt[order]
                    starts = np.flatnonzero(np.r_[True, tgt_sorted[1:] != tgt_sorted[:-1]])
                    steps.append((order, src[order], starts, tgt_sorted[starts]))
            ksel = np.flatnonzero(member[key_ccc])
            first_ccc, first = np.unique(k_local[key_ccc[ksel]], return_index=True)
            osel = np.flatnonzero(member[net_k])
            return _Group(
                n_ccc=ks.size,
                n_cols=g_drv.size,
                drv_cols=np.flatnonzero(g_drv),
                drv_ccc=k_local[col_ccc[drv]],
                drv_src=col[col_net[drv]],
                dev=live[dsel],
                lut=lut[dsel],
                dev_ccc=k_local[dev_k[dsel]],
                dev_src=col[gate[dsel]],
                steps=steps,
                key_src=col[key_net[ksel]],
                key_weight=key_weight[ksel],
                key_ccc=first_ccc,
                key_first=first,
                key_offset=key_offset[ks],
                unkeyed=np.flatnonzero(~keyed[ks]),
                out_net=nd_idx[osel],
                out_ccc=k_local[net_k[osel]],
                out_col=local[out_col[osel]],
            )

        # CCC ranks by relaxation: in a DAG the longest path has at most C-1
        # edges, so C rounds settle it unless there is a cycle
        gate_k = np.full(N, -1, dtype=np.intp)
        gate_k[nd_idx[touched]] = net_k[touched]
        src = gate_k[gate]
        edge = src >= 0
        src, dst = src[edge], dev_k[edge]
        rank = np.zeros(C, dtype=np.intp)
        for _ in range(C):
            new = rank.copy()
            np.maximum.at(new, dst, rank[src] + 1)
            if np.array_equal(new, rank):
                break
            rank = new
        else:
            rank = None
        self.ccc_rank = rank
        self._n_ccc = C
        self._group = group

    @cached_property
    def _all(self) -> _Group:
        """Every CCC, for the Jacobi rounds; reads every net."""
        return self._group(np.arange(self._n_ccc), np.arange(self.n_nets))

    @cached_property
    def _ranks(self) -> list[_Group]:
        """One group per CCC rank, lowest first; reads the kept nets."""
        return [
            self._group(np.flatnonzero(self.ccc_rank == r), self._kept_col)
            for r in range(self.ccc_rank.max() + 1)
        ]

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
                g, rows = t.g, t.find(block, lo)
                dst = self._kept_col[g.out_net]
                for k in np.flatnonzero(dst >= 0).tolist():
                    block[dst[k]] = _MASK_TO_CODE[t.masks[g.out_col[k]]][rows[g.out_ccc[k]]]
        return lv.T, tables

    def solve_batch(self, input_codes: np.ndarray, prev: np.ndarray | None = None):
        """Solve many input states at once by Jacobi rounds.

        input_codes: (S, n_inputs) level codes.
        prev:        optional (S, n_nets) seed levels for transition solves.

        Returns (levels, masks, rounds, stable) arrays; ``stable`` is False
        for states that failed to reach a fixed point within the budget of
        4·n_nets rounds, or that fell into a period-2 cycle (those stop
        early, with the levels and masks of their last round).
        """
        nd = self.nondriver_idx
        S = input_codes.shape[0]
        lv = np.full((S, self.n_nets), CODE_X, dtype=np.int8)
        lv[:, self.gnd_idx] = CODE_G
        lv[:, self.vdd_idx] = CODE_V
        lv[:, self.input_idx] = input_codes
        if prev is not None:
            lv[:, nd] = prev[:, nd]
        masks = np.zeros((S, self.n_nets), dtype=np.uint8)
        masks[:, self.driver_idx] = _BIT_OF_CODE[lv[:, self.driver_idx]]
        rounds = np.zeros(S, dtype=np.int64)
        stable = np.zeros(S, dtype=bool)
        for lo in range(0, S, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            hold = None if prev is None else prev[part][:, nd]
            self._solve_chunk(lv[part], masks[part], rounds[part], stable[part], hold)
        return lv, masks, rounds, stable

    def _solve_chunk(self, lv, masks, rounds, stable, hold):
        """Jacobi rounds over one chunk of states, filling the outputs in place.

        Each round closes every CCC of each active state on that state's own
        levels.  A state leaves the active set when a round leaves it
        unchanged (a fixed point, which it keeps forever) or, from the third
        round on, when its levels repeat those of two rounds back while
        differing from the last (a period-2 cycle, which the deterministic
        round map never leaves).
        """
        nd = self.nondriver_idx
        act = np.arange(lv.shape[0])
        cur = lv.copy()
        for r in range(max(4 * self.n_nets, 8)):
            table, new = self._round(cur, hold)
            last = cur[:, nd]
            changed = (new != last).any(axis=1)
            rounds[act] += changed
            done = ~changed
            if r >= 2:
                done |= (new == back).all(axis=1)
            if done.any():
                idx = act[done]
                lv[idx[:, None], nd] = new[done]
                masks[idx[:, None], nd] = table[done]
                stable[idx] = ~changed[done]
                keep = ~done
                act, cur, new, last = act[keep], cur[keep], new[keep], last[keep]
                if hold is not None:
                    hold = hold[keep]
                if not act.size:
                    return
            back = last
            cur[:, nd] = new
        # one more recompute to identify which states are still moving
        table, new = self._round(cur, hold)
        lv[act[:, None], nd] = cur[:, nd]
        masks[act[:, None], nd] = table
        stable[act] = ~(new != cur[:, nd]).any(axis=1)

    def _round(self, lv, hold):
        """One Jacobi round over the states of full levels ``lv``.

        Returns the states' drive masks and new levels of the non-driver
        nets, both (states, nets).  A net that nothing drives keeps its
        charge from the non-driver levels ``hold``, if given.
        """
        g = self._all
        table = g.closure(lv[:, g.drv_src], lv[:, g.dev_src])[g.out_col].T
        levels = _MASK_TO_CODE[table]
        if hold is not None:
            levels = np.where((table == 0) & (hold <= CODE_V), hold, levels)
        return table, levels

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


def _solve_one(cn: CompiledNetlist, codes, prev):
    """Solve one state of input ``codes``, seeded by the (1, nets) levels
    ``prev`` when given; raise :class:`OscillationError` if it does not settle."""
    lv, masks, rounds, stable = cn.solve_batch(codes[None, :], prev)
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
    lexicographic in declared input order) and the ``stable`` flags.  A
    netlist with CCC ranks is solved rank by rank, every state stable, and
    stays factored (:meth:`CompiledNetlist.solve_ranked`): ``rows`` holds
    each rank's rows and row index, ``levels`` the columns of the nets
    ``kept``.  Any other takes the Jacobi rounds of ``solve_batch`` and
    holds (states, nets) ``levels`` and ``masks``, every net kept.  Views
    that need every state settled raise :class:`OscillationError` naming
    the first that is not.
    """

    def __init__(self, n: Netlist | CompiledNetlist):
        self.cn = n if isinstance(n, CompiledNetlist) else CompiledNetlist(n)
        self.codes = _input_codes(self.cn.netlist)
        self.stable = np.ones(len(self.codes), dtype=bool)
        self.masks = self.rows = None
        if self.cn.ccc_rank is None:
            self.kept = np.arange(self.cn.n_nets)
            self.levels, self.masks, _, self.stable = self.cn.solve_batch(self.codes)
        else:
            self.kept = self.cn.kept
            self.levels, self.rows = self.cn.solve_ranked(self.codes)

    @cached_property
    def points(self) -> list[tuple[Level, ...]]:
        """The input level tuple of each state."""
        return _level_tuples(self.codes)

    def _point(self, i: int) -> tuple[Level, ...]:
        return _level_tuples(self.codes[i : i + 1])[0]

    def _require_stable(self):
        if not self.stable.all():
            bad = int(np.flatnonzero(~self.stable)[0])
            raise OscillationError(f"no fixed point at input point {self._point(bad)}")

    def _row_of(self, i: int):
        """(rows, place in ``out_net``) of non-driver net ``i``."""
        for t in self.rows:
            k = np.flatnonzero(t.g.out_net == i)
            if k.size:
                return t, k[0]

    def _masks_of(self, nets) -> np.ndarray:
        """(states, nets) drive masks of the named nets."""
        idx = [self.cn.index[name] for name in nets]
        if self.rows is None:
            return self.masks[:, idx]
        out = np.empty((len(self.codes), len(idx)), dtype=np.uint8)
        for j, i in enumerate(idx):
            if self.cn.is_driver[i]:
                out[:, j] = _BIT_OF_CODE[self.levels[:, np.searchsorted(self.kept, i)]]
            else:
                t, k = self._row_of(i)
                out[:, j] = t.masks[t.g.out_col[k], t.index[t.g.out_ccc[k]]]
        return out

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
            raise UnresolvableError(f"output {name!r} unresolved at input {self._point(i)}")
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
        masks = self._masks_of(nets)
        return (masks & _BIT_G) != 0, (masks & _BIT_V) != 0

    def image(self, net: str) -> frozenset[Level]:
        """The levels ``net`` takes over the swept states, unsettled states
        included with the levels they stopped at, or over its CCC's rows."""
        i = self.cn.index[net]
        if self.rows is None or self.cn.is_driver[i]:
            codes = self.levels[:, np.searchsorted(self.kept, i)]
        else:
            t, k = self._row_of(i)
            codes = _MASK_TO_CODE[t.masks[t.g.out_col[k]]]
        return frozenset(_LEVEL_OF_CODE[code] for code in np.unique(codes).tolist())

    def division_counts(self, net: str | None = None) -> list[int]:
        """Division events per state, of the whole netlist or of one net; a
        ranked sweep counts per CCC row and adds up each state's rows."""
        if net is not None:
            gnd, vdd = self.rail_reach([net])
            return (gnd & vdd)[:, 0].astype(int).tolist()
        self._require_stable()
        both = _BIT_G | _BIT_V
        if self.rows is None:
            return ((self.masks & both) == both).sum(axis=1).tolist()
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
        finite width is degraded; its headroom is the least over its rows.
        A sweep without ranks first finds its rows from the settled levels.
        """
        self._require_stable()
        cn = self.cn
        n = cn.netlist
        tables = self.rows
        if tables is None:
            tables = [_Rows(cn._all, len(self.codes))]
            for lo in range(0, len(self.codes), _CHUNK):
                tables[0].find(self.levels[lo : lo + _CHUNK].T, lo)
        vt = np.array([vt.vt_volts for _, vt in DEVICE_CLASSES])[cn.dev_class]
        volts = np.array([0.0, n.vdd / 2, n.vdd, 0.0, 0.0])
        worst = np.full((2, cn.n_nets), np.inf)
        for t in tables:
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
            width = g.relax(width, cost, np.maximum, np.minimum)
            head = np.where(at & np.isfinite(width), width, np.inf).reshape(g.n_cols, 2, R)
            worst[:, g.out_net] = head[g.out_col].min(axis=2, initial=np.inf).T
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
    steps = len(rows)
    levels = np.empty((steps, cn.n_nets), dtype=np.int8)
    masks = np.empty((steps, cn.n_nets), dtype=np.uint8)
    rounds = np.empty(steps, dtype=np.int64)
    for step, row in enumerate(rows):
        codes = cn.codes_for_inputs(dict(zip(n.input_names, row)))
        prev = levels[step - 1 : step] if step else None
        levels[step], masks[step], rounds[step] = _solve_one(cn, codes, prev)
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
