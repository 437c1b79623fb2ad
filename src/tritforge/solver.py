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
CCC's drive masks depend only on the levels of its gate nets and of the
driver nets its channels touch, so each round solves every CCC once per
distinct row of those levels among the states of a sweep, then scatters
the masks back to every state (compiled per-component evaluation in the
spirit of COSMOS, DAC 1987).  States that reach a fixed point or a
period-2 cycle leave the active set, and large sweeps are solved in chunks
of states, so exhaustive truth tables and multi-thousand-state ripple
carry sweeps stay cheap in time and memory.

Every exhaustive view of a netlist (truth table, decoded truth, truth
signature, division counts, full-swing lint) reads one :class:`Sweep`: the
levels, drive masks and stable flags of a single batched solve over the
input space.  The swing lint is array work too, a widest-path (max-min)
relaxation over the sweep's levels in the kernel's scatter style.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OscillationError, UnresolvableError
from .netlist import Netlist, Polarity, RAILS, domain_encoding
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

# States per block of the swing lint.  Its (device, state) float64 arrays
# dwarf the solver's int8 levels, and small blocks stay in cache: on the
# 4-digit RCA, 128-state blocks peak near 10 MiB where _CHUNK blocks take
# over 150 MiB, and they run about twice as fast.
_LINT_BLOCK = 128

# Below this many active states each state keeps its own CCC rows: finding
# shared rows would cost more than it saves.
_SHARE_MIN = 16


# Levels per word when a CCC's level vector is packed for comparison:
# 3 bits a level code, 21 codes to an int64.
_SLOTS = 21
_SLOT_WEIGHT = 8 ** np.arange(_SLOTS, dtype=np.int64)


def _take(table, rows, ccc, col):
    """(states, len(col)) entries of a (column, row) table: entry j of a
    state reads column col[j] in that state's row of CCC ccc[j]."""
    return table[col, rows[:, ccc]]


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
    swing_warnings: list = field(default_factory=list)


class SwingWarning(NamedTuple):
    """A net that reaches a rail only through the wrong device polarity."""

    net: str
    polarity: Polarity
    headroom: float


class CompiledNetlist:
    """Index-based view of a netlist, reused across many solves."""

    def __init__(self, n: Netlist):
        self.netlist = n
        self.nets = n.nets()
        self.index = {name: i for i, name in enumerate(self.nets)}
        self.n_nets = len(self.nets)

        self.input_idx = np.array(
            [self.index[name] for name in n.input_names], dtype=np.intp
        )
        self.output_idx = np.array(
            [self.index[name] for name in n.output_names], dtype=np.intp
        )
        driver = np.zeros(self.n_nets, dtype=bool)
        for rail in RAILS:
            driver[self.index[rail]] = True
        driver[self.input_idx] = True
        self.is_driver = driver
        self.driver_idx = np.flatnonzero(driver)
        self.nondriver_idx = np.flatnonzero(~driver)
        self.gnd_idx = self.index["GND"]
        self.vdd_idx = self.index["VDD"]

        devs = n.devices
        self.n_devices = len(devs)
        self.dev_gate = np.array([self.index[d.gate] for d in devs], dtype=np.intp)
        self.dev_a = np.array([self.index[d.source] for d in devs], dtype=np.intp)
        self.dev_b = np.array([self.index[d.drain] for d in devs], dtype=np.intp)
        self.dev_is_n = np.array([d.polarity is Polarity.N for d in devs], dtype=bool)
        rows = {}
        for d in devs:
            if (d.polarity, d.vt) not in rows:
                rows[d.polarity, d.vt] = [
                    conduction(d.polarity, d.vt, lv, n.vdd) for lv in _LEVEL_OF_CODE
                ]
        lut = np.zeros((max(self.n_devices, 1), 5), dtype=bool)
        if devs:
            lut[: self.n_devices] = [rows[d.polarity, d.vt] for d in devs]
        self.dev_lut = lut
        self._partition()

    def _partition(self):
        """Split the non-driver nets into CCCs and lay the CCCs out locally.

        ``net_ccc`` labels every non-driver net with its CCC (drivers get -1).
        The kernel numbers the CCCs that have devices and gives each one
        local columns: its own nets plus a private copy of each driver net
        its channels touch, so one closure over the local columns solves all
        CCCs side by side.  A CCC's row key packs the level codes of its key
        nets (the gate nets and driver terminals of its devices, rails
        aside) in mixed radix 5.
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
        net_k = np.where(
            np.isin(nd_ccc, ccc_ids), np.searchsorted(ccc_ids, nd_ccc), 0
        )
        C = self._n_ccc = max(ccc_ids.size, 1)
        L = live.size
        gate = self.dev_gate[live]

        # local columns: one per (CCC, net) pair
        cols, inv = np.unique(
            np.r_[dev_k * N + a[live], dev_k * N + b[live], net_k * N + nd_idx],
            return_inverse=True,
        )
        col_ccc, col_net = np.divmod(cols, N)
        col_drv = self.is_driver[col_net]
        # one spare column past the end: no device touches it, so its level
        # is Z in every row, a constant filler for level words
        self._n_cols = cols.size + 1
        loc_a, loc_b, out_col = inv[:L], inv[L : 2 * L], inv[2 * L :]
        self._out_ccc, self._out_col = net_k, out_col
        # position of each column's net among the non-driver nets; driver
        # columns and the spare point one past the end, at a pad that never
        # holds charge
        self._col_nd = np.r_[
            np.where(col_drv, nd_idx.size, np.searchsorted(nd_idx, col_net)), nd_idx.size
        ]
        # per-direction groupings for duplicate-free scatter of drive-mask
        # contributions (bitwise_or.reduceat over sorted targets)
        self._dir = []
        for tgt, src in ((loc_a, loc_b), (loc_b, loc_a)):
            keep = np.flatnonzero(~col_drv[tgt])
            order = keep[np.argsort(tgt[keep], kind="stable")]
            tgt_sorted = tgt[order]
            starts = np.flatnonzero(np.r_[True, tgt_sorted[1:] != tgt_sorted[:-1]])
            if order.size:
                self._dir.append((order, src[order], starts, tgt_sorted[starts]))

        # key levels: each state carries the levels of the nets that gate a
        # device or drive a channel; the non-driver ones change every round
        knet, kcol = np.unique(np.r_[gate, col_net[col_drv]], return_inverse=True)
        self._knet = knet
        self._knd = np.flatnonzero(nd[knet])
        pos = np.searchsorted(nd_idx, knet[self._knd])
        self._knd_ccc, self._knd_col = net_k[pos], out_col[pos]
        self._dev_k = dev_k
        self._dev_kcol = kcol[:L]
        self._dev_lut = self.dev_lut[live]
        self._dev_range = np.arange(L)[:, None]
        self._drv_cols = np.flatnonzero(col_drv)
        self._drv_ccc = col_ccc[col_drv]
        self._drv_kcol = kcol[L:]

        # row keys: one radix-5 digit per non-rail key net of each CCC
        # (return_index keeps np.unique on its sorting path; the hash path
        # loads numpy.ma, a megabyte of resident memory)
        digits = np.unique(np.r_[dev_k * N + gate, cols[col_drv]], return_index=True)[0]
        key_ccc, key_net = np.divmod(digits, N)
        keep = ~np.isin(key_net, (self.gnd_idx, self.vdd_idx))
        key_ccc, key_net = key_ccc[keep], key_net[keep]
        bounds = np.searchsorted(key_ccc, np.arange(C + 1))
        width = np.diff(bounds)
        rank = np.arange(key_ccc.size) - bounds[key_ccc]
        # a CCC too wide to pack is keyed by state instead (no sharing)
        cap = (1 << 62) // C
        keyed = np.array([5 ** int(w) <= cap for w in width], dtype=bool)
        span = [5 ** int(w) if k else _CHUNK for w, k in zip(width, keyed)]
        self._key_col = np.searchsorted(knet, key_net)
        self._key_weight = np.where(keyed[key_ccc], 5 ** np.minimum(rank, 26), 0)
        self._key_bounds = bounds
        self._key_offset = np.cumsum([0] + span[:-1], dtype=np.int64)
        self._unkeyed = np.flatnonzero(~keyed)

        # level words: a CCC's non-driver levels, _SLOTS to a word in radix
        # 8, so comparing words compares level vectors exactly
        order = np.argsort(net_k, kind="stable")
        k_sorted = net_k[order]
        rank = np.arange(order.size) - np.searchsorted(k_sorted, k_sorted)
        words, word = np.unique(k_sorted * N + rank // _SLOTS, return_inverse=True)
        self._word_ccc = words // N
        self._word_range = np.arange(words.size)
        self._word_col = np.full((_SLOTS, words.size), cols.size, dtype=np.intp)
        self._word_col[rank % _SLOTS, word] = out_col[order]

    # -- batched fixed-point solve ------------------------------------

    def solve_batch(self, input_codes: np.ndarray, prev: np.ndarray | None = None):
        """Solve many input states at once.

        input_codes: (S, n_inputs) level codes.
        prev:        optional (S, n_nets) seed levels for transition solves.

        Returns (levels, masks, rounds, stable) arrays; ``stable`` is False
        for states that failed to reach a fixed point within the budget of
        4·n_nets rounds, or that fell into a period-2 cycle (those stop
        early, with the levels and masks of their last round).
        """
        S = input_codes.shape[0]
        N = self.n_nets
        nd = self.nondriver_idx
        lv = np.full((S, N), CODE_X, dtype=np.int8)
        lv[:, self.gnd_idx] = CODE_G
        lv[:, self.vdd_idx] = CODE_V
        if self.input_idx.size:
            lv[:, self.input_idx] = input_codes
        if prev is not None:
            lv[:, nd] = prev[:, nd]
        masks = np.zeros((S, N), dtype=np.uint8)
        masks[:, self.driver_idx] = _BIT_OF_CODE[lv[:, self.driver_idx]]
        rounds = np.zeros(S, dtype=np.int64)
        stable = np.zeros(S, dtype=bool)
        for lo in range(0, S, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            self._solve_chunk(
                lv[part], masks[part], rounds[part], stable[part],
                None if prev is None else prev[part][:, nd],
            )
        return lv, masks, rounds, stable

    def _solve_chunk(self, lv, masks, rounds, stable, hold):
        """Jacobi rounds over one chunk of states, filling the outputs in place.

        A state leaves the active set when a round leaves it unchanged (a
        fixed point, which it keeps forever) or, from the third round on,
        when its levels repeat those of two rounds back while differing from
        the last (a period-2 cycle, which the deterministic round map never
        leaves).
        """
        nd = self.nondriver_idx
        out = (self._out_ccc, self._out_col)
        act = np.arange(lv.shape[0])
        kl = lv[:, self._knet]
        share = hold is None and act.size >= _SHARE_MIN
        if hold is not None:
            # held charge per local column; seeded states never share rows
            pad = np.full((act.size, 1), CODE_Z, dtype=np.int8)
            hold = np.concatenate([hold, pad], axis=1)[:, self._col_nd].T
        last = back = None
        for _ in range(max(4 * self.n_nets, 8)):
            rows, table, levels = self._round(kl, share, hold)
            new = self._level_words(rows, levels)
            if last is None:
                # the starting levels may hold any code: compare them in full
                changed = (_take(levels, rows, *out) != lv[:, nd]).any(axis=1)
            else:
                changed = (new != last).any(axis=1)
            rounds[act] += changed
            done = ~changed
            if back is not None:
                done |= (new == back).all(axis=1)
            if done.any():
                idx = act[done]
                lv[idx[:, None], nd] = _take(levels, rows[done], *out)
                masks[idx[:, None], nd] = _take(table, rows[done], *out)
                stable[idx] = ~changed[done]
                keep = ~done
                act, rows, new, kl = act[keep], rows[keep], new[keep], kl[keep]
                if hold is not None:
                    hold = hold[:, keep]
                if last is not None:
                    last = last[keep]
                if back is not None:
                    back = back[keep]
                if not act.size:
                    return
            back, last = last, new
            settled = rows, levels
            kl[:, self._knd] = _take(levels, rows, self._knd_ccc, self._knd_col)
        # one more recompute to identify which states are still moving
        rows, table, levels = self._round(kl, share, hold)
        lv[act[:, None], nd] = _take(settled[1], settled[0], *out)
        masks[act[:, None], nd] = _take(table, rows, *out)
        stable[act] = ~(self._level_words(rows, levels) != last).any(axis=1)

    def _round(self, kl, share, hold):
        """One Jacobi round over the states whose key levels are ``kl``.

        Returns each state's row in every CCC, and the (local column, row)
        tables of drive masks and resulting levels.  Unless ``share`` is set,
        every state keeps rows of its own.
        """
        A, C = kl.shape[0], self._n_ccc
        if not share:
            rows = np.broadcast_to(np.arange(A)[:, None], (A, C))
            drv, gate = kl[:, self._drv_kcol], kl[:, self._dev_kcol]
        else:
            # each CCC's digits sum to its key: cumulative sums differenced
            # at the CCC bounds, offset so keys of different CCCs never meet
            digits = kl[:, self._key_col] * self._key_weight
            sums = np.zeros((A, digits.shape[1] + 1), dtype=np.int64)
            np.cumsum(digits, axis=1, out=sums[:, 1:])
            bounds = self._key_bounds
            keys = self._key_offset + sums[:, bounds[1:]] - sums[:, bounds[:-1]]
            if self._unkeyed.size:
                keys[:, self._unkeyed] += np.arange(A)[:, None]
            # sorting groups the keys by CCC; each distinct key becomes the
            # next row of its CCC, solved on one representative state
            flat = keys.ravel()
            order = np.argsort(flat)
            sorted_keys = flat[order]
            first = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
            rep = order[first]
            ccc = rep % C
            row = np.arange(rep.size) - np.searchsorted(ccc, np.arange(C))[ccc]
            rep_state = np.zeros((row.max() + 1, C), dtype=np.intp)
            rep_state[row, ccc] = rep // C
            rows = np.empty(flat.size, dtype=np.intp)
            rows[order] = row[np.cumsum(first) - 1]
            rows = rows.reshape(A, C)
            drv = kl[rep_state[:, self._drv_ccc], self._drv_kcol]
            gate = kl[rep_state[:, self._dev_k], self._dev_kcol]
        table = self._closure(drv, gate)
        levels = _MASK_TO_CODE[table]
        if hold is not None:
            levels = np.where((table == 0) & (hold <= CODE_V), hold, levels)
        return rows, table, levels

    def _level_words(self, rows, levels):
        """Each state's non-driver levels packed into words: (states, words)."""
        words = np.einsum(
            "swr,s->wr", levels[self._word_col], _SLOT_WEIGHT, dtype=np.int64
        )
        return _take(words, rows, self._word_ccc, self._word_range)

    def _closure(self, drv_codes, gate_codes):
        """Inner fixed point on the local columns: push driver levels along
        conducting channels.  Returns (local column, row) drive masks."""
        masks = np.zeros((self._n_cols, drv_codes.shape[0]), dtype=np.uint8)
        masks[self._drv_cols] = _BIT_OF_CODE[drv_codes.T]
        on = self._dev_lut[self._dev_range, gate_codes.T]
        steps = [(src, on[order], starts, group) for order, src, starts, group in self._dir]
        while True:
            before = masks.copy()
            for src, on_src, starts, group in steps:
                masks[group] |= np.bitwise_or.reduceat(masks[src] * on_src, starts, axis=0)
            if np.array_equal(masks, before):
                return masks

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

    def result_from_state(self, lv_row, mask_row, rounds, from_scratch=True) -> SolveResult:
        levels = {}
        division = set()
        floating = set()
        for i, name in enumerate(self.nets):
            code = lv_row[i]
            levels[name] = _LEVEL_OF_CODE[code]
            if (mask_row[i] & (_BIT_G | _BIT_V)) == (_BIT_G | _BIT_V):
                division.add(name)
            if not self.is_driver[i] and mask_row[i] == 0:
                floating.add(name)
        if from_scratch:
            for name in self.netlist.output_names:
                if levels[name] is Level.Z:
                    raise UnresolvableError(f"output {name!r} floats with no previous state")
        return SolveResult(
            levels=levels,
            division_events=frozenset(division),
            floating=frozenset(floating),
            settle_rounds=int(rounds),
        )


_COMPILE_CACHE: dict[int, tuple[Netlist, CompiledNetlist]] = {}


def compiled(n: Netlist) -> CompiledNetlist:
    """Compile (or fetch a cached compilation of) a netlist."""
    entry = _COMPILE_CACHE.get(id(n))
    if entry is not None and entry[0] is n:
        return entry[1]
    cn = CompiledNetlist(n)
    if len(_COMPILE_CACHE) > 256:
        _COMPILE_CACHE.clear()
    _COMPILE_CACHE[id(n)] = (n, cn)
    return cn


def solve_state(
    n: Netlist, inputs: dict[str, Level], prev: SolveResult | None = None
) -> SolveResult:
    """Resolve all node levels for one input assignment.

    ``prev`` seeds the iteration with an earlier fixed point; floating nets
    then hold their previous charge instead of reading as errors.
    """
    cn = compiled(n)
    row = cn.codes_for_inputs(inputs)[None, :]
    prev_codes = None
    if prev is not None:
        prev_codes = np.array(
            [[_CODE_OF_LEVEL[prev.levels.get(name, Level.Z)] for name in cn.nets]],
            dtype=np.int8,
        )
    lv, masks, rounds, stable = cn.solve_batch(row, prev_codes)
    if not stable[0]:
        raise OscillationError(f"no fixed point within {4 * cn.n_nets} rounds")
    return cn.result_from_state(lv[0], masks[0], rounds[0], from_scratch=prev is None)


def input_space(
    n: Netlist, overrides: dict[str, frozenset[Level]] | None = None
) -> list[tuple[Level, ...]]:
    """All input level combinations, lexicographic in declared input order."""
    axes = []
    for name, dom in n.inputs:
        if overrides and name in overrides:
            dom = overrides[name]
        axes.append(sorted(dom, key=lambda lv: _CODE_OF_LEVEL[lv]))
    return [tuple(pt) for pt in itertools.product(*axes)]


class Sweep:
    """One batched solve of a netlist over its input space, and its views.

    Holds the compiled netlist, the input points (lexicographic in declared
    input order) and the levels, drive masks and ``stable`` flags that one
    ``solve_batch`` call gives for them.  Every exhaustive view of a netlist
    reads a sweep, so a caller that needs several views of one netlist
    solves it once and keeps the value.  Views that need every state settled
    raise :class:`OscillationError` naming the first point that is not.
    """

    def __init__(self, n: Netlist, overrides: dict[str, frozenset[Level]] | None = None):
        self.cn = compiled(n)
        self.points = input_space(n, overrides)
        codes = np.array(
            [[_CODE_OF_LEVEL[lv] for lv in pt] for pt in self.points], dtype=np.int8
        ).reshape(len(self.points), len(n.inputs))
        self.levels, self.masks, _, self.stable = self.cn.solve_batch(codes)

    def _require_stable(self):
        if not self.stable.all():
            bad = int(np.flatnonzero(~self.stable)[0])
            raise OscillationError(f"no fixed point at input point {self.points[bad]}")

    def _output_codes(self) -> list[list[int]]:
        return self.levels[:, self.cn.output_idx].tolist()

    def truth_table(self) -> dict[tuple[Level, ...], tuple[Level, ...]]:
        """Input level tuple -> output level tuple; see :func:`truth_table`."""
        self._require_stable()
        names = self.cn.netlist.output_names
        out = {}
        for pt, row in zip(self.points, self._output_codes()):
            for name, code in zip(names, row):
                if code in (CODE_X, CODE_Z):
                    raise UnresolvableError(f"output {name!r} unresolved at input {pt}")
            out[pt] = tuple(_LEVEL_OF_CODE[code] for code in row)
        return out

    def truth_signature(self) -> dict[tuple[Level, ...], tuple]:
        """Outputs decoded to trits, with per-point failure sentinels.

        A state without a fixed point reads ``("error", "OscillationError")``,
        a state with an unresolved output ``("error", "UnresolvableError")``,
        and an output level outside its encoding ``("level", code)``.
        """
        encs = [enc for _, enc in self.cn.netlist.outputs]
        sig = {}
        for pt, ok, row in zip(self.points, self.stable.tolist(), self._output_codes()):
            if not ok:
                sig[pt] = ("error", "OscillationError")
            elif CODE_X in row or CODE_Z in row:
                sig[pt] = ("error", "UnresolvableError")
            else:
                sig[pt] = tuple(_decode_code(code, enc) for code, enc in zip(row, encs))
        return sig

    def decoded_truth(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Truth table decoded to trits on both sides; see :func:`decoded_truth`."""
        n = self.cn.netlist
        in_encs = [domain_encoding(dom) for _, dom in n.inputs]
        out_encs = [enc for _, enc in n.outputs]
        return {
            tuple(map(decode, pt, in_encs)): tuple(map(decode, levels, out_encs))
            for pt, levels in self.truth_table().items()
        }

    def rail_reach(self) -> tuple[np.ndarray, np.ndarray]:
        """(states, nets) flags: whether GND, and whether VDD, drives each net."""
        self._require_stable()
        return (self.masks & _BIT_G) != 0, (self.masks & _BIT_V) != 0

    def division(self) -> np.ndarray:
        """(states, nets) flags of voltage division: both rails drive the net."""
        gnd, vdd = self.rail_reach()
        return gnd & vdd

    def division_counts(self, net: str | None = None) -> list[int]:
        """Division events per state, of the whole netlist or of one net."""
        div = self.division()
        if net is not None:
            return div[:, self.cn.index[net]].astype(int).tolist()
        return div.sum(axis=1).tolist()

    def full_swing_lint(self) -> list[SwingWarning]:
        """Degraded rail passes; see :func:`full_swing_lint`.

        A batched widest-path (max-min) relaxation per block of states, VDD
        and GND targets side by side.  A path's width is the least cost of
        its devices: the gate overdrive of a conducting wrong-polarity
        device, ``inf`` for a conducting right-polarity one and ``-inf`` for
        an off one.  Widths start at ``inf`` on the drivers at the target
        level and ``-inf`` elsewhere, and no channel enters a driver net.  A
        net at the target level is clean when its width is ``inf`` and a
        suspect when it is finite; its headroom is the least width over the
        states.
        """
        self._require_stable()
        cn = self.cn
        n = cn.netlist
        # arcs: device k entered at one channel end and left at the other,
        # k for source -> drain and k + n_devices for drain -> source; only
        # arcs into non-driver nets count.  Layer r holds the r-th arc into
        # each net, so no layer scatters twice onto one net.
        far = np.r_[cn.dev_b, cn.dev_a]
        near = np.r_[cn.dev_a, cn.dev_b]
        arcs = np.flatnonzero(~cn.is_driver[far])
        arcs = arcs[np.argsort(far[arcs], kind="stable")]
        rank = np.arange(arcs.size) - np.searchsorted(far[arcs], far[arcs])
        layers = [arcs[rank == r] for r in range(rank.max(initial=-1) + 1)]
        vt = np.array([d.vt.vt_volts for d in n.devices], dtype=float)[:, None]
        volts = np.array([0.0, n.vdd / 2, n.vdd, 0.0, 0.0])
        is_n = cn.dev_is_n[:, None]
        dev_range = np.arange(cn.n_devices)[:, None]
        worst = np.full((2, cn.n_nets), np.inf)
        for lo in range(0, len(self.points), _LINT_BLOCK):
            # (net or device, state) arrays; the VDD target's states come
            # first along axis 1, then the GND target's
            lv = self.levels[lo : lo + _LINT_BLOCK].T
            gate = lv[cn.dev_gate]
            on = cn.dev_lut[dev_range, gate]
            gv = volts[gate]
            # the wrong polarity is N toward VDD and P toward GND
            to_vdd = np.where(is_n, gv - vt, np.inf)
            to_gnd = np.where(is_n, np.inf, (n.vdd - gv) - vt)
            cost = np.where(np.tile(on, 2), np.concatenate([to_vdd, to_gnd], axis=1), -np.inf)
            at = np.concatenate([lv == CODE_V, lv == CODE_G], axis=1)
            width = np.where(cn.is_driver[:, None] & at, np.inf, -np.inf)
            steps = [(far[k], near[k], cost[k % cn.n_devices]) for k in layers]
            while True:
                before = width.copy()
                for dst, src, c in steps:
                    width[dst] = np.maximum(width[dst], np.minimum(width[src], c))
                if np.array_equal(width, before):
                    break
            head = np.where(at & np.isfinite(width), width, np.inf)
            worst = np.minimum(worst, head.reshape(cn.n_nets, 2, -1).min(axis=2).T)
        warnings = [
            SwingWarning(cn.nets[i], pol, float(worst[k, i]))
            for k, pol in enumerate((Polarity.N, Polarity.P))
            for i in np.flatnonzero(np.isfinite(worst[k])).tolist()
        ]
        return sorted(warnings, key=lambda w: (w.net, w.polarity.value))


def _decode_code(code: int, enc: Encoding):
    """Trit of a stable level code under ``enc``, or ``("level", code)``."""
    try:
        return decode(_LEVEL_OF_CODE[code], enc)
    except DomainError:
        return ("level", code)


def truth_table(
    n: Netlist, overrides: dict[str, frozenset[Level]] | None = None
) -> dict[tuple[Level, ...], tuple[Level, ...]]:
    """Exhaustive solve over the input domain product.

    Maps each input level tuple (declared input order) to the output level
    tuple.  A floating output makes the whole sweep fail, with the offending
    input point named.
    """
    return Sweep(n, overrides).truth_table()


def truth_signature(
    n: Netlist, overrides: dict[str, frozenset[Level]] | None = None
) -> dict[tuple[Level, ...], tuple]:
    """Like :func:`truth_table` but with outputs decoded to trits.

    Solver failures become per-point sentinels instead of raising, so two
    netlists can be compared including their error behavior.
    """
    return Sweep(n, overrides).truth_signature()


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
    cn = compiled(n)
    trace = []
    div_counts = []
    transition_rounds = []
    activity_sums = []
    volts = {CODE_G: 0.0, CODE_H: n.vdd / 2, CODE_V: n.vdd}
    prev_res = None
    prev_lv = None
    for step, row in enumerate(rows):
        assignment = dict(zip(n.input_names, row))
        res = solve_state(n, assignment, prev=prev_res)
        trace.append({"step": step, **{net: res.levels[net] for net in cn.nets}})
        div_counts.append(len(res.division_events))
        lv_row = np.array(
            [_CODE_OF_LEVEL[res.levels[net]] for net in cn.nets], dtype=np.int8
        )
        if prev_lv is not None:
            transition_rounds.append(res.settle_rounds)
            delta = 0.0
            for i in range(cn.n_nets):
                a, b = int(prev_lv[i]), int(lv_row[i])
                if a in volts and b in volts:
                    delta += abs(volts[b] - volts[a]) / (n.vdd / 2)
            activity_sums.append(delta)
        prev_res = res
        prev_lv = lv_row
    report = MetricsReport(
        delay_rounds=max(transition_rounds, default=0),
        static_div_mean=float(np.mean(div_counts)),
        activity=float(np.mean(activity_sums)) if activity_sums else 0.0,
        device_total=len(n.devices),
    )
    return trace, report


def trace_csv(n: Netlist, trace) -> str:
    """Render a simulation trace as CSV with one column per net."""
    nets = compiled(n).nets
    lines = ["step," + ",".join(nets)]
    for row in trace:
        lines.append(
            str(row["step"]) + "," + ",".join(row[net].value for net in nets)
        )
    return "\n".join(lines) + "\n"
