import ast
import gc
import hashlib
import heapq
import itertools
import random
import tokenize
import weakref
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import networkx as nx
import numpy as np
import pytest

import tritforge.kernel as kernel_mod
import tritforge.solver as solver_mod

from tritforge.errors import (
    DomainError,
    OscillationError,
    UnknownNetError,
    UnresolvableError,
)
from tritforge.generate import (
    Cascade,
    Completeness,
    GateKind,
    Style,
    StyleSpec,
    gen_gate,
    gen_rca,
    gen_testbench,
    gen_tfa,
    gen_tha,
)
from tritforge.kernel import (
    CODE_G,
    CODE_H,
    CODE_V,
    CODE_X,
    CODE_Z,
    CompiledNetlist,
    _BIT_G,
    _BIT_OF_CODE,
    _BIT_V,
    _CODE_OF_LEVEL,
    _LEVEL_OF_CODE,
    _MASK_TO_CODE,
    conduction,
)
from tritforge.netlist import (
    Device,
    Netlist,
    Polarity,
    ThresholdClass,
    domain_encoding,
    parse,
    serialize,
)
from tritforge.passes import AssumptionDomain, apply_assumption, rebind_carry
from tritforge.solver import (
    Sweep,
    decoded_truth,
    division_counts,
    full_swing_lint,
    input_space,
    simulate_pattern,
    solve_state,
    trace_csv,
    truth_table,
)
from tritforge.trits import Encoding, Level, decode

STI = parse("""\
.input a ternary
.output y
m mp p hvt g=a s=VDD d=y
m mn n hvt g=a s=y d=GND
m mpu p mvt g=a s=VDD d=m1
m mdn n mvt g=VDD s=m1 d=y tag=divider
m mdp p mvt g=GND s=y d=m2 tag=divider
m mnd n mvt g=a s=m2 d=GND
.end
""")

BININV = parse("""\
.input a binary
.output y enc=binary
m mp p lvt g=a s=VDD d=y
m mn n lvt g=a s=y d=GND
.end
""")


def test_conduction_thresholds():
    # N conducts when the gate clears Vt; P when it sits Vt below the rail
    hvt, mvt = ThresholdClass.HVT, ThresholdClass.MVT
    assert not conduction(Polarity.N, hvt, Level.HALF)
    assert conduction(Polarity.N, hvt, Level.VDD)
    assert conduction(Polarity.N, mvt, Level.HALF)
    assert conduction(Polarity.P, hvt, Level.GND)
    assert not conduction(Polarity.P, hvt, Level.HALF)
    assert conduction(Polarity.P, mvt, Level.HALF)
    assert not conduction(Polarity.P, mvt, Level.VDD)


def test_compiled_conduction_table_matches_per_device_conduction():
    from test_passes import _random_gated_netlist, _random_netlist

    rng = random.Random(4242)
    makers = (_random_netlist, _random_static_netlist, _random_gated_netlist,
              _random_feedback_netlist)
    netlists = list(_generated_cells()) + [makers[i % 4](rng) for i in range(200)]
    for n in netlists + [Netlist(outputs=(("y", Encoding.STANDARD),))]:
        for vdd in (0.9, 0.6, 1.2):
            cn = CompiledNetlist(replace(n, vdd=vdd))
            lut = [[conduction(d.polarity, d.vt, lv, vdd) for lv in _LEVEL_OF_CODE]
                   for d in n.devices]
            # a netlist without devices keeps one all-off row
            assert cn.dev_lut.tolist() == (lut or [[False] * 5]), (n.title, vdd)
            assert cn.dev_is_n.tolist() == [d.polarity is Polarity.N for d in n.devices]


def test_sti_truth_table():
    assert decoded_truth(STI) == {(0,): (2,), (1,): (1,), (2,): (0,)}


def test_sti_divides_only_at_half_input():
    res = solve_state(STI, {"a": Level.HALF})
    assert "y" in res.division_events
    assert solve_state(STI, {"a": Level.GND}).division_events == frozenset()
    assert solve_state(STI, {"a": Level.VDD}).division_events == frozenset()
    per_state = division_counts(STI, net="y")
    assert per_state == [0, 1, 0]  # inputs swept GND, HALF, VDD


def test_binary_inverter():
    assert decoded_truth(BININV) == {(0,): (1,), (1,): (0,)}


def test_solver_is_deterministic_and_idempotent():
    t1 = truth_table(STI)
    t2 = truth_table(STI)
    assert t1 == t2
    res = solve_state(STI, {"a": Level.HALF})
    again = solve_state(STI, {"a": Level.HALF}, prev=res)
    assert again.levels == res.levels
    assert again.settle_rounds <= res.settle_rounds


def test_input_validation():
    with pytest.raises(DomainError):
        solve_state(STI, {})
    with pytest.raises(DomainError):
        solve_state(BININV, {"a": Level.HALF})  # outside the binary domain


def test_simulate_pattern_refuses_a_row_with_extra_values():
    # an extra value drives nothing; it is refused at its step, after the
    # checks of the steps before it
    with pytest.raises(DomainError, match="step 1: 2 values for 1 inputs"):
        simulate_pattern(STI, [(Level.GND,), (Level.HALF, Level.VDD)])
    floats = parse(".input a binary\n.output y\nm m0 n lvt g=a s=VDD d=y\n.end\n")
    with pytest.raises(UnresolvableError):
        simulate_pattern(floats, [(Level.GND,), (Level.VDD, Level.VDD)])


def test_floating_output_errors_without_history():
    n = parse(
        ".input a binary\n.output y\n"
        "m m0 n lvt g=a s=VDD d=y\n.end\n"
    )
    with pytest.raises(UnresolvableError):
        solve_state(n, {"a": Level.GND})
    # with a previous state the node holds its charge instead
    high = solve_state(n, {"a": Level.VDD})
    held = solve_state(n, {"a": Level.GND}, prev=high)
    assert held.levels["y"] == high.levels["y"]
    assert "y" in held.floating


def test_self_gated_contention_oscillates():
    # y is pulled high always; an HVT pulldown gated by y itself turns on
    # only at VDD, so y alternates between VDD and the divided level
    n = parse(
        ".output y\n"
        "m pu p lvt g=GND s=VDD d=y\n"
        "m pd n hvt g=y s=y d=GND\n.end\n"
    )
    with pytest.raises(OscillationError):
        solve_state(n, {})
    # the levels repeat with period 2, so the solve stops well before the
    # 4·N-round budget
    cn = CompiledNetlist(n)
    lv, masks, rounds, stable = cn.solve_batch(np.zeros((1, 0), dtype=np.int8))
    assert not stable[0]
    assert rounds[0] < max(4 * cn.n_nets, 8)


def test_simulate_pattern_and_trace():
    rows = [(Level.GND,), (Level.VDD,), (Level.HALF,), (Level.GND,)]
    trace, report = simulate_pattern(STI, rows)
    assert [r["step"] for r in trace] == [0, 1, 2, 3]
    assert trace[0]["y"] is Level.VDD and trace[1]["y"] is Level.GND
    assert report.delay_rounds >= 1
    assert report.device_total == 6
    assert report.activity > 0
    csv_text = trace_csv(STI, trace)
    header = csv_text.splitlines()[0].split(",")
    assert header[0] == "step" and "y" in header and "a" in header
    assert len(csv_text.splitlines()) == 5


def test_simulate_pattern_rejects_empty():
    with pytest.raises(DomainError):
        simulate_pattern(STI, [])


def test_full_swing_lint_flags_wrong_polarity_pass():
    # VDD passed through an n-type device: classic degraded '2'
    n = parse(
        ".input a binary\n.output y\n"
        "m pass n lvt g=VDD s=a d=y\n.end\n"
    )
    warnings = full_swing_lint(n)
    assert any(w.net == "y" and w.polarity is Polarity.N for w in warnings)
    w = next(w for w in warnings if w.net == "y")
    # headroom = Vgs - Vt = 0.9 - 0.43/(0.0783*19)
    assert w.headroom == pytest.approx(0.9 - 0.289, abs=1e-3)
    assert full_swing_lint(BININV) == []


# -- independent oracle: static connectivity over conducting channels ----


def _oracle_levels(n, assignment):
    """Resolve levels by graph reachability from drivers.

    Valid only when every gate is an input or a rail, so conduction is
    fixed a priori and the channel graph is static.  Driver nets clamp
    their node: levels do not pass through them transitively.
    """
    fixed = {"VDD": Level.VDD, "GND": Level.GND, **assignment}
    g = nx.Graph()
    g.add_nodes_from(net for net in n.nets() if net not in fixed)
    on = [d for d in n.devices
          if conduction(d.polarity, d.vt, fixed[d.gate], n.vdd)]
    for d in on:
        if d.source not in fixed and d.drain not in fixed:
            g.add_edge(d.source, d.drain)
    comp_of = {}
    driven = {}
    for i, comp in enumerate(nx.connected_components(g)):
        driven[i] = set()
        for net in comp:
            comp_of[net] = i
    for d in on:
        for a, b in ((d.source, d.drain), (d.drain, d.source)):
            if a in fixed and b not in fixed:
                driven[comp_of[b]].add(fixed[a])
    levels = dict(fixed)
    for net, i in comp_of.items():
        if len(driven[i]) > 1:
            levels[net] = Level.HALF  # contention divides the supply
        elif driven[i]:
            levels[net] = next(iter(driven[i]))
        else:
            levels[net] = Level.Z
    return levels


def _random_static_netlist(rng):
    inputs = [("a", frozenset({Level.GND, Level.HALF, Level.VDD})),
              ("b", frozenset({Level.GND, Level.VDD}))][: rng.randint(1, 2)]
    internal = [f"n{i}" for i in range(rng.randint(1, 5))]
    nets = ["VDD", "GND"] + [name for name, _ in inputs] + internal
    devices = []
    for i in range(rng.randint(1, 12)):
        s, d = rng.sample(nets, 2)
        devices.append(Device(
            f"m{i}",
            rng.choice(list(Polarity)),
            rng.choice(list(ThresholdClass)),
            rng.choice(["VDD", "GND"] + [name for name, _ in inputs]),
            s, d,
        ))
    return Netlist(inputs=tuple(inputs), devices=tuple(devices),
                   extra_nets=frozenset(internal))


def test_solver_matches_connectivity_oracle():
    rng = random.Random(1105)
    for _ in range(300):
        n = _random_static_netlist(rng)
        for pt in input_space(n):
            assignment = dict(zip(n.input_names, pt))
            # no outputs declared, so go through the compiled interface
            cn = CompiledNetlist(n)
            row = cn.codes_for_inputs(assignment)[None, :]
            lv, masks, rounds, stable = cn.solve_batch(row)
            assert stable[0]
            got = cn.result_from_state(lv[0], masks[0], rounds[0])
            assert got.levels == _oracle_levels(n, assignment)


# -- oracle: the dense whole-netlist kernel ----------------------------------


def _dense_propagate(cn, lv, dirs):
    """Inner fixed point over every net of every state."""
    S, N = lv.shape
    masks = np.zeros((S, N), dtype=np.uint8)
    drv = np.flatnonzero(cn.is_driver)
    code = lv[:, drv]
    m = np.zeros_like(code, dtype=np.uint8)
    for c, bit in ((CODE_G, 1), (CODE_H, 2), (CODE_V, 4)):
        m |= np.uint8(bit) * (code == c).astype(np.uint8)
    masks[:, drv] = m
    if not cn.n_devices:
        return masks
    gate_codes = lv[:, cn.dev_gate]
    on = cn.dev_lut[np.arange(cn.n_devices)[None, :], gate_codes]
    while True:
        before = masks.copy()
        for order, src, starts, group_net in dirs:
            if not order.size:
                continue
            contrib = masks[:, src] * on[:, order]
            reduced = np.bitwise_or.reduceat(contrib, starts, axis=1)
            masks[:, group_net] |= reduced
        if np.array_equal(masks, before):
            return masks


def _dense_solve_batch(cn, input_codes, prev=None):
    """The solver kernel before CCC sharing: every round re-solves every net
    of every state until no state changes or the budget runs out."""
    dirs = []
    for tgt, src in ((cn.dev_a, cn.dev_b), (cn.dev_b, cn.dev_a)):
        keep = np.flatnonzero(~cn.is_driver[tgt])
        order = keep[np.argsort(tgt[keep], kind="stable")]
        tgt_sorted = tgt[order]
        starts = np.flatnonzero(
            np.r_[True, tgt_sorted[1:] != tgt_sorted[:-1]]
        ) if order.size else np.array([], dtype=np.intp)
        group_net = tgt_sorted[starts] if order.size else np.array([], dtype=np.intp)
        dirs.append((order, src[order], starts, group_net))

    def levels_from_masks(masks, hold):
        newlv = _MASK_TO_CODE[masks]
        if hold is not None:
            held = (masks == 0) & (hold <= CODE_V)
            newlv = np.where(held, hold, newlv)
        return newlv

    S, N = input_codes.shape[0], cn.n_nets
    nd = cn.nondriver_idx
    lv = np.full((S, N), CODE_X, dtype=np.int8)
    lv[:, cn.gnd_idx] = CODE_G
    lv[:, cn.vdd_idx] = CODE_V
    if cn.input_idx.size:
        lv[:, cn.input_idx] = input_codes
    hold = None
    if prev is not None:
        lv[:, nd] = prev[:, nd]
        hold = prev
    rounds = np.zeros(S, dtype=np.int64)
    masks = np.zeros((S, N), dtype=np.uint8)
    stable = np.zeros(S, dtype=bool)
    for _ in range(max(4 * N, 8)):
        masks = _dense_propagate(cn, lv, dirs)
        newlv = levels_from_masks(masks, hold)
        changed = (newlv[:, nd] != lv[:, nd]).any(axis=1)
        lv[:, nd] = newlv[:, nd]
        rounds += changed
        if not changed.any():
            stable[:] = True
            break
    else:
        masks = _dense_propagate(cn, lv, dirs)
        newlv = levels_from_masks(masks, hold)
        stable = ~((newlv[:, nd] != lv[:, nd]).any(axis=1))
    return lv, masks, rounds, stable


def _assert_matches_oracle(cn, codes, prev=None):
    """All four arrays agree bit for bit on stable states; ``stable`` agrees
    everywhere.  Returns the oracle's ``stable``."""
    got = cn.solve_batch(codes, prev)
    want = _dense_solve_batch(cn, codes, prev)
    assert np.array_equal(got[3], want[3])
    ok = want[3]
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g[ok], w[ok])
    return ok


def _sweep_codes(n):
    points = input_space(n)
    return np.array(
        [[_CODE_OF_LEVEL[lv] for lv in pt] for pt in points], dtype=np.int8
    ).reshape(len(points), len(n.inputs))


def _random_feedback_netlist(rng):
    """Any net may gate any device, so states can oscillate."""
    inputs = [("a", frozenset({Level.GND, Level.HALF, Level.VDD})),
              ("b", frozenset({Level.GND, Level.VDD}))][: rng.randint(0, 2)]
    internal = [f"n{i}" for i in range(rng.randint(1, 7))]
    nets = ["VDD", "GND"] + [name for name, _ in inputs] + internal
    devices = []
    for i in range(rng.randint(1, 20)):
        s, d = rng.sample(nets, 2)
        devices.append(Device(
            f"m{i}", rng.choice(list(Polarity)), rng.choice(list(ThresholdClass)),
            rng.choice(nets), s, d,
        ))
    return Netlist(inputs=tuple(inputs), devices=tuple(devices),
                   extra_nets=frozenset(internal))


@pytest.mark.parametrize("seed,chunk", [(16, 2048), (1, 2048), (1, 5)])
def test_ccc_kernel_matches_dense_oracle_on_random_netlists(monkeypatch, seed, chunk):
    # seed picks the random netlists and held charge; chunk 5 cuts every
    # sweep into several chunks
    from test_passes import _random_netlist

    monkeypatch.setattr(kernel_mod, "_CHUNK", chunk)
    rng = random.Random(2024 + seed + chunk)
    gen = np.random.default_rng(seed + chunk)
    unstable = 0
    for i in range(600):
        make = (_random_netlist, _random_static_netlist, _random_feedback_netlist)[i % 3]
        n = make(rng)
        cn = CompiledNetlist(n)
        codes = _sweep_codes(n)
        ok = _assert_matches_oracle(cn, codes)
        if make is not _random_feedback_netlist:
            assert ok.all()
        # seeded solves: random held charge, including X and Z codes
        codes = np.repeat(codes, 2, axis=0)
        prev = gen.integers(0, 5, size=(codes.shape[0], cn.n_nets)).astype(np.int8)
        unstable += (~_assert_matches_oracle(cn, codes, prev)).sum()
    assert unstable  # the feedback netlists do reach the early stop


def test_ccc_kernel_matches_dense_oracle_on_rca3():
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    n = gen_rca(3, spec)
    cn = CompiledNetlist(n)
    codes = _sweep_codes(n)
    assert codes.shape[0] == 1458
    assert _assert_matches_oracle(cn, codes).all()


def test_ccc_kernel_matches_dense_oracle_across_chunks():
    # more states than one chunk, and not a multiple of it
    n = gen_tfa(StyleSpec(Style.DEC_ENC, Completeness.COMPLETE))
    cn = CompiledNetlist(n)
    base = _sweep_codes(n)
    size = kernel_mod._CHUNK + 101
    codes = np.resize(base, (size, base.shape[1]))
    assert _assert_matches_oracle(cn, codes).all()
    gen = np.random.default_rng(7)
    prev = gen.integers(0, 5, size=(size, cn.n_nets)).astype(np.int8)
    _assert_matches_oracle(cn, codes, prev)


def test_ccc_kernel_without_channels():
    # no devices at all, and devices whose channels touch only drivers
    bare = Netlist(inputs=(("a", frozenset({Level.GND, Level.VDD})),),
                   extra_nets=frozenset({"n0"}))
    rails = parse(".input a binary\nm m0 n lvt g=a s=VDD d=a\n.end\n")
    for n in (bare, rails):
        cn = CompiledNetlist(n)
        codes = _sweep_codes(n)
        assert _assert_matches_oracle(cn, codes).all()
        prev = np.full((codes.shape[0], cn.n_nets), CODE_V, dtype=np.int8)
        assert _assert_matches_oracle(cn, codes, prev).all()


def _too_wide(free=0):
    """A pass chain gated by 30 distinct nets: its row key would need 30+
    radix-5 digits, more than an int64 holds.  ``free`` more ternary inputs
    drive nothing and multiply the states."""
    ternary = frozenset({Level.GND, Level.HALF, Level.VDD})
    devices = []
    for i in range(30):
        src = "a" if i % 2 else "b"
        devices.append(Device(f"p{i}", Polarity.P, ThresholdClass.MVT, src, "VDD", f"g{i}"))
        devices.append(Device(f"n{i}", Polarity.N, ThresholdClass.MVT, src, f"g{i}", "GND"))
        devices.append(Device(f"s{i}", Polarity.N, ThresholdClass.LVT, f"g{i}", f"c{i}", f"c{i + 1}"))
    devices.append(Device("top", Polarity.P, ThresholdClass.LVT, "a", "VDD", "c0"))
    inputs = [(x, ternary) for x in ("a", "b", *(f"f{i}" for i in range(free)))]
    return Netlist(inputs=tuple(inputs), devices=tuple(devices))


def test_ccc_kernel_with_a_ccc_too_wide_to_key():
    # each state of a ranked sweep keys the wide CCC alone
    n = _too_wide()
    cn = CompiledNetlist(n)
    assert sorted(g.unkeyed.size for g in cn._ranks) == [0, 1]
    codes = _sweep_codes(n)
    assert _assert_matches_oracle(cn, codes).all()
    swept = Sweep(n)
    want = _dense_solve_batch(swept.cn, swept.codes)
    assert swept.stable.all() and want[3].all()
    levels, masks = _dense(swept)
    assert np.array_equal(levels, want[0]) and np.array_equal(masks, want[1])


@pytest.mark.parametrize("free", [0, 4])
def test_jacobi_rounds_with_a_ccc_too_wide_to_key(free):
    # each round keys the wide CCC afresh: a key by state number would find
    # the state's row of an earlier round
    n = _too_wide(free)
    ranked = Sweep(n)
    cn = CompiledNetlist(n)
    cn.ccc_rank = None
    assert cn._all.unkeyed.size == 1
    got = cn.solve_batch(ranked.codes)
    want = _dense_solve_batch(cn, ranked.codes)
    assert want[3].all() and want[2].max() > 1
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert _views(Sweep(cn)) == _views(ranked)


def test_jacobi_lint_relaxes_only_rows_some_state_ended_in(monkeypatch):
    # the Jacobi memo of the wide CCC holds a row per state and round: 1,782
    # rows, of which the states ended in 732
    n = _too_wide(free=4)
    ranked = Sweep(n)
    want = ranked.full_swing_lint()
    cn = CompiledNetlist(n)
    cn.ccc_rank = None
    jacobi = Sweep(cn)
    assert jacobi.rows[0].masks.shape[1] == 1782
    seen, relax = [], kernel_mod._Group.relax

    def spy(g, x, *args):
        seen.append(x.shape[1] // 2)  # the VDD and GND targets side by side
        return relax(g, x, *args)

    monkeypatch.setattr(kernel_mod._Group, "relax", spy)
    assert want and jacobi.full_swing_lint() == want
    assert seen == [732]


def test_row_index_widens_past_256_rows(monkeypatch):
    # 729 states, one row each in the wide CCC: the uint8 row index widens
    # to uint16 in the middle of the sweep
    monkeypatch.setattr(kernel_mod, "_CHUNK", 100)
    swept = Sweep(_too_wide(free=4))
    assert {t.index.dtype for t in swept.rows} == {np.dtype(np.uint8), np.dtype(np.uint16)}
    assert max(t.masks.shape[1] for t in swept.rows) == 729
    want = swept.cn.solve_batch(swept.codes)
    levels, masks = _dense(swept)
    assert np.array_equal(levels, want[0]) and np.array_equal(masks, want[1])


# -- ranked sweeps against the Jacobi rounds ---------------------------------

def _dense(swept):
    """(states, nets) levels and drive masks of a sweep; a ranked sweep's
    are expanded from its rows and row index, and its kept level columns
    must agree with them.  A Jacobi sweep's masks are those of solve_batch."""
    if swept.cn.ccc_rank is None:
        return swept.levels, swept.cn.solve_batch(swept.codes)[1]
    cn = swept.cn
    S = len(swept.codes)
    levels = np.full((S, cn.n_nets), CODE_X, dtype=np.int8)
    masks = np.zeros((S, cn.n_nets), dtype=np.uint8)
    drv = cn.driver_idx
    levels[:, drv] = swept.levels[:, np.searchsorted(swept.kept, drv)]
    masks[:, drv] = _BIT_OF_CODE[levels[:, drv]]
    for t in swept.rows:
        g = t.g
        assert t.index.shape == (g.n_ccc, S) and (t.index < t.masks.shape[1]).all()
        got = t.masks[g.out_col, t.index.T[:, g.out_ccc]]
        masks[:, g.out_net] = got
        levels[:, g.out_net] = _MASK_TO_CODE[got]
    assert np.array_equal(swept.levels, levels[:, swept.kept])
    return levels, masks


def _views(swept):
    """Every view of a sweep, errors compared by type and text."""
    cn = swept.cn
    return [
        _outcome(swept.decoded_truth),
        _outcome(swept.truth_signature),
        _outcome(swept.division_counts),
        [_outcome(swept.division_counts, net) for net in cn.nets],
        _outcome(lambda: [a.tolist() for a in swept.rail_reach(cn.nets)]),
        [swept.image(net) for net in cn.nets],
        _outcome(swept.full_swing_lint),
    ]


def _assert_ranked_matches_jacobi(n):
    """Levels, masks and stable flags of the sweep equal those of the Jacobi
    rounds bit for bit, and so does every view; returns whether the netlist
    has CCC ranks."""
    swept = Sweep(n)
    cn = CompiledNetlist(n)
    cn.ccc_rank = None  # the same netlist through the Jacobi rounds
    jacobi = Sweep(cn)
    assert len(jacobi.rows) == 1 and jacobi.rows[0].g is cn._all
    assert np.array_equal(swept.codes, _sweep_codes(n))
    assert np.array_equal(swept.stable, jacobi.stable)
    for got, ref in zip(_dense(swept), (jacobi.levels, cn.solve_batch(jacobi.codes)[1])):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert _views(swept) == _views(jacobi)
    return swept.cn.ccc_rank is not None


def test_ranked_sweep_matches_jacobi_on_generated_netlists():
    netlists = [gen_rca(digits, StyleSpec(style, Completeness.PARTIAL,
                                          carry_encoding=Encoding.FULL_VDD_HIGH))
                for digits in (2, 3) for style in Style]
    for cell in _generated_cells():
        netlists += [cell, gen_testbench(cell)]
    for n in netlists:
        assert _assert_ranked_matches_jacobi(n), n.title


@pytest.mark.parametrize("chunk", [2048, 5])
def test_ranked_sweep_matches_jacobi_on_random_netlists(monkeypatch, chunk):
    from test_passes import _random_gated_netlist, _random_netlist

    monkeypatch.setattr(kernel_mod, "_CHUNK", chunk)
    rng = random.Random(606 + chunk)
    makers = (_random_netlist, _random_static_netlist, _random_gated_netlist,
              _random_feedback_netlist)
    ranked = 0
    for i in range(800):
        ranked += _assert_ranked_matches_jacobi(makers[i % 4](rng))
    assert 400 < ranked < 800  # both paths run


# -- oracle: one group built per CCC rank ------------------------------------


class _OracleGroup(NamedTuple):
    """A rank's CCCs as first laid out: the kernel numbered in CCC order and
    a group selected from it per rank, its closure scatter one step per
    channel direction, its rows unpacked, its keys the digit sums of each
    CCC's run of a flat digit list (``digit_*``)."""

    n_ccc: int
    n_cols: int
    drv_cols: np.ndarray
    drv_ccc: np.ndarray
    drv_src: np.ndarray
    dev: np.ndarray
    lut: np.ndarray
    dev_ccc: np.ndarray
    dev_src: np.ndarray
    steps: list
    key_src: np.ndarray
    key_weight: np.ndarray
    key_offset: np.ndarray
    unkeyed: np.ndarray
    out_net: np.ndarray
    out_ccc: np.ndarray
    out_col: np.ndarray
    digit_src: np.ndarray
    digit_weight: np.ndarray
    digit_ccc: np.ndarray  # the CCCs with digits, and where their digits start
    digit_first: np.ndarray

    def keys(self, src):
        keys = np.repeat(self.key_offset[:, None], src.shape[1], axis=1)
        digits = src[self.digit_src] * self.digit_weight[:, None]
        keys[self.digit_ccc] += np.add.reduceat(digits, self.digit_first, axis=0)
        return keys

    def closure(self, drv_codes, gate_codes):
        x = np.zeros((self.n_cols, drv_codes.shape[0]), dtype=np.uint8)
        x[self.drv_cols] = _BIT_OF_CODE[drv_codes.T]
        on = self.lut[np.arange(self.lut.shape[0])[:, None], gate_codes.T]
        steps = [(src, on[order], starts, tgt) for order, src, starts, tgt in self.steps]
        while True:
            before = x.copy()
            for src, w, starts, tgt in steps:
                x[tgt] |= np.bitwise_or.reduceat(x[src] * w, starts, axis=0)
            if np.array_equal(x, before):
                return x


def _oracle_rank_groups(cn, whole=False):
    """The groups of ``cn``'s CCC ranks, one selection of the kernel each;
    with ``whole``, the one group of every CCC in CCC order instead."""
    N, nd, nd_idx = cn.n_nets, ~cn.is_driver, cn.nondriver_idx
    a, b = cn.dev_a, cn.dev_b
    live = np.flatnonzero(nd[a] | nd[b])
    anchor = np.where(nd[a[live]], a[live], b[live])
    ccc_ids, dev_k = np.unique(cn.net_ccc[anchor], return_inverse=True)
    nd_ccc = cn.net_ccc[nd_idx]
    touched = np.isin(nd_ccc, ccc_ids)
    net_k = np.where(touched, np.searchsorted(ccc_ids, nd_ccc), 0)
    C = max(ccc_ids.size, 1)
    L = live.size
    gate, lut = cn.dev_gate[live], cn.dev_lut[live]
    cols, inv = np.unique(
        np.r_[dev_k * N + a[live], dev_k * N + b[live], net_k * N + nd_idx],
        return_inverse=True,
    )
    col_ccc, col_net = np.divmod(cols, N)
    col_drv = cn.is_driver[col_net]
    loc_a, loc_b, out_col = inv[:L], inv[L : 2 * L], inv[2 * L :]
    digits = np.unique(np.r_[dev_k * N + gate, cols[col_drv]])
    key_ccc, key_net = np.divmod(digits, N)
    keep = ~np.isin(key_net, (cn.gnd_idx, cn.vdd_idx))
    key_ccc, key_net = key_ccc[keep], key_net[keep]
    bounds = np.searchsorted(key_ccc, np.arange(C + 1))
    width = np.diff(bounds)
    place = np.arange(key_ccc.size) - bounds[key_ccc]
    cap = (1 << 62) // C
    keyed = np.array([5 ** int(w) <= cap for w in width], dtype=bool)
    span = [5 ** int(w) if k else cap for w, k in zip(width, keyed)]
    key_weight = np.where(keyed[key_ccc], 5 ** np.minimum(place, 26), 0)
    key_offset = np.cumsum([0] + span[:-1], dtype=np.int64)

    def group(ks, col):
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
        # the (CCC, place) grid as wide as the widest keyed CCC, padded with GND
        on = ksel[keyed[key_ccc[ksel]]]
        grid_src = np.full((ks.size, np.r_[0, place[on] + 1].max()), col[cn.gnd_idx])
        grid_weight = np.zeros(grid_src.shape, dtype=np.int64)
        grid_src[k_local[key_ccc[on]], place[on]] = col[key_net[on]]
        grid_weight[k_local[key_ccc[on]], place[on]] = key_weight[on]
        osel = np.flatnonzero(member[net_k])
        return _OracleGroup(
            ks.size, g_drv.size, np.flatnonzero(g_drv), k_local[col_ccc[drv]],
            col[col_net[drv]], live[dsel], lut[dsel], k_local[dev_k[dsel]], col[gate[dsel]],
            steps, grid_src, grid_weight, key_offset[ks], np.flatnonzero(~keyed[ks]),
            nd_idx[osel], k_local[net_k[osel]], local[out_col[osel]],
            col[key_net[ksel]], key_weight[ksel], first_ccc, first,
        )

    if whole:
        return group(np.arange(C), np.arange(N))

    # ranks by relaxation: C rounds settle a DAG's longest paths
    gate_k = np.full(N, -1, dtype=np.intp)
    gate_k[nd_idx[touched]] = net_k[touched]
    src = gate_k[gate]
    src, dst = src[src >= 0], dev_k[src >= 0]
    rank = np.zeros(C, dtype=np.intp)
    for _ in range(C):
        new = rank.copy()
        np.maximum.at(new, dst, rank[src] + 1)
        if np.array_equal(new, rank):
            break
        rank = new
    else:
        return None
    return [group(np.flatnonzero(rank == r), cn._kept_col) for r in range(rank.max() + 1)]


def _oracle_solve_ranked(cn, codes):
    """``solve_ranked`` on the groups of ``_oracle_rank_groups``, each rank's
    kept nets written one at a time."""
    S = codes.shape[0]
    lv = np.full((cn.kept.size, S), CODE_X, dtype=np.int8)
    col = cn._kept_col
    lv[col[cn.gnd_idx]], lv[col[cn.vdd_idx]] = CODE_G, CODE_V
    lv[col[cn.input_idx]] = codes.T
    tables = [kernel_mod._Rows(g, S) for g in _oracle_rank_groups(cn)]
    for lo in range(0, S, kernel_mod._CHUNK):
        block = lv[:, lo : lo + kernel_mod._CHUNK]
        for t in tables:
            g, rows = t.g, t.find(block, slice(lo, lo + kernel_mod._CHUNK))
            dst = col[g.out_net]
            for k in np.flatnonzero(dst >= 0).tolist():
                block[dst[k]] = _MASK_TO_CODE[t.masks[g.out_col[k]]][rows[g.out_ccc[k]]]
    return lv.T, tables


def _channels(steps):
    """(device, source column, target column) of each channel end the
    ``steps`` scatter, sorted: (devices, sources, starts, targets) each."""
    ends = [(dev, src, np.repeat(tgt, np.diff(np.r_[starts, dev.size])))
            for dev, src, starts, tgt in steps if dev.size]
    return sorted(zip(*(np.concatenate(e).tolist() for e in zip(*ends)))) if ends else []


# key_offset aside: its offsets count only the spans of the rank's own CCCs
_SAME_FIELDS = ("n_ccc", "n_cols", "drv_cols", "drv_ccc", "drv_src", "dev", "lut", "dev_ccc",
                "dev_src", "key_src", "key_weight", "unkeyed", "out_net", "out_ccc", "out_col")


def _assert_keys_match_digit_sums(g, w, src):
    """Group ``g``'s grid keys of the (nets, states) levels ``src`` equal the
    oracle group ``w``'s digit sums, each apart from its own key offsets."""
    got, want = g.keys(src) - g.key_offset[:, None], w.keys(src) - w.key_offset[:, None]
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _random_levels(n_nets, states=40):
    """(nets, states) random level codes, X and Z included."""
    return np.random.default_rng(n_nets).integers(0, 5, (n_nets, states), dtype=np.int8)


def _assert_layout_matches_oracle(n):
    """Each rank's group equals the one the oracle selects, keys included,
    and the ranked solve gives the same levels, rows, row index, drive masks
    and gate codes; returns whether the netlist has ranks.  Without ranks,
    ``_all`` keys as the oracle's group of every CCC does."""
    cn = CompiledNetlist(n)
    want_groups = _oracle_rank_groups(cn)
    assert (want_groups is None) == (cn.ccc_rank is None)
    if want_groups is None:
        w = _oracle_rank_groups(cn, whole=True)
        for f in ("n_ccc", "key_src", "key_weight", "key_offset", "unkeyed"):
            assert np.array_equal(getattr(cn._all, f), getattr(w, f)), f
        _assert_keys_match_digit_sums(cn._all, w, _random_levels(cn.n_nets))
        return False
    assert len(cn._ranks) == len(want_groups)
    for g, w in zip(cn._ranks, want_groups):
        for f in _SAME_FIELDS:
            assert np.array_equal(getattr(g, f), getattr(w, f)), f
        assert _channels([g.scatter]) == _channels(w.steps)
        _assert_keys_match_digit_sums(g, w, _random_levels(cn.kept.size))
    # every rank's arrays are runs of one shared array per field
    for f in _SAME_FIELDS[2:] + ("key_offset",):
        assert len({id(getattr(g, f).base) for g in cn._ranks}) == 1, f
    for f in kernel_mod._Step._fields:
        assert len({id(getattr(g.scatter, f).base) for g in cn._ranks}) == 1, f
    codes = _sweep_codes(n)
    lv, tables = cn.solve_ranked(codes)
    want_lv, want = _oracle_solve_ranked(cn, codes)
    assert np.array_equal(lv, want_lv)
    for t, w in zip(tables, want):
        for got, ref in ((t.index, w.index), (t.masks, w.masks), (t.gates, w.gates)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        _assert_keys_match_digit_sums(t.g, w.g, lv.T)
    return True


@pytest.mark.parametrize("chunk", [2048, 5])
def test_rank_layout_matches_per_rank_groups(monkeypatch, chunk):
    from test_passes import _random_gated_netlist, _random_netlist

    monkeypatch.setattr(kernel_mod, "_CHUNK", chunk)
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    for n in [*_generated_cells(), gen_rca(3, spec), _too_wide(0), _too_wide(4)]:
        assert _assert_layout_matches_oracle(n), n.title
    # the random netlists of test_ranked_sweep_matches_jacobi_on_random_netlists
    rng = random.Random(606 + chunk)
    makers = (_random_netlist, _random_static_netlist, _random_gated_netlist,
              _random_feedback_netlist)
    ranked = sum(_assert_layout_matches_oracle(makers[i % 4](rng)) for i in range(800))
    assert 400 < ranked < 800


def test_rows_per_rank_on_rca4_match_per_rank_groups():
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    cn = CompiledNetlist(gen_rca(4, spec))
    codes = _sweep_codes(cn.netlist)
    _, tables = cn.solve_ranked(codes)
    _, want = _oracle_solve_ranked(cn, codes)
    assert [t.masks.shape[1] for t in tables] == [w.masks.shape[1] for w in want]


def test_packed_closure_matches_unpacked_closure(monkeypatch):
    # row counts on both sides of _PACK_ROWS, and across a word boundary
    from test_passes import _random_gated_netlist

    rng = random.Random(77)
    cells = [*_generated_cells(), *(_random_gated_netlist(rng) for _ in range(60))]
    for n in cells:
        cn = CompiledNetlist(n)
        for g in [cn._all, *(cn._ranks if cn.ccc_rank is not None else [])]:
            for R in (1, 3, 4, 21, 22, 50):
                drv = np.array([[rng.randrange(3) for _ in g.drv_src] for _ in range(R)], np.int8)
                gates = np.array([[rng.randrange(5) for _ in g.dev_src] for _ in range(R)], np.int8)
                drv, gates = drv.reshape(R, -1), gates.reshape(R, -1)
                monkeypatch.setattr(kernel_mod, "_PACK_ROWS", 1)
                packed = g.closure(drv, gates)
                monkeypatch.setattr(kernel_mod, "_PACK_ROWS", 10**9)
                unpacked = g.closure(drv, gates)
                assert packed.dtype == unpacked.dtype == np.uint8
                assert np.array_equal(packed, unpacked), n.title


def test_ranked_sweep_finds_rows_once_per_rank_and_chunk(monkeypatch):
    # the layout is built with the compile; a sweep makes one find per rank
    # and chunk of states, and builds no group
    monkeypatch.setattr(kernel_mod, "_CHUNK", 7)
    finds = []
    find = kernel_mod._Rows.find
    monkeypatch.setattr(kernel_mod._Rows, "find", lambda t, src, lo: finds.append(lo) or find(t, src, lo))
    cn = CompiledNetlist(gen_tfa(StyleSpec(Style.DEC_ENC, Completeness.COMPLETE)))
    ranks = cn._ranks
    monkeypatch.setattr(kernel_mod, "_Group", None)  # a group built now would fail
    Sweep(cn)
    assert cn._ranks is ranks
    assert len(finds) == len(ranks) * 4  # 27 states in chunks of 7


FEEDBACK = parse(
    ".output y\n.output z\n"
    "m pu p lvt g=GND s=VDD d=y\nm pd n hvt g=z s=y d=GND\n"
    "m qu p lvt g=GND s=VDD d=z\nm qd n hvt g=y s=z d=GND\n.end\n"
)


@pytest.mark.parametrize("n", [
    parse(".output y\nm pu p lvt g=GND s=VDD d=y\nm pd n hvt g=y s=y d=GND\n.end\n"),
    FEEDBACK,
], ids=["self-gated", "two-ccc-loop"])
def test_netlists_without_ranks_take_the_jacobi_rounds(n):
    # y and z are pulled up, and each one's HVT pull-down turns on only when
    # the gating net sits at VDD, so the levels alternate with period 2
    cn = CompiledNetlist(n)
    assert cn.ccc_rank is None
    assert not _assert_ranked_matches_jacobi(n)
    with pytest.raises(OscillationError, match="no fixed point at input point"):
        truth_table(n)
    with pytest.raises(OscillationError):
        decoded_truth(n)


RING = parse(
    "m px p lvt g=z s=VDD d=x\nm nx n lvt g=z s=x d=GND\n"
    "m py p lvt g=x s=VDD d=y\nm ny n lvt g=x s=y d=GND\n"
    "m pz p lvt g=y s=VDD d=z\nm nz n lvt g=y s=z d=GND\n.end\n"
)


@pytest.mark.parametrize("seed,rounds,final,drive", [
    # (x, y, z) cycles with period 6 and runs out the 4·n_nets budget of 20
    # rounds: the levels are those of the last round, the masks those of
    # one more, and the dense oracle agrees on all of them
    ((CODE_G, CODE_V, CODE_G), 20, (CODE_V, CODE_G, CODE_G), (_BIT_V, _BIT_G, _BIT_V)),
    # all equal: period 2, caught from the third round on (the second round
    # repeats only the seed), with the levels and masks of that round
    ((CODE_G, CODE_G, CODE_G), 3, (CODE_V, CODE_V, CODE_V), (_BIT_V, _BIT_V, _BIT_V)),
], ids=["period-6", "period-2"])
def test_jacobi_rounds_on_an_unstable_ring(seed, rounds, final, drive):
    cn = CompiledNetlist(RING)
    nets = [cn.index[name] for name in "xyz"]
    prev = np.full((1, cn.n_nets), CODE_X, dtype=np.int8)
    prev[0, nets] = seed
    codes = np.zeros((1, 0), dtype=np.int8)
    got = cn.solve_batch(codes, prev)
    lv, masks, got_rounds, stable = got
    assert not stable[0] and got_rounds[0] == rounds
    assert tuple(lv[0, nets].tolist()) == final
    assert tuple(masks[0, nets].tolist()) == drive
    if rounds == 20:
        want = _dense_solve_batch(cn, codes, prev)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # a one-state solve names the same budget when it gives up
    with pytest.raises(OscillationError, match=f"no fixed point within {4 * cn.n_nets} rounds"):
        solver_mod._solve_one(cn, codes[0], prev)


def _key_nets(g, rails):
    """The key nets of each CCC of group ``g``: the nets, ``rails`` aside,
    among its driver copies and gates, as columns of what ``g`` reads."""
    nets = [set() for _ in range(g.n_ccc)]
    for c, net in zip(np.r_[g.drv_ccc, g.dev_ccc].tolist(), np.r_[g.drv_src, g.dev_src].tolist()):
        if net not in rails:
            nets[c].add(net)
    return nets


def test_one_input_ranks_keep_a_five_row_table():
    # a rank whose CCCs each have at most one key net closes five rows, one
    # per level code of the key net, and indexes each state by that code
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    netlists = [gen_rca(digits, spec) for digits in (2, 3, 4)]
    for cell in _generated_cells():
        netlists += [cell, gen_testbench(cell)]
    kinds = set()
    for n in netlists:
        swept = Sweep(n)
        cn = swept.cn
        rails = set(cn._kept_col[[cn.gnd_idx, cn.vdd_idx]].tolist())
        for t in swept.rows:
            keys = _key_nets(t.g, rails)
            assert t.table == all(len(k) <= 1 for k in keys), n.title
            kinds.add(t.table)
            if t.table:
                assert t.masks.shape[1] == t.gates.shape[1] == 5
                want = [swept.levels[:, min(k)] if k else np.zeros(len(swept.codes)) for k in keys]
                assert np.array_equal(t.index, want)
    assert kinds == {True, False}
    # the 4-digit RCA: the a/b NTI and PTI rank and the three carry inverters
    assert [t.table for t in Sweep(netlists[2]).rows] == [True, False] * 4


LATCH = parse(
    ".input a ternary\n.output y\n"
    "m p0 p hvt g=a s=VDD d=y\nm n0 n hvt g=a s=y d=GND\n"
    "m pq p lvt g=qb s=VDD d=q\nm nq n lvt g=qb s=q d=GND\n"
    "m pb p lvt g=q s=VDD d=qb\nm nb n lvt g=q s=qb d=GND\n"
    "m pz p lvt g=q s=VDD d=z\nm nz n lvt g=q s=z d=GND\n"
    "m pw p lvt g=GND s=VDD d=w\n.end\n"
)


@pytest.mark.parametrize("n", [LATCH, RING], ids=["latch", "ring"])
def test_one_input_jacobi_rounds_match_the_dense_oracle(n):
    # no ranks, and every CCC has at most one key net (w has none): the
    # Jacobi rounds read _all's rows from a table
    cn = CompiledNetlist(n)
    assert cn.ccc_rank is None and kernel_mod._Rows(cn._all, 1).table
    if n is LATCH:  # w has no key net: all five of its rows are pulled up
        t = Sweep(cn).rows[0]
        assert t.masks[cn._all.out_col[cn._all.out_net == cn.index["w"]]].tolist() == [[_BIT_V] * 5]
    codes = np.repeat(_sweep_codes(n), 40, axis=0)
    prev = np.random.default_rng(9).integers(0, 5, (len(codes), cn.n_nets)).astype(np.int8)
    assert not _assert_matches_oracle(cn, codes, prev).all()
    # solve_state(prev=...) one state at a time
    for row, held in zip(codes[:60], prev[:60]):
        lv, masks, rounds, stable = _dense_solve_batch(cn, row[None], held[None])
        before = kernel_mod.SolveResult(dict(zip(cn.nets, map(_LEVEL_OF_CODE.__getitem__, held))),
                                        frozenset(), frozenset(), 0)
        point = dict(zip(n.input_names, solver_mod._level_tuples(row[None])[0]))
        got = _outcome(solve_state, n, point, before)
        if stable[0]:
            assert got == cn.result_from_state(lv[0], masks[0], rounds[0])
        else:
            assert got[0] == "OscillationError"
    # simulate_pattern: each step seeded with the oracle's last
    points = input_space(n)
    rows = [points[i % len(points)] for i in (0, 1, 2, 1, 0)]
    trace, _ = simulate_pattern(n, rows)
    held = None
    for step, row in enumerate(rows):
        lv, _, _, stable = _dense_solve_batch(cn, cn.codes_for_inputs(dict(zip(n.input_names, row)))[None], held)
        levels = solver_mod._level_tuples(lv)[0]
        assert stable[0] and trace[step] == {"step": step, **dict(zip(cn.nets, levels))}
        held = lv
    assert _assert_simulation_matches_reference(n, rows) == "ok"


def test_ccc_ranks_follow_gate_to_channel_edges():
    # three STIs in a chain: each stage's CCC is gated by the one before
    chain = parse(
        ".input a ternary\n.output y\n"
        "m p0 p lvt g=a s=VDD d=x1\nm n0 n lvt g=a s=x1 d=GND\n"
        "m p1 p lvt g=x1 s=VDD d=x2\nm n1 n lvt g=x1 s=x2 d=GND\n"
        "m p2 p lvt g=x2 s=VDD d=y\nm n2 n lvt g=x2 s=y d=GND\n"
        "m g0 n lvt g=free s=x1 d=GND\n.end\n"
    )
    cn = CompiledNetlist(chain)
    rank = {net: int(cn.ccc_rank[cn._all.out_ccc[np.flatnonzero(
        cn._all.out_net == cn.index[net])[0]]]) for net in ("x1", "x2", "y")}
    # the gate net "free" touches no channel: it reads Z and adds no edge,
    # so the first stage does not gate itself
    assert rank == {"x1": 0, "x2": 1, "y": 2}
    assert len(cn._ranks) == 3


def _reference_points(n):
    """The input space as first written: Level tuples from itertools.product."""
    axes = [sorted(dom, key=lambda lv: _CODE_OF_LEVEL[lv]) for _, dom in n.inputs]
    return list(itertools.product(*axes))


def test_sweep_codes_follow_the_lexicographic_input_space():
    from test_passes import _narrowed

    ternary = frozenset({Level.GND, Level.HALF, Level.VDD})
    full = Netlist(inputs=(("a", ternary), ("b", frozenset({Level.GND, Level.VDD})),
                           ("c", ternary), ("d", frozenset({Level.HALF}))))
    for domains in ({}, {"c": frozenset({Level.VDD, Level.GND})}, {"a": frozenset()}):
        n = _narrowed(full, domains)
        points = _reference_points(n)
        swept = Sweep(n)
        assert swept.codes.dtype == np.int8
        assert swept.codes.shape == (len(points), 4)
        assert swept.points == input_space(n) == points
        assert swept.codes.tolist() == [[_CODE_OF_LEVEL[lv] for lv in pt] for pt in points]
    assert Sweep(Netlist()).codes.shape == (1, 0)


# -- decoded truth against the route through truth_table ----------------------

def _reference_decoded_truth(n):
    """decoded_truth as first written: the truth table point by point, then
    each input and output level decoded on its own."""
    cn = CompiledNetlist(n)
    points = _reference_points(n)
    codes = np.array([[_CODE_OF_LEVEL[lv] for lv in pt] for pt in points],
                     dtype=np.int8).reshape(len(points), len(n.inputs))
    lv, _, _, stable = cn.solve_batch(codes)
    if not stable.all():
        raise OscillationError(f"no fixed point at input point {points[np.flatnonzero(~stable)[0]]}")
    table = {}
    for pt, row in zip(points, lv[:, cn.output_idx].tolist()):
        for name, code in zip(n.output_names, row):
            if code in (CODE_X, CODE_Z):
                raise UnresolvableError(f"output {name!r} unresolved at input {pt}")
        table[pt] = tuple(_LEVEL_OF_CODE[code] for code in row)
    in_encs = [domain_encoding(dom) for _, dom in n.inputs]
    out_encs = [enc for _, enc in n.outputs]
    return {tuple(map(decode, pt, in_encs)): tuple(map(decode, levels, out_encs))
            for pt, levels in table.items()}


def test_decoded_truth_matches_reference_route():
    from test_passes import _narrowed, _random_gated_netlist, _random_netlist

    floating = parse(".input a binary\n.output y\nm m0 n lvt g=a s=VDD d=y\n.end\n")
    wrong_level = replace(STI, outputs=(("y", Encoding.FULL_VDD_HIGH),))
    cases = [STI, BININV, floating, wrong_level,
             _narrowed(STI, {"a": frozenset({Level.GND, Level.HALF})}),
             _narrowed(BININV, {"a": frozenset({Level.HALF})})]
    rng = random.Random(909)
    makers = (_random_netlist, _random_static_netlist, _random_gated_netlist,
              _random_feedback_netlist)
    for i in range(600):
        n = makers[i % 4](rng)
        n = replace(n, outputs=tuple((name, rng.choice(list(Encoding))) for name in n.output_names))
        levels = [Level.GND, Level.HALF, Level.VDD]
        domains = {name: frozenset(rng.sample(levels, rng.randint(1, 3)))
                   for name in n.input_names if rng.random() < 0.3}
        cases.append(_narrowed(n, domains))
    seen = set()
    for n in cases:
        got = _outcome(lambda: Sweep(n).decoded_truth())
        assert got == _outcome(_reference_decoded_truth, n)
        seen.add(got[0] if isinstance(got, tuple) else "ok")
    assert seen == {"ok", "DomainError", "UnresolvableError", "OscillationError"}


# -- truth signatures ----------------------------------------------------------

def test_truth_signature_entries_do_not_depend_on_other_points():
    # y is the STI read as a binary output, so at a=HALF it sits at a level
    # outside its encoding; b pulls up a side net z that, in the second
    # netlist, gates its own pull-down and so oscillates whenever b is GND
    pull_up = Device("pu", Polarity.P, ThresholdClass.LVT, "b", "VDD", "z")
    self_gated = Device("pd", Polarity.N, ThresholdClass.HVT, "z", "z", "GND")
    calm = Netlist(
        inputs=(("a", frozenset({Level.GND, Level.HALF, Level.VDD})),
                ("b", frozenset({Level.GND, Level.VDD}))),
        outputs=(("y", Encoding.FULL_VDD_HIGH),),
        devices=STI.devices + (pull_up,),
    )
    osc = replace(calm, devices=calm.devices + (self_gated,))
    sig_calm, sig_osc = Sweep(calm).truth_signature(), Sweep(osc).truth_signature()
    shared = (Level.HALF, Level.VDD)
    assert sig_calm[shared] == sig_osc[shared] == (("level", CODE_H),)
    for pt, entry in sig_osc.items():
        if pt[1] is Level.GND:
            assert entry == ("error", "OscillationError")
        else:
            assert entry == sig_calm[pt]


# -- oracle: the per-state swing-lint search ---------------------------------


def _reference_lint(n):
    """The swing lint before the array relaxation: per state, a breadth-first
    search finds the nets joined to the target rail by right-polarity
    devices, and a heap-based widest-path search gives every other net at
    the rail level its best headroom."""
    sweep = Sweep(n)
    cn = sweep.cn
    lv = cn.solve_batch(sweep.codes)[0]
    worst = {}
    ends = list(zip(cn.dev_a.tolist(), cn.dev_b.tolist()))
    is_n = cn.dev_is_n.tolist()
    of_polarity = {Polarity.N: is_n, Polarity.P: [not k for k in is_n]}
    for s in range(len(sweep.points)):
        state = lv[s]
        on = cn.dev_lut[np.arange(cn.n_devices), state[cn.dev_gate]]
        adj = {}
        for i in np.flatnonzero(on).tolist():
            for t in ends[i]:
                adj.setdefault(t, []).append(i)
        for target_code, good_pol, bad_pol in (
            (CODE_V, Polarity.P, Polarity.N),
            (CODE_G, Polarity.N, Polarity.P),
        ):
            at_target = state == target_code
            drivers = np.flatnonzero(cn.is_driver & at_target).tolist()
            clean = _reference_reach(cn, adj, ends, of_polarity[good_pol], drivers)
            for net_i in np.flatnonzero(~cn.is_driver & at_target).tolist():
                if net_i in clean:
                    continue
                head = _reference_headroom(cn, n, state, adj, ends, drivers, net_i, bad_pol)
                if head is None:
                    continue
                key = (cn.nets[net_i], bad_pol)
                if key not in worst or head < worst[key]:
                    worst[key] = head
    return [(net, pol, head) for (net, pol), head in sorted(
        worst.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    )]


def _reference_reach(cn, adj, ends, allowed, start):
    seen = set(start)
    frontier = list(start)
    while frontier:
        cur = frontier.pop()
        for i in adj.get(cur, ()):
            if not allowed[i]:
                continue
            a, b = ends[i]
            nxt = b if a == cur else a
            if nxt not in seen:
                seen.add(nxt)
                if not cn.is_driver[nxt]:
                    frontier.append(nxt)
    return seen


def _reference_headroom(cn, n, state, adj, ends, drivers, target, bad_pol):
    volts = {CODE_G: 0.0, CODE_H: n.vdd / 2, CODE_V: n.vdd}
    INF = float("inf")
    best = {d: INF for d in drivers}
    heap = [(-INF, d) for d in drivers]
    devs = n.devices
    while heap:
        neg, cur = heapq.heappop(heap)
        width = -neg
        if width < best.get(cur, -INF):
            continue
        if cur == target:
            return None if width == INF else width
        for i in adj.get(cur, []):
            a, b = ends[i]
            nxt = b if a == cur else a
            if cn.is_driver[nxt] and nxt != target:
                continue
            d = devs[i]
            gv = volts[int(state[cn.dev_gate[i]])]
            if d.polarity is bad_pol:
                if bad_pol is Polarity.N:
                    cost = gv - d.vt.vt_volts
                else:
                    cost = (n.vdd - gv) - d.vt.vt_volts
            else:
                cost = INF
            w = min(width, cost)
            if w > best.get(nxt, -INF):
                best[nxt] = w
                heapq.heappush(heap, (-w, nxt))
    return None


def _generated_cells():
    for style in Style:
        for carry in (Encoding.HALF_VDD_HIGH, Encoding.FULL_VDD_HIGH):
            yield gen_tha(style, carry)
            for completeness in Completeness:
                if completeness is Completeness.COMPLETE and carry is Encoding.FULL_VDD_HIGH:
                    continue
                for cascade in Cascade:
                    yield gen_tfa(StyleSpec(style, completeness, carry, cascade))
    for kind in GateKind:
        yield gen_gate(kind)


def _assert_lint_matches_reference(n):
    """Exact (float ==) agreement; returns the number of warnings."""
    got = [tuple(w) for w in full_swing_lint(n)]
    assert got == _reference_lint(n)
    return len(got)


def test_swing_lint_matches_reference_on_generated_cells_and_testbenches():
    warned = 0
    for cell in _generated_cells():
        warned += _assert_lint_matches_reference(cell)
        warned += _assert_lint_matches_reference(gen_testbench(cell))
    assert warned > 100


def test_swing_lint_matches_reference_on_random_feedback_netlists():
    rng = random.Random(3141)
    compared = warned = oscillating = 0
    while compared < 1000:
        n = _random_feedback_netlist(rng)
        if not Sweep(n).stable.all():
            oscillating += 1
            with pytest.raises(OscillationError):
                full_swing_lint(n)
            continue
        warned += _assert_lint_matches_reference(n)
        compared += 1
    assert warned > 500 and oscillating


def test_swing_lint_across_state_blocks(monkeypatch):
    # 27 states cut into chunks of 5: headrooms merge across chunks and
    # across rows that an earlier chunk already closed
    monkeypatch.setattr(kernel_mod, "_CHUNK", 5)
    for style in Style:
        cell = gen_tfa(StyleSpec(style, Completeness.COMPLETE))
        _assert_lint_matches_reference(cell)
        _assert_lint_matches_reference(gen_testbench(cell))


def test_swing_lint_matches_reference_on_rca2():
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    assert _assert_lint_matches_reference(gen_rca(2, spec)) > 0


def test_swing_lint_on_rca4_is_pinned():
    # the warnings of the dense (states, nets) lint, recorded before the
    # lint moved onto CCC rows
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    warnings = full_swing_lint(gen_rca(4, spec))
    text = "\n".join(f"{w.net} {w.polarity.value} {w.headroom!r}" for w in warnings)
    assert len(warnings) == 340
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "29d7a543db147ed9f94b2dc06a6be3163b1b8f09f686f05ba286b58485ab9a52")


def test_rca5_sweep_is_exhaustive_in_bounded_memory():
    # 118,098 states: the factored sweep keeps rows, a row index and a few
    # level columns, never a (states, nets) array
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    swept = Sweep(gen_rca(5, spec))
    truth = swept.decoded_truth()
    assert len(truth) == 3 ** 10 * 2
    for pt, val in truth.items():
        a = sum(t * 3 ** i for i, t in enumerate(pt[:5]))
        b = sum(t * 3 ** i for i, t in enumerate(pt[5:10]))
        total = a + b + pt[10]
        assert val == tuple(total // 3 ** i % 3 for i in range(5)) + (total // 243,), pt
    held = [v for v in vars(swept).values() if isinstance(v, np.ndarray)]
    held += [v for t in swept.rows for v in vars(t).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in held) < 16 * 2 ** 20


# -- oracle: pattern simulation one solve_state per step ---------------------


def _reference_simulate(n, rows):
    """simulate_pattern before it stepped on arrays: one solve_state per
    step, Level dicts in and out, activity summed in volts."""
    if not rows:
        raise DomainError("pattern must contain at least one vector")
    nets = n.nets()
    volts = {Level.GND: 0.0, Level.HALF: n.vdd / 2, Level.VDD: n.vdd}
    trace, divs, rounds, sums = [], [], [], []
    prev = None
    for step, row in enumerate(rows):
        res = solve_state(n, dict(zip(n.input_names, row)), prev=prev)
        trace.append({"step": step, **{net: res.levels[net] for net in nets}})
        divs.append(len(res.division_events))
        if prev is not None:
            rounds.append(res.settle_rounds)
            delta = 0.0
            for net in nets:
                a, b = prev.levels[net], res.levels[net]
                if a in volts and b in volts:
                    delta += abs(volts[b] - volts[a]) / (n.vdd / 2)
            sums.append(delta)
        prev = res
    report = solver_mod.MetricsReport(
        delay_rounds=max(rounds, default=0),
        static_div_mean=float(np.mean(divs)),
        activity=float(np.mean(sums)) if sums else 0.0,
        device_total=len(n.devices),
    )
    return trace, report


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - errors compare by type and text
        return type(exc).__name__, str(exc)


def _assert_simulation_matches_reference(n, rows):
    """Equal traces and reports (float ==), or equal errors; returns the
    outcome's kind."""
    got = _outcome(simulate_pattern, n, rows)
    assert got == _outcome(_reference_simulate, n, rows)
    return got[0] if isinstance(got[0], str) else "ok"


def test_simulation_matches_reference_on_generated_cells():
    rng = random.Random(703)
    for cell in _generated_cells():
        walk = [tuple(rng.choice(sorted(dom, key=lambda lv: lv.value)) for _, dom in cell.inputs)
                for _ in range(15)]
        assert _assert_simulation_matches_reference(cell, walk) == "ok"


def test_simulation_matches_reference_on_random_netlists():
    from test_passes import _random_gated_netlist

    rng = random.Random(704)
    kinds = set()
    for i in range(300):
        n = (_random_gated_netlist, _random_feedback_netlist)[i % 2](rng)
        rows = [tuple(rng.choice(list(Level)[:3]) for _ in n.inputs)
                for _ in range(rng.randint(1, 10))]
        kinds.add(_assert_simulation_matches_reference(n, rows))
    assert kinds == {"ok", "DomainError", "OscillationError", "UnresolvableError"}


def test_solves_keep_no_netlist_alive():
    # every compiled netlist belongs to the call that built it, so once the
    # caller lets go of a netlist nothing else holds it
    n = parse(serialize(STI))
    truth_table(n)
    full_swing_lint(n)
    simulate_pattern(n, [(Level.GND,), (Level.HALF,)])
    ref = weakref.ref(n)
    del n
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("lookup", [
    lambda n: division_counts(n, "nope"),
    lambda n: Sweep(n).image("nope"),
    lambda n: Sweep(n).rail_reach(["y", "nope"]),
    lambda n: apply_assumption(n, AssumptionDomain("nope", frozenset({Level.GND}))),
    lambda n: rebind_carry(n, "nope"),
], ids=["division_counts", "image", "rail_reach", "apply_assumption", "rebind_carry"])
def test_unknown_net_names_raise_unknown_net_error(lookup):
    # the sweep views name a missing net as the passes do
    with pytest.raises(UnknownNetError) as err:
        lookup(STI)
    assert str(err.value) == "no net named 'nope'"


def test_kernel_imports_only_errors_netlist_and_trits():
    # the CCC kernel sits below the sweeps, views, passes and CLI: none of
    # them may be imported back into it
    tree = ast.parse(Path(kernel_mod.__file__).read_text())
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert relative and relative <= {"errors", "netlist", "trits"}
    assert not {name for name in absolute if name.split(".")[0] == "tritforge"}


def _parser_tokens(path):
    """The tokens the parser reads from a source file: no NL, comment or
    encoding tokens."""
    skip = {tokenize.NL, tokenize.COMMENT, tokenize.ENCODING}
    with open(path, "rb") as f:
        return sum(tok.type not in skip for tok in tokenize.tokenize(f.readline))


def test_every_module_stays_under_8192_parser_tokens():
    # compiling a module from source steps up in peak memory at each power
    # of two of its parser tokens, and every fresh import compiles them all
    sizes = {p.name: _parser_tokens(p) for p in Path(kernel_mod.__file__).parent.glob("*.py")}
    largest = max(sizes, key=sizes.get)
    assert len(sizes) > 5
    assert sizes[largest] < 8192, f"{largest} holds {sizes[largest]} parser tokens"
