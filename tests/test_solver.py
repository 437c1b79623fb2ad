import heapq
import random
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

import tritforge.solver as solver_mod

from tritforge.errors import (
    DomainError,
    OscillationError,
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
from tritforge.netlist import Device, Netlist, Polarity, ThresholdClass, parse
from tritforge.solver import (
    CODE_G,
    CODE_H,
    CODE_V,
    CODE_X,
    Sweep,
    _CODE_OF_LEVEL,
    _MASK_TO_CODE,
    compiled,
    conduction,
    decoded_truth,
    division_counts,
    full_swing_lint,
    input_space,
    simulate_pattern,
    solve_state,
    trace_csv,
    truth_signature,
    truth_table,
)
from tritforge.trits import Encoding, Level

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
    cn = compiled(n)
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
        from tritforge.solver import compiled

        for pt in input_space(n):
            assignment = dict(zip(n.input_names, pt))
            # no outputs declared, so go through the compiled interface
            cn = compiled(n)
            row = cn.codes_for_inputs(assignment)[None, :]
            lv, masks, rounds, stable = cn.solve_batch(row)
            assert stable[0]
            got = cn.result_from_state(lv[0], masks[0], rounds[0],
                                       from_scratch=False)
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


@pytest.mark.parametrize("share_min,chunk", [(16, 2048), (1, 2048), (1, 5)])
def test_ccc_kernel_matches_dense_oracle_on_random_netlists(monkeypatch, share_min, chunk):
    # share_min 1 sends even tiny sweeps through the shared-row path; chunk 5
    # cuts every sweep into several chunks
    from test_passes import _random_netlist

    monkeypatch.setattr(solver_mod, "_SHARE_MIN", share_min)
    monkeypatch.setattr(solver_mod, "_CHUNK", chunk)
    rng = random.Random(2024 + share_min + chunk)
    gen = np.random.default_rng(share_min + chunk)
    unstable = 0
    for i in range(600):
        make = (_random_netlist, _random_static_netlist, _random_feedback_netlist)[i % 3]
        n = make(rng)
        cn = compiled(n)
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
    cn = compiled(n)
    codes = _sweep_codes(n)
    assert codes.shape[0] == 1458
    assert _assert_matches_oracle(cn, codes).all()


def test_ccc_kernel_matches_dense_oracle_across_chunks():
    # more states than one chunk, and not a multiple of it
    n = gen_tfa(StyleSpec(Style.DEC_ENC, Completeness.COMPLETE))
    cn = compiled(n)
    base = _sweep_codes(n)
    size = solver_mod._CHUNK + 101
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
        cn = compiled(n)
        codes = _sweep_codes(n)
        assert _assert_matches_oracle(cn, codes).all()
        prev = np.full((codes.shape[0], cn.n_nets), CODE_V, dtype=np.int8)
        assert _assert_matches_oracle(cn, codes, prev).all()


def test_ccc_kernel_with_a_ccc_too_wide_to_key(monkeypatch):
    # a pass chain gated by 30 distinct nets: its row key would need 30+
    # radix-5 digits, more than an int64 holds, so each state keys it alone
    monkeypatch.setattr(solver_mod, "_SHARE_MIN", 1)
    ternary = frozenset({Level.GND, Level.HALF, Level.VDD})
    devices = []
    for i in range(30):
        src = "a" if i % 2 else "b"
        devices.append(Device(f"p{i}", Polarity.P, ThresholdClass.MVT, src, "VDD", f"g{i}"))
        devices.append(Device(f"n{i}", Polarity.N, ThresholdClass.MVT, src, f"g{i}", "GND"))
        devices.append(Device(f"s{i}", Polarity.N, ThresholdClass.LVT, f"g{i}", f"c{i}", f"c{i + 1}"))
    devices.append(Device("top", Polarity.P, ThresholdClass.LVT, "a", "VDD", "c0"))
    n = Netlist(inputs=(("a", ternary), ("b", ternary)), devices=tuple(devices))
    cn = compiled(n)
    assert cn._unkeyed.size == 1
    codes = _sweep_codes(n)
    assert _assert_matches_oracle(cn, codes).all()


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
    sig_calm, sig_osc = truth_signature(calm), truth_signature(osc)
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
    cn, lv = sweep.cn, sweep.levels
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
    # 27 states cut into blocks of 4: headrooms merge across blocks
    monkeypatch.setattr(solver_mod, "_LINT_BLOCK", 4)
    for style in Style:
        cell = gen_tfa(StyleSpec(style, Completeness.COMPLETE))
        _assert_lint_matches_reference(cell)
        _assert_lint_matches_reference(gen_testbench(cell))
