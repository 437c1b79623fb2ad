"""Netlist simplification passes.

The central mechanism: once an input is known to range over a restricted
set of levels, every device gated by it (or by a tracked inverted copy of
it) is either always on (becomes a wire), always off (becomes an open), or
still switching (kept, possibly with a faster threshold class when the
signal is binary).  Dead-logic pruning, parallel-duplicate factoring, and
carry-rail re-encoding clean up afterwards.

All passes are pure: they return a new Netlist plus a PassReport.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    DomainError,
    EquivalenceCheckFailedError,
    NetlistSemanticError,
    NoDividerFoundError,
    NonInputAssumptionError,
    OscillationError,
    UnknownNetError,
    UnresolvableError,
)
from .netlist import (
    Device,
    Netlist,
    Polarity,
    RAILS,
    TAG_DIVIDER,
    ThresholdClass,
)
from .solver import Sweep, compiled, conduction, truth_signature, truth_table
from .trits import Encoding, Level, STABLE_LEVELS


@dataclass(frozen=True)
class AssumptionDomain:
    """A restriction of one input net to a subset of the stable levels."""

    net: str
    levels: frozenset

    def __post_init__(self):
        if not self.levels:
            raise DomainError("assumption needs at least one level")
        if not set(self.levels) <= set(STABLE_LEVELS):
            raise DomainError("assumptions range over stable levels only")


@dataclass
class PassReport:
    wired: int = 0
    opened: int = 0
    remapped: int = 0
    pruned: int = 0
    factored: int = 0

    def __add__(self, other: "PassReport") -> "PassReport":
        return PassReport(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


# -- helpers ---------------------------------------------------------------


def _merge_nets(n: Netlist, unions: list, removed_ids: set, vt_map: dict) -> Netlist:
    """Apply wire merges / opens / remaps and rebuild the netlist."""
    parent: dict[str, str] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def priority(net):
        if net in RAILS:
            return 3
        if net in n.input_names or net in n.output_names:
            return 2
        return 1

    for u, v in unions:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if ru in RAILS and rv in RAILS:
            raise NetlistSemanticError("a wire replacement would short the rails")
        keep, drop = sorted((ru, rv), key=lambda x: (-priority(x), x))
        parent[drop] = keep

    devices = []
    for d in n.devices:
        if d.id in removed_ids:
            continue
        vt = vt_map.get(d.id, d.vt)
        devices.append(
            Device(d.id, d.polarity, vt, find(d.gate), find(d.source), find(d.drain), d.tags)
        )
    inputs = tuple((find(name), dom) for name, dom in n.inputs)
    outputs = tuple((find(name), enc) for name, enc in n.outputs)
    loads = tuple((find(net), f) for net, f in n.loads)
    return replace(
        n,
        inputs=inputs,
        outputs=outputs,
        devices=tuple(devices),
        loads=loads,
        extra_nets=frozenset(),
    )


def _tracked_complements(n: Netlist, a: AssumptionDomain) -> dict[str, frozenset]:
    """Single-inverter cells driven only by the assumed net.

    Returns net -> image level set under the assumption, computed by
    solving the isolated cell over the assumed levels.
    """
    stop = set(RAILS) | set(n.input_names)
    candidate_gates = {
        d.gate for d in n.devices if d.gate not in stop and d.gate != a.net
    }
    tracked = {}
    cn = compiled(n)
    for y in sorted(candidate_gates):
        nets, devs = cn.channel_component(y)
        if not devs:
            continue
        if any(d.gate not in RAILS and d.gate != a.net for d in devs):
            continue
        if any(t in n.input_names for d in devs for t in (d.source, d.drain)):
            continue
        cell = Netlist(
            title="",
            vdd=n.vdd,
            inputs=((a.net, frozenset(a.levels)),),
            outputs=((y, Encoding.STANDARD),),
            devices=tuple(devs),
            loads=(),
        )
        try:
            tt = truth_table(cell)
        except (OscillationError, UnresolvableError):
            continue
        image = frozenset(out[0] for out in tt.values())
        if image <= set(STABLE_LEVELS):
            tracked[y] = image
    return tracked


# -- passes ----------------------------------------------------------------


def apply_assumption(n: Netlist, a: AssumptionDomain):
    """Restrict an input's domain and eliminate devices it can no longer switch."""
    if a.net not in n.nets():
        raise UnknownNetError(f"no net named {a.net!r}")
    if a.net not in n.input_names:
        raise NonInputAssumptionError(f"{a.net!r} is not a declared input")

    tracked = _tracked_complements(n, a)
    binary_assumption = frozenset(a.levels) == frozenset({Level.GND, Level.VDD})

    unions, removed, vt_map = [], set(), {}
    report = PassReport()
    for d in n.devices:
        if d.gate == a.net:
            gate_levels = a.levels
        elif d.gate in tracked:
            gate_levels = tracked[d.gate]
        else:
            continue
        states = [conduction(d.polarity, d.vt, lv, n.vdd) for lv in gate_levels]
        if all(states):
            # an input clamps its node; merging it into its neighbour would
            # silently erase the driver, so keep such devices as they are
            if {d.source, d.drain} & set(n.input_names):
                continue
            removed.add(d.id)
            unions.append((d.source, d.drain))
            report.wired += 1
        elif not any(states):
            removed.add(d.id)
            report.opened += 1
        elif binary_assumption and d.vt is not ThresholdClass.LVT:
            vt_map[d.id] = ThresholdClass.LVT
            report.remapped += 1

    out = _merge_nets(n, unions, removed, vt_map)
    inputs = tuple(
        (name, frozenset(a.levels) if name == a.net else dom)
        for name, dom in out.inputs
    )
    return replace(out, inputs=inputs), report


def prune_dead(n: Netlist):
    """Drop devices with no structural path of influence to any output.

    Influence = channel connectivity to a live net, plus gate fan-in: a
    live device makes its gate net live in turn.  Inputs, outputs, and
    rails always survive.
    """
    live_nets = set(n.output_names)
    live_devs: set[str] = set()
    changed = True
    while changed:
        changed = False
        for d in n.devices:
            if d.id in live_devs:
                continue
            if d.source in live_nets or d.drain in live_nets:
                live_devs.add(d.id)
                for net in (d.source, d.drain, d.gate):
                    if net not in RAILS and net not in live_nets:
                        live_nets.add(net)
                        changed = True
                changed = True
    devices = tuple(d for d in n.devices if d.id in live_devs)
    report = PassReport(pruned=len(n.devices) - len(devices))
    loads = tuple((net, f) for net, f in n.loads if net in live_nets or net in n.output_names)
    return replace(n, devices=devices, loads=loads, extra_nets=frozenset()), report


def factor_parallel(n: Netlist):
    """Collapse devices that are exact parallel duplicates.

    Devices are symmetric in source/drain, so a mirrored pair merges too.
    Tags are unioned onto the survivor.
    """
    seen: dict = {}
    removed = 0
    out = []
    for d in n.devices:
        key = (d.polarity, d.vt, d.gate, frozenset((d.source, d.drain)))
        if key in seen:
            kept = seen[key]
            if d.tags - kept.tags:
                merged = Device(
                    kept.id, kept.polarity, kept.vt, kept.gate, kept.source,
                    kept.drain, kept.tags | d.tags,
                )
                out[out.index(kept)] = merged
                seen[key] = merged
            removed += 1
        else:
            seen[key] = d
            out.append(d)
    return replace(n, devices=tuple(out)), PassReport(factored=removed)


def _always_on(d: Device) -> bool:
    return (d.polarity is Polarity.N and d.gate == "VDD") or (
        d.polarity is Polarity.P and d.gate == "GND"
    )


def rebind_carry(n: Netlist, carry_net: str):
    """Re-encode a half-level carry to the full supply.

    The always-on divider pairs inside the carry generator are removed: the
    divider toward the VDD side becomes a wire (its conditioned pull-up now
    drives the rail level directly) and the one toward the GND side becomes
    an open.  Any standard ternary inverter reading the (now binary)
    carry-domain input is swapped for a two-device binary inverter.
    Decoded truth must be preserved and no division may remain on the carry
    net; both are checked exhaustively.
    """
    if carry_net not in n.nets():
        raise UnknownNetError(f"no net named {carry_net!r}")

    cn = compiled(n)
    comp_nets, comp_devs = cn.channel_component(carry_net)
    dividers = [d for d in comp_devs if TAG_DIVIDER in d.tags]
    if not dividers:
        dividers = [d for d in comp_devs if _always_on(d)]
    if not dividers:
        raise NoDividerFoundError(f"no divider devices found around {carry_net!r}")

    # Find the input states where division happens in this component, then
    # re-solve with every candidate divider deleted: with the divided path
    # cut, each former terminal carries at most one rail in its drive mask,
    # which names the side the divider bridged.
    swept = Sweep(n)
    comp_idx = [cn.index[x] for x in comp_nets if x in cn.index]
    div_states = np.flatnonzero(swept.division()[:, comp_idx].any(axis=1))

    divider_ids = {d.id for d in dividers}
    stripped = Sweep(
        replace(n, devices=tuple(d for d in n.devices if d.id not in divider_ids))
    )
    gnd, vdd = stripped.rail_reach()
    v_only = (vdd & ~gnd)[div_states]
    g_only = (gnd & ~vdd)[div_states]

    unions, removed = [], set()
    report = PassReport()
    for d in sorted(dividers, key=lambda d: d.id):
        side = None
        for t in (d.source, d.drain):
            if t == "VDD":
                side = "vdd"
            elif t == "GND":
                side = "gnd"
        if side is None and div_states.size:
            # during a division event the terminal on the conditioned side
            # carries a single rail in its drive mask; that rail names the
            # side this divider bridges
            ends = [stripped.cn.index[t] for t in (d.source, d.drain)]
            v_side, g_side = v_only[:, ends].any(), g_only[:, ends].any()
            if v_side != g_side:
                side = "vdd" if v_side else "gnd"
        if side is None:
            # structural fallback: N dividers bridge from the pull-up side
            side = "vdd" if d.polarity is Polarity.N else "gnd"
        removed.add(d.id)
        if side == "vdd":
            unions.append((d.source, d.drain))
            report.wired += 1
        else:
            report.opened += 1

    before = swept.truth_signature()
    out = _merge_nets(n, unions, removed, {})
    outputs = tuple(
        (name, Encoding.FULL_VDD_HIGH if name == carry_net else enc)
        for name, enc in out.outputs
    )
    out = replace(out, outputs=outputs)

    swapped, extra = _swap_carry_stis(out)
    after = Sweep(swapped) if swapped is not None else None
    if after is not None and after.truth_signature() == before:
        out = swapped
        report.pruned += extra
    else:
        # a swap that changes decoded truth is dropped silently; the
        # un-swapped result must still match
        after = Sweep(out)
        if after.truth_signature() != before:
            raise EquivalenceCheckFailedError("carry re-encoding changed decoded truth")
    if carry_net in out.nets() and sum(after.division_counts(carry_net)) != 0:
        raise EquivalenceCheckFailedError(
            f"division events remain on {carry_net!r} after re-encoding"
        )
    return out, report


_STI_SHAPE = {
    (Polarity.P, ThresholdClass.HVT, "in", "VDD", "out"),
    (Polarity.N, ThresholdClass.HVT, "in", "out", "GND"),
    (Polarity.P, ThresholdClass.MVT, "in", "VDD", "m1"),
    (Polarity.N, ThresholdClass.MVT, "VDD", "m1", "out"),
    (Polarity.P, ThresholdClass.MVT, "GND", "out", "m2"),
    (Polarity.N, ThresholdClass.MVT, "in", "m2", "GND"),
}


def _swap_carry_stis(n: Netlist):
    """Replace 6-device STIs fed by a binary-domain input with MVT pairs."""
    binary_inputs = {
        name
        for name, dom in n.inputs
        if dom in (frozenset({Level.GND, Level.VDD}), frozenset({Level.GND, Level.HALF}))
    }
    if not binary_inputs:
        return None, 0
    stop = set(RAILS) | set(n.input_names)
    devices = list(n.devices)
    changed = 0
    cn = compiled(n)
    for x in sorted(binary_inputs):
        outs = {d.gate for d in devices if d.gate not in stop}
        for y in sorted(outs):
            nets, devs = cn.channel_component(y)
            if len(devs) != 6 or any(d.gate not in RAILS and d.gate != x for d in devs):
                continue
            shape = set()
            names = {}
            ok = True
            for d in devs:
                row = []
                for net in (d.gate, d.source, d.drain):
                    if net in RAILS:
                        row.append(net)
                    elif net == x:
                        row.append("in")
                    elif net == y:
                        row.append("out")
                    else:
                        row.append(names.setdefault(net, f"m{len(names) + 1}"))
                shape.add((d.polarity, d.vt, *row))
            if shape != _STI_SHAPE:
                continue
            ids = {d.id for d in devs}
            keep = [d for d in devices if d.id not in ids]
            base = devs[0].id
            keep.append(Device(f"{base}.bp", Polarity.P, ThresholdClass.MVT, x, "VDD", y))
            keep.append(Device(f"{base}.bn", Polarity.N, ThresholdClass.MVT, x, y, "GND"))
            devices = keep
            changed += 4
    if not changed:
        return None, 0
    return replace(n, devices=tuple(devices), extra_nets=frozenset()), changed


def _rebind_candidates(n: Netlist) -> list[str]:
    """Outputs still carrying logic '1' at the half level.

    Covers both declared HalfVddHigh outputs and standard-encoded outputs
    whose observed image collapsed to {GND, HALF} under an assumption.
    """
    names = [name for name, enc in n.outputs if enc is Encoding.HALF_VDD_HIGH]
    std = [name for name, enc in n.outputs if enc is Encoding.STANDARD]
    if std:
        try:
            tt = truth_table(n)
        except (OscillationError, UnresolvableError):
            return names
        order = n.output_names
        for name in std:
            i = order.index(name)
            image = {row[i] for row in tt.values()}
            if image <= {Level.GND, Level.HALF} and Level.HALF in image:
                names.append(name)
    return names


def simplify_pipeline(
    n: Netlist, a: AssumptionDomain, rebind: bool = False, carry_net: str | None = None
):
    """assumption → prune → factor to a fixpoint, then optional carry
    re-encoding and the same fixpoint again.

    Decoded-truth equivalence over the assumed domain is a hard
    postcondition; if it fails the original netlist is returned untouched.
    """
    before = truth_signature(n, overrides={a.net: frozenset(a.levels)})

    # complement tracking is one inverter deep, so eliminating a cell can
    # expose the next one, and re-encoding merges nets, which can expose
    # further rules: iterate the cheap passes to their fixpoint
    def fixpoint(cur, report):
        while True:
            prev = cur
            cur, r1 = apply_assumption(cur, a)
            cur, r2 = prune_dead(cur)
            cur, r3 = factor_parallel(cur)
            report = report + r1 + r2 + r3
            if cur == prev:
                return cur, report

    try:
        cur, report = fixpoint(n, PassReport())
        if rebind:
            targets = [carry_net] if carry_net else _rebind_candidates(cur)
            # already at the full supply: nothing left to re-encode
            done = {name for name, enc in cur.outputs if enc is Encoding.FULL_VDD_HIGH}
            targets = [t for t in targets if t not in done]
            if len(targets) > 1:
                raise DomainError(
                    f"ambiguous carry output among {targets}; re-encode explicitly"
                )
            if targets:
                cur, r = rebind_carry(cur, targets[0])
                cur, report = fixpoint(cur, report + r)
    except (EquivalenceCheckFailedError, NetlistSemanticError):
        # refuse rather than emit a netlist that shorts the rails or
        # changes behaviour; the caller gets the input back untouched
        return n, PassReport()
    if truth_signature(cur) != before:
        return n, PassReport()
    return cur, report
