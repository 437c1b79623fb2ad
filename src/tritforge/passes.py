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

import itertools
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import (
    DomainError,
    EquivalenceCheckFailedError,
    NetlistSemanticError,
    NoDividerFoundError,
    NonInputAssumptionError,
    UnknownNetError,
)
from .netlist import (
    ALWAYS_ON_GATE,
    DEVICE_CLASSES,
    DOMAIN_BINARY,
    Device,
    Netlist,
    Polarity,
    RAILS,
    TAG_DIVIDER,
    ThresholdClass,
    domain_encoding,
)
from .solver import CompiledNetlist, Sweep
from .synth import Builder
from .trits import Encoding, STABLE_LEVELS


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

    ports = set(n.input_names + n.output_names)

    def priority(net):
        if net in RAILS:
            return 3
        if net in ports:
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
    if any(find(name) in RAILS for name in ports):
        raise NetlistSemanticError("a wire replacement would tie a port to a rail")

    # a device that no merge renames and no remap touches is kept as it is
    devices = []
    for d in n.devices:
        if d.id in removed_ids:
            continue
        if d.id in vt_map or not parent.keys().isdisjoint((d.gate, d.source, d.drain)):
            vt = vt_map.get(d.id, d.vt)
            d = Device(d.id, d.polarity, vt, find(d.gate), find(d.source), find(d.drain), d.tags)
        devices.append(d)
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


def _cells_reading(cn: CompiledNetlist, x: str):
    """Cells driven only by input ``x``: the channel component around each
    internal gate net whose devices are all gated by ``x`` or a rail and
    whose channels touch no input.  Yields (gate net, devices) in net order.
    """
    n = cn.netlist
    inputs = set(n.input_names)
    # a device belongs to the CCC of its non-driver terminals (drivers read -1),
    # so one pass over the devices groups every channel component
    dev_ccc = np.maximum(cn.net_ccc[cn.dev_a], cn.net_ccc[cn.dev_b]).tolist()
    cells: dict[int, list[Device]] = {}
    for k, d in zip(dev_ccc, n.devices):
        cells.setdefault(k, []).append(d)
    net_ccc = cn.net_ccc.tolist()
    for y in sorted({d.gate for d in n.devices} - set(RAILS) - inputs):
        devs = cells.get(net_ccc[cn.index[y]], [])
        reads_x = all(d.gate in RAILS or d.gate == x for d in devs)
        if devs and reads_x and not any({d.source, d.drain} & inputs for d in devs):
            yield y, devs


def _tracked_complements(swept: Sweep, x: str) -> dict[str, frozenset]:
    """Single-inverter cells driven only by the assumed net ``x``.

    Returns net -> image level set, read from ``swept``, the sweep of the
    netlist with ``x`` narrowed to the assumption.  A candidate cell reads
    only ``x`` and the rails, so its CCC settles from ``x`` alone, even where
    the netlist oscillates.  An empty sweep tracks nothing.
    """
    images = {y: swept.image(y) for y, _ in _cells_reading(swept.cn, x)}
    return {y: image for y, image in images.items() if image and image <= set(STABLE_LEVELS)}


# -- passes ----------------------------------------------------------------


def _narrow(n: Netlist, a: AssumptionDomain) -> Netlist:
    """``n`` with the assumed input's domain narrowed to the assumption."""
    if a.net not in n.nets():
        raise UnknownNetError(f"no net named {a.net!r}")
    if a.net not in n.input_names:
        raise NonInputAssumptionError(f"{a.net!r} is not a declared input")
    inputs = tuple((x, frozenset(a.levels) if x == a.net else dom) for x, dom in n.inputs)
    return replace(n, inputs=inputs)


def apply_assumption(n: Netlist, a: AssumptionDomain):
    """Restrict an input's domain and eliminate devices it can no longer switch."""
    return _assume(Sweep(_narrow(n, a)), a)


def _assume(swept: Sweep, a: AssumptionDomain):
    """:func:`apply_assumption` on the netlist of ``swept``, whose domain is
    already narrowed to ``a``."""
    n = swept.cn.netlist
    tracked = _tracked_complements(swept, a.net)
    binary_assumption = frozenset(a.levels) == DOMAIN_BINARY

    unions, removed, vt_map = [], set(), {}
    report = PassReport()
    for k, d in enumerate(n.devices):
        if d.gate == a.net:
            gate_levels = a.levels
        elif d.gate in tracked:
            gate_levels = tracked[d.gate]
        else:
            continue
        states = swept.cn.conducts(k, gate_levels)
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

    return _merge_nets(n, unions, removed, vt_map), report


def prune_dead(n: Netlist):
    """Drop devices with no structural path of influence to any output.

    Influence = channel connectivity to a live net, plus gate fan-in: a
    live device makes its gate net live in turn.  Inputs, outputs, and
    rails always survive.
    """
    touching: dict[str, list] = {}
    for d in n.devices:
        touching.setdefault(d.source, []).append(d)
        touching.setdefault(d.drain, []).append(d)
    live_nets = set(n.output_names)
    live_devs: set[str] = set()
    work = list(live_nets)
    while work:
        for d in touching.get(work.pop(), ()):
            if d.id not in live_devs:
                live_devs.add(d.id)
                for net in (d.source, d.drain, d.gate):
                    if net not in RAILS and net not in live_nets:
                        live_nets.add(net)
                        work.append(net)
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
        key = (DEVICE_CLASSES.index((d.polarity, d.vt)), d.gate, frozenset((d.source, d.drain)))
        kept = seen.get(key)
        if kept is not None:
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


def rebind_carry(n: Netlist, carry_net: str):
    """Re-encode a half-level carry to the full supply.

    The always-on divider pairs inside the carry generator are removed: the
    divider toward the VDD side becomes a wire (its conditioned pull-up now
    drives the rail level directly) and the one toward the GND side becomes
    an open.  Any standard ternary inverter reading the (now binary)
    carry-domain input is swapped for a two-device binary inverter.
    Decoded truth must be preserved and no division may remain on the carry
    net; both are checked exhaustively.  With no divider in the carry's
    channel component, a carry that never divides is only re-encoded, and
    one that divides raises :class:`NoDividerFoundError`.
    """
    report, after = _rebind(Sweep(n), carry_net)
    return after.cn.netlist, report


def _rebind(swept: Sweep, carry_net: str):
    """:func:`rebind_carry` on the netlist of ``swept``: the report and the
    sweep of the result."""
    cn = swept.cn
    n = cn.netlist
    if carry_net not in cn.index:
        raise UnknownNetError(f"no net named {carry_net!r}")

    comp_nets, comp_devs = cn.channel_component(carry_net)
    dividers = [d for d in comp_devs if TAG_DIVIDER in d.tags]
    if not dividers:
        dividers = [d for d in comp_devs if d.gate == ALWAYS_ON_GATE[d.polarity]]

    # Find the input states where division happens in this component, then
    # re-solve with every candidate divider deleted: with the divided path
    # cut, each former terminal carries at most one rail in its drive mask,
    # which names the side the divider bridged.
    gnd, vdd = swept.rail_reach(sorted(comp_nets))
    div_states = np.flatnonzero((gnd & vdd).any(axis=1))
    if not dividers and div_states.size:
        raise NoDividerFoundError(f"no divider devices found around {carry_net!r}")

    divider_ids = {d.id for d in dividers}
    kept = tuple(d for d in n.devices if d.id not in divider_ids)
    stripped = Sweep(replace(n, devices=kept)) if dividers else swept
    # a terminal that only dividers touch is gone from the stripped netlist
    # and carries no rail
    ends = sorted({t for d in dividers for t in (d.source, d.drain)} & set(stripped.cn.index))
    gnd, vdd = stripped.rail_reach(ends)
    v_only = dict(zip(ends, (vdd & ~gnd)[div_states].any(axis=0).tolist()))
    g_only = dict(zip(ends, (gnd & ~vdd)[div_states].any(axis=0).tolist()))

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
            v_side = any(v_only.get(t, False) for t in (d.source, d.drain))
            g_side = any(g_only.get(t, False) for t in (d.source, d.drain))
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
    out = CompiledNetlist(replace(out, outputs=outputs))

    swapped, extra = _swap_carry_stis(out)
    after = Sweep(swapped) if swapped is not None else None
    if after is not None and after.truth_signature() == before:
        report.pruned += extra
    else:
        # a swap that changes decoded truth is dropped silently; the
        # un-swapped result must still match
        after = Sweep(out)
        if after.truth_signature() != before:
            raise EquivalenceCheckFailedError("carry re-encoding changed decoded truth")
    if carry_net in after.cn.index and sum(after.division_counts(carry_net)) != 0:
        raise EquivalenceCheckFailedError(
            f"division events remain on {carry_net!r} after re-encoding"
        )
    return report, after


def _shapes(devs, x: str, y: str, inner: int):
    """A cell's devices with ``x``, ``y`` and its inner nets renamed to fixed
    labels, once per labelling of the inner nets; none unless it has ``inner``."""
    nets = sorted({t for d in devs for t in d.terminals()} - {x, y, *RAILS})
    for order in itertools.permutations(nets) if len(nets) == inner else ():
        names = {x: "in", y: "out", **{net: f"m{i}" for i, net in enumerate(order)}}
        yield {(d.polarity, d.vt, *(names.get(t, t) for t in d.terminals())) for d in devs}


# The STI with its two inner nets, exactly as synth.Builder lays it down;
# _swap_carry_stis compares candidate cells with it through _shapes too.
_STI_SHAPE = next(_shapes(Builder().sti("in", "out"), "in", "out", 2))


def _swap_carry_stis(cn: CompiledNetlist):
    """Replace 6-device STIs fed by a binary-domain input with MVT pairs.

    Returns the netlist of ``cn`` with the swaps made, or None if there is
    none, and the number of devices the swaps removed."""
    n = cn.netlist
    binary_inputs = {
        name for name, dom in n.inputs if domain_encoding(dom) is not Encoding.STANDARD
    }
    if not binary_inputs:
        return None, 0
    devices = list(n.devices)
    changed = 0
    for x in sorted(binary_inputs):
        for y, devs in _cells_reading(cn, x):
            if len(devs) != len(_STI_SHAPE) or _STI_SHAPE not in _shapes(devs, x, y, 2):
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


REFUSALS = (EquivalenceCheckFailedError, NetlistSemanticError)  # see simplify


def simplify(n: Netlist, a: AssumptionDomain, carry_net: str | None = None):
    """assumption → prune → factor to a fixpoint, then, when ``carry_net``
    names an output, its re-encoding at the full supply and the same
    fixpoint again.

    Each netlist is swept once: the input narrowed to the assumption (the
    truth to keep), then each one a round or the re-encoding changes.  A
    sweep serves the next round, the re-encoding and the final check.

    Decoded-truth equivalence over the assumed domain is a hard
    postcondition.  Rather than return a netlist that shorts the rails or
    changes behaviour it raises one of ``REFUSALS``: the error of a merge
    or of the re-encoding, or :class:`EquivalenceCheckFailedError` when the
    truth changed.
    """
    swept = Sweep(_narrow(n, a))
    before = swept.truth_signature()

    # complement tracking is one inverter deep, so eliminating a cell can
    # expose the next one, and re-encoding merges nets, which can expose
    # further rules: iterate the cheap passes to their fixpoint
    def fixpoint(swept, report):
        while True:
            cur, r1 = _assume(swept, a)
            cur, r2 = prune_dead(cur)
            cur, r3 = factor_parallel(cur)
            report = report + r1 + r2 + r3
            if cur == swept.cn.netlist:
                return swept, report
            swept = Sweep(cur)

    swept, report = fixpoint(swept, PassReport())
    # already at the full supply: nothing left to re-encode
    done = dict(swept.cn.netlist.outputs).get(carry_net) is Encoding.FULL_VDD_HIGH
    if carry_net is not None and not done:
        r, swept = _rebind(swept, carry_net)
        swept, report = fixpoint(swept, report + r)
    if swept.truth_signature() != before:
        raise EquivalenceCheckFailedError("the truth over the assumed domain changed")
    return swept.cn.netlist, report


def simplify_pipeline(n: Netlist, a: AssumptionDomain, carry_net: str | None = None, *old):
    """:func:`simplify`, but a refusal returns the input and an empty report."""
    if isinstance(carry_net, bool):
        # the older positional form (rebind, carry_net), which
        # bench/baselines.py still calls
        carry_net = old[0] if carry_net else None
    try:
        return simplify(n, a, carry_net)
    except REFUSALS:
        return n, PassReport()
