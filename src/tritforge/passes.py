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
from .kernel import _CODE_OF_LEVEL, CompiledNetlist, components
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
from .solver import Sweep
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


def _merge_nets(cn: CompiledNetlist, wired, removed, lvt) -> Netlist:
    """The netlist of ``cn`` without the devices of the mask ``removed``, the
    ``wired`` ones among them merging the nets they joined, and with the
    devices of ``lvt`` at the LVT class.

    A merged net takes the name of the first net of its component in the
    order rails, ports, then name.
    """
    n = cn.netlist
    rail, port = np.zeros((2, cn.n_nets), dtype=bool)
    rail[[cn.gnd_idx, cn.vdd_idx]] = True
    port[cn.input_idx] = port[cn.output_idx] = True
    order = np.lexsort((~port, ~rail))  # stable, and nets are in name order
    place = np.argsort(order)
    to = order[components(cn.n_nets, place[cn.dev_a[wired]], place[cn.dev_b[wired]])[place]]
    if to[cn.gnd_idx] == to[cn.vdd_idx]:
        raise NetlistSemanticError("a wire replacement would short the rails")
    if rail[to[port]].any():
        raise NetlistSemanticError("a wire replacement would tie a port to a rail")
    if np.unique(to[port]).size < port.sum():
        raise NetlistSemanticError("a wire replacement would join two ports")

    # a device that no merge renames and no remap touches is kept as it is
    moved = to != np.arange(cn.n_nets)
    touched = lvt | moved[cn.dev_gate] | moved[cn.dev_a] | moved[cn.dev_b]
    find = dict(zip(cn.nets, map(cn.nets.__getitem__, to.tolist())))
    devices = []
    for d, drop, touch, low in zip(n.devices, removed.tolist(), touched.tolist(), lvt.tolist()):
        if drop:
            continue
        if touch:
            vt = ThresholdClass.LVT if low else d.vt
            d = Device(d.id, d.polarity, vt, find[d.gate], find[d.source], find[d.drain], d.tags)
        devices.append(d)
    inputs = tuple((find[name], dom) for name, dom in n.inputs)
    outputs = tuple((find[name], enc) for name, enc in n.outputs)
    loads = tuple((find[net], f) for net, f in n.loads)
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
    if not set(a.levels) <= dict(n.inputs)[a.net]:
        raise DomainError(f"assumption on {a.net!r} reaches outside its declared domain")
    inputs = tuple((x, frozenset(a.levels) if x == a.net else dom) for x, dom in n.inputs)
    return replace(n, inputs=inputs)


def apply_assumption(n: Netlist, a: AssumptionDomain):
    """Restrict an input's domain and eliminate devices it can no longer switch."""
    return _assume(Sweep(_narrow(n, a)), a)


def _assume(swept: Sweep, a: AssumptionDomain):
    """:func:`apply_assumption` on the netlist of ``swept``, whose domain is
    already narrowed to ``a``."""
    cn = swept.cn
    # the levels each decided gate net takes: the assumed input and each
    # tracked complement
    takes = np.zeros((cn.n_nets, 5), dtype=bool)
    for net, image in {a.net: a.levels, **_tracked_complements(swept, a.net)}.items():
        takes[cn.index[net], [_CODE_OF_LEVEL[lv] for lv in image]] = True
    want = takes[cn.dev_gate]
    on = cn.dev_lut[: cn.n_devices] & want
    decided = want.any(axis=1)
    always = decided & (on == want).all(axis=1)
    opened = decided & ~on.any(axis=1)
    # an input clamps its node; merging it into its neighbour would silently
    # erase the driver, so keep such devices as they are
    is_input = np.zeros(cn.n_nets, dtype=bool)
    is_input[cn.input_idx] = True
    wired = always & ~is_input[cn.dev_a] & ~is_input[cn.dev_b]
    slow = np.array([vt is not ThresholdClass.LVT for _, vt in DEVICE_CLASSES])[cn.dev_class]
    binary = frozenset(a.levels) == DOMAIN_BINARY
    lvt = decided & ~always & ~opened & slow & binary
    report = PassReport(wired=int(wired.sum()), opened=int(opened.sum()), remapped=int(lvt.sum()))
    return _merge_nets(cn, wired, wired | opened, lvt), report


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
    kept: dict = {}
    for d in n.devices:
        key = (d.polarity, d.vt, d.gate, frozenset((d.source, d.drain)))
        first = kept.setdefault(key, d)
        if first is not d and d.tags - first.tags:
            kept[key] = replace(first, tags=first.tags | d.tags)
    devices = tuple(kept.values())
    return replace(n, devices=devices), PassReport(factored=len(n.devices) - len(devices))


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
    one that divides raises :class:`NoDividerFoundError`.  The carry must
    be a declared output.
    """
    swept = Sweep(n)
    out, report = _rebind(swept, carry_net)
    after, swap = _finish_rebind(out, carry_net, swept.truth_signature())
    return after.cn.netlist, report + swap


def _rebind(swept: Sweep, carry_net: str):
    """The re-encoding of :func:`rebind_carry` on the netlist of ``swept``,
    before its STI swap and checks (:func:`_finish_rebind`): the netlist
    with the dividers wired or opened and the carry at the full supply, and
    the report."""
    cn = swept.cn
    n = cn.netlist
    if carry_net not in cn.index:
        raise UnknownNetError(f"no net named {carry_net!r}")
    if carry_net not in n.output_names:
        raise DomainError(f"{carry_net!r} is not a declared output")

    comp_nets, comp_devs = cn.channel_component(carry_net)
    dividers = [d for d in comp_devs if TAG_DIVIDER in d.tags]
    if not dividers:
        dividers = [d for d in comp_devs if d.gate == ALWAYS_ON_GATE[d.polarity]]

    # Find the input states where division happens in this component, then
    # read the drive masks with every candidate divider deleted: with the
    # divided path cut, each former terminal carries at most one rail in
    # its drive mask, which names the side the divider bridged.
    gnd, vdd = swept.rail_reach(sorted(comp_nets))
    div_states = np.flatnonzero((gnd & vdd).any(axis=1))
    if not dividers and div_states.size:
        raise NoDividerFoundError(f"no divider devices found around {carry_net!r}")

    divider_ids = {d.id for d in dividers}
    is_div = np.array([d.id in divider_ids for d in n.devices], dtype=bool)
    ends, (gnd, vdd) = _stripped_reach(swept, carry_net, dividers, is_div)
    v_only = dict(zip(ends, (vdd & ~gnd)[div_states].any(axis=0).tolist()))
    g_only = dict(zip(ends, (gnd & ~vdd)[div_states].any(axis=0).tolist()))

    to_vdd = []  # per divider, in netlist order: whether it bridges toward VDD
    for d in dividers:
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
        to_vdd.append(side == "vdd")
    wired = np.zeros(cn.n_devices, dtype=bool)
    wired[is_div] = to_vdd
    report = PassReport(wired=sum(to_vdd), opened=len(to_vdd) - sum(to_vdd))

    out = _merge_nets(cn, wired, is_div, np.zeros_like(wired))
    outputs = tuple(
        (name, Encoding.FULL_VDD_HIGH if name == carry_net else enc)
        for name, enc in out.outputs
    )
    return replace(out, outputs=outputs), report


def _stripped_reach(swept: Sweep, carry_net: str, dividers, is_div):
    """The terminals of ``dividers`` (the device mask ``is_div``) left in
    the netlist of ``swept`` without them, and their :meth:`Sweep.rail_reach`
    there.

    A ranked sweep reads it from its own rows: the dividers of a non-driver
    carry all sit in its CCC, whose gates come from lower ranks that they
    do not touch.  Otherwise the netlist without them is swept, since the
    fixed point of Jacobi rounds can move once they go; with no end left
    there is nothing to sweep.
    """
    cn = swept.cn
    n = cn.netlist
    stripped = replace(n, devices=tuple(d for d, off in zip(n.devices, is_div.tolist()) if not off))
    # a terminal that only dividers touch is gone from the stripped netlist
    # and carries no rail
    ends = sorted({t for d in dividers for t in (d.source, d.drain)} & set(stripped.nets()))
    if ends and (cn.ccc_rank is None or cn.is_driver[cn.index[carry_net]]):
        return ends, Sweep(stripped).rail_reach(ends)
    return ends, swept._reach_without(ends, is_div)


def _finish_rebind(n: Netlist, carry_net: str, before):
    """The re-encoded netlist ``n`` of :func:`_rebind` with its carry-in
    STIs swapped, if that keeps the truth signature ``before``: its sweep
    and the report of the swap.  Raises unless the truth is kept and no
    division is left on the carry."""
    out = CompiledNetlist(n)
    swapped, extra = _swap_carry_stis(out)
    after = Sweep(swapped) if swapped is not None else None
    if after is None or after.truth_signature() != before:
        # a swap that changes decoded truth is dropped silently; the
        # un-swapped result must still match
        after, extra = Sweep(out), 0
        if after.truth_signature() != before:
            raise EquivalenceCheckFailedError("carry re-encoding changed decoded truth")
    if carry_net in after.cn.index and sum(after.division_counts(carry_net)) != 0:
        raise EquivalenceCheckFailedError(
            f"division events remain on {carry_net!r} after re-encoding"
        )
    return after, PassReport(pruned=extra)


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
    is given, its re-encoding at the full supply, pruned and factored, and
    the same fixpoint again.  The carry must be a declared output.

    Each netlist is swept once: the input narrowed to the assumption (the
    truth to keep), each one a round changes, and the re-encoded one.  A
    sweep serves the next round, the re-encoding and the final check.  A
    round that decides no device ends the fixpoint, its netlist being
    already pruned and factored, except on the input itself.

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
    # further rules: iterate the cheap passes to their fixpoint.  Prune and
    # factor are idempotent, so on a ``tidy`` netlist a round that decides
    # nothing changes nothing.
    def fixpoint(swept, report, tidy):
        while True:
            cur, r1 = _assume(swept, a)
            if tidy and r1 == PassReport():
                return swept, report
            cur, r2 = prune_dead(cur)
            cur, r3 = factor_parallel(cur)
            report = report + r1 + r2 + r3
            if cur == swept.cn.netlist:
                return swept, report
            swept, tidy = Sweep(cur), True

    swept, report = fixpoint(swept, PassReport(), False)
    # already at the full supply: nothing left to re-encode
    done = dict(swept.cn.netlist.outputs).get(carry_net) is Encoding.FULL_VDD_HIGH
    if carry_net is not None and not done:
        truth = swept.truth_signature()
        out, r1 = _rebind(swept, carry_net)
        out, r2 = prune_dead(out)
        out, r3 = factor_parallel(out)
        swept, r4 = _finish_rebind(out, carry_net, truth)
        swept, report = fixpoint(swept, report + r1 + r2 + r3 + r4, True)
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
