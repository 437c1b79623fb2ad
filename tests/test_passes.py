import hashlib
import itertools
import os
import random
from dataclasses import replace

import pytest

from tritforge.cli import run
from tritforge.errors import (
    DomainError,
    EquivalenceCheckFailedError,
    NetlistSemanticError,
    NoDividerFoundError,
    NonInputAssumptionError,
    OscillationError,
    TritforgeError,
    UnknownNetError,
    UnresolvableError,
)
from tritforge.generate import (
    Cascade,
    Completeness,
    Style,
    StyleSpec,
    gen_testbench,
    gen_tfa,
    gen_tha,
)
from tritforge.netlist import (
    ALWAYS_ON_GATE,
    DOMAIN_BINARY,
    DOMAIN_HALFPAIR,
    DOMAIN_TERNARY,
    Device,
    Netlist,
    Polarity,
    RAILS,
    TAG_DIVIDER,
    ThresholdClass,
    parse,
    serialize,
)
from tritforge.passes import (
    AssumptionDomain,
    PassReport,
    _cells_reading,
    _swap_carry_stis,
    _tracked_complements,
    apply_assumption,
    factor_parallel,
    prune_dead,
    rebind_carry,
    simplify,
    simplify_pipeline,
)
from tritforge.solver import (
    CompiledNetlist,
    Sweep,
    decoded_truth,
    division_counts,
    truth_table,
)
from tritforge.trits import STABLE_LEVELS, Encoding, Level

HALFPAIR = frozenset({Level.GND, Level.HALF})
BINARY = frozenset({Level.GND, Level.VDD})

SEED = int(os.environ.get("TRITFORGE_SEED", "20230321"))


def test_assumption_domain_validation():
    with pytest.raises(DomainError):
        AssumptionDomain(net="c", levels=frozenset())
    with pytest.raises(DomainError):
        AssumptionDomain(net="c", levels=frozenset({Level.Z}))


def test_assumption_targets_inputs_only():
    n = parse(".input c halfpair\nm x p hvt g=c s=u d=w\n.end\n")
    with pytest.raises(UnknownNetError):
        apply_assumption(n, AssumptionDomain("nosuch", HALFPAIR))
    with pytest.raises(NonInputAssumptionError):
        apply_assumption(n, AssumptionDomain("u", HALFPAIR))


# -- single-device rule suite ---------------------------------------------
#
# Each case places one subject device "x" between probe-held nets u and w
# and asserts its fate under the assumption c in {0, 1} (or binary where
# noted).  Gate "ci" is produced by an inverter cell where named.

PROBES = (
    "m ka p mvt g=GND s=VDD d=u\n"
    "m kb n mvt g=VDD s=w d=GND\n"
)
NTI_CELL = (
    "m ip p hvt g=c s=VDD d=ci\n"
    "m in n mvt g=c s=ci d=GND\n"
)
PTI_CELL = (
    "m ip p mvt g=c s=VDD d=ci\n"
    "m in n hvt g=c s=ci d=GND\n"
)
STI_CELL = (
    "m i0 p hvt g=c s=VDD d=ci\n"
    "m i1 n hvt g=c s=ci d=GND\n"
    "m i2 p mvt g=c s=VDD d=im1\n"
    "m i3 n mvt g=VDD s=im1 d=ci\n"
    "m i4 p mvt g=GND s=ci d=im2\n"
    "m i5 n mvt g=c s=im2 d=GND\n"
)

RULE_CASES = [
    # (device line, inverter cell, domain token, expected fate)
    ("m x p lvt g=c s=u d=w",  "",       "halfpair", "wire"),
    ("m x p hvt g=c s=u d=w",  "",       "halfpair", "keep"),
    ("m x p hvt g=ci s=u d=w", STI_CELL, "halfpair", "open"),
    ("m x p mvt g=ci s=u d=w", PTI_CELL, "halfpair", "open"),
    ("m x p mvt g=c s=u d=w",  "",       "halfpair", "wire"),
    ("m x n hvt g=c s=u d=w",  "",       "halfpair", "open"),
    ("m x n hvt g=ci s=u d=w", NTI_CELL, "halfpair", "keep"),
    ("m x n mvt g=ci s=u d=w", PTI_CELL, "halfpair", "wire"),
    ("m x n lvt g=ci s=u d=w", PTI_CELL, "halfpair", "wire"),
    ("m x p hvt g=c s=u d=w",  "",       "binary",   "remap"),
]


@pytest.mark.parametrize("dev,cell,domain,fate", RULE_CASES)
def test_single_device_rules(dev, cell, domain, fate):
    text = f".input c {domain}\n{cell}{dev}\n{PROBES}.end\n"
    n = parse(text)
    levels = HALFPAIR if domain == "halfpair" else BINARY
    out, report = apply_assumption(n, AssumptionDomain("c", levels))
    devs = {d.id: d for d in out.devices}
    if fate == "keep":
        assert devs["x"].vt == dict((d.id, d) for d in n.devices)["x"].vt
    elif fate == "remap":
        assert devs["x"].vt is ThresholdClass.LVT
        assert report.remapped >= 1
    else:
        assert "x" not in devs
        ka, kb = devs["ka"], devs["kb"]
        probe_u = ka.source if ka.source != "VDD" else ka.drain
        probe_w = kb.source if kb.source != "GND" else kb.drain
        if fate == "wire":
            assert probe_u == probe_w
        else:  # open
            assert probe_u != probe_w


def test_apply_assumption_restricts_input_domain():
    n = parse(".input c ternary\nm x p hvt g=c s=u d=w\n" + PROBES + ".end\n")
    out, _ = apply_assumption(n, AssumptionDomain("c", HALFPAIR))
    assert out.input_domain("c") == HALFPAIR


def test_apply_assumption_keeps_devices_on_input_channels():
    # an always-on pass device whose channel touches an input must survive:
    # merging would erase the input's driver
    n = parse(
        ".input a ternary\n.input c halfpair\n.output y\n"
        "m x p lvt g=c s=a d=y\n.end\n"
    )
    out, report = apply_assumption(n, AssumptionDomain("c", HALFPAIR))
    assert "x" in {d.id for d in out.devices}
    assert report.wired == 0


def test_prune_dead_keeps_output_cone():
    n = parse(
        ".input a ternary\n.output y\n"
        "m p0 p hvt g=a s=VDD d=y\n"
        "m n0 n hvt g=a s=y d=GND\n"
        "m z0 p hvt g=a s=VDD d=orphan\n"
        "m z1 n hvt g=orphan s=other d=GND\n"
        ".end\n"
    )
    out, report = prune_dead(n)
    assert {d.id for d in out.devices} == {"p0", "n0"}
    assert report.pruned == 2


def test_prune_dead_follows_gate_fanin():
    # y <- inverter gated by t, t driven by a: both stages are live
    n = parse(
        ".input a binary\n.output y\n"
        "m s0 p lvt g=a s=VDD d=t\n"
        "m s1 n lvt g=a s=t d=GND\n"
        "m s2 p lvt g=t s=VDD d=y\n"
        "m s3 n lvt g=t s=y d=GND\n"
        ".end\n"
    )
    out, report = prune_dead(n)
    assert len(out.devices) == 4 and report.pruned == 0


def test_factor_parallel_merges_duplicates_and_mirrors():
    n = parse(
        ".input a ternary\n.output y\n"
        "m d0 p hvt g=a s=VDD d=y\n"
        "m d1 p hvt g=a s=VDD d=y\n"
        "m d2 p hvt g=a s=y d=VDD tag=divider\n"  # mirrored channel
        "m d3 n hvt g=a s=y d=GND\n"
        ".end\n"
    )
    out, report = factor_parallel(n)
    assert report.factored == 2
    ids = {d.id for d in out.devices}
    assert ids == {"d0", "d3"}
    # tags from the merged mirror are kept on the survivor
    assert "divider" in next(d for d in out.devices if d.id == "d0").tags


def test_rebind_carry_requires_known_net():
    n = gen_tfa(StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL))
    with pytest.raises(UnknownNetError):
        rebind_carry(n, "bogus")


@pytest.mark.parametrize("style", list(Style))
def test_rebind_carry_eliminates_division(style):
    n = gen_tfa(StyleSpec(style, Completeness.PARTIAL,
                          carry_encoding=Encoding.HALF_VDD_HIGH))
    assert sum(division_counts(n, "carry")) > 0
    out, report = rebind_carry(n, "carry")
    assert sum(division_counts(out, "carry")) == 0
    assert report.wired > 0 and report.opened > 0
    assert out.output_encoding("carry") is Encoding.FULL_VDD_HIGH


@pytest.mark.parametrize("style", list(Style))
def test_rebind_carry_swaps_the_carry_in_sti(style):
    # the testbench buffers the half-level carry-in through a six-device
    # STI; once the carry is re-encoded it becomes a two-device inverter
    tb = gen_testbench(gen_tfa(StyleSpec(style, Completeness.PARTIAL)))
    buf = next(d.drain for d in tb.devices
               if d.gate == "cin" and d.source == "VDD" and d.vt is ThresholdClass.HVT)
    sti = CompiledNetlist(tb).channel_component(buf)[1]
    assert len(sti) == 6
    out, report = rebind_carry(tb, "carry")
    assert report.pruned == 4
    assert not {d.id for d in sti} & {d.id for d in out.devices}
    pair = sorted((d.id.rsplit(".", 1)[-1], d.polarity, d.vt, d.source, d.drain)
                  for d in out.devices if d.gate == "cin")
    assert pair == [("bn", Polarity.N, ThresholdClass.MVT, buf, "GND"),
                    ("bp", Polarity.P, ThresholdClass.MVT, "VDD", buf)]
    assert sum(division_counts(out, "carry")) == 0


# a six-device STI from x to y in build order, ids filled in per case
ORDERED_STI = (
    "m {0} p hvt g=x s=VDD d=y\n"
    "m {1} n hvt g=x s=y d=GND\n"
    "m {2} p mvt g=x s=VDD d=s1\n"
    "m {3} n mvt g=VDD s=s1 d=y\n"
    "m {4} p mvt g=GND s=y d=s2\n"
    "m {5} n mvt g=x s=s2 d=GND\n"
)


@pytest.mark.parametrize("first", [0, 5, 95])
def test_sti_swap_does_not_depend_on_device_ids(first):
    # m5..m10 and m95..m100 sort out of build order; the match must not care
    sti = ORDERED_STI.format(*(f"m{first + i}" for i in range(6)))
    n = parse(".input x binary\n.output z enc=binary\n" + sti
              + "m q0 p lvt g=y s=VDD d=z\nm q1 n lvt g=y s=z d=GND\n.end\n")
    out, changed = _swap_carry_stis(CompiledNetlist(n))
    assert changed == 4
    pair = sorted((d.polarity.value, d.vt, d.source, d.drain)
                  for d in out.devices if d.gate == "x")
    assert pair == [("n", ThresholdClass.MVT, "y", "GND"),
                    ("p", ThresholdClass.MVT, "VDD", "y")]
    assert len(out.devices) == 4


@pytest.mark.parametrize("style", list(Style))
def test_pipeline_complete_to_partial(style):
    for cascade in Cascade:
        n = gen_tfa(StyleSpec(style, Completeness.COMPLETE, cascade=cascade))
        a = AssumptionDomain("cin", HALFPAIR)
        out, report = simplify_pipeline(n, a, carry_net="carry")
        ref = gen_tfa(StyleSpec(style, Completeness.PARTIAL,
                                carry_encoding=Encoding.FULL_VDD_HIGH,
                                cascade=cascade))
        # behaviourally identical to a natively generated partial cell
        assert decoded_truth(out) == decoded_truth(ref)
        assert len(out.devices) < len(n.devices)
        assert sum(division_counts(out, "carry")) == 0


def test_pipeline_is_idempotent():
    for style in Style:
        n = gen_tfa(StyleSpec(style, Completeness.COMPLETE))
        a = AssumptionDomain("cin", HALFPAIR)
        once, _ = simplify_pipeline(n, a, carry_net="carry")
        twice, report = simplify_pipeline(once, a, carry_net="carry")
        assert twice == once
        assert report.wired == report.opened == report.pruned == 0


# -- randomized soundness -------------------------------------------------


def _random_netlist(rng):
    domains = [DOMAIN_TERNARY, DOMAIN_BINARY, DOMAIN_HALFPAIR]
    inputs = [(name, rng.choice(domains))
              for name in ["a", "b", "c"][: rng.randint(1, 3)]]
    input_names = [name for name, _ in inputs]
    internal = [f"n{i}" for i in range(rng.randint(2, 6))]
    out = rng.choice(internal)
    channel_nets = internal + ["VDD", "GND"]
    devices = []
    for i in range(rng.randint(1, 20)):
        s, d = rng.sample(channel_nets, 2)
        devices.append(Device(
            f"m{i}",
            rng.choice(list(Polarity)),
            rng.choice(list(ThresholdClass)),
            rng.choice(input_names + ["VDD", "GND"]),
            s, d,
        ))
    return Netlist(
        inputs=tuple(inputs),
        outputs=((out, Encoding.STANDARD),),
        devices=tuple(devices),
    )


def _narrowed(n, domains):
    """``n`` with each input named in ``domains`` narrowed to its levels."""
    return replace(n, inputs=tuple((name, domains.get(name, dom)) for name, dom in n.inputs))


def _tables_agree(n, out, overrides):
    """Whether ``n`` and ``out``, with each input in ``overrides`` narrowed
    to its levels there, have equal truth tables or fail with the same
    error.  Only the package's own errors count as an outcome."""
    try:
        ta = truth_table(_narrowed(n, overrides))
    except TritforgeError as exc:
        ta = type(exc).__name__
    try:
        tb = truth_table(_narrowed(out, overrides))
    except TritforgeError as exc:
        tb = type(exc).__name__
    if isinstance(ta, str) or isinstance(tb, str):
        return ta == tb
    return list(ta.values()) == list(tb.values())


def test_simplification_soundness_randomized():
    rng = random.Random(SEED)
    checked = 0
    for _ in range(1000):
        n = _random_netlist(rng)
        target, domain = rng.choice(n.inputs)
        levels = frozenset(rng.sample(
            sorted(domain, key=lambda l: l.value),
            rng.randint(1, len(domain))))
        a = AssumptionDomain(target, levels)
        out, _ = simplify_pipeline(n, a)
        assert len(out.devices) <= len(n.devices)
        assert _tables_agree(n, out, {target: levels}), (n, a)
        checked += 1
    assert checked == 1000


def _walk_component(n, start):
    """Reference channel walk: nets reachable from start over source/drain
    edges without crossing a rail or an input, and the devices touching them."""
    stop = set(RAILS) | set(n.input_names)
    nets = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for d in n.devices:
            if cur in (d.source, d.drain):
                other = d.drain if d.source == cur else d.source
                if other not in nets and other not in stop:
                    nets.add(other)
                    frontier.append(other)
    return nets, [d for d in n.devices if d.source in nets or d.drain in nets]


def test_channel_component_matches_walk():
    rng = random.Random(SEED)
    cells = [gen_tfa(StyleSpec(style, Completeness.COMPLETE)) for style in Style]
    for n in cells + [_random_netlist(rng) for _ in range(200)]:
        cn = CompiledNetlist(n)
        for net in n.nets():  # drivers included
            assert cn.channel_component(net) == _walk_component(n, net), net


def _reference_cells_reading(cn, x):
    """``_cells_reading`` as first written: one channel component per gate net."""
    n = cn.netlist
    inputs = set(n.input_names)
    for y in sorted({d.gate for d in n.devices} - set(RAILS) - inputs):
        devs = cn.channel_component(y)[1]
        reads_x = all(d.gate in RAILS or d.gate == x for d in devs)
        if devs and reads_x and not any({d.source, d.drain} & inputs for d in devs):
            yield y, devs


def test_cells_reading_matches_per_net_components():
    from test_solver import _random_feedback_netlist, _random_static_netlist

    rng = random.Random(SEED)
    makers = (_random_netlist, _random_static_netlist, _random_gated_netlist,
              _random_feedback_netlist)
    netlists = [gen_tfa(StyleSpec(style, completeness, cascade=cascade))
                for style in Style for completeness in Completeness for cascade in Cascade]
    netlists += [makers[i % 4](rng) for i in range(400)]
    found = 0
    for n in netlists:
        cn = CompiledNetlist(n)
        for x in n.input_names:
            got = list(_cells_reading(cn, x))
            assert got == list(_reference_cells_reading(cn, x)), (n.title, x)
            found += len(got)
    assert found > 100


# -- ports never merge into a rail -------------------------------------------


def test_simplify_never_ties_a_port_to_a_rail(tmp_path):
    # with a = 0 the half adder's carry is always GND, and the wire merges
    # would rename the output to the rail; the pipeline refuses instead
    tha = gen_tha(Style.TERNARY_CMOS, Encoding.HALF_VDD_HIGH)
    a = AssumptionDomain("a", frozenset({Level.GND}))
    with pytest.raises(NetlistSemanticError):
        apply_assumption(tha, a)
    out, report = simplify_pipeline(tha, a)
    assert (out, report) == (tha, PassReport())
    assert parse(serialize(out)) == out
    # the CLI writes a netlist that its own truth command reads back
    cell, slim = tmp_path / "tha.tn", tmp_path / "slim.tn"
    assert run(["gen", "tha", "--style", "ternary-cmos", "-o", str(cell)]) == 0
    assert run(["simplify", str(cell), "--assume", "a=0", "-o", str(slim)]) == 0
    assert run(["truth", str(slim), "-o", str(tmp_path / "truth.txt")]) == 0


# two inverters of a, one per output, and an LVT device between the outputs
# that x = 2 turns into a wire
TWO_OUTPUTS = """.input a ternary
.input x binary
.output y1
.output y2
m m0 p mvt g=a s=VDD d=y1
m m1 n mvt g=a s=y1 d=GND
m m2 p mvt g=a s=VDD d=y2
m m3 n mvt g=a s=y2 d=GND
m m4 n lvt g=x s=y1 d=y2
.end
"""


def test_simplify_never_joins_two_ports(tmp_path, capsys):
    # the merge would name both outputs y1, and parse refuses a netlist
    # that declares `.output y1` twice; the pipeline refuses instead
    n = parse(TWO_OUTPUTS)
    x = AssumptionDomain("x", frozenset({Level.VDD}))
    with pytest.raises(NetlistSemanticError, match="would join two ports"):
        apply_assumption(n, x)
    assert simplify_pipeline(n, x) == (n, PassReport())
    cell = tmp_path / "two.tn"
    cell.write_text(TWO_OUTPUTS)
    assert run(["simplify", str(cell), "--assume", "x=2", "-o", "-"]) == 0
    out, err = capsys.readouterr()
    assert "simplify refused (NetlistSemanticError" in err
    assert parse(out) == n


def test_an_assumption_stays_inside_the_declared_domain(tmp_path, capsys):
    # a level the input may not take restricts nothing: cin of a VDD-carry
    # cell is binary, and b of this half adder is declared 02
    cell = gen_tfa(StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL, Encoding.FULL_VDD_HIGH))
    with pytest.raises(DomainError, match="'cin' reaches outside its declared domain"):
        apply_assumption(cell, AssumptionDomain("cin", HALFPAIR))
    tha = parse(serialize(gen_tha(Style.TERNARY_CMOS, Encoding.HALF_VDD_HIGH))
                .replace(".input b ternary", ".input b 02"))
    assert dict(tha.inputs)["b"] == BINARY
    with pytest.raises(DomainError):
        simplify(tha, AssumptionDomain("b", frozenset({Level.HALF})))
    path = tmp_path / "cell.tn"
    path.write_text(serialize(cell))
    assert run(["simplify", str(path), "--assume", "cin=01", "-o", str(tmp_path / "out.tn")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tritforge:") and "declared domain" in err and "refused" not in err
    assert not (tmp_path / "out.tn").exists()


def test_rebind_side_detection_reads_single_rail_terminals():
    # with both dividers stripped, n1 is still driven by both rails; only
    # a terminal driven by VDD alone names the VDD side, so m5 is opened
    n = parse(
        ".input a halfpair\n.output n0 enc=halfpair\n"
        "m m0 n hvt g=VDD s=n1 d=GND\n"
        "m m1 n lvt g=a s=GND d=VDD tag=divider\n"
        "m m2 n ulvt g=n1 s=VDD d=n1\n"
        "m m3 p lvt g=a s=n0 d=GND\n"
        "m m4 p ulvt g=GND s=n1 d=GND\n"
        "m m5 n lvt g=n0 s=n0 d=n1 tag=divider\n"
        "m m6 n ulvt g=VDD s=VDD d=n1\n.end\n"
    )
    out, report = rebind_carry(n, "n0")
    assert report == PassReport(opened=1)
    assert out.output_encoding("n0") is Encoding.FULL_VDD_HIGH


DANGLING_DIVIDER = """\
.input a ternary
.output y
m mp p lvt g=a s=VDD d=y
m mn n lvt g=a s=y d=GND
m md n mvt g=VDD s=y d=n5 tag=divider
.end
"""


def test_rebind_carry_with_a_divider_terminal_nothing_else_touches(tmp_path, capsys):
    # n5 is gone once the divider is stripped, so it names no side; the
    # structural fallback wires the divider, and since it was inert the
    # binary carry no longer decodes like the divided one
    n = parse(DANGLING_DIVIDER)
    assert sum(division_counts(n, "y")) > 0
    with pytest.raises(EquivalenceCheckFailedError):
        rebind_carry(n, "y")
    cell = tmp_path / "cell.tn"
    cell.write_text(DANGLING_DIVIDER)
    argv = ["simplify", str(cell), "--assume", "a=012", "--rebind-carry", "y",
            "-o", str(tmp_path / "slim.tn")]
    assert run(argv) in (0, 1, 2)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("cell_text,argv,error", [
    (DANGLING_DIVIDER, ["--assume", "a=012", "--rebind-carry", "y"], "EquivalenceCheckFailedError"),
    (None, ["--assume", "a=0"], "NetlistSemanticError"),
], ids=["dangling-divider", "tha-a0"])
def test_simplify_names_its_refusal_on_stderr(tmp_path, capsys, cell_text, argv, error):
    # a refusal still exits 0 with the input and an all-zero report, but
    # says so in one line
    cell, slim, report = tmp_path / "cell.tn", tmp_path / "slim.tn", tmp_path / "r.json"
    if cell_text is None:
        assert run(["gen", "tha", "--style", "ternary-cmos", "-o", str(cell)]) == 0
    else:
        cell.write_text(cell_text)
    capsys.readouterr()
    assert run(["simplify", str(cell), *argv, "-o", str(slim), "--report", str(report)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"tritforge: simplify refused ({error}: ")
    assert err.endswith("); output is the input unchanged\n") and err.count("\n") == 1
    assert slim.read_text() == serialize(parse(cell.read_text()))
    assert report.read_text() == PassReport().to_json() + "\n"


def test_rebind_carry_re_encodes_a_carry_left_without_dividers(tmp_path):
    # a = 0 prunes the mux half adder's carry generator, dividers and all,
    # and leaves the carry at 0 on every row: with no divider and no
    # division there is nothing to strip, so the carry is only re-encoded
    cell, slim = tmp_path / "tha.tn", tmp_path / "slim.tn"
    assert run(["gen", "tha", "--style", "mux", "-o", str(cell)]) == 0
    argv = ["simplify", str(cell), "--assume", "a=0", "--rebind-carry", "carry",
            "-o", str(slim)]
    assert run(argv) == 0
    text = slim.read_text()
    assert ".output carry enc=binary" in text
    out = parse(text)
    assert {row[1] for row in decoded_truth(out).values()} == {0}
    assert sum(division_counts(out, "carry")) == 0


# an N MVT pull-up and a P MVT pull-down, both gated by a: y divides at
# a = HALF, yet no device is a divider
DIVIDED_WITHOUT_DIVIDER = """\
.input a ternary
.output y
m mu n mvt g=a s=VDD d=y
m md p mvt g=a s=y d=GND
.end
"""


def test_rebind_carry_refuses_a_divided_net_without_dividers():
    n = parse(DIVIDED_WITHOUT_DIVIDER)
    assert division_counts(n, "y") == [0, 1, 0]
    with pytest.raises(NoDividerFoundError):
        rebind_carry(n, "y")
    with pytest.raises(NoDividerFoundError):
        simplify_pipeline(n, AssumptionDomain("a", DOMAIN_TERNARY), carry_net="y")


# -- tracked complements: the netlist's sweep against one solve per cell -------


def _reference_tracked_complements(n, a):
    """Tracked complements as first written: each candidate cell is copied
    into a netlist of its own and solved alone."""
    stop = set(RAILS) | set(n.input_names)
    candidate_gates = {
        d.gate for d in n.devices if d.gate not in stop and d.gate != a.net
    }
    tracked = {}
    cn = CompiledNetlist(n)
    for y in sorted(candidate_gates):
        nets, devs = cn.channel_component(y)
        if not devs:
            continue
        if any(d.gate not in RAILS and d.gate != a.net for d in devs):
            continue
        if any(t in n.input_names for d in devs for t in (d.source, d.drain)):
            continue
        cell = Netlist(
            vdd=n.vdd,
            inputs=((a.net, frozenset(a.levels)),),
            outputs=((y, Encoding.STANDARD),),
            devices=tuple(devs),
        )
        try:
            tt = truth_table(cell)
        except (OscillationError, UnresolvableError):
            continue
        image = frozenset(out[0] for out in tt.values())
        if image <= set(STABLE_LEVELS):
            tracked[y] = image
    return tracked


INVERTER_CELLS = (NTI_CELL, PTI_CELL, STI_CELL)


def _random_gated_netlist(rng):
    """A _random_netlist whose gates may also be internal nets, plus up to
    two inverter cells reading an input, so complements get tracked."""
    base = _random_netlist(rng)
    names = list(base.input_names)
    internal = sorted(set(base.nets()) - set(RAILS) - set(names))
    devices = []
    x = rng.choice(names)
    for j in range(rng.randint(0, 2)):
        cell = parse(f".input c ternary\n{rng.choice(INVERTER_CELLS)}.end\n")
        out = rng.choice(internal + [f"c{j}"] * 2)
        internal.append(out)
        rename = {"c": x, "ci": out, "im1": f"c{j}im1", "im2": f"c{j}im2"}
        for d in cell.devices:
            ends = {t: rename.get(getattr(d, t), getattr(d, t)) for t in ("gate", "source", "drain")}
            devices.append(replace(d, id=f"c{j}{d.id}", **ends))
    gates = names + internal + list(RAILS)
    for d in base.devices:
        devices.append(replace(d, gate=rng.choice(gates)) if rng.random() < 0.5 else d)
    return replace(base, devices=tuple(devices))


def _assumptions(n):
    for name, dom in n.inputs:
        levels = sorted(dom, key=lambda lv: lv.value)
        for r in range(1, len(levels) + 1):
            for sub in itertools.combinations(levels, r):
                yield AssumptionDomain(name, frozenset(sub))


def _tracked(n, a):
    """_tracked_complements read from the sweep of ``n`` narrowed to ``a``."""
    return _tracked_complements(Sweep(_narrowed(n, {a.net: a.levels})), a.net)


def test_tracked_complements_match_reference_on_generated_cells():
    from test_solver import _generated_cells

    several = 0
    for n in _generated_cells():
        for a in _assumptions(n):
            got = _tracked(n, a)
            assert got == _reference_tracked_complements(n, a), (n.title, a)
            several += len(got) > 1
    assert several > 500


def test_tracked_complements_match_reference_on_random_netlists():
    rng = random.Random(SEED)
    tracked = 0
    for _ in range(150):
        n = _random_gated_netlist(rng)
        for a in _assumptions(n):
            got = _tracked(n, a)
            assert got == _reference_tracked_complements(n, a), (n, a)
            tracked += bool(got)
    assert tracked > 80


def test_cell_image_settles_where_the_netlist_oscillates():
    # z gates its own pull-down, so the netlist has no CCC ranks and
    # oscillates whenever b is GND; the NTI cell reads only c and settles
    n = parse(".input c ternary\n.input b binary\n" + NTI_CELL + "m x p hvt g=ci s=u d=w\n"
              + "m pu p lvt g=b s=VDD d=z\nm pd n hvt g=z s=z d=GND\n" + PROBES + ".end\n")
    swept = Sweep(n)
    assert swept.cn.ccc_rank is None and not swept.stable.all()
    alone = Sweep(parse(".input c ternary\n" + NTI_CELL + ".end\n")).image("ci")
    assert alone == {Level.GND, Level.VDD}
    assert swept.image("ci") == alone
    assert _tracked_complements(swept, "c") == {"ci": alone}


def test_an_empty_sweep_tracks_no_complement():
    # b has no levels (only the Netlist constructor allows that), so the
    # sweep has no state and the cell's image is empty: x keeps its place
    # instead of being wired as if every level of ci turned it on
    cell = parse(".input c ternary\n" + NTI_CELL + "m x p hvt g=ci s=u d=w\n" + PROBES + ".end\n")
    n = replace(cell, inputs=cell.inputs + (("b", frozenset()),))
    swept = Sweep(n)
    assert swept.codes.shape == (0, 2) and swept.image("ci") == frozenset()
    assert _tracked_complements(swept, "c") == {}
    out, _ = apply_assumption(n, AssumptionDomain("c", HALFPAIR))
    assert "x" in {d.id for d in out.devices}


# -- one sweep per netlist -------------------------------------------------------


def test_resimplifying_a_simplified_cell_compiles_once(monkeypatch):
    # the simplified cell is already narrowed and re-encoded: the sweep of
    # the input serves the closing no-change round and the final check
    a = AssumptionDomain("cin", HALFPAIR)
    compiles = []
    init = CompiledNetlist.__init__

    def counted(self, n):
        compiles.append(n)
        init(self, n)

    for style in Style:
        once, _ = simplify_pipeline(gen_tfa(StyleSpec(style, Completeness.COMPLETE)), a,
                                    carry_net="carry")
        compiles.clear()
        with monkeypatch.context() as m:
            m.setattr(CompiledNetlist, "__init__", counted)
            twice, _ = simplify_pipeline(once, a, carry_net="carry")
        assert twice == once
        assert compiles == [once], style


# sweeps of a rebinding simplify of each style's complete cell under cin=01:
# the narrowed input, one per round that changes it, and the re-encoded cell
REBIND_SWEEPS = {Style.TERNARY_CMOS: 3, Style.NTPT: 3, Style.MUX_PTTG: 4, Style.DEC_ENC: 5}


def test_simplify_compiles_each_netlist_once(monkeypatch):
    # the re-encoded netlist is compiled once, for the STI search and its
    # sweep alike, so a simplify compiles exactly the netlists it sweeps;
    # the divider sides come from the rows of the sweep before it, and the
    # round after the re-encoding, which decides nothing, sweeps nothing
    a = AssumptionDomain("cin", HALFPAIR)
    calls = {"compile": 0, "sweep": 0}
    compile_init, sweep_init = CompiledNetlist.__init__, Sweep.__init__

    def compiled(self, n):
        calls["compile"] += 1
        compile_init(self, n)

    def swept(self, n):
        calls["sweep"] += 1
        sweep_init(self, n)

    monkeypatch.setattr(CompiledNetlist, "__init__", compiled)
    monkeypatch.setattr(Sweep, "__init__", swept)
    for style, cascade in itertools.product(Style, Cascade):
        n = gen_tfa(StyleSpec(style, Completeness.COMPLETE, cascade=cascade))
        calls.update(compile=0, sweep=0)
        out, report = simplify_pipeline(n, a, carry_net="carry")
        assert out != n and report.wired
        sweeps = REBIND_SWEEPS[style]
        assert calls == {"compile": sweeps, "sweep": sweeps}, (style, cascade)


def test_a_fixpoint_is_left_alone_by_prune_and_factor():
    # the premise of ending a fixpoint on a round that decides nothing: the
    # netlist it ends on is already pruned and factored
    from test_solver import _generated_cells

    checked = 0
    for n in _generated_cells():
        for a in _assumptions(n):
            for carry in (None, "carry"):
                try:
                    out, _ = simplify(n, a, carry)
                except TritforgeError:
                    continue
                assert prune_dead(out) == (out, PassReport()), (n.title, a, carry)
                assert factor_parallel(out) == (out, PassReport()), (n.title, a, carry)
                checked += 1
    assert checked > 800


def test_rebind_carry_refuses_a_net_that_is_not_an_output(tmp_path, capsys):
    # an input or an internal divider net has no encoding to re-encode
    n = gen_tfa(StyleSpec(Style.TERNARY_CMOS, Completeness.COMPLETE))
    divider_net = next(t for d in n.devices if TAG_DIVIDER in d.tags
                       for t in (d.source, d.drain) if t not in {*RAILS, *n.output_names})
    for net in ("a", divider_net):
        with pytest.raises(DomainError, match=f"^'{net}' is not a declared output$"):
            rebind_carry(n, net)
        with pytest.raises(DomainError, match=f"^'{net}' is not a declared output$"):
            simplify(n, AssumptionDomain("cin", HALFPAIR), net)
    cell, slim = tmp_path / "cell.tn", tmp_path / "slim.tn"
    cell.write_text(serialize(n))
    capsys.readouterr()
    argv = ["simplify", str(cell), "--assume", "cin=01", "--rebind-carry", "a", "-o", str(slim)]
    assert run(argv) == 1
    assert capsys.readouterr().err == "tritforge: 'a' is not a declared output\n"
    assert not slim.exists()


# -- divider sides -----------------------------------------------------------------


def _reference_sides(n, dividers):
    """The divider terminals and their rail reach as first found: the
    netlist without the dividers, swept again."""
    ids = {d.id for d in dividers}
    stripped = Sweep(replace(n, devices=tuple(d for d in n.devices if d.id not in ids)))
    ends = sorted({t for d in dividers for t in (d.source, d.drain)} & set(stripped.cn.index))
    return ends, stripped.rail_reach(ends)


def _random_divided_netlist(rng):
    """A _random_gated_netlist with one to three divider-tagged always-on
    devices from its output to another net."""
    n = _random_gated_netlist(rng)
    out = n.output_names[0]
    others = sorted(set(n.nets()) - {out, *n.input_names})
    dividers = []
    for k in range(rng.randint(1, 3)):
        pol = rng.choice(list(Polarity))
        dividers.append(Device(f"dv{k}", pol, rng.choice(list(ThresholdClass)),
                               ALWAYS_ON_GATE[pol], out, rng.choice(others),
                               frozenset({TAG_DIVIDER})))
    return replace(n, devices=n.devices + tuple(dividers))


def test_divider_sides_from_rows_match_the_stripped_sweep(monkeypatch):
    # every side detection of a rebind, read from the rows of the sweep it
    # already has, against the netlist without the dividers swept again; a
    # netlist without ranks still sweeps that netlist, a ranked one never
    import tritforge.passes as passes_mod

    reach = passes_mod._stripped_reach
    built = []
    sweep_init = Sweep.__init__

    def counted(self, n):
        built.append(n)
        sweep_init(self, n)

    compared = {True: 0, False: 0}  # by whether the sweep has ranks

    def both(swept, carry, dividers, is_div):
        k = len(built)
        ends, (gnd, vdd) = got = reach(swept, carry, dividers, is_div)
        ranked = swept.cn.ccc_rank is not None
        assert len(built) - k == (not ranked and bool(ends))
        ref_ends, (ref_gnd, ref_vdd) = _reference_sides(swept.cn.netlist, dividers)
        assert ends == ref_ends
        assert gnd.tolist() == ref_gnd.tolist() and vdd.tolist() == ref_vdd.tolist()
        compared[ranked] += bool(ends) and bool((gnd ^ vdd).any())
        return got

    monkeypatch.setattr(Sweep, "__init__", counted)
    monkeypatch.setattr(passes_mod, "_stripped_reach", both)
    from test_solver import _generated_cells

    # every TFA and THA after the first fixpoint
    for n in _generated_cells():
        if "carry" in n.output_names:
            for a in _assumptions(n):
                _outcome(simplify, n, a, "carry")
    assert compared[True] > 300 and not compared[False]
    compared.update({True: 0, False: 0})
    rng = random.Random(SEED)
    for _ in range(60):
        n = _random_divided_netlist(rng)
        out = n.output_names[0]
        _outcome(rebind_carry, n, out)
        for a in _assumptions(n):
            _outcome(simplify, n, a, out)
    assert compared[True] > 40 and compared[False] > 100


# SHA-256 over the outcome of every case of the random simplify matrix below,
# recorded before the divider sides were read from the rows of the last sweep
RANDOM_SIMPLIFY_DIGEST = "eb6c692d86bc67174bd7dd57587b79b492720f6986813a55cf7e72a1d5df79f6"


def test_simplify_outcomes_on_random_netlists_are_pinned():
    # random gated, feedback and static netlists under every sub-domain of
    # every input, without and with each output re-encoded: the serialized
    # netlist and report, or the error's type and text
    from test_solver import _random_feedback_netlist, _random_static_netlist

    rng = random.Random(7)
    netlists = [_random_gated_netlist(rng) for _ in range(40)]
    netlists += [_random_feedback_netlist(rng) for _ in range(15)]
    netlists += [_random_static_netlist(rng) for _ in range(15)]
    digest = hashlib.sha256()
    cases = ok = rebinds = 0
    for n in netlists:
        for a in _assumptions(n):
            for carry in (None, *n.output_names):
                try:
                    out, report = simplify(n, a, carry)
                    outcome = serialize(out) + report.to_json()
                    ok += 1
                    rebinds += carry is not None
                except TritforgeError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                digest.update(outcome.encode() + b"\0")
                cases += 1
    assert (cases, ok, rebinds) == (903, 535, 79)
    assert digest.hexdigest() == RANDOM_SIMPLIFY_DIGEST


# -- pass rewrites against the forms first written --------------------------------


def _reference_merge_nets(n, unions, removed_ids, vt_map):
    """_merge_nets as first written: every surviving device rebuilt."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def priority(net):
        return 3 if net in RAILS else 2 if net in n.input_names + n.output_names else 1

    for u, v in unions:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if ru in RAILS and rv in RAILS:
            raise NetlistSemanticError("a wire replacement would short the rails")
        keep, drop = sorted((ru, rv), key=lambda x: (-priority(x), x))
        parent[drop] = keep
    if any(find(name) in RAILS for name in n.input_names + n.output_names):
        raise NetlistSemanticError("a wire replacement would tie a port to a rail")
    devices = tuple(
        Device(d.id, d.polarity, vt_map.get(d.id, d.vt), find(d.gate), find(d.source),
               find(d.drain), d.tags)
        for d in n.devices if d.id not in removed_ids
    )
    return replace(n, inputs=tuple((find(x), dom) for x, dom in n.inputs),
                   outputs=tuple((find(x), enc) for x, enc in n.outputs), devices=devices,
                   loads=tuple((find(x), f) for x, f in n.loads), extra_nets=frozenset())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TritforgeError as exc:
        return type(exc).__name__, str(exc)


def _tfa_cells():
    """The 16 complete and partial full adders."""
    for style, completeness, cascade in itertools.product(Style, Completeness, Cascade):
        yield gen_tfa(StyleSpec(style, completeness, cascade=cascade))


def test_merge_nets_matches_rebuilding_every_device(monkeypatch):
    import tritforge.passes as passes_mod

    merge = passes_mod._merge_nets
    kept = []

    def both(cn, wired, removed, lvt):
        # the device masks as the name pairs and id sets the reference takes
        n = cn.netlist
        unions = [(d.source, d.drain) for d, w in zip(n.devices, wired) if w]
        removed_ids = {d.id for d, r in zip(n.devices, removed) if r}
        vt_map = {d.id: ThresholdClass.LVT for d, low in zip(n.devices, lvt) if low}
        got = _outcome(merge, cn, wired, removed, lvt)
        assert got == _outcome(_reference_merge_nets, n, unions, removed_ids, vt_map)
        if not isinstance(got, tuple):
            kept.append(len(set(got.devices) & set(n.devices)))
        return merge(cn, wired, removed, lvt)

    monkeypatch.setattr(passes_mod, "_merge_nets", both)
    for n in _tfa_cells():
        for a in _assumptions(n):
            apply_assumption(n, a)
        # the carry re-encoding merges the nets its dividers bridged
        simplify_pipeline(n, AssumptionDomain("cin", HALFPAIR), carry_net="carry")
    rng = random.Random(SEED)
    for _ in range(300):
        n = _random_gated_netlist(rng)
        for a in _assumptions(n):
            _outcome(apply_assumption, n, a)
    assert len(kept) > 1000 and sum(kept) > 10000


def _reference_prune_dead(n):
    """prune_dead as first written: rescan every device until no net turns live."""
    live_nets = set(n.output_names)
    live_devs = set()
    changed = True
    while changed:
        changed = False
        for d in n.devices:
            if d.id not in live_devs and (d.source in live_nets or d.drain in live_nets):
                live_devs.add(d.id)
                live_nets.update({d.source, d.drain, d.gate} - set(RAILS))
                changed = True
    devices = tuple(d for d in n.devices if d.id in live_devs)
    loads = tuple((x, f) for x, f in n.loads if x in live_nets or x in n.output_names)
    return (replace(n, devices=devices, loads=loads, extra_nets=frozenset()),
            PassReport(pruned=len(n.devices) - len(devices)))


def test_prune_dead_matches_the_rescanning_loop():
    netlists = []
    for n in _tfa_cells():
        netlists += [n, apply_assumption(n, AssumptionDomain("cin", HALFPAIR))[0]]
    rng = random.Random(SEED)
    for i in range(300):
        netlists.append((_random_netlist, _random_gated_netlist)[i % 2](rng))
    pruned = 0
    for n in netlists:
        got = prune_dead(n)
        assert got == _reference_prune_dead(n)
        pruned += got[1].pruned
    assert pruned > 300


# SHA-256 over the outcome of every case of the simplify matrix below,
# recorded before the merge and assumption passes moved onto arrays
SIMPLIFY_MATRIX_DIGEST = "adc5bc6fa1d84339b6e4c5ff6e3bde400e871725ef1b721054fda43243b0bc0b"


def test_simplify_outcomes_of_every_generated_cell_are_pinned():
    # every generated cell, under every sub-domain of every input, with and
    # without the carry re-encoding: the serialized netlist and report, or
    # the error's type and text
    from test_solver import _generated_cells

    digest = hashlib.sha256()
    cases = removed = 0
    for n in _generated_cells():
        for a in _assumptions(n):
            for carry in (None, "carry"):
                try:
                    out, report = simplify(n, a, carry)
                    outcome = serialize(out) + report.to_json()
                    removed += len(n.devices) - len(out.devices)
                except TritforgeError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                digest.update(outcome.encode() + b"\0")
                cases += 1
    assert (cases, removed) == (1180, 27875)
    assert digest.hexdigest() == SIMPLIFY_MATRIX_DIGEST
