"""Acceptance gate: one test per shipped claim.

Each test is self-contained and prints nothing on success; the pytest
line for each is the pass/fail record.  Criterion 6 checks the shipped
measurement tables against their own arithmetic and fails if any row is
internally inconsistent.
"""

import itertools
import random
import time

import pytest

from tritforge.catalog import (
    aggregate,
    load_improvements,
    load_results,
    load_survey,
    pdp_check,
)
from tritforge.generate import (
    Cascade,
    Completeness,
    PatternKind,
    Style,
    StyleSpec,
    gen_pattern,
    gen_rca,
    gen_tfa,
)
from tritforge.netlist import DOMAIN_HALFPAIR, DOMAIN_TERNARY
from tritforge.solver import decoded_truth, division_counts
from tritforge.trits import (
    Encoding,
    PowerBreakdown,
    full_add_complete,
    full_add_partial,
    power_total,
)

from test_generate import all_specs
from test_passes import RULE_CASES, _random_netlist, _tables_agree
from test_passes import test_single_device_rules as _check_rule_case


def test_01_truth_fidelity_all_variants():
    t0 = time.monotonic()
    for spec in all_specs():
        n = gen_tfa(spec)
        truth = decoded_truth(n)
        complete = spec.completeness is Completeness.COMPLETE
        oracle = full_add_complete if complete else full_add_partial
        cins = range(3) if complete else range(2)
        points = 0
        for a, b, c in itertools.product(range(3), range(3), cins):
            carry, total = oracle(a, b, c)
            assert truth[(a, b, c)] == (total, carry), (spec, a, b, c)
            points += 1
        assert points == (27 if complete else 18)
    assert time.monotonic() - t0 < 10.0


def test_02_single_device_rule_suite():
    for dev, cell, domain, fate in RULE_CASES:
        _check_rule_case(dev, cell, domain, fate)


def test_03_simplification_soundness_1000_random():
    from tritforge.passes import AssumptionDomain, simplify_pipeline

    rng = random.Random(402)
    for _ in range(1000):
        n = _random_netlist(rng)
        target, domain = rng.choice(n.inputs)
        levels = frozenset(rng.sample(
            sorted(domain, key=lambda l: l.value),
            rng.randint(1, len(domain))))
        out, _ = simplify_pipeline(n, AssumptionDomain(target, levels))
        assert len(out.devices) <= len(n.devices)
        assert _tables_agree(n, out, {target: levels})


def test_04_vdd_carry_never_divides():
    for style in Style:
        for cascade in Cascade:
            full = gen_tfa(StyleSpec(style, Completeness.PARTIAL,
                                     carry_encoding=Encoding.FULL_VDD_HIGH,
                                     cascade=cascade))
            counts = division_counts(full, "carry")
            assert len(counts) == 18 and sum(counts) == 0, (style, cascade)
            half = gen_tfa(StyleSpec(style, Completeness.PARTIAL,
                                     carry_encoding=Encoding.HALF_VDD_HIGH,
                                     cascade=cascade))
            assert sum(division_counts(half, "carry")) > 0, (style, cascade)


def test_05_four_digit_rca_matches_base3_oracle():
    t0 = time.monotonic()
    spec = StyleSpec(Style.TERNARY_CMOS, Completeness.PARTIAL,
                     carry_encoding=Encoding.FULL_VDD_HIGH)
    n = gen_rca(4, spec)
    truth = decoded_truth(n)
    assert len(truth) == 13122  # 3^4 * 3^4 * 2
    for pt, val in truth.items():
        a0, a1, a2, a3, b0, b1, b2, b3, cin = pt
        a = a0 + 3 * a1 + 9 * a2 + 27 * a3
        b = b0 + 3 * b1 + 9 * b2 + 27 * b3
        total = a + b + cin
        digits = (total % 3, total // 3 % 3, total // 9 % 3,
                  total // 27 % 3, total // 81)
        assert val == digits, pt
    assert time.monotonic() - t0 < 60.0


def test_06_shipped_tables_are_arithmetically_consistent():
    problems = []
    for key, recomputed, ok in pdp_check(load_results()):
        if not ok:
            problems.append(
                f"{key}: recorded PDP != delay x power "
                f"(recomputed {recomputed:.4f} fJ, > 0.5% off)")
    for imp in load_improvements():
        if abs(imp.recomputed_percent - imp.stated_percent) > 0.2:
            problems.append(
                f"table {imp.table} {imp.metric}: stated "
                f"{imp.stated_percent}% improvement, recomputed "
                f"{imp.recomputed_percent:.2f}% (> 0.2 points off)")
    assert problems == [], "; ".join(problems)


def test_07_complete_pattern_transition_counts():
    d332 = [("a", DOMAIN_TERNARY), ("b", DOMAIN_TERNARY),
            ("cin", DOMAIN_HALFPAIR)]
    p = gen_pattern(d332, PatternKind.COMPLETE_TRANSITIONS)
    assert p.transitions == 306
    assert len(set(zip(p.rows, p.rows[1:]))) == 306
    d333 = [("a", DOMAIN_TERNARY), ("b", DOMAIN_TERNARY),
            ("cin", DOMAIN_TERNARY)]
    p = gen_pattern(d333, PatternKind.COMPLETE_TRANSITIONS)
    assert p.transitions == 702
    assert len(set(zip(p.rows, p.rows[1:]))) == 702


def test_08_power_model_properties():
    base = PowerBreakdown(activity=0.3, load_f=2e-15, frequency=5e8,
                          supply_v=0.9, i_static=4e-6)
    static = power_total(PowerBreakdown(0.0, base.load_f, base.frequency,
                                        base.supply_v, base.i_static))
    for load in (1e-15, 4e-15):
        for freq in (1e8, 2e9):
            varied = PowerBreakdown(0.0, load, freq, base.supply_v,
                                    base.i_static)
            assert power_total(varied) == pytest.approx(static)
    # static pressure ordering: the vdd carry never divides, the half
    # carry divides sometimes, a complete cell's ternary carry the most
    def mean_div(spec):
        counts = division_counts(gen_tfa(spec))
        return sum(counts) / len(counts)

    for style in Style:
        full = mean_div(StyleSpec(style, Completeness.PARTIAL,
                                  carry_encoding=Encoding.FULL_VDD_HIGH))
        half = mean_div(StyleSpec(style, Completeness.PARTIAL,
                                  carry_encoding=Encoding.HALF_VDD_HIGH))
        comp = mean_div(StyleSpec(style, Completeness.COMPLETE))
        assert full <= half <= comp, style


def test_09_absolute_timing_and_power_are_out_of_scope():
    # the simulator reports dimensionless proxies, never picoseconds or
    # microwatts: settling rounds for delay, division counts for static
    # pressure.  Absolute figures belong to transistor-level simulation
    # with a physical device model and are deliberately not produced.
    from tritforge.simulate import MetricsReport

    fields = set(MetricsReport.__dataclass_fields__)
    assert "delay_rounds" in fields and "static_div_mean" in fields
    assert not any(f.endswith(("_ps", "_uw", "_volts")) for f in fields)


def test_10_catalog_shape_and_consistency():
    recs = load_survey()
    assert len(recs) == 11
    agg = aggregate(recs, "completeness")
    assert agg["Partial"][0] == 5
    assert all(ok for _, _, ok in pdp_check(recs))
