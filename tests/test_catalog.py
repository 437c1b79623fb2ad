import pytest

from tritforge.catalog import (
    HEADER,
    CascadeKind,
    aggregate,
    improvement_percent,
    load_catalog,
    load_improvements,
    load_results,
    load_survey,
    pdp_check,
)
from tritforge.errors import SchemaError, UnknownFieldError
from tritforge.generate import Completeness
from tritforge.trits import Encoding

HEAD = ",".join(HEADER)


def row(**kw):
    base = dict(key="k1", year="2020", style="s", technology="CNFET",
                lg_nm="32", completeness="Partial", carry_encoding="half",
                cascade="direct", delay_ps="10", power_uw="2",
                pdp_fj="0.02", transistors="100")
    base.update(kw)
    return ",".join(base[col] for col in HEADER)


def test_load_catalog_minimal():
    recs = load_catalog(HEAD + "\n" + row() + "\n")
    assert len(recs) == 1
    r = recs[0]
    assert r.key == "k1" and r.year == 2020
    assert r.completeness is Completeness.PARTIAL
    assert r.carry_encoding is Encoding.HALF_VDD_HIGH
    assert r.cascade is CascadeKind.DIRECT
    assert r.pdp_fj == 0.02 and r.transistors == 100


def test_empty_cells_mean_unreported():
    recs = load_catalog(HEAD + "\n" + row(
        year="", lg_nm="", carry_encoding="", cascade="",
        delay_ps="", power_uw="", pdp_fj="", transistors="") + "\n")
    r = recs[0]
    assert r.year is None and r.lg_nm is None
    assert r.carry_encoding is None and r.cascade is None
    assert r.delay_ps is None and r.pdp_fj is None


def test_header_must_match_exactly():
    with pytest.raises(SchemaError):
        load_catalog("key,year\nk,2020\n")
    with pytest.raises(SchemaError):
        load_catalog("")


def test_schema_errors_carry_row_numbers():
    with pytest.raises(SchemaError) as err:
        load_catalog(HEAD + "\n" + row() + "\n" + row(key="k2", power_uw="-1"))
    assert err.value.row == 2  # data rows are numbered from 1
    with pytest.raises(SchemaError):
        load_catalog(HEAD + "\n" + row(year="soon"))
    with pytest.raises(SchemaError):
        load_catalog(HEAD + "\n" + row(key=""))


def test_duplicate_keys_rejected():
    with pytest.raises(SchemaError):
        load_catalog(HEAD + "\n" + row() + "\n" + row())


def test_complete_design_cannot_claim_vdd_carry():
    # a complete adder's carry reaches 2, which vdd encoding cannot express
    with pytest.raises(SchemaError):
        load_catalog(HEAD + "\n" +
                     row(completeness="Complete", carry_encoding="vdd"))
    load_catalog(HEAD + "\n" +
                 row(completeness="Complete", carry_encoding=""))


def test_cascade_aliases():
    for alias, want in [("direct", CascadeKind.DIRECT),
                        ("twotha", CascadeKind.TWO_THA),
                        ("cascaded", CascadeKind.TWO_THA),
                        ("both", CascadeKind.BOTH)]:
        recs = load_catalog(HEAD + "\n" + row(cascade=alias))
        assert recs[0].cascade is want
    with pytest.raises(SchemaError):
        load_catalog(HEAD + "\n" + row(cascade="sideways"))


def test_carry_aliases():
    for alias, want in [("half", Encoding.HALF_VDD_HIGH),
                        ("halfpair", Encoding.HALF_VDD_HIGH),
                        ("HALF", Encoding.HALF_VDD_HIGH),
                        ("vdd", Encoding.FULL_VDD_HIGH),
                        ("binary", Encoding.FULL_VDD_HIGH),
                        ("Vdd", Encoding.FULL_VDD_HIGH)]:
        recs = load_catalog(HEAD + "\n" + row(carry_encoding=alias))
        assert recs[0].carry_encoding is want
    # the standard encoding is not a carry encoding, under either name
    for alias in ("ternary", "standard"):
        with pytest.raises(SchemaError):
            load_catalog(HEAD + "\n" + row(carry_encoding=alias))
    assert set(aggregate(load_survey(), "carry_encoding")) == {"half", "vdd", "n/a"}


def test_survey_shape():
    recs = load_survey()
    assert len(recs) == 11
    agg = aggregate(recs, "completeness")
    assert agg["Complete"] == (6, pytest.approx(54.5, abs=0.1))
    assert agg["Partial"] == (5, pytest.approx(45.5, abs=0.1))
    partial = [r for r in recs if r.completeness is Completeness.PARTIAL]
    carries = aggregate(partial, "carry_encoding")
    assert carries["half"][0] == 3
    assert carries["vdd"][0] == 2


def test_survey_pdp_is_internally_consistent():
    assert all(ok for _, _, ok in pdp_check(load_survey()))


def test_aggregate_rejects_unknown_field():
    with pytest.raises(UnknownFieldError):
        aggregate(load_survey(), "delay_ps")
    with pytest.raises(UnknownFieldError):
        aggregate(load_survey(), "nope")


def test_pdp_check_mechanics():
    recs = load_catalog(
        HEAD + "\n" +
        row(key="ok", delay_ps="100", power_uw="2", pdp_fj="0.2") + "\n" +
        row(key="off", delay_ps="100", power_uw="2", pdp_fj="0.3") + "\n" +
        row(key="nopdp", delay_ps="100", power_uw="2", pdp_fj="") + "\n" +
        row(key="nodelay", delay_ps="", power_uw="2", pdp_fj="0.2")
    )
    checks = {k: (v, ok) for k, v, ok in pdp_check(recs)}
    assert checks["ok"] == (pytest.approx(0.2), True)
    assert checks["off"][1] is False
    assert checks["nopdp"] == (pytest.approx(0.2), True)
    assert "nodelay" not in checks


def test_results_catalog_loads():
    recs = load_results()
    assert len(recs) == 32
    keys = {r.key for r in recs}
    assert {"35-original", "35-simplified", "60-original"} <= keys


def test_improvement_percent():
    assert improvement_percent(100, 70) == pytest.approx(30.0)
    assert improvement_percent(1.2074, 0.5584) == pytest.approx(53.75, abs=0.01)
    with pytest.raises(ZeroDivisionError):
        improvement_percent(0, 1)


def test_improvements_load():
    rows = load_improvements()
    assert len(rows) == 33
    metrics = {r.metric for r in rows}
    assert metrics == {"delay_ps", "power_uw", "pdp_fj", "transistors"}
    r = rows[0]
    assert isinstance(r.recomputed_percent, float)
