"""tritforge: ternary-logic transistor netlists, simulation, and simplification."""

from .errors import (
    DomainError,
    EquivalenceCheckFailedError,
    NetlistSemanticError,
    NetlistSyntaxError,
    NoDividerFoundError,
    NonInputAssumptionError,
    OscillationError,
    SchemaError,
    TritforgeError,
    UnknownFieldError,
    UnknownNetError,
    UnresolvableError,
    UnsupportedCombinationError,
)
from .trits import (
    DEFAULT_VDD,
    Encoding,
    InverterKind,
    Level,
    PowerBreakdown,
    STABLE_LEVELS,
    TRITS,
    check_trit,
    decode,
    encode,
    full_add_complete,
    full_add_partial,
    level_volts,
    pdp,
    power_total,
    ternary_inverter,
)
from .netlist import (
    Device,
    Netlist,
    Polarity,
    ThresholdClass,
    device_count,
    parse,
    serialize,
    validate,
)
from .solver import decoded_truth, division_counts, full_swing_lint, truth_table
from .simulate import MetricsReport, SolveResult, simulate_pattern, solve_state
from .generate import (
    Cascade,
    Completeness,
    GateKind,
    Pattern,
    PatternKind,
    Style,
    StyleSpec,
    gen_gate,
    gen_pattern,
    gen_rca,
    gen_testbench,
    gen_tfa,
    gen_tha,
    pattern_from_text,
    pattern_to_text,
)
from .passes import (
    AssumptionDomain,
    PassReport,
    apply_assumption,
    factor_parallel,
    prune_dead,
    rebind_carry,
    simplify_pipeline,
)
from .catalog import (
    CascadeKind,
    DesignRecord,
    aggregate,
    improvement_percent,
    load_catalog,
    load_improvements,
    load_results,
    load_survey,
    pdp_check,
)

__version__ = "0.1.0"
