"""Shrink a complete ternary full adder into a partial one.

A complete full adder accepts carry-in 0, 1, or 2.  Inside an addition
chain the carry never reaches 2, so devices that only matter for
carry-in=2 are dead weight.  The simplification pipeline assumes
cin in {0, 1}, classifies every device gated by cin (or its inverses)
as a wire, an open circuit, or a keeper, and then re-encodes the carry
output so that logical 1 rides at the full supply instead of the half
level -- which removes voltage division from the carry generator
entirely.
"""

from tritforge import (
    AssumptionDomain,
    Completeness,
    Level,
    Style,
    StyleSpec,
    decoded_truth,
    division_counts,
    gen_tfa,
    improvement_percent,
    simplify_pipeline,
)

CIN_01 = AssumptionDomain("cin", frozenset({Level.GND, Level.HALF}))


def main() -> None:
    for style in Style:
        complete = gen_tfa(StyleSpec(style, Completeness.COMPLETE))
        partial, report = simplify_pipeline(complete, CIN_01, carry_net="carry")

        before, after = len(complete.devices), len(partial.devices)
        print(f"{style.value:14s} {before:3d} -> {after:3d} devices "
              f"({improvement_percent(before, after):.1f}% fewer)")
        print(f"  wired={report.wired} opened={report.opened} "
              f"remapped={report.remapped} pruned={report.pruned} "
              f"factored={report.factored}")

        carry_div = sum(division_counts(partial, "carry"))
        print(f"  carry division events across all stable states: {carry_div}")

        # sanity: the shrunken cell still adds correctly on cin in {0,1}
        truth = decoded_truth(partial)
        for (a, b, c), (s, cy) in truth.items():
            assert 3 * cy + s == a + b + c
        print("  truth verified on all 18 points")
        print()


if __name__ == "__main__":
    main()
