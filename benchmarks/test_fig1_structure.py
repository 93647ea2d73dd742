"""F1 — Figure 1: the recursive structure of BITONIC[w].

Regenerates the figure's content as a table: for each width, the
component census per level of ``T_w`` (so the 6/4/2-way recursion of
Section 2.1 is visible), plus the balancer count of the fully-split
network against the closed form ``w log w (log w + 1) / 4``.
"""

from repro.analysis.theory import static_balancer_count
from repro.core.cut import Cut
from repro.core.decomposition import ComponentKind, DecompositionTree


def test_fig1_recursive_structure(report, benchmark):
    rows = []
    for width in (4, 8, 16, 32, 64):
        tree = DecompositionTree(width)
        for level in range(tree.max_level + 1):
            census = tree.level_census(level)
            rows.append(
                (
                    width,
                    level,
                    width >> level,
                    census[ComponentKind.BITONIC],
                    census[ComponentKind.MERGER],
                    census[ComponentKind.MIX],
                    tree.phi(level),
                )
            )
    report(
        "Figure 1 - recursive structure of BITONIC[w] (component census per level)",
        ["w", "level", "comp width", "#BITONIC", "#MERGER", "#MIX", "phi(level)"],
        rows,
        notes="phi(0..2) = 1, 6, 24 as in Section 3 of the paper.",
    )
    balancer_rows = []
    for width in (4, 8, 16, 32, 64):
        tree = DecompositionTree(width)
        full = Cut.leaves(tree)
        balancer_rows.append((width, len(full), static_balancer_count(width)))
    report(
        "Figure 1 - balancer counts (full-leaf cut vs closed form)",
        ["w", "leaves of T_w", "w*log w*(log w+1)/4"],
        balancer_rows,
    )
    for width, leaves, formula in balancer_rows:
        assert leaves == formula

    benchmark(lambda: DecompositionTree(64).size())
