"""Watch the prefractal approximations converge in the metric sense.

Coarse vertex sets sit inside finer ones without their pairwise
distances moving at all, and the certified Gromov-Hausdorff bound to
the limit shrinks like 2^-n.
"""

from fractions import Fraction

from prefractal.gasket import build_gasket
from prefractal.metric import (certify_vertex_agreement, gasket_cell_traces,
                               gasket_metric_graph, gh_upper_bound)

M = 9
cx = build_gasket(M)
graphs = {lvl: gasket_metric_graph(cx, lvl) for lvl in range(M + 1)}

print("vertex metric agreement (max discrepancy, exact arithmetic):")
for n in range(4):
    rep = certify_vertex_agreement(n, n + 3, graphs[n], graphs[n + 3])
    print("  levels %d vs %d: %s over %d vertices"
          % (n, n + 3, rep.max_discrepancy, rep.vertices_compared))

print()
print("certified distance to the limit (fine level m = %d):" % M)
print("  n   bound            with sampling slack   2^(1-n)+2^-m")
# one run of closures from the level-M triangles yields the cell trace
# of every n, from n = 6 down; each bound reads its trace
reports = [gh_upper_bound(trace, 3) for trace in gasket_cell_traces(cx, 6, M)]
for rep in reversed(reports):
    n = rep.n
    ref = Fraction(2, 2 ** n) + Fraction(1, 2 ** M)
    print("  %d   %-14s   %-19s   %s"
          % (n, rep.bound, rep.bound_with_slack, ref))
    assert Fraction(rep.bound_with_slack) <= ref
