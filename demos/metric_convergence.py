"""Watch the prefractal approximations converge in the metric sense.

Coarse vertex sets sit inside finer ones without their pairwise
distances moving at all, and the certified Gromov-Hausdorff bound to
the limit shrinks like 2^-n.
"""

from fractions import Fraction

from prefractal.curves import cell_certificate, gh_upper_bound
from prefractal.gasket import build_gasket
from prefractal.metric import certify_vertex_agreement, gasket_metric_graph

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
# one generic cell per level certifies the Hausdorff term and the
# agreement of levels (n, M); no complex is needed for the bound
for n in range(7):
    rep = gh_upper_bound(cell_certificate(n, M), 3)
    ref = Fraction(2, 2 ** n) + Fraction(1, 2 ** M)
    print("  %d   %-14s   %-19s   %s"
          % (n, rep.bound, rep.bound_with_slack, ref))
    assert Fraction(rep.bound_with_slack) <= ref
