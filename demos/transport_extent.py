"""Optimal transport on the gasket and the two-level closeness certificate.

First move mass around a small vertex metric space and inspect the
plan, then couple a coarse and a fine approximation and certify how far
apart they can look to any 1-Lipschitz observable.
"""

from fractions import Fraction

from prefractal.gasket import build_gasket
from prefractal.metric import FiniteMetricSpace, gasket_cell_trace, gasket_metric_graph
from prefractal.transport import (DiscreteMeasure, certify_extent, kantorovich,
                                  CoupledGraph)

cx = build_gasket(8)
space = FiniteMetricSpace.from_graph(gasket_metric_graph(cx, 2))

# split mass at the bottom corner against mass spread over the others
mu = DiscreteMeasure.dirac(0)
nu = DiscreteMeasure({1: Fraction(1, 2), 2: Fraction(1, 2)})
res = kantorovich(space, mu, nu)
print("corner to split corners: cost %s, duality gap %s" % (res.value, res.gap))
for i, j, mass in res.plan:
    print("  move %s from vertex %d to vertex %d" % (mass, i, j))

# couple level 2 against level 6 and measure Dirac-to-Dirac tunnels
cg = CoupledGraph.from_gasket(cx, 2, 6, Fraction(1, 24))
d = cg.distance(("a", 7), ("b", 7))
print("same vertex seen in both copies sits %s apart (the crossing toll)" % d)

print()
print("extent certificates with the default toll epsilon/4:")
print("  n  m  epsilon   bound     empirical max")
for n in (2, 3, 4):
    rep = certify_extent(gasket_cell_trace(cx, n, n + 4))
    print("  %d  %d  %-8s  %-8s  %s"
          % (rep.n, rep.m, rep.epsilon, rep.bound, rep.empirical_max))
