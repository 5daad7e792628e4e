"""Edge lengths of the harmonic embedding across subdivision levels.

Each subdivision multiplies the count of curves by three while the
lengths shrink by a factor drifting toward the contraction ratio of
the harmonic replacement rule, so the total length creeps up slowly.
"""

from prefractal.harmonic import build_harmonic_gasket, derive_subdivision_rule

rule = derive_subdivision_rule()
print("replacement weights: adjacent %d, opposite %d, over %d"
      % (rule.adjacent, rule.opposite, rule.den))

hg = build_harmonic_gasket(6, tol=1e-6)
deepest = int((hg.lengths.depth - hg.lengths.level).max())
print("quadrature tol %g, at most %d refinements below each curve's level; "
      "%d curves unconverged, the deepest needed %d"
      % (hg.tol, hg.cap, len(hg.unconverged()), deepest))
print()
print("level  curves  max length  total length  ratio to previous max")
prev = None
for lvl in range(7):
    mx = hg.max_length_at_level(lvl)
    tot = hg.total_length_at_level(lvl)
    ratio = "" if prev is None else "%.4f" % (mx / prev)
    print("  %d    %5d   %.5f     %.5f      %s"
          % (lvl, 3 ** (lvl + 1), mx, tot, ratio))
    prev = mx
