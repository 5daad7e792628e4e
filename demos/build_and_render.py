"""Build a gasket complex two ways and render both as SVG.

The Euclidean picture uses the integer lattice coordinates; the harmonic
picture re-embeds every vertex through the exact corner-indicator
triples, which flattens the gasket into the familiar rounded shape.
"""

import numpy as np

from prefractal.gasket import build_gasket
from prefractal.harmonic import HarmonicTable
from prefractal.svg import gasket_svg, plane_coords

LEVEL = 6

cx = build_gasket(LEVEL)
print("level %d complex: %d vertices, %d curves at the top level"
      % (LEVEL, len(cx.vertices), 3 ** (LEVEL + 1)))

with open("gasket_euclidean.svg", "w") as fh:
    fh.writelines(gasket_svg(cx, LEVEL))
print("wrote gasket_euclidean.svg")

# harmonic embedding: evaluate the three corner indicators at every
# vertex, then project the simplex-valued triples to the plane
table = HarmonicTable(cx)
emb = table.embedding_array()
coords = plane_coords(emb)
print("harmonic coordinates span x: [%.3f, %.3f], y: [%.3f, %.3f]"
      % (coords[:, 0].min(), coords[:, 0].max(),
         coords[:, 1].min(), coords[:, 1].max()))

with open("gasket_harmonic.svg", "w") as fh:
    fh.writelines(gasket_svg(cx, LEVEL, coords=coords))
print("wrote gasket_harmonic.svg")

# the two embeddings agree on the three corners up to rotation/scale,
# so compare their edge statistics instead of raw positions
ends = cx.curve_ends(LEVEL)
edge_len = np.hypot(*(coords[ends[:, 0]] - coords[ends[:, 1]]).T)
print("harmonic chord lengths at level %d: min %.5f, mean %.5f, max %.5f"
      % (LEVEL, edge_len.min(), edge_len.mean(), edge_len.max()))
