"""Curve and vertex ids of the gasket's standard parametrization.

The bottom, right and left edges of the r-th level-m triangle are curves
kappa(m, r), kappa(m, r) + 1 and kappa(m, r) + 2; through level n there
are curve_count(n) curves on vertex_count(n) vertices. GasketSpace reads
the geodesic distance between two vertices from their ids. This is
integer arithmetic on ids only, with no complex and no arrays, so the
sparse mode vectors of `covariant` and the transport of `kantorovich`
run without importing numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter

# cap on the estimated bytes of a complex's build, a row-by-row agreement
# check, or a CLI command (each estimates its own peak); it also keeps a
# complex's int64 lattice coordinates (at most 2**max_level) far from overflow
MEMORY_GUARD_BYTES = 2**30

# phi_r on V_0, row r: the ids of T_r(v_0), T_r(v_1), T_r(v_2), level-1 triangle r
V0_IMAGES = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def check_memory(need: int, what: str) -> None:
    """Raise ValueError when `need` bytes exceed MEMORY_GUARD_BYTES."""
    if need > MEMORY_GUARD_BYTES:
        raise ValueError("%s needs about %d MiB, above the guard of %d MiB"
                         % (what, need >> 20, MEMORY_GUARD_BYTES >> 20))


def kappa(n: int, r: int) -> int:
    """Curve id of the bottom edge of the r-th (0-indexed) level-n triangle."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    if not 0 <= r < 3**n:
        raise ValueError("triangle index %d out of range 0..%d for level %d" % (r, 3**n - 1, n))
    # 3 * (sum_{k<n} 3^k + r), with kappa(0,0) = 0 by convention
    return 3 * ((3**n - 1) // 2 + r)


# kappa(n, 0) for n = 0, 1, ...; kappa_inverse extends it past the largest id seen
_LEVEL_STARTS = [kappa(n, 0) for n in range(32)]


def kappa_inverse(curve_id: int) -> tuple[int, int, int]:
    """Inverse lookup: curve id -> (level n, triangle index r, edge offset)."""
    if curve_id < 0:
        raise ValueError("curve id must be nonnegative, got %d" % curve_id)
    while _LEVEL_STARTS[-1] <= curve_id:
        _LEVEL_STARTS.append(kappa(len(_LEVEL_STARTS), 0))
    n = bisect_right(_LEVEL_STARTS, curve_id) - 1
    within = curve_id - _LEVEL_STARTS[n]
    return (n, within // 3, within % 3)


def curve_count(n: int) -> int:
    """B_n, the number of curves with level <= n: (3/2)(3^(n+1) - 1)."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    return 3 * (3 ** (n + 1) - 1) // 2


def vertex_count(n: int) -> int:
    """|V_n| = (3^(n+1) + 3)/2."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    return (3 ** (n + 1) + 3) // 2


# hops between the six V_1 vertices: Floyd-Warshall over the sides of the
# level-1 triangles V0_IMAGES
_V1_HOPS = [[0 if p == q else 1 if any({p, q} <= set(t) for t in V0_IMAGES) else 6
             for q in range(6)] for p in range(6)]
for _k in range(6):
    _V1_HOPS = [[min(row[q], row[_k] + _V1_HOPS[_k][q]) for q in range(6)] for row in _V1_HOPS]


# _CORNER_HOPS[r][q]: the hops from the corners phi_r(V_0) of the level-1
# triangle r to the V_1 vertex q
_CORNER_HOPS = [list(zip(*(_V1_HOPS[c] for c in t))) for t in V0_IMAGES]


def vertex_word(v: int) -> tuple[list[int], int]:
    """(w, p) with p in V_1 and vertex v = T_w[0] ... T_w[-1](p), w empty
    on V_1 and one letter shorter than v's first level otherwise.

    Inverts build_gasket's id maps: for L >= 2 the new block of V_L holds
    |V_(L-1)| + r*3^(L-1) + i = T_r(|V_(L-2)| + i), 0 <= i < 3^(L-1).
    """
    if v < 0:
        raise ValueError("vertex id must be nonnegative, got %d" % v)
    counts = [3, 6]  # |V_0|, |V_1|, ..., up to the first above v
    while counts[-1] <= v:
        counts.append(3 * counts[-1] - 3)
    word = []
    for level in range(len(counts) - 1, 1, -1):
        r, i = divmod(v - counts[level - 1], (counts[level] - counts[level - 1]) // 3)
        word.append(r)
        v = counts[level - 2] + i
    return word, v


class GasketSpace:
    """V_level of the gasket with its geodesic metric, read from vertex ids.

    Distances are ints over `scale`, hops of level max(level, 1). A path
    leaves a cell through its corners, and none between two corners is
    shorter than their side (Kigami, Analysis on Fractals, 2001, ch. 1;
    Hinz & Schief, "The average distance on the Sierpinski gasket", PTRF
    1990), so d on a cell is its own, and on its V_1 the hop metric.

    x = T_w(p) lies in the cells T_w[:k](K), k <= |w|. Its table delta_k
    holds d(x, q) for the six points q of the level-k cell's V_1: the
    scaled V_1 hops from p at k = |w|, then one 6-point min-plus step per
    level, delta_k(q) = min_j delta_(k+1)(j) + d(phi_r(j), q), as the
    child T_r holding x meets the rest of the cell only at its corners
    phi_r(V_0). A pair meets at its lowest common cell, the longest
    common prefix of the words, where support_block reads its distance.
    """

    def __init__(self, level: int):
        self.vertex_count = vertex_count(level)
        self.level = level
        self.scale = 2 ** max(level, 1)

    def _tables(self, v: int) -> tuple[list[int], int, list[list[int]]]:
        """The word and V_1 point of v, and its delta_k for k = 0..|word|,
        over scale."""
        if not 0 <= v < self.vertex_count:
            raise ValueError("vertex %d is not in V_%d" % (v, self.level))
        word, p = vertex_word(v)
        unit = self.scale >> len(word) + 1  # a V_1 hop of v's own cell
        tables = [[h * unit for h in _V1_HOPS[p]]]
        for r in reversed(word):
            unit *= 2
            a, b, c = tables[-1][:3]
            tables.append([min(a + x * unit, b + y * unit, c + z * unit)
                           for x, y, z in _CORNER_HOPS[r]])
        return word, p, tables[::-1]

    def support_block(self, nodes) -> tuple[list[list[int]], int]:
        """The distances among `nodes`, ints over `scale`, and `scale`.

        The points are split cell by cell, top-down over their words'
        letters, and each pair is read once, at its lowest common cell u
        of depth k. A point whose word is u is a point p of u's V_1, so
        its distance to each point y of u is delta_k^y(p). A point x that
        goes on into the child T_r leaves it through a corner phi_r(j) on
        the way to a point y of another child, and delta_(k+1)^x(j) =
        d(x, phi_r(j)), so d(x, y) = min_j delta_(k+1)^x(j) +
        delta_k^y(phi_r(j)). Pairs inside one child go down with it.
        """
        points = [self._tables(v) for v in nodes]
        block = [[0] * len(points) for _ in points]
        cells = [(0, range(len(points)))]
        while cells:
            k, members = cells.pop()
            kids = ([], [], [])
            for i in members:
                word, p, _ = points[i]
                if len(word) > k:
                    kids[word[k]].append(i)
                    continue
                row = block[i]
                for j in members:
                    row[j] = block[j][i] = points[j][2][k][p]
            later = []
            for r in (2, 1, 0):
                if later:
                    corners = itemgetter(*V0_IMAGES[r])
                    cols = [corners(points[j][2][k]) for j in later]
                    for i in kids[r]:
                        a, b, c = points[i][2][k + 1][:3]
                        row = block[i]
                        for j, d in zip(later, [min(a + x, b + y, c + z) for x, y, z in cols]):
                            row[j] = block[j][i] = d
                if len(kids[r]) > 1:
                    cells.append((k + 1, kids[r]))
                later += kids[r]
        return block, self.scale
