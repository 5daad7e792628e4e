"""Curve and vertex ids of the gasket's standard parametrization.

The bottom, right and left edges of the r-th level-m triangle are curves
kappa(m, r), kappa(m, r) + 1 and kappa(m, r) + 2; through level n there
are curve_count(n) curves on vertex_count(n) vertices. GasketSpace reads
the geodesic distance between two vertices from their ids; one generic
cell certifies d_m = d_n on V_n and Haus_{d_m}(V_n, V_m) (cell_certificate)
for the bound chain gh_upper_bound. This is integer arithmetic on ids
only, with no complex and no arrays, so `covariant`, `kantorovich`,
`gh-table` and `extent` run without importing numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

# cap on the estimated bytes of a complex's build, a row-by-row agreement
# check, or a CLI command (each estimates its own peak); it also keeps a
# complex's int64 lattice coordinates (at most 2**max_level) far from overflow
MEMORY_GUARD_BYTES = 2**30

# cap on the estimated seconds of a command's exact big-int arithmetic
# (per-operation costs measured on a 2-core VM)
WORK_GUARD_SECONDS = 30

# phi_r on V_0, row r: the ids of T_r(v_0), T_r(v_1), T_r(v_2), level-1 triangle r
V0_IMAGES = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def check_memory(need: int, what: str) -> None:
    """Raise ValueError when `need` bytes exceed MEMORY_GUARD_BYTES."""
    if need > MEMORY_GUARD_BYTES:
        raise ValueError("%s needs about %d MiB, above the guard of %d MiB"
                         % (what, need >> 20, MEMORY_GUARD_BYTES >> 20))


def check_cost(need: int, seconds: float, what: str) -> None:
    """Raise ValueError, naming both estimates, when `need` bytes exceed
    MEMORY_GUARD_BYTES or `seconds` exceed WORK_GUARD_SECONDS."""
    if need > MEMORY_GUARD_BYTES or seconds > WORK_GUARD_SECONDS:
        raise ValueError("%s needs about %d MiB and %.3g s, above the guards of %d MiB and %d s"
                         % (what, need >> 20, seconds, MEMORY_GUARD_BYTES >> 20,
                            WORK_GUARD_SECONDS))


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

    def to_coarse(self, v: int, n: int) -> int:
        """d(v, V_n), an int over scale, for n <= level: 0 on V_n, else the
        least of delta_n's corner entries, as v lies in one level-n cell,
        T_w[:n](K), and a path to V_n leaves it through a corner."""
        word, _, tables = self._tables(v)
        return min(tables[n][:3]) if len(word) >= n else 0


# -- what one generic cell certifies about two levels --------------------

# SG_1 with unit child sides, from _V1_HOPS: the hops between its corner
# pairs (0, 1), (1, 2), (2, 0), and the most hops from a V_1 point to V_0
_V1_SIDES = tuple(_V1_HOPS[a][b] for a, b in ((0, 1), (1, 2), (2, 0)))
_V1_REACH = max(min(row[:3]) for row in _V1_HOPS)


class CellCertificate(namedtuple("CellCertificate", "n m corner_hops haus_hops")):
    """Hops in G_m between corners (0, 1), (1, 2), (2, 0) of a level-n cell,
    and the most hops from a V_m vertex to V_n."""
    __slots__ = ()

    def discrepancy(self) -> int:
        """max |d_m - d_n| on V_n: 0 when every corner pair of a level-n cell
        is 2^(m-n) hops apart; anything else raises, naming the level."""
        n, m = self.n, self.m
        if any(h != 1 << (m - n) for h in self.corner_hops):
            raise ValueError("d_%d and d_%d differ on V_%d: the corners of a level-%d cell are "
                             "%s hops apart in G_%d, not 2^%d"
                             % (m, n, n, n, list(self.corner_hops), m, m - n))
        return 0


def cell_certificate(n: int, m: int) -> CellCertificate:
    """The corner and Hausdorff hops of levels (n, m), read from one generic
    cell, SG_1 (_V1_HOPS), scaled by 2^(m-n-1). Each level-k cell is three
    level-(k+1) cells glued at their corners in one pattern (V0_IMAGES),
    and a level's cells meet only at their corners, so a path inside a
    cell splits at its children's corners into paths inside single ones.

    Lemma 1: d_m = d_n on V_n. A level-m cell is a triangle, its corners
    one hop apart. If every level-(k+1) cell's corners are h hops apart,
    a level-k cell's corner hops are the min-plus closure of its
    children's sides, which is positively homogeneous: h times SG_1's
    with unit sides, h * _V1_SIDES = 2h. So a level-n cell's corners are
    2^(m-n) hops apart. A path in G_m between V_n vertices splits at its
    V_n visits into corner-to-corner paths inside level-n cells, so d_m
    on V_n is the metric of G_n with sides 2^(m-n) * 2^-m = 2^-n.

    Lemma 2: Haus_{d_m}(V_n, V_m) = 2^(m-n-1) hops for m > n. Any two
    children of a cell share a corner, so a cell's diameter is at most
    twice its children's, and a level-(n+1) cell's at most 2^(m-n-1)
    hops; each holds a corner of its parent, a V_n vertex. A side
    midpoint of a level-n cell, one of its V_1 points, is _V1_REACH
    level-(n+1) sides (Lemma 1) from its nearest corner, and a path to
    V_n leaves its one level-n cell through a corner: the bound is
    attained. At m = n, V_m = V_n and the term is 0. Both lemmas hold
    for every m (Kigami, Analysis on Fractals, 2001, ch. 1; Christensen,
    Ivan and Lapidus, Adv. Math. 2008, build on the same induction).
    """
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m, got n=%d m=%d" % (n, m))
    if n == m:
        return CellCertificate(n, m, (1, 1, 1), 0)
    unit = 1 << (m - n - 1)  # a level-(n+1) side, in hops of G_m
    return CellCertificate(n, m, tuple(h * unit for h in _V1_SIDES), _V1_REACH * unit)


# -- the two-sided bound chain -------------------------------------------


def check_samples(k: int) -> None:
    """Raise ValueError unless k is at least one sample per curve."""
    if k < 1:
        raise ValueError("need at least one sample per curve")


def sample_parameters(k: int) -> list[Fraction]:
    """k equispaced interior parameters (2i+1)/(2k); cover radius 1/(2k)."""
    check_samples(k)
    return [Fraction(2 * i + 1, 2 * k) for i in range(k)]


class GHBoundReport(namedtuple("GHBoundReport", [
        "n", "m", "samples_per_curve",
        "haus_vertices_to_sample",  # Haus_{d_n}(V_n, S_n)
        "sampling_slack",           # max curve length / (2k)
        "haus_vn_in_vm",            # Haus_{d_m}(V_n, V_m)
        "tail",                     # 2^-m density of V_m in the limit set
        "bound",                    # sum of the three certified terms
        "bound_with_slack",
        "paper_bound"])):           # 2^(1-n)
    __slots__ = ()


def gh_upper_bound(cell: CellCertificate, samples_per_curve: int = 3) -> GHBoundReport:
    """Certified upper bound for the coarse-vs-limit comparison at level
    n = cell.n, against the fine level m = cell.m.

    Chain: (level-n set vs V_n under d_n) + (exact vertex agreement, zero)
    + (V_n vs V_m under d_m, plus the 2^-m density of V_m in the limit).
    The first term is computed on the on-edge sample S_n; its cover-radius
    slack is reported separately, never folded in silently. The third term
    is cell.haus_hops over 2^m; the agreement is cell.discrepancy().
    """
    check_samples(samples_per_curve)
    n, m = cell.n, cell.m
    # every level-n curve has length 2^-n and both endpoints in V_n, so a
    # sample at parameter t is min(t, 1 - t) of a curve from V_n; the
    # V_n -> S_n direction is zero since vertices are in the sample. Over
    # the parameters (2i+1)/(2k), the max of min(t, 1 - t) is at the one
    # nearest 1/2: i = (k - 1) // 2
    lam = Fraction(1, 2**n)
    term1 = lam * Fraction(2 * ((samples_per_curve - 1) // 2) + 1, 2 * samples_per_curve)
    slack = lam / (2 * samples_per_curve)
    term3 = Fraction(cell.haus_hops, 2**m)
    tail = Fraction(1, 2**m)
    bound = term1 + term3 + tail
    return GHBoundReport(n, m, samples_per_curve, term1, slack, term3, tail, bound,
                         bound + slack, Fraction(2, 2**n))
