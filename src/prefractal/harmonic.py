"""Harmonic functions on the gasket and the embedded geometry they induce.

Each vertex carries the triple of corner-indicator harmonic functions,
stored as integer numerators over 5^level, so partition of unity and the
maximum principle are exact integer statements. The affine map
(sqrt(2)/2) * (triple - (1,1,1)) sends vertices into the plane
x + y + z = -sqrt(2) in R^3; curve images are rectifiable and inscribed
polylines at dyadic parameters estimate their lengths from below.

The one-level subdivision rule is not hardcoded. It is derived once by
exactly minimizing the level-1 graph energy over the three midpoint
values for unit corner data, then applied cell by cell; the derivation
doubles as a consistency check on the curve layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gasket import PrefractalComplex, build_gasket, kappa, kappa_inverse
from .metric import MetricGraph, gasket_metric_graph

RATIONAL_DEPTH_CAP = 12  # numerators grow as den^depth; ints stay cheap here

EMBED_SCALE = math.sqrt(2) / 2

# curve kind -> (start slot, end slot) of the owning cell, oriented
_KIND_SLOTS = {"bottom": (0, 1), "right": (1, 2), "left": (2, 0)}


def _solve_exact(a, b):
    """Gaussian elimination over Fractions; a is modified in place."""
    n = len(a)
    rows = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [e * inv for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


@dataclass(frozen=True)
class SubdivisionRule:
    """Midpoint of the corner pair (s,t) gets (adj*(N_s+N_t) + opp*N_u)/den."""

    adjacent: int
    opposite: int
    den: int


@lru_cache(maxsize=1)
def derive_subdivision_rule() -> SubdivisionRule:
    """Solve the one-refinement energy minimization for the midpoint rule.

    Assembles stationarity equations for the three interior vertices of
    the level-1 graph (degree * value = sum of neighbor values) and
    solves them exactly for each unit corner datum. The solution must
    come out symmetric: one weight for the two adjacent corners, one for
    the opposite corner.
    """
    cx = build_gasket(1)
    interior = [v for v in range(cx.level_vertex_counts[1]) if v > 2]
    neighbors = {v: [] for v in interior}
    for c in cx.curves_at_level(1):
        u, w = c.endpoints
        if u in neighbors:
            neighbors[u].append(w)
        if w in neighbors:
            neighbors[w].append(u)

    pos = {v: i for i, v in enumerate(interior)}
    solution = {}
    for corner in range(3):
        a = [[Fraction(0)] * len(interior) for _ in interior]
        b = [Fraction(0)] * len(interior)
        for v in interior:
            i = pos[v]
            a[i][i] = Fraction(len(neighbors[v]))
            for w in neighbors[v]:
                if w in pos:
                    a[i][pos[w]] -= 1
                elif w == corner:
                    b[i] += 1
        x = _solve_exact(a, b)
        for v in interior:
            solution.setdefault(v, [None] * 3)[corner] = x[pos[v]]

    weights = set()
    for v in interior:
        corners_of_v = sorted(set(neighbors[v]) & {0, 1, 2})
        if len(corners_of_v) != 2:
            raise RuntimeError("interior vertex %d not between two corners" % v)
        s, t = corners_of_v
        u = 3 - s - t
        coeffs = solution[v]
        if coeffs[s] != coeffs[t]:
            raise RuntimeError("midpoint rule is not symmetric at vertex %d" % v)
        weights.add((coeffs[s], coeffs[u]))
    if len(weights) != 1:
        raise RuntimeError("midpoint rule differs between interior vertices")
    adj, opp = weights.pop()
    den = math.lcm(adj.denominator, opp.denominator)
    if 2 * adj + opp != 1:
        raise RuntimeError("midpoint weights do not average the corners")
    return SubdivisionRule(int(adj * den), int(opp * den), den)


class HarmonicTable:
    """Exact corner-indicator triples for every vertex of a complex.

    numerators[v] is an integer 3-tuple over den^levels[v]; the sums are
    exactly den^levels[v] (partition of unity) and every entry is
    nonnegative (maximum principle), both enforced during construction.
    """

    def __init__(self, cx: PrefractalComplex, rule: SubdivisionRule | None = None):
        if rule is None:
            rule = derive_subdivision_rule()
        self.cx = cx
        self.rule = rule
        n = len(cx.vertices)
        self.levels = [-1] * n
        self.numerators = [None] * n
        for r in range(3):
            self.levels[r] = 0
            self.numerators[r] = tuple(1 if i == r else 0 for i in range(3))

        adj, opp, den = rule.adjacent, rule.opposite, rule.den
        pairs = ((0, 1), (1, 2), (2, 0))
        for m in range(cx.max_level):
            child_tris = cx.triangles[m + 1].tolist()
            for k, ids in enumerate(cx.triangles[m].tolist()):
                corn = [self._at_level(ids[i], m, den) for i in range(3)]
                for s, t in pairs:
                    u = 3 - s - t
                    vid = child_tris[3 * k + s][t]
                    if self.levels[vid] >= 0:
                        raise RuntimeError("vertex %d assigned twice" % vid)
                    trip = tuple(
                        adj * (corn[s][i] + corn[t][i]) + opp * corn[u][i]
                        for i in range(3)
                    )
                    if sum(trip) != den ** (m + 1) or min(trip) < 0:
                        raise RuntimeError(
                            "harmonic invariants broken at vertex %d" % vid)
                    self.levels[vid] = m + 1
                    self.numerators[vid] = trip

    def _at_level(self, vid: int, level: int, den: int):
        f = den ** (level - self.levels[vid])
        return tuple(n * f for n in self.numerators[vid])

    def triple(self, vid: int) -> tuple[Fraction, Fraction, Fraction]:
        d = self.rule.den ** self.levels[vid]
        return tuple(Fraction(n, d) for n in self.numerators[vid])

    def triples_at_common_level(self, vids, level: int):
        """Integer triples over den^level for each vertex id."""
        for vid in vids:
            if self.levels[vid] > level:
                raise ValueError("vertex %d first appears below level %d"
                                 % (vid, level))
        return [self._at_level(vid, level, self.rule.den) for vid in vids]

    def embedding_array(self, n_vertices: int | None = None) -> np.ndarray:
        """Float images of the first n vertices in the embedding plane."""
        n = len(self.cx.vertices) if n_vertices is None else n_vertices
        out = np.empty((n, 3))
        den = self.rule.den
        for v in range(n):
            d = den ** self.levels[v]
            out[v] = [num / d for num in self.numerators[v]]
        return EMBED_SCALE * (out - 1.0)


def harmonic_extend(corner_data, depth: int, cx: PrefractalComplex | None = None,
                    cap: int = RATIONAL_DEPTH_CAP) -> list[Fraction]:
    """Energy-minimizing extension of rational corner data to V_depth.

    Returns one exact value per vertex; linear in the data, so it is the
    corner-indicator combination sum(data[r] * u_r).
    """
    if depth > cap:
        raise ValueError(
            "depth %d exceeds rational depth cap %d; denominators grow as 5^depth"
            % (depth, cap)
        )
    data = [Fraction(c) for c in corner_data]
    if len(data) != 3:
        raise ValueError("corner data must be a triple")
    if cx is None or cx.max_level < depth:
        cx = build_gasket(depth)
    table = HarmonicTable(cx)
    nv = cx.level_vertex_counts[depth]
    out = []
    for v in range(nv):
        trip = table.triple(v)
        out.append(sum(d * t for d, t in zip(data, trip)))
    return out


def embedding_point(triple) -> np.ndarray:
    """Affine image of a value triple in the plane x+y+z = -sqrt(2)."""
    return EMBED_SCALE * (np.asarray([float(t) for t in triple]) - 1.0)


@dataclass
class LengthEstimate:
    curve_id: int
    level: int
    value: float  # inscribed polyline length, a lower bound
    depth: int  # absolute subdivision level of the polyline
    segments: int
    increments: list[float]
    converged: bool
    tol: float

    @property
    def last_increment(self) -> float | None:
        return self.increments[-1] if self.increments else None

    @property
    def relative_increment(self) -> float | None:
        if not self.increments or self.value == 0:
            return None
        return self.increments[-1] / self.value


def _polyline_length(cells, s, t, den_pow: float) -> float:
    pts = [cells[0][s]] + [cell[t] for cell in cells]
    arr = np.asarray(pts, dtype=float) / den_pow
    seg = np.diff(arr, axis=0)
    norms = np.sqrt((seg * seg).sum(axis=1))
    return EMBED_SCALE * math.fsum(norms.tolist())


def _subdivide_along(cells, s, t, adj, opp, den):
    u = 3 - s - t
    out = []
    for cell in cells:
        mids = {}
        for (a, b) in ((0, 1), (1, 2), (2, 0)):
            c = 3 - a - b
            mids[frozenset((a, b))] = tuple(
                adj * (cell[a][i] + cell[b][i]) + opp * cell[c][i]
                for i in range(3)
            )

        def child(r):
            return tuple(
                tuple(den * x for x in cell[r]) if slot == r
                else mids[frozenset((slot, r))]
                for slot in range(3)
            )

        out.append(child(s))
        out.append(child(t))
    return out


def harmonic_curve_length(cx: PrefractalComplex, curve_id: int,
                          tol: float = 1e-6, cap: int = RATIONAL_DEPTH_CAP,
                          table: HarmonicTable | None = None) -> LengthEstimate:
    """Inscribed-polyline length of one embedded curve.

    Starting from the chord, halve the dyadic mesh until the relative
    length increment drops below tol or the exact-arithmetic depth cap is
    reached; the estimate is monotone nondecreasing in depth and the
    report says which stop fired.
    """
    level, tri_pos, kind_off = kappa_inverse(curve_id)
    if level > cap:
        raise ValueError("curve level %d exceeds rational depth cap %d"
                         % (level, cap))
    if cx.max_level < level:
        raise ValueError("complex built to level %d, curve needs %d"
                         % (cx.max_level, level))
    if table is None:
        table = HarmonicTable(cx)
    rule = table.rule
    kind = ("bottom", "right", "left")[kind_off]
    s, t = _KIND_SLOTS[kind]
    tri = cx.triangles[level][tri_pos].tolist()
    cells = [tuple(table.triples_at_common_level(tri, level))]

    length = _polyline_length(cells, s, t, float(rule.den**level))
    increments = []
    depth = level
    converged = False
    while depth < cap:
        cells = _subdivide_along(cells, s, t, rule.adjacent, rule.opposite,
                                 rule.den)
        depth += 1
        new_length = _polyline_length(cells, s, t, float(rule.den**depth))
        increments.append(new_length - length)
        length = new_length
        if increments[-1] <= tol * length:
            converged = True
            break
    return LengthEstimate(curve_id, level, length, depth, len(cells),
                          increments, converged, tol)


class HarmonicGasket:
    """Prefractal with harmonic edge lengths; combinatorics match the
    Euclidean build, only the metric changes."""

    def __init__(self, cx: PrefractalComplex, table: HarmonicTable,
                 lengths: dict[int, LengthEstimate], tol: float, cap: int):
        self.cx = cx
        self.table = table
        self.lengths = lengths
        self.tol = tol
        self.cap = cap

    @property
    def max_level(self) -> int:
        return self.cx.max_level

    def metric_graph(self, level: int | None = None) -> MetricGraph:
        if level is None:
            level = self.cx.max_level
        weights = {c.id: self.lengths[c.id].value
                   for c in self.cx.curves_at_level(level)}
        return gasket_metric_graph(self.cx, level, harmonic_lengths=weights)

    def lengths_at_level(self, level: int) -> list[LengthEstimate]:
        return [self.lengths[c.id] for c in self.cx.curves_at_level(level)]

    def max_length_at_level(self, level: int) -> float:
        return max(e.value for e in self.lengths_at_level(level))

    def total_length_at_level(self, level: int) -> float:
        return math.fsum(e.value for e in self.lengths_at_level(level))

    def unconverged(self) -> list[int]:
        return [cid for cid, e in self.lengths.items() if not e.converged]

    def vertex_rationals(self, n_vertices: int | None = None) -> list[list[str]]:
        """Exact triples as fraction strings, for export."""
        n = len(self.cx.vertices) if n_vertices is None else n_vertices
        return [[str(f) for f in self.table.triple(v)] for v in range(n)]

    def length_table(self) -> list[dict]:
        rows = []
        for cid in sorted(self.lengths):
            e = self.lengths[cid]
            c = self.cx.curves[cid]
            rows.append({
                "id": cid,
                "level": e.level,
                "kind": c.kind,
                "length": e.value,
                "depth": e.depth,
                "lastIncrement": e.last_increment,
                "converged": e.converged,
            })
        return rows


def build_harmonic_gasket(max_level: int, tol: float = 1e-6,
                          cap: int = RATIONAL_DEPTH_CAP,
                          cx: PrefractalComplex | None = None) -> HarmonicGasket:
    """Harmonic prefractal with per-curve length estimates for all levels."""
    if max_level > cap:
        raise ValueError("max level %d exceeds rational depth cap %d"
                         % (max_level, cap))
    if cx is None or cx.max_level < max_level:
        cx = build_gasket(max_level)
    table = HarmonicTable(cx)
    lengths = {}
    for m in range(max_level + 1):
        for c in cx.curves_at_level(m):
            lengths[c.id] = harmonic_curve_length(cx, c.id, tol=tol, cap=cap,
                                                  table=table)
    return HarmonicGasket(cx, table, lengths, tol, cap)
