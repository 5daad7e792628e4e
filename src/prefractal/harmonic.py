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
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .curves import curve_count, curves_bytes, kappa
from .gasket import (CURVE_KINDS, CURVE_SLOTS, PrefractalComplex, _fill, build_gasket,
                     check_memory, check_tolerance)

if TYPE_CHECKING:
    from .metric import MetricGraph

RATIONAL_DEPTH_CAP = 12  # numerators grow as den^depth; ints stay cheap here

REFINEMENT_CAP = 12  # length quadrature: halvings below each curve's level

# (cells x polyline points) per batched product: a few MiB of work arrays
_BLOCK_ENTRIES = 1 << 16

# peak RSS per curve above the base (wait4) of the complex, its triples and
# the length columns as JSON (51.5/92.7/214.5 MiB at levels 9-11, 231-240 B),
# or their plane images as SVG (68.3/153.4/340.6 MiB at 11-13, 45-54 B)
_BYTES_PER_CURVE, _DRAWING_BYTES_PER_CURVE = 300, 56

EMBED_SCALE = math.sqrt(2) / 2


def _solve_exact(a, b):
    """Gauss-Jordan elimination over Fractions: the solutions x of a x = b,
    one row of x per unknown and one column per column of b."""
    n = len(a)
    rows = [list(map(Fraction, row + rhs)) for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [e * inv for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


class SubdivisionRule(namedtuple("SubdivisionRule", "adjacent opposite den")):
    """Midpoint of the corner pair (s,t) gets (adj*(N_s+N_t) + opp*N_u)/den."""

    __slots__ = ()


@lru_cache(maxsize=1)
def derive_subdivision_rule() -> SubdivisionRule:
    """Solve the one-refinement energy minimization for the midpoint rule.

    Assembles stationarity equations for the three interior vertices of
    the level-1 graph (degree * value = sum of neighbor values) and
    solves them exactly for all three unit corner data. The solution must
    come out symmetric: one weight for the two adjacent corners, one for
    the opposite corner.
    """
    cx = build_gasket(1)
    interior = [v for v in range(cx.level_vertex_counts[1]) if v > 2]
    neighbors = {v: [] for v in interior}
    for ends in cx.curve_ends(1).tolist():
        for v, w in (ends, ends[::-1]):
            if v in neighbors:
                neighbors[v].append(w)

    a = [[len(neighbors[v]) if w == v else -neighbors[v].count(w)
          for w in interior] for v in interior]
    b = [[neighbors[v].count(corner) for corner in range(3)] for v in interior]
    solution = dict(zip(interior, _solve_exact(a, b)))

    weights = set()
    for v in interior:
        corners_of_v = sorted(set(neighbors[v]) & {0, 1, 2})
        if len(corners_of_v) != 2:
            raise RuntimeError("interior vertex %d not between two corners" % v)
        s, t = corners_of_v
        coeffs = solution[v]
        if coeffs[s] != coeffs[t]:
            raise RuntimeError("midpoint rule is not symmetric at vertex %d" % v)
        weights.add((coeffs[s], coeffs[3 - s - t]))
    if len(weights) != 1:
        raise RuntimeError("midpoint rule differs between interior vertices")
    adj, opp = weights.pop()
    den = math.lcm(adj.denominator, opp.denominator)
    if 2 * adj + opp != 1:
        raise RuntimeError("midpoint weights do not average the corners")
    return SubdivisionRule(int(adj * den), int(opp * den), den)


class HarmonicTable:
    """Exact corner-indicator triples for every vertex of a complex.

    numerators[v] is an int64 triple over den^levels[v]; the sums are
    exactly den^levels[v] (partition of unity) and every entry is
    nonnegative (maximum principle), both enforced during construction.
    """

    def __init__(self, cx: PrefractalComplex):
        self.cx = cx
        self.rule = rule = derive_subdivision_rule()
        self.levels = np.full(len(cx.vertices), -1)
        self.numerators = np.zeros((len(cx.vertices), 3), dtype=np.int64)
        self.levels[:3] = 0
        self.numerators[:3] = np.eye(3, dtype=np.int64)

        adj, opp, den = rule.adjacent, rule.opposite, rule.den
        s, t, u = CURVE_SLOTS.T  # the midpoint of corners s and t faces u
        for m in range(cx.max_level):
            corn = self.at_level(cx.triangles[m], m)  # (triangle, slot, coordinate)
            # child 3k + s of triangle k is its subcell at corner s, and
            # its corner t is the midpoint of k's corners s and t
            vid = cx.triangles[m + 1].reshape(-1, 3, 3)[:, s, t]
            trip = adj * (corn[:, s] + corn[:, t]) + opp * corn[:, u]
            bad = (self.levels[vid] >= 0) | (trip < 0).any(axis=2)
            bad |= trip.sum(axis=2) != den ** (m + 1)
            bad |= np.bincount(vid.ravel(), minlength=len(self.levels))[vid] > 1
            if bad.any():
                raise RuntimeError("harmonic invariants broken at vertex %d"
                                   % vid.ravel()[bad.argmax()])
            self.levels[vid] = m + 1
            self.numerators[vid] = trip

    def at_level(self, vids, level: int) -> np.ndarray:
        """Triples of the given vertex ids as integers over den^level."""
        scale = np.int64(self.rule.den) ** (level - self.levels[vids])
        return self.numerators[vids] * scale[..., None]

    def triple(self, vid: int) -> tuple[Fraction, Fraction, Fraction]:
        d = self.rule.den ** int(self.levels[vid])
        return tuple(Fraction(int(n), d) for n in self.numerators[vid])

    def embedding_array(self) -> np.ndarray:
        """Float images of the vertices in the embedding plane."""
        den = float(self.rule.den) ** self.levels
        return EMBED_SCALE * (self.numerators / den[:, None] - 1.0)


def harmonic_extend(corner_data, depth: int) -> list[Fraction]:
    """Energy-minimizing extension of rational corner data to V_depth.

    Returns one exact value per vertex; linear in the data, so it is the
    corner-indicator combination sum(data[r] * u_r).
    """
    if depth > RATIONAL_DEPTH_CAP:
        raise ValueError(
            "depth %d exceeds rational depth cap %d; denominators grow as 5^depth"
            % (depth, RATIONAL_DEPTH_CAP)
        )
    data = [Fraction(c) for c in corner_data]
    if len(data) != 3:
        raise ValueError("corner data must be a triple")
    table = HarmonicTable(build_gasket(depth))
    return [sum(d * t for d, t in zip(data, table.triple(v)))
            for v in range(table.cx.level_vertex_counts[depth])]


def embedded_gasket(level: int) -> tuple[PrefractalComplex, np.ndarray]:
    """The level's complex and its vertices' float images in the embedding
    plane, to draw; refused, before anything is built, past the guard."""
    check_memory(curves_bytes(level, _DRAWING_BYTES_PER_CURVE),
                 "max_level %d is past the size cap: the complex with its harmonic drawing"
                 % level)
    table = HarmonicTable(build_gasket(level))
    return table.cx, table.embedding_array()


def embedding_point(triple) -> np.ndarray:
    """Affine image of a value triple in the plane x+y+z = -sqrt(2)."""
    return EMBED_SCALE * (np.asarray([float(t) for t in triple]) - 1.0)


class CurveLengths(namedtuple("CurveLengths", "ids level value depth last_increment "
                                             "converged")):
    """Inscribed-polyline lengths of many curves, a column per field; row
    i is curve ids[i]. depth is the polyline's absolute subdivision level,
    last_increment what the last refinement added (NaN where none ran),
    and converged whether tol, not the cap, stopped the refinement. Two
    records are equal only when they are the same record."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def rows(self, rows=slice(None)) -> Iterator[tuple]:
        """The selected rows as tuples of Python scalars, fields in order."""
        return zip(*(getattr(self, name)[rows].tolist() for name in self._fields))


def base_polyline(cap: int, rule: SubdivisionRule) -> np.ndarray:
    """Exact triples of the 2^cap + 1 dyadic points on the unit cell's
    bottom edge, from corner 0 to corner 1: int64 (2^cap + 1, 3) over den^cap.

    Halves the cells along the edge cap times; every entry stays at most
    den^cap, below 2^63 for cap <= REFINEMENT_CAP (a test checks it).
    """
    adj, opp, den = rule.adjacent, rule.opposite, rule.den
    cells = np.eye(3, dtype=np.int64)[None]  # (cell, slot, coordinate)
    for _ in range(cap):
        c0, c1, c2 = cells[:, 0], cells[:, 1], cells[:, 2]
        mid = adj * (c0 + c1) + opp * c2
        left = (den * c0, mid, adj * (c2 + c0) + opp * c1)
        right = (mid, den * c1, adj * (c1 + c2) + opp * c0)
        cells = np.stack(left + right, axis=1).reshape(-1, 3, 3)
    return np.concatenate([cells[:, 0], cells[-1:, 1]])


def _curve_edges(cx: PrefractalComplex, table: HarmonicTable,
                 ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each curve's level, and a float (curves, 3, 2) array of its cell's
    corner triples t - s and u - s for the curve from corner s to corner
    t, taken exactly over den^level, then divided by it."""
    starts = np.array([kappa(m, 0) for m in range(cx.max_level + 2)])
    levels = np.searchsorted(starts, ids, side="right") - 1
    if len(ids) and (ids.min() < 0 or levels.max() > cx.max_level):
        raise ValueError("curve ids must lie in 0..%d for a level-%d complex"
                         % (starts[-1] - 1, cx.max_level))
    edges = np.empty((len(ids), 3, 2))
    for m in np.flatnonzero(np.bincount(levels)).tolist():
        sel = levels == m
        tri, kind = np.divmod(ids[sel] - starts[m], 3)
        exact = table.at_level(np.take_along_axis(
            cx.triangles[m][tri], CURVE_SLOTS[kind], axis=1), m)
        edges[sel] = (exact[:, 1:] - exact[:, :1]).transpose(0, 2, 1) / table.rule.den**m
    return levels, edges


def harmonic_lengths(cx: PrefractalComplex, table: HarmonicTable, curve_ids,
                     tol: float = 1e-6) -> CurveLengths:
    """Inscribed-polyline lengths of many embedded curves at once.

    The triple at F_w(x) is the corner-triple matrix of cell w applied to
    the triple at x, so the depth-d polyline of every curve is its cell's
    matrix times the base polyline at stride 2^(cap - d); the base steps
    sum to zero, so the corner differences t - s and u - s suffice. Depth
    d runs from 0 (the chord) up to cap = REFINEMENT_CAP refinements below
    each curve's own level, in blocks of cells, over the curves still
    refining; a curve stops at the first depth whose increment is at most
    tol times its length.
    """
    cap = REFINEMENT_CAP
    ids = np.asarray(curve_ids, dtype=np.int64).reshape(-1)
    levels, edges = _curve_edges(cx, table, ids)
    base = base_polyline(cap, table.rule)
    chords = edges[:, :, 0]
    value = EMBED_SCALE * np.sqrt(np.einsum("ci,ci->c", chords, chords))
    last = np.full(len(ids), np.nan)
    depth = levels + cap
    active = np.arange(len(ids))
    for d in range(1, cap + 1):
        steps = np.diff(base[:: 1 << (cap - d), 1:], axis=0).T / float(
            table.rule.den**cap)
        per = max(1, _BLOCK_ENTRIES // steps.shape[1])
        now = np.empty(len(active))
        for k in range(0, len(active), per):
            seg = np.matmul(edges[active[k:k + per]], steps)
            now[k:k + per] = EMBED_SCALE * np.sqrt(
                np.einsum("cip,cip->cp", seg, seg)).sum(axis=1)
        inc = now - value[active]
        last[active], value[active] = inc, now
        done = inc <= tol * now
        depth[active[done]] = levels[active[done]] + d
        active = active[~done]
        if not len(active):
            break
    converged = np.ones(len(ids), dtype=bool)
    converged[active] = False
    return CurveLengths(ids, levels, value, depth, last, converged)


def harmonic_curve_length(cx: PrefractalComplex, curve_id: int,
                          tol: float = 1e-6) -> CurveLengths:
    """Inscribed-polyline length of one embedded curve: the one-row
    record of harmonic_lengths for a single id. The estimate is monotone
    nondecreasing in depth."""
    return harmonic_lengths(cx, HarmonicTable(cx), [curve_id], tol=tol)


class HarmonicGasket:
    """Prefractal with harmonic edge lengths; combinatorics match the
    Euclidean build, only the metric changes. lengths is indexed by curve
    id and covers every curve of the complex; cap is the REFINEMENT_CAP
    the lengths were refined under."""

    def __init__(self, cx: PrefractalComplex, table: HarmonicTable,
                 lengths: CurveLengths, tol: float):
        self.cx = cx
        self.table = table
        self.lengths = lengths
        self.tol = tol
        self.cap = REFINEMENT_CAP

    @property
    def level(self) -> int:
        return self.cx.max_level

    def metric_graph(self, level: int | None = None) -> MetricGraph:
        if level is None:
            level = self.level
        from .metric import gasket_metric_graph

        return gasket_metric_graph(self.cx, level, harmonic_lengths=self.lengths.value)

    def max_length_at_level(self, level: int) -> float:
        return float(self.lengths.value[kappa(level, 0):kappa(level + 1, 0)].max())

    def total_length_at_level(self, level: int) -> float:
        return math.fsum(self.lengths.value[kappa(level, 0):kappa(level + 1, 0)])

    def unconverged(self) -> list[int]:
        return np.flatnonzero(~self.lengths.converged).tolist()

    def vertex_rationals(self) -> list[list[str]]:
        """Exact triples of V_level as strings."""
        return [[str(f) for f in self.table.triple(v)]
                for v in range(self.cx.level_vertex_counts[self.level])]

    def length_table(self) -> list[dict]:
        return [{"id": cid, "level": m, "kind": CURVE_KINDS[cid % 3], "length": v,
                 "depth": d, "lastIncrement": None if math.isnan(last) else last,
                 "converged": ok}
                for cid, m, v, d, last, ok in self.lengths.rows()]

    def length_json_chunks(self, depth: int = 0) -> Iterator[str]:
        """The text of json.dumps(self.length_table(), sort_keys=True,
        indent=2), indented as a value nested `depth` levels deep, in
        chunks from the complex's row-block writer.

        Floats go in as %r, which is json.dumps's spelling only for finite
        floats, so a non-finite length, or last increment of a curve that
        refined, raises RuntimeError here, before the first chunk. None is
        expected: every polyline point is a convex combination of the unit
        corner triples.
        """
        c = self.lengths
        bad = ~np.isfinite(c.value) | (~np.isfinite(c.last_increment) & (c.depth > c.level))
        if bad.any():
            cid, _, v, _, last, _ = next(c.rows(bad))
            raise RuntimeError("harmonic length of curve %d is not finite: %r, "
                               "last increment %r" % (cid, v, last))
        p0, p1, p2 = ("\n" + "  " * (depth + k) for k in range(3))
        row = (p1 + "{" + p2 + '"converged": %s,' + p2 + '"depth": %d,'
               + p2 + '"id": %d,' + p2 + '"kind": "%s",' + p2 + '"lastIncrement": %s,'
               + p2 + '"length": %r,' + p2 + '"level": %d' + p1 + "}")

        def entries(rows):
            for cid, m, v, d, last, ok in c.rows(rows):
                yield from ("true" if ok else "false", d, cid, CURVE_KINDS[cid % 3],
                            "null" if math.isnan(last) else repr(last), v, m)

        return chain(["["], _fill(row, len(c.ids), entries), [p0 + "]"])


def build_harmonic_gasket(max_level: int, tol: float = 1e-6) -> HarmonicGasket:
    """Harmonic prefractal with per-curve length estimates for all levels."""
    check_tolerance(tol)
    check_memory(curves_bytes(max_level, _BYTES_PER_CURVE), "max_level %d is past "
                 "the size cap: the complex with its harmonic lengths" % max_level)
    cx = build_gasket(max_level)
    table = HarmonicTable(cx)
    lengths = harmonic_lengths(cx, table, range(curve_count(max_level)), tol=tol)
    return HarmonicGasket(cx, table, lengths, tol)
