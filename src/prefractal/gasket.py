"""Exact construction of gasket prefractals and their curve parametrization.

The level-n prefractal is the union of all boundaries of the 3**n images of
the unit equilateral triangle under words of length n in the three halving
similitudes T_r(x) = (x + v_r)/2. Points live in the oblique lattice basis
{v1, v2}, and every vertex through level L has coordinates (a, b) that are
integers over 2**L. A complex stores them as int64 arrays scaled by
2**max_level, so vertex identity, edge lengths and midpoint relations are
exact integer facts. Vertex ids come from id maps, not from comparing
points, since the gasket is post-critically finite (build_gasket).

Curves (triangle edges) are indexed for all levels m <= n by the standard
parametrization (its id arithmetic is prefractal.curves): the bottom, right and left edges of the r-th level-m
triangle get ids kappa(m,r), kappa(m,r)+1, kappa(m,r)+2, and the total
number of curves through level n is curve_count(n) = (3/2)(3**(n+1) - 1).
Coarse edges overlap finer ones by design; nothing is deduplicated. The
triangle table is the only store of curves: curve kappa(m, 0) + i has kind
CURVE_KINDS[i % 3], length 2**-m, and runs between the CURVE_SLOTS[i % 3]
corners of level-m triangle row i // 3 (PrefractalComplex.curve_ends).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .curves import V0_IMAGES, check_memory, curve_count, curves_bytes, kappa, vertex_count

CURVE_KINDS = ("bottom", "right", "left")

# curve kind (bottom, right, left) -> corner slots (s, t, u) of its
# triangle: the curve runs from corner s to corner t, u is the opposite one
CURVE_SLOTS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
CURVE_SLOTS.flags.writeable = False

_SQRT3_2 = math.sqrt(3.0) / 2.0

# Corner points v0, v1, v2 of the level-0 triangle in lattice coordinates.
CORNERS = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)
CORNERS.flags.writeable = False

# peak RSS per curve above the base of building the complex and streaming
# it out (wait4, levels 11/12/13/14): 13.7/16.8/17.9/15.8 B as JSON and
# 26.2/28.3/29.0/29.2 B as SVG (357 and 632 MiB at level 14)
_BYTES_PER_CURVE = 32


def check_tolerance(tol) -> None:
    """Raise ValueError unless the quadrature tolerance is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError("quadrature tol must be positive and finite, got %s" % tol)


def dyadic_to_pair(value: int | Fraction) -> list[int] | None:
    """Normalized [num, exp] with value == num / 2**exp, or None if the
    denominator is not a power of two.

    num is odd unless exp is 0, so zero is [0, 0].
    """
    den = value.denominator
    if den & (den - 1):
        return None
    return [value.numerator, den.bit_length() - 1]


def dyadic_from_pair(pair) -> Fraction:
    """The exact value num / 2**exp of a [num, exp] pair."""
    num, exp = (int(x) for x in pair)
    if exp < 0:
        raise ValueError("exponent must be nonnegative, got %d" % exp)
    return Fraction(num, 1 << exp)


def similitude_apply(r: int, points, scale: int) -> np.ndarray:
    """Exact image under T_r(x) = (x + v_r)/2 of integer lattice points.

    `points` is an int array (..., 2) of coordinates (a, b) scaled by
    `scale`, and so is the result. Raises ValueError if an image falls
    between lattice points, that is, if some a + scale*v_r is odd.
    """
    if r not in (0, 1, 2):
        raise ValueError("similitude index must be 0, 1 or 2, got %r" % (r,))
    shifted = np.asarray(points, dtype=np.int64) + scale * CORNERS[r]
    if (shifted & 1).any():
        raise ValueError("image leaves the lattice of scale %d; build at a finer scale"
                         % scale)
    return shifted >> 1


class PrefractalComplex:
    """All triangles and vertices of the gasket through max_level.

    vertices is an int64 (|V|, 2) array of lattice coordinates (a, b)
    scaled by 2**max_level, numbered by first occurrence level by level,
    so the first vertex_count(m) rows are exactly V_m for every m <=
    max_level, with indices stable across different max_level builds.
    triangles[m] is an int64 (3**m, 3) array of vertex ids (bottom-left,
    bottom-right, top); row j holds the triangle with 1-based index j + 1,
    and T_r (id map phi_r, see build_gasket) maps it to row j + r*3**m of
    level m + 1. Immutable after construction.
    """

    def __init__(self, max_level, triangles, vertices, level_vertex_counts):
        self.max_level = max_level
        self.triangles = triangles  # one id array per level
        self.vertices = vertices
        self.level_vertex_counts = level_vertex_counts  # |V_m| for m <= max_level
        for arr in (vertices, *triangles):
            arr.flags.writeable = False

    @property
    def b_n(self) -> int:
        return curve_count(self.max_level)

    def curve_ends(self, m: int) -> np.ndarray:
        """Read-only int64 (3**(m+1), 2) array: row i holds the endpoint
        vertex ids of curve kappa(m, 0) + i, from its start to its end."""
        if not 0 <= m <= self.max_level:
            raise ValueError("level %d outside built range 0..%d" % (m, self.max_level))
        ends = self.triangles[m][:, CURVE_SLOTS[:, :2]].reshape(-1, 2)
        ends.flags.writeable = False
        return ends

    def vertex_pairs(self) -> list[list[int]]:
        """[a_num, a_exp, b_num, b_exp] per vertex: both coordinates as
        normalized [num, exp] pairs, independent of max_level."""
        return self._pair_array().tolist()

    def _pair_array(self, count: int | None = None) -> np.ndarray:
        """int64 (count, 4) array of the rows of vertex_pairs."""
        return self._pair_table()[self.vertices[:count]].reshape(-1, 4)

    def _pair_table(self) -> np.ndarray:
        """int64 (2**max_level + 1, 2) array: row k is the [num, exp] pair
        of k / 2**max_level."""
        scale = 1 << self.max_level
        return np.array([dyadic_to_pair(Fraction(k, scale)) for k in range(scale + 1)])

    def euclidean(self) -> np.ndarray:
        """Float (|V|, 2) array of the vertices' plane images (a + b/2, b*sqrt(3)/2)."""
        ab = self.vertices / float(1 << self.max_level)
        return np.stack([ab[:, 0] + 0.5 * ab[:, 1], _SQRT3_2 * ab[:, 1]], axis=1)


def complex_bytes(max_level: int) -> float:
    """Estimated peak bytes of building the complex and streaming it out."""
    return curves_bytes(max_level, _BYTES_PER_CURVE)


def build_gasket(max_level: int) -> PrefractalComplex:
    """Construct the exact prefractal complex through max_level.

    T_r sends vertex v to phi_r[v]; level m + 1's table is phi_0, phi_1,
    phi_2 of level m's, stacked. phi is curves.V0_IMAGES on V_0 and sends
    level m's new block (m >= 1), the k = 3^m ids of V_m outside V_(m-1),
    in order to |V_m| + r*k + arange(k). That is first occurrence, as
    T_r(K) meets T_s(K) only in V_1, which meets T_r(K) in T_r(V_0)
    (Kigami, Analysis on Fractals, 2001, ch. 1): the block's images are
    new, disjoint and all that level m + 1 adds, in T_0, T_1, T_2 row
    order. Only they get coordinates, from similitude_apply.

    Raises ValueError, before allocating anything, when the estimated size
    exceeds MEMORY_GUARD_BYTES.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative, got %d" % max_level)
    check_memory(complex_bytes(max_level),
                 "max_level %d is past the size cap: the complex" % max_level)

    scale = 1 << max_level
    counts = [vertex_count(m) for m in range(max_level + 1)]
    vertices = np.empty((counts[-1], 2), dtype=np.int64)
    vertices[:3] = scale * CORNERS
    # phi[r, v] is the id of T_r(v), filled on V_m when the loop reaches m
    phi = np.empty((3, counts[max_level - 1] if max_level else 3), dtype=np.int64)
    phi[:, :3] = V0_IMAGES
    triangles = [np.array([[0, 1, 2]], dtype=np.int64)]
    for m in range(max_level):
        lo, nv = (counts[m - 1] if m else 0), counts[m]  # new block, or V_0
        if m:
            phi[:, lo:nv] = nv + (nv - lo) * np.arange(3)[:, None] + np.arange(nv - lo)
        for r in range(3):
            vertices[phi[r, lo:nv]] = similitude_apply(r, vertices[lo:nv], scale)
        triangles.append(np.take(phi, triangles[m], axis=1).reshape(-1, 3))
    return PrefractalComplex(max_level, triangles, vertices, counts)


# -- JSON round-trip ----------------------------------------------------


def _curve_dicts(cx: PrefractalComplex) -> list[dict]:
    """One JSON object per curve, ordered by id; the length 2**-m is the
    [num, exp] pair [1, m]."""
    return [{"id": kappa(m, 0) + i, "level": m, "kind": CURVE_KINDS[i % 3],
             "endpoints": ends, "length": [1, m]}
            for m in range(cx.max_level + 1)
            for i, ends in enumerate(cx.curve_ends(m).tolist())]


def complex_to_dict(cx: PrefractalComplex) -> dict:
    return {
        "maxLevel": cx.max_level,
        "vertices": cx.vertex_pairs(),
        "curves": _curve_dicts(cx),
        "triangles": [
            {"level": m, "index": j + 1, "vertices": ids}
            for m, tris in enumerate(cx.triangles)
            for j, ids in enumerate(tris.tolist())
        ],
    }


# rows per %-template fill in the JSON and SVG writers: each chunk holds one
# block's entries and text (`gen --level 9 --format json` peaked at 39 MiB
# with 256-row blocks, 47 MiB with 4,096 and 63 MiB with 16,384)
_BLOCK_ROWS = 256


def _fill(row: str, count: int, entries, sep: str = ",") -> Iterator[str]:
    """`row` once per row of a `count`-row table, joined by `sep` ("," for
    JSON rows, "\n" for SVG lines), one chunk per block of _BLOCK_ROWS
    rows. entries(rows) lists, for the rows in the slice `rows`, the values
    of their %-slots in order."""
    for start in range(0, count, _BLOCK_ROWS):
        rows = slice(start, min(count, start + _BLOCK_ROWS))
        yield (sep if start else "") + sep.join([row] * (rows.stop - start)) % tuple(
            entries(rows))


def complex_json_chunks(cx: PrefractalComplex, depth: int = 0) -> Iterator[str]:
    """The text of json.dumps(complex_to_dict(cx), sort_keys=True, indent=2),
    indented as a value nested `depth` levels deep, in chunks.

    Rendered straight from the vertex and triangle arrays with one
    %-template per row, a block of rows at a time, so no dict per curve
    or triangle is ever built and no more than a block's text is held.
    """
    p0, p1, p2, p3, p4 = ("\n" + "  " * (depth + k) for k in range(5))

    def curve_row(m):
        # one table row per triangle: (start, end, id) of its three curves
        return ",".join(
            p2 + "{" + p3 + '"endpoints": [' + p4 + "%d," + p4 + "%d" + p3 + "],"
            + p3 + '"id": %d,' + p3 + '"kind": "' + kind + '",'
            + p3 + '"length": [' + p4 + "1," + p4 + str(m) + p3 + "],"
            + p3 + '"level": ' + str(m) + p2 + "}" for kind in CURVE_KINDS)

    def curves(m, rows):
        ends = cx.triangles[m][rows][:, CURVE_SLOTS[:, :2]]
        ids = kappa(m, 0) + np.arange(3 * rows.start, 3 * rows.stop).reshape(-1, 3, 1)
        return np.concatenate([ends, ids], axis=2).ravel().tolist()

    def triangle_row(m):
        return (p2 + "{" + p3 + '"index": %d,' + p3 + '"level": ' + str(m) + ","
                + p3 + '"vertices": [' + p4 + "%d," + p4 + "%d," + p4 + "%d" + p3 + "]"
                + p2 + "}")

    def triangles(m, rows):
        index = np.arange(rows.start + 1, rows.stop + 1)
        return np.column_stack([index, cx.triangles[m][rows]]).ravel().tolist()

    vertex_row = p2 + "[" + p3 + "%d," + p3 + "%d," + p3 + "%d," + p3 + "%d" + p2 + "]"
    pairs = cx._pair_table()

    yield "{" + p1 + '"curves": ['
    for m in range(cx.max_level + 1):
        yield "," if m else ""
        yield from _fill(curve_row(m), len(cx.triangles[m]), lambda rows: curves(m, rows))
    yield p1 + "]," + p1 + '"maxLevel": %d,' % cx.max_level + p1 + '"triangles": ['
    for m in range(cx.max_level + 1):
        yield "," if m else ""
        yield from _fill(triangle_row(m), len(cx.triangles[m]),
                         lambda rows: triangles(m, rows))
    yield p1 + "]," + p1 + '"vertices": ['
    yield from _fill(vertex_row, len(cx.vertices),
                     lambda rows: pairs[cx.vertices[rows]].ravel().tolist())
    yield p1 + "]" + p0 + "}"


def complex_from_dict(data: dict) -> PrefractalComplex:
    """Inverse of complex_to_dict.

    Raises ValueError when the file is not a complex: a coordinate
    exponent outside 0..maxLevel, level-m triangle indices other than
    1..3**m, a vertex id outside the vertex list, a V_m that is not an id
    prefix, or a curve that disagrees with the triangle table.
    """
    max_level = data["maxLevel"]
    scale = 1 << max_level
    coords = []
    for v, (a, ae, b, be) in enumerate(data["vertices"]):
        if not (0 <= ae <= max_level and 0 <= be <= max_level):
            raise ValueError("vertex %d has exponents (%d, %d) outside 0..maxLevel=%d"
                             % (v, ae, be, max_level))
        coords.append([int(dyadic_from_pair((a, ae)) * scale),
                       int(dyadic_from_pair((b, be)) * scale)])
    vertices = np.array(coords, dtype=np.int64).reshape(-1, 2)
    rows = {m: [] for m in range(max_level + 1)}
    for t in data["triangles"]:
        if t["level"] not in rows:
            raise ValueError("triangle level %r outside 0..maxLevel=%d"
                             % (t["level"], max_level))
        rows[t["level"]].append((t["index"], t["vertices"]))
    triangles, counts, seen = [], [], np.zeros(len(vertices) + 1, dtype=bool)
    for m, r in rows.items():
        r.sort(key=lambda entry: entry[0])
        if [j for j, _ in r] != list(range(1, 3**m + 1)):
            raise ValueError("level-%d triangle indices are not exactly 1..%d"
                             % (m, 3**m))
        tris = np.array([ids for _, ids in r], dtype=np.int64).reshape(-1, 3)
        bad = (tris < 0) | (tris >= len(vertices))
        if bad.any():
            j, k = np.argwhere(bad)[0]
            raise ValueError("level-%d triangle %d has vertex id %d outside 0..%d"
                             % (m, j + 1, tris[j, k], len(vertices) - 1))
        seen[tris.ravel()] = True
        counts.append(int(np.argmin(seen)))
        if seen[counts[-1]:].any():
            raise ValueError("V_%d is not an id prefix: vertex %d is missing below "
                             "vertex %d" % (m, counts[-1], np.flatnonzero(seen)[-1]))
        triangles.append(tris)
    cx = PrefractalComplex(max_level, triangles, vertices, counts)
    if counts[-1] != len(vertices):
        raise ValueError("vertex %d lies on no triangle" % counts[-1])
    expected = _curve_dicts(cx)
    curves = sorted(data["curves"], key=lambda c: c["id"])
    for got, want in zip(curves, expected):
        if got != want:
            raise ValueError("curve %s disagrees with the triangle table: the file "
                             "has %s, the triangles give %s" % (got["id"], got, want))
    if len(curves) != len(expected):
        raise ValueError("the file has %d curves, its triangles give %d"
                         % (len(curves), len(expected)))
    return cx
