"""Exact construction of gasket prefractals and their curve parametrization.

The level-n prefractal is the union of all boundaries of the 3**n images of
the unit equilateral triangle under words of length n in the three halving
similitudes T_r(x) = (x + v_r)/2. Points live in the oblique lattice basis
{v1, v2} with dyadic rational coordinates, so vertex identity, edge lengths
and midpoint relations are exact.

Curves (triangle edges) are indexed for all levels m <= n by the standard
parametrization: the bottom, right and left edges of the r-th level-m
triangle get ids kappa(m,r), kappa(m,r)+1, kappa(m,r)+2, and the total
number of curves through level n is curve_count(n) = (3/2)(3**(n+1) - 1).
Coarse edges overlap finer ones by design; nothing is deduplicated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import LEVEL_CAP, DyadicRational

CURVE_KINDS = ("bottom", "right", "left")

_SQRT3_2 = math.sqrt(3.0) / 2.0


class LatticePoint:
    """Point a*v1 + b*v2 with exact dyadic coefficients.

    v1 = (1,0) and v2 = (1/2, sqrt(3)/2), so the Euclidean image is
    (a + b/2, b*sqrt(3)/2); it is computed only on demand and never used
    for identity or incidence decisions.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: DyadicRational, b: DyadicRational):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("LatticePoint is immutable")

    def __reduce__(self):
        return (LatticePoint, (self.a, self.b))

    def key(self) -> tuple[int, int, int, int]:
        return (self.a.num, self.a.exp, self.b.num, self.b.exp)

    def euclidean(self) -> tuple[float, float]:
        bf = float(self.b)
        return (float(self.a) + 0.5 * bf, _SQRT3_2 * bf)

    def squared_distance(self, other: "LatticePoint") -> DyadicRational:
        # |da*v1 + db*v2|^2 = da^2 + da*db + db^2 since v1.v2 = 1/2
        da = self.a - other.a
        db = self.b - other.b
        return da * da + da * db + db * db

    def midpoint(self, other: "LatticePoint", cap: int = LEVEL_CAP) -> "LatticePoint":
        return LatticePoint((self.a + other.a).halve(cap), (self.b + other.b).halve(cap))

    def __eq__(self, other):
        if not isinstance(other, LatticePoint):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "LatticePoint(%r, %r)" % (self.a, self.b)


# Corner points v0, v1, v2 of the level-0 triangle in lattice coordinates.
CORNERS = (
    LatticePoint(DyadicRational(0), DyadicRational(0)),
    LatticePoint(DyadicRational(1), DyadicRational(0)),
    LatticePoint(DyadicRational(0), DyadicRational(1)),
)


def similitude_apply(r: int, p: LatticePoint, cap: int = LEVEL_CAP) -> LatticePoint:
    """Exact image of p under T_r(x) = (x + v_r)/2."""
    if r not in (0, 1, 2):
        raise ValueError("similitude index must be 0, 1 or 2, got %r" % (r,))
    shift = CORNERS[r]
    return LatticePoint((p.a + shift.a).halve(cap), (p.b + shift.b).halve(cap))


def kappa(n: int, r: int) -> int:
    """Curve id of the bottom edge of the r-th (0-indexed) level-n triangle."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    if not 0 <= r < 3**n:
        raise ValueError("triangle index %d out of range 0..%d for level %d" % (r, 3**n - 1, n))
    # 3 * (sum_{k<n} 3^k + r), with kappa(0,0) = 0 by convention
    return 3 * ((3**n - 1) // 2 + r)


def kappa_inverse(curve_id: int) -> tuple[int, int, int]:
    """Inverse lookup: curve id -> (level n, triangle index r, edge offset)."""
    if curve_id < 0:
        raise ValueError("curve id must be nonnegative, got %d" % curve_id)
    n = 0
    while kappa(n + 1, 0) <= curve_id:
        n += 1
    within = curve_id - kappa(n, 0)
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


@dataclass(frozen=True)
class Triangle:
    level: int
    index: int  # 1-based within its level, child rule: index j + r*3^n under T_r
    vertex_ids: tuple[int, int, int]  # (bottom-left, bottom-right, top)


@dataclass(frozen=True)
class Curve:
    id: int
    level: int
    kind: str  # bottom | right | left
    endpoints: tuple[int, int]
    length: object  # DyadicRational here, float for harmonic variants


class PrefractalComplex:
    """All triangles, curves and vertices of the gasket through max_level.

    Vertices are deduplicated and enumerated level by level, so the first
    vertex_count(m) entries are exactly V_m for every m <= max_level, with
    indices stable across different max_level builds. Immutable after
    construction.
    """

    def __init__(self, max_level, triangles, curves, vertices, level_vertex_counts):
        self.max_level = max_level
        self.triangles = triangles  # list per level
        self.curves = curves  # ordered by id
        self.vertices = vertices  # list of LatticePoint
        self.level_vertex_counts = level_vertex_counts  # |V_m| for m <= max_level

    @property
    def b_n(self) -> int:
        return len(self.curves)

    def triangle_points(self, tri: Triangle) -> tuple[LatticePoint, ...]:
        return tuple(self.vertices[i] for i in tri.vertex_ids)

    def curves_at_level(self, m: int) -> list[Curve]:
        if not 0 <= m <= self.max_level:
            raise ValueError("level %d outside built range 0..%d" % (m, self.max_level))
        return self.curves[kappa(m, 0) : kappa(m, 0) + 3 ** (m + 1)]

    def vertex_ids_at_level(self, m: int) -> range:
        if not 0 <= m <= self.max_level:
            raise ValueError("level %d outside built range 0..%d" % (m, self.max_level))
        return range(self.level_vertex_counts[m])


def build_gasket(max_level: int, cap: int = LEVEL_CAP) -> PrefractalComplex:
    """Construct the exact prefractal complex through max_level."""
    if max_level < 0:
        raise ValueError("max_level must be nonnegative, got %d" % max_level)
    if max_level > cap:
        raise ValueError(
            "max_level %d exceeds the level cap %d; deeper complexes are not representable"
            % (max_level, cap)
        )

    vertices: list[LatticePoint] = []
    index_of: dict[tuple, int] = {}

    def intern(p: LatticePoint) -> int:
        k = p.key()
        i = index_of.get(k)
        if i is None:
            i = len(vertices)
            index_of[k] = i
            vertices.append(p)
        return i

    base_ids = tuple(intern(p) for p in CORNERS)
    triangles = [[Triangle(0, 1, base_ids)]]
    level_vertex_counts = [len(vertices)]

    for m in range(max_level):
        children = []
        # child index j + r*3^m means: loop r outside, parent index inside
        for r in range(3):
            for tri in triangles[m]:
                pts = tuple(
                    similitude_apply(r, vertices[i], cap) for i in tri.vertex_ids
                )
                ids = tuple(intern(p) for p in pts)
                children.append(Triangle(m + 1, tri.index + r * 3**m, ids))
        triangles.append(children)
        level_vertex_counts.append(len(vertices))

    curves = []
    for n in range(max_level + 1):
        for r, tri in enumerate(triangles[n]):
            i0, i1, i2 = tri.vertex_ids
            base = kappa(n, r)
            lam = DyadicRational(1, n)
            curves.append(Curve(base, n, "bottom", (i0, i1), lam))
            curves.append(Curve(base + 1, n, "right", (i1, i2), lam))
            curves.append(Curve(base + 2, n, "left", (i2, i0), lam))

    return PrefractalComplex(max_level, triangles, curves, vertices, level_vertex_counts)


# -- JSON round-trip ----------------------------------------------------


def complex_to_dict(cx: PrefractalComplex) -> dict:
    def length_field(lam):
        if isinstance(lam, DyadicRational):
            return list(lam.to_pair())
        return float(lam)

    return {
        "maxLevel": cx.max_level,
        "vertices": [
            [p.a.num, p.a.exp, p.b.num, p.b.exp] for p in cx.vertices
        ],
        "curves": [
            {
                "id": c.id,
                "level": c.level,
                "kind": c.kind,
                "endpoints": list(c.endpoints),
                "length": length_field(c.length),
            }
            for c in cx.curves
        ],
        "triangles": [
            {"level": t.level, "index": t.index, "vertices": list(t.vertex_ids)}
            for level in cx.triangles
            for t in level
        ],
    }


def complex_from_dict(data: dict) -> PrefractalComplex:
    max_level = data["maxLevel"]
    vertices = [
        LatticePoint(DyadicRational(a, ae), DyadicRational(b, be))
        for a, ae, b, be in data["vertices"]
    ]
    triangles = [[] for _ in range(max_level + 1)]
    for t in data["triangles"]:
        triangles[t["level"]].append(
            Triangle(t["level"], t["index"], tuple(t["vertices"]))
        )
    curves = []
    for c in data["curves"]:
        raw = c["length"]
        lam = DyadicRational.from_pair(raw) if isinstance(raw, list) else float(raw)
        curves.append(Curve(c["id"], c["level"], c["kind"], tuple(c["endpoints"]), lam))
    curves.sort(key=lambda c: c.id)
    seen = set()
    counts = []
    for m in range(max_level + 1):
        for t in triangles[m]:
            seen.update(t.vertex_ids)
        counts.append(len(seen))
    return PrefractalComplex(max_level, triangles, curves, vertices, counts)
