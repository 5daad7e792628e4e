"""Geodesic distances on prefractal metric graphs.

The level-n prefractal is, as a point set, the union of its level-n edges,
so its intrinsic metric restricted to vertices is the shortest-path metric
of the weighted graph on V_n whose edges are the level-n curves. Rational
edge weights are rescaled to a common integer denominator, so shortest
paths, Hausdorff distances and agreement certificates are computed in
exact integer arithmetic; harmonic graphs carry float weights.

Core claims exercised by the test suite:
  * d_n and d_m agree exactly on V_n for m >= n (Euclidean gasket), which
    the gasket certifies from the corner distances of its level-n cells;
  * every point of the level-n prefractal is within 2^-(n+1) of a vertex;
  * the certified two-sided bound for the coarse-to-limit comparison is
    (vertex density at level n) + 0 + (vertex density of V_n in V_m) + 2^-m.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm

import numpy as np

from .gasket import (CURVE_SLOTS, PrefractalComplex, build_gasket, check_memory,
                     complex_bytes, dyadic_from_pair, dyadic_to_pair, kappa)


def _is_exact_weight(w) -> bool:
    return isinstance(w, (int, Fraction))


@dataclass(frozen=True)
class EdgePoint:
    """Point on a curve of the graph's own level, at parameter t in [0,1]."""

    curve_id: int
    t: object  # Fraction (exact) or float


def _bfs_hops(indptr, nbr, sources) -> np.ndarray:
    """Hops from the nearest of `sources` over CSR adjacency; -1 if unreached."""
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    slot_of = np.empty(len(dist), dtype=np.int64)
    frontier = np.unique(sources)
    dist[frontier] = 0
    depth = 0
    while len(frontier):
        depth += 1
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        # the CSR slots of every frontier vertex's neighbours, in one gather
        slots = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        reached = nbr[slots]
        reached = reached[dist[reached] < 0]
        # keep each new vertex once: the last write of its position wins
        pos = np.arange(len(reached))
        slot_of[reached] = pos
        frontier = reached[slot_of[reached] == pos]
        dist[frontier] = depth
    return dist


def _csr(ends: np.ndarray, n_vertices: int):
    """CSR adjacency of the undirected edges in an int64 (E, 2) array.

    Edge e is arc 2e from ends[e, 0] to ends[e, 1] and arc 2e + 1 back.
    Returns indptr and, per slot, the arc id and its head: the arcs out of
    v fill slots indptr[v]:indptr[v + 1] in edge order (a stable sort by
    tail), so traversals meet neighbours in the order the edges were given.
    """
    tails = ends.ravel()
    arc = np.argsort(tails, kind="stable")
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n_vertices), out=indptr[1:])
    return indptr, arc, tails[arc ^ 1]


class MetricGraph:
    """Undirected weighted graph with exact-or-float geodesic machinery.

    Edge e joins ends[e, 0] and ends[e, 1], rows of an int64 (E, 2) array,
    and has weight weights[e]. Weights must either all be rational (int or
    Fraction), kept as Python ints over the common denominator
    value_scale() so shortest paths are exact integers at any size, or
    all floats. indptr, arc and nbr are the CSR adjacency from _csr.
    Construction verifies ranges, positivity and connectivity; instances
    are immutable by convention.
    """

    def __init__(self, n_vertices, ends, weights, provenance="generic",
                 edge_ids=None, vertex_keys=None):
        if n_vertices <= 0:
            raise ValueError("graph needs at least one vertex")
        ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        weights = list(weights)
        if vertex_keys is not None:
            vertex_keys = np.asarray(vertex_keys, dtype=np.int64)
            if len(vertex_keys) != n_vertices:
                raise ValueError("vertex_keys length does not match vertex count")
        if len(weights) != len(ends):
            raise ValueError("weights length does not match edge count")
        if edge_ids is not None and len(edge_ids) != len(ends):
            raise ValueError("edge_ids length does not match edge count")
        outside = ((ends < 0) | (ends >= n_vertices)).any(axis=1)
        if outside.any():
            raise ValueError("edge (%r,%r) references a vertex out of range"
                             % tuple(ends[outside.argmax()].tolist()))
        self.vertex_count = n_vertices
        self.provenance = provenance
        self.edge_ids = edge_ids  # curve ids of the edges, a range, for EdgePoints
        self.vertex_keys = vertex_keys
        self.ends = ends
        exact = all(issubclass(t, (int, Fraction)) for t in set(map(type, weights)))
        self.exact = exact

        # convert and validate each distinct weight once, in first-edge order;
        # keyed by identity: gasket graphs share one weight object, and a
        # Fraction's hash is recomputed on every lookup
        keys = list(map(id, weights))
        value = dict(zip(keys, weights))
        for key, w in value.items():
            if exact:
                wf = Fraction(w)
                if wf <= 0:
                    raise ValueError("edge weights must be positive, got %s" % w)
            else:
                wf = float(w)
                if not (isfinite(wf) and wf > 0):
                    raise ValueError("edge weights must be positive finite, got %r" % w)
            value[key] = wf
        if exact:
            den = lcm(*(wf.denominator for wf in value.values()))
            value = {k: wf.numerator * (den // wf.denominator) for k, wf in value.items()}
        else:
            den = None
        self._den = den
        self.weights = list(map(value.__getitem__, keys))  # internal units
        # one exact weight: distances are hop counts times it
        self._uniform = exact and len(set(value.values())) == 1

        self.indptr, self.arc, self.nbr = _csr(ends, n_vertices)
        unreached = _bfs_hops(self.indptr, self.nbr, [0]) < 0
        if unreached.any():
            raise ValueError("graph is disconnected: vertex %d is unreachable "
                             "from vertex 0" % unreached.argmax())

    @property
    def edges(self) -> list:
        """(u, v, weight) per edge, in edge order, weights as values."""
        return list(zip(*self.ends.T.tolist(), self.weight_values()))

    def weight_values(self) -> list:
        """Edge weights as values in edge order, Fractions when exact and
        floats otherwise; equal weights share one object."""
        value = {w: self._value(w) for w in set(self.weights)}
        return list(map(value.__getitem__, self.weights))

    # -- internal single/multi source runs -----------------------------

    def _slot_lists(self):
        """indptr, and the head and internal weight of every CSR slot, as
        Python lists for the heap loops."""
        wt = np.array(self.weights, dtype=object)[self.arc >> 1]
        return self.indptr.tolist(), self.nbr.tolist(), wt.tolist()

    def _sssp(self, sources):
        """Internal distances from the nearest of `sources` to every vertex."""
        if self._uniform:
            w0 = self.weights[0]
            return [h * w0 for h in _bfs_hops(self.indptr, self.nbr, list(sources)).tolist()]

        indptr, nbr, wt = self._slot_lists()
        inf = float("inf")
        dist = [inf] * self.vertex_count
        heap = []
        for s in sorted(sources):
            dist[s] = 0
            heap.append((0, s))
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            for k in range(indptr[u], indptr[u + 1]):
                v = nbr[k]
                nd = d + wt[k]
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
        return dist

    def _value(self, internal):
        if self.exact:
            return Fraction(internal, self._den)
        return internal

    def value_scale(self) -> int | None:
        """Common denominator of exact internal distances (None for float)."""
        return self._den

    def single_source(self, source: int) -> list:
        """Distances from one vertex to all vertices, exact or float."""
        return [self._value(d) for d in self._sssp([source])]

    def multi_source(self, sources) -> list:
        """Distance from the nearest of `sources` to every vertex."""
        sources = list(sources)
        if not sources:
            raise ValueError("need at least one source vertex")
        return [self._value(d) for d in self._sssp(sources)]

    def internal_rows(self, sources):
        """Internal-unit distance rows per source (ints if exact)."""
        return [self._sssp([s]) for s in sources]


def gasket_metric_graph(cx: PrefractalComplex, level: int | None = None,
                        harmonic_lengths=None) -> MetricGraph:
    """Metric graph of the level-`level` prefractal inside `cx`.

    Uses only the curves of that level: coarser curves are unions of
    level-`level` edges and add nothing to the metric. With
    harmonic_lengths (curve id -> float) the weights are the harmonic
    curve lengths instead of 2^-level.
    """
    if level is None:
        level = cx.max_level
    ends = cx.curve_ends(level)
    ids = range(kappa(level, 0), kappa(level + 1, 0))
    nv = cx.level_vertex_counts[level]
    if harmonic_lengths is None:
        # one shared weight object: see MetricGraph
        weights = [Fraction(1, 1 << level)] * len(ends)
        tag = "euclidean-gasket level %d" % level
    else:
        weights = [harmonic_lengths[cid] for cid in ids]
        tag = "harmonic-gasket level %d" % level
    return MetricGraph(nv, ends, weights, provenance=tag, edge_ids=ids,
                       vertex_keys=cx._pair_array(nv))


def _resolve_point(g: MetricGraph, p):
    if isinstance(p, int):
        if not 0 <= p < g.vertex_count:
            raise ValueError("vertex index %d out of range" % p)
        return ("vertex", p)
    if not isinstance(p, EdgePoint):
        raise TypeError("expected vertex index or EdgePoint, got %r" % (p,))
    if g.edge_ids is None or p.curve_id not in g.edge_ids:
        raise ValueError(
            "curve id %d is not an edge of this graph (%s); points on coarser "
            "curves must be re-expressed at the graph's own level"
            % (p.curve_id, g.provenance)
        )
    t = Fraction(p.t) if g.exact and not isinstance(p.t, float) else float(p.t)
    if not 0 <= t <= 1:
        raise ValueError("edge parameter t=%s outside [0,1]" % p.t)
    e = g.edge_ids.index(p.curve_id)
    u, v = g.ends[e].tolist()
    lam = g._value(g.weights[e])
    if t == 0:
        return ("vertex", u)
    if t == 1:
        return ("vertex", v)
    return ("edge", p.curve_id, u, v, lam, t)


def geodesic_point_distance(g: MetricGraph, x, y):
    """Geodesic distance between two vertices or on-edge points.

    Off-vertex points route through their edge endpoints (plus the direct
    arc when both lie on the same curve); this is exact for the prefractal
    because distinct edges meet only at vertices.
    """
    rx = _resolve_point(g, x)
    ry = _resolve_point(g, y)
    rows = {}

    def vdist(u, v):
        if u not in rows:
            rows[u] = g.single_source(u)
        return rows[u][v]

    return _point_distance(rx, ry, vdist)


def _point_distance(rx, ry, vdist):
    """Geodesic distance between two points resolved by _resolve_point,
    given the distance vdist(u, v) between graph vertices: the shortest
    route through the points' edge endpoints, or the direct arc when both
    lie on the same curve."""
    def ends(r):
        if r[0] == "vertex":
            return ((r[1], 0),)
        _, _, u, v, lam, t = r
        return ((u, t * lam), (v, (1 - t) * lam))

    best = min(cu + vdist(eu, ev) + cv for eu, cu in ends(rx) for ev, cv in ends(ry))
    if rx[0] == "edge" and ry[0] == "edge" and rx[1] == ry[1]:
        best = min(best, abs(rx[5] - ry[5]) * rx[4])
    return best


# -- finite metric spaces ----------------------------------------------


_TRIANGLE_FAILURE = "triangle inequality fails: d(%d,%d) > d(%d,%d)+d(%d,%d)"


class FiniteMetricSpace:
    """Labelled symmetric distance matrix with validated metric axioms.

    Triangle inequality is checked on every triple up to 1,100 points
    (level-6 gasket sizes) and on a seeded sample of triples above that;
    float matrices get a 1e-9 additive slack, exact ones none.
    """

    _TRIANGLE_EXHAUSTIVE = 1_100
    _TRIANGLE_SAMPLES = 200_000

    def __init__(self, labels, matrix, validate=True):
        self.labels = list(labels)
        self.matrix = [list(row) for row in matrix]
        n = len(self.labels)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("distance matrix shape does not match labels")
        self.exact = all(_is_exact_weight(e) for row in self.matrix for e in row)
        if validate:
            self._validate()

    def __len__(self):
        return len(self.labels)

    def distance(self, i: int, j: int):
        return self.matrix[i][j]

    def _validate(self):
        n = len(self.labels)
        m = self.matrix
        slack = 0 if self.exact else 1e-9
        for i in range(n):
            if m[i][i] != 0:
                raise ValueError("nonzero diagonal at %d" % i)
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise ValueError("asymmetry at (%d,%d)" % (i, j))
                if not m[i][j] > 0:
                    raise ValueError(
                        "distinct points %d,%d at nonpositive distance %s"
                        % (i, j, m[i][j])
                    )
        if n <= self._TRIANGLE_EXHAUSTIVE:
            self._check_every_triangle(slack)
            return
        rng = random.Random(20260815)
        for _ in range(self._TRIANGLE_SAMPLES):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if m[i][j] > m[i][k] + m[k][j] + slack:
                raise ValueError(_TRIANGLE_FAILURE % (i, j, i, k, k, j))

    def _check_every_triangle(self, slack):
        """Min-plus sweep over every triple, one intermediate point k at a time.

        Exact entries are scaled to integers over their common denominator
        and compared in int64 (Python ints if the scaled entries could
        overflow), so the check stays exact.
        """
        m = self.matrix
        if self.exact:
            den = lcm(*{e.denominator for row in m for e in row})
            ints = [[e.numerator * (den // e.denominator) for e in row] for row in m]
            wide = max(map(max, ints), default=0) >= 2**62
            d = np.array(ints, dtype=object if wide else np.int64)
        else:
            d = np.array(m, dtype=np.float64)
        for k in range(len(d)):
            bad = d > d[:, k, None] + d[None, k, :] + slack
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(_TRIANGLE_FAILURE % (i, j, i, k, k, j))

    @classmethod
    def from_graph(cls, g: MetricGraph, vertex_ids=None,
                   validate=True) -> "FiniteMetricSpace":
        """Distance matrix of a vertex subset (default: all vertices)."""
        ids = list(range(g.vertex_count)) if vertex_ids is None else list(vertex_ids)
        rows = g.internal_rows(ids)
        matrix = [[g._value(rows[i][ids[j]]) for j in range(len(ids))]
                  for i in range(len(ids))]
        return cls(ids, matrix, validate=validate)

    def to_dict(self) -> dict:
        def encode(e):
            if not _is_exact_weight(e):
                return float(e)
            pair = dyadic_to_pair(e)
            return pair if pair is not None else "%d/%d" % (e.numerator, e.denominator)

        return {
            "labels": self.labels,
            "d": [[encode(e) for e in row] for row in self.matrix],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        def decode(e):
            if isinstance(e, list):
                return dyadic_from_pair(e)
            if isinstance(e, str):
                num, den = e.split("/")
                return Fraction(int(num), int(den))
            return float(e)

        matrix = [[decode(e) for e in row] for row in data["d"]]
        return cls(data["labels"], matrix)


def hausdorff(space: FiniteMetricSpace, a_indices, b_indices):
    """Two-sided Hausdorff distance between index subsets of the space."""
    a = list(a_indices)
    b = list(b_indices)
    if not a or not b:
        raise ValueError("hausdorff requires nonempty subsets")
    m = space.matrix
    d_ab = max(min(m[i][j] for j in b) for i in a)
    d_ba = max(min(m[i][j] for j in a) for i in b)
    return max(d_ab, d_ba)


def hausdorff_vertex_sets(g: MetricGraph, a_indices, b_indices):
    """Hausdorff distance between vertex subsets via two multi-source runs,
    or one when a set contains the other (its directed term is zero)."""
    a = list(a_indices)
    b = list(b_indices)
    if not a or not b:
        raise ValueError("hausdorff requires nonempty subsets")

    def reach(src, dst):
        """Max over dst of the distance to the nearest vertex of src."""
        if set(dst) <= set(src):
            return 0
        dist = g._sssp(src)
        return max(dist[i] for i in dst)

    return g._value(max(reach(b, a), reach(a, b)))


# -- agreement certification and the two-sided bound chain ---------------

@dataclass
class AgreementReport:
    n: int
    m: int
    vertices_compared: int
    max_discrepancy: object  # exact rational or float
    worst_pair: tuple[int, int] | None
    exact: bool


# bytes of one entry of a distance row: a list slot and an int object
_ROW_ENTRY_BYTES = 36

# peak bytes of gasket_cell_trace per level-m triangle: the (cell, vertex)
# keys and their sort, the CSR arrays of the cells' edges, three distance
# rows over the cells' vertices (tracemalloc peak 240-428 bytes for
# m = 9, 10 and 11, highest at n = m); gasket_cell_traces adds the hops
# per triangle slot (253 bytes at (8, 12), 416 at (12, 12))
_TRACE_BYTES_PER_TRIANGLE = 450


def check_agreement_size(m: int) -> None:
    """Raise ValueError when gh-table at fine level m would exceed
    MEMORY_GUARD_BYTES: the level-m complex plus the cell trace of
    gasket_cell_trace, which is linear in the 3^m level-m triangles.
    """
    check_memory(complex_bytes(m) + _TRACE_BYTES_PER_TRIANGLE * 3**m,
                 "the level-%d complex and its cell trace" % m)


def certify_vertex_agreement(n: int, m: int, g_n: MetricGraph,
                             g_m: MetricGraph) -> AgreementReport:
    """Max over V_n pairs of |d_n(v,w) - d_m(v,w)|, exact when both graphs are.

    Requires the two graphs to enumerate V_n identically (vertex keys are
    compared when available); for the Euclidean gasket the result must be
    exactly zero. The graphs are compared row by row, one traversal per
    vertex of V_n; worst_pair is the first maximal pair i < j in row-major
    order. Gasket callers use certify_trace_agreement instead.
    """
    if m < n:
        raise ValueError("need m >= n, got n=%d m=%d" % (n, m))
    nv = g_n.vertex_count
    if g_m.vertex_count < nv:
        raise ValueError(
            "vertex-indexing mismatch: finer graph has %d vertices, coarser has %d"
            % (g_m.vertex_count, nv)
        )
    if g_n.vertex_keys is not None and g_m.vertex_keys is not None:
        if not np.array_equal(g_n.vertex_keys, g_m.vertex_keys[:nv]):
            raise ValueError(
                "vertex-indexing mismatch: shared-prefix vertex keys differ"
            )
    elif g_n.vertex_keys is not None or g_m.vertex_keys is not None:
        raise ValueError("vertex-indexing mismatch: keys available on one graph only")

    both_exact = g_n.exact and g_m.exact
    if nv < 2:
        return AgreementReport(n, m, nv, 0 if both_exact else 0.0, None, both_exact)
    check_memory(_ROW_ENTRY_BYTES * nv * (nv + g_m.vertex_count),
                 "row-by-row agreement of %d coarse vertices inside %d fine ones"
                 % (nv, g_m.vertex_count))
    sources = range(nv)
    rows_n = g_n.internal_rows(sources)
    rows_m = g_m.internal_rows(sources)

    worst = None
    worst_pair = None
    if both_exact:
        dn_den = g_n._den
        dm_den = g_m._den
        for i in range(nv):
            rn, rm = rows_n[i], rows_m[i]
            for j in range(i + 1, nv):
                diff = abs(rn[j] * dm_den - rm[j] * dn_den)
                if worst is None or diff > worst:
                    worst, worst_pair = diff, (i, j)
        value = Fraction(worst, dn_den * dm_den)
    else:
        for i in range(nv):
            rn, rm = rows_n[i], rows_m[i]
            for j in range(i + 1, nv):
                diff = abs(float(rn[j]) / _den_or_one(g_n) - float(rm[j]) / _den_or_one(g_m))
                if worst is None or diff > worst:
                    worst, worst_pair = diff, (i, j)
        value = worst
    return AgreementReport(n, m, nv, value, worst_pair, both_exact)


def _den_or_one(g: MetricGraph) -> float:
    return float(g._den) if g.exact else 1.0


@dataclass(frozen=True)
class CellTrace:
    """The level-m gasket graph traced onto V_n through its level-n cells."""

    n: int
    m: int
    coarse_vertices: int  # |V_n|
    corners: np.ndarray  # (3^n, 3) vertex ids of each cell's corners
    hops: np.ndarray  # (3^n, 3, 3) hops between corners a and b inside cell c
    # int32 over V_m: hops from each vertex to its nearest V_n vertex, 0 on V_n
    nearest_hops: np.ndarray

    @property
    def haus_hops(self) -> int:
        """Max over V_m of the hops to the nearest vertex of V_n."""
        return int(self.nearest_hops.max())

    @property
    def hausdorff(self) -> Fraction:
        """Haus_{d_m}(V_n, V_m)."""
        return Fraction(self.haus_hops, 2**self.m)


def _cell_union(corners, tri, n: int, m: int, nv_n: int, nv_m: int):
    """Number the distinct (cell, vertex) pairs, in that order, as the
    vertices of the disjoint union of the cells, and check both premises.

    Returns the union id of every level-m triangle corner (as tri), the
    cell and vertex of every union vertex, and the union id of every cell
    corner (as corners).
    """
    cells = len(corners)
    if len(tri) != cells * 3 ** (m - n):
        raise ValueError("%d level-%d triangles do not fill %d cells of %d"
                         % (len(tri), m, cells, 3 ** (m - n)))
    keys = np.repeat(np.arange(cells, dtype=np.int64) * nv_m, tri.size // cells) + tri.ravel()
    union, local = np.unique(keys, return_inverse=True)
    cell_of, vertex_of = np.divmod(union, nv_m)

    shared = np.bincount(vertex_of, minlength=nv_m) > 1
    shared[:nv_n] = False
    if shared.any():
        v = int(np.argmax(shared))
        a, b = cell_of[vertex_of == v][:2].tolist()
        raise ValueError("vertex %d is shared by level-%d cells %d and %d but is "
                         "not in V_%d" % (v, n, a, b, n))
    corner_keys = np.arange(cells, dtype=np.int64)[:, None] * nv_m + corners
    sources = np.minimum(np.searchsorted(union, corner_keys), len(union) - 1)
    missing = (union[sources] != corner_keys) | (corners >= nv_n)
    if missing.any():
        c, k = np.argwhere(missing)[0].tolist()
        raise ValueError("corner %d of level-%d cell %d is not a V_%d vertex of "
                         "its level-%d triangles" % (corners[c, k], n, c, n, m))
    extra = vertex_of < nv_n
    extra[sources] = False
    if extra.any():
        u = int(np.argmax(extra))
        raise ValueError("vertex %d of V_%d lies in level-%d cell %d but is not "
                         "one of its corners %s" % (vertex_of[u], n, n, cell_of[u],
                                                    corners[cell_of[u]].tolist()))
    return local.reshape(tri.shape), cell_of, vertex_of, sources


def gasket_cell_trace(cx: PrefractalComplex, n: int, m: int) -> CellTrace:
    """Corner-to-corner hops of the level-m graph inside each level-n cell.

    A cell is the set of level-m triangles inside one level-n triangle;
    the children of row j are rows 3j + r, so level-m row t lies in cell
    t // 3^(m-n). Suppose a vertex shared by two cells is in V_n, and the
    V_n vertices of each cell are exactly its three corners. A path
    between V_n vertices then splits at its V_n visits into corner-to-corner
    paths inside single cells, so d_m restricted to V_n is the metric of
    the graph H on V_n whose edges are the cells' corner distances. A
    vertex reaches V_n only through a corner of its cell, so the min over
    its cell's corners is d_m(v, V_n) in hops, kept as nearest_hops, and
    the max of those is Haus_{d_m}(V_n, V_m).

    Reads only cx.triangles and cx.level_vertex_counts and checks both
    premises on every entry, raising ValueError that names the vertex and
    the cells. Three vectorised BFS passes over the disjoint union of the
    cells, each from corner k of every cell at once, give the hops.
    """
    return _bfs_cell_trace(cx, n, m, keep_slots=False)[0]


def _bfs_cell_trace(cx: PrefractalComplex, n: int, m: int, keep_slots: bool):
    """gasket_cell_trace, and with keep_slots the int32 (3, 3^m, 3) hops
    from corner k of its cell to slot s of level-m triangle t, at [k, t, s]
    (None otherwise)."""
    if not 0 <= n <= m < len(cx.triangles):
        raise ValueError("need 0 <= n <= m <= %d, got n=%d m=%d"
                         % (len(cx.triangles) - 1, n, m))
    corners = np.asarray(cx.triangles[n], dtype=np.int64)
    tri = np.asarray(cx.triangles[m], dtype=np.int64)
    nv_n, nv_m = cx.level_vertex_counts[n], cx.level_vertex_counts[m]
    tri_ids, cell_of, vertex_of, sources = _cell_union(corners, tri, n, m, nv_n, nv_m)
    # the three curves of every level-m triangle, in the union's numbering
    indptr, arc, nbr = _csr(tri_ids[:, CURVE_SLOTS[:, :2]].reshape(-1, 2), len(cell_of))
    # int32 like the hops; union ids stay below 3 * 3^m < 2^31
    tri_ids = tri_ids.astype(np.int32) if keep_slots else None
    del arc

    # int32: hops stay below |V_m| < 2^31 at every level the guard admits
    dist = np.empty((3, len(cell_of)), dtype=np.int32)
    for k in range(3):
        dist[k] = _bfs_hops(indptr, nbr, sources[:, k])
    if (dist < 0).any():
        k, u = np.argwhere(dist < 0)[0].tolist()
        raise ValueError("vertex %d of level-%d cell %d is unreachable from its "
                         "corner %d" % (vertex_of[u], n, cell_of[u], corners[cell_of[u], k]))
    hops = dist[:, sources].transpose(1, 0, 2)
    # a V_n vertex is a corner of every cell it lies in, so it reads 0
    nearest_hops = np.zeros(nv_m, dtype=np.int32)
    nearest_hops[vertex_of] = dist.min(axis=0)
    slot_hops = np.take(dist, tri_ids, axis=1) if keep_slots else None
    return CellTrace(n, m, nv_n, corners, hops, nearest_hops), slot_hops


# the closure's "not joined" entry, far above any hop count the memory
# guard admits; two of them still add up below 2^31, so int32 never wraps
_UNJOINED = (2**31 - 1) // 2


def _corner_closure(cx: PrefractalComplex, n: int, child_hops: np.ndarray):
    """Corner hops of the level-n cells from those of their children.

    child_hops is the (3^(n+1), 3, 3) corner table of the level-(n+1)
    cells, exact inside each. _cell_union checks the trace premises of
    level n on the children's corners, cx.triangles[n + 1]; with the same
    premises at level n + 1 the children meet only at their corners, and
    every level-m vertex shared by two level-n cells is such a corner. So
    a path inside a cell splits at child corners into paths inside single
    children, and a 9-slot Floyd-Warshall over the children's tables,
    slots of one vertex joined at 0, is exact. Returns the int32
    (3^n, 3, 3) corner table and (3^n, 3, 3, 3) hops from corner j of
    child r to corner k of cell c, at [c, r, j, k].
    """
    corners = np.asarray(cx.triangles[n], dtype=np.int64)
    cells = len(corners)
    kids = np.asarray(cx.triangles[n + 1], dtype=np.int64)
    nv = cx.level_vertex_counts
    ids, _, vertex_of, sources = _cell_union(corners, kids, n, n + 1, nv[n], nv[n + 1])
    slots = ids.reshape(cells, 9)  # equal ids: one vertex of one cell
    at = (slots[:, :, None] == sources[:, None, :]).argmax(axis=1)

    # slots (of 9) first and cells last, so each min-plus step runs along
    # one contiguous row per slot pair
    d = np.full((3, 3, 3, 3, cells), _UNJOINED, dtype=np.int32)
    tables = child_hops.reshape(cells, 3, 3, 3).transpose(1, 2, 3, 0)
    for r in range(3):
        d[r, :, r] = tables[r]
    d = d.reshape(9, 9, cells)
    d[slots.T[:, None] == slots.T[None, :]] = 0
    for k in range(9):
        np.minimum(d, d[:, k, None] + d[None, k], out=d)
    to_corner = np.take_along_axis(d, at.T[None], axis=1)  # [slot, corner, cell]
    if (to_corner >= _UNJOINED).any():
        s, k, c = np.argwhere(to_corner >= _UNJOINED)[0].tolist()
        raise ValueError("vertex %d of level-%d cell %d is unreachable from its "
                         "corner %d" % (vertex_of[slots[c, s]], n, c, corners[c, k]))
    hops = np.take_along_axis(to_corner, at.T[:, None], axis=0)
    return hops.transpose(2, 0, 1), to_corner.transpose(2, 0, 1).reshape(cells, 3, 3, 3)


def gasket_cell_traces(cx: PrefractalComplex, max_level: int, m: int):
    """Yield gasket_cell_trace(cx, n, m) for n = max_level, ..., 0.

    Only n = max_level runs the BFS. Each coarser level comes from the one
    below it (_corner_closure, which checks that level's premises): a
    vertex of a level-n cell reaches corner k only through the corners of
    its child, so its hops to the corners take one 3x3 min-plus step with
    the children's corner-to-corner hops, kept per level-m triangle slot.
    """
    trace, slot_hops = _bfs_cell_trace(cx, max_level, m, keep_slots=True)
    hops = trace.hops
    yield trace
    del trace
    tri = cx.triangles[m]
    nv_m = cx.level_vertex_counts[m]
    lifted = np.empty_like(slot_hops)
    step = np.empty_like(slot_hops[0])
    for n in range(max_level - 1, -1, -1):
        hops, to_corner = _corner_closure(cx, n, hops)
        # (corner, cell, child, slot) views: the children of cell c are rows
        # 3c + r, so their level-m triangles are contiguous
        below = slot_hops.reshape(3, len(hops), 3, -1)
        out = lifted.reshape(below.shape)
        tmp = step.reshape(below.shape[1:])
        for k in range(3):
            np.add(below[0], to_corner[:, :, 0, k, None], out=out[k])
            for j in (1, 2):
                np.add(below[j], to_corner[:, :, j, k, None], out=tmp)
                np.minimum(out[k], tmp, out=out[k])
        slot_hops, lifted = lifted, slot_hops
        nearest_hops = np.zeros(nv_m, dtype=np.int32)
        nearest_hops[tri] = slot_hops.min(axis=0)
        yield CellTrace(n, m, cx.level_vertex_counts[n],
                        np.asarray(cx.triangles[n], dtype=np.int64), hops, nearest_hops)


def certify_trace_agreement(trace: CellTrace) -> AgreementReport:
    """certify_vertex_agreement for the gasket, from its cell trace.

    When every corner distance is 2^(m-n) hops, the level-n edge weight
    2^-n, the trace graph H is G_n edge for edge, so d_m = d_n on V_n and
    the discrepancy is exactly 0, reported with worst pair (0, 1). Otherwise
    H is built on V_n and compared with G_n row by row, which names the
    worst pair.
    """
    n, m, nv = trace.n, trace.m, trace.coarse_vertices
    off_diagonal = ~np.eye(3, dtype=bool)
    if (trace.hops[:, off_diagonal] == 2 ** (m - n)).all():
        return AgreementReport(n, m, nv, Fraction(0), (0, 1), True)
    sides = CURVE_SLOTS[:, :2]
    ends = trace.corners[:, sides].reshape(-1, 2)
    g_n = MetricGraph(nv, ends, [Fraction(1, 2**n)] * len(ends))
    hops = trace.hops[:, sides[:, 0], sides[:, 1]].ravel().tolist()
    h = MetricGraph(nv, ends, [Fraction(k, 2**m) for k in hops])
    return certify_vertex_agreement(n, m, g_n, h)


def check_samples(k: int) -> None:
    """Raise ValueError unless k is at least one sample per curve."""
    if k < 1:
        raise ValueError("need at least one sample per curve")


def sample_parameters(k: int) -> list[Fraction]:
    """k equispaced interior parameters (2i+1)/(2k); cover radius 1/(2k)."""
    check_samples(k)
    return [Fraction(2 * i + 1, 2 * k) for i in range(k)]


@dataclass
class GHBoundReport:
    n: int
    m: int
    samples_per_curve: int
    haus_vertices_to_sample: object  # Haus_{d_n}(V_n, S_n)
    sampling_slack: object  # max curve length / (2k)
    haus_vn_in_vm: object  # Haus_{d_m}(V_n, V_m)
    tail: object  # 2^-m density of V_m in the limit set
    bound: object  # sum of the three certified terms
    bound_with_slack: object
    paper_bound: object  # 2^(1-n)

    def as_floats(self) -> dict:
        return {f: float(v) if f != "samples_per_curve" else v
                for f, v in self.__dict__.items()}


def gh_upper_bound(n: int, m: int, samples_per_curve: int = 3,
                   cx: PrefractalComplex | None = None,
                   trace: CellTrace | None = None) -> GHBoundReport:
    """Certified upper bound for the coarse-vs-limit comparison at level n.

    Chain: (level-n set vs V_n under d_n) + (exact vertex agreement, zero)
    + (V_n vs V_m under d_m, plus the 2^-m density of V_m in the limit).
    The first term is computed on the on-edge sample S_n; its cover-radius
    slack is reported separately, never folded in silently. The third term
    comes from gasket_cell_trace(cx, n, m); a caller that already holds
    that trace passes it.
    """
    if m < n:
        raise ValueError("need m >= n, got n=%d m=%d" % (n, m))
    if cx is None:
        cx = build_gasket(m)
    if cx.max_level < m:
        raise ValueError("complex built to level %d, need %d" % (cx.max_level, m))
    if trace is None:
        trace = gasket_cell_trace(cx, n, m)
    elif (trace.n, trace.m) != (n, m):
        raise ValueError("trace is of levels (%d, %d), need (%d, %d)"
                         % (trace.n, trace.m, n, m))

    # every level-n curve has length 2^-n and both endpoints in V_n, so a
    # sample at parameter t is min(t, 1 - t) of a curve from V_n; the
    # V_n -> S_n direction is zero since vertices are in the sample. Over
    # the parameters (2i+1)/(2k), the max of min(t, 1 - t) is at the one
    # nearest 1/2: i = (k - 1) // 2
    check_samples(samples_per_curve)
    lam = Fraction(1, 2**n)
    term1 = lam * Fraction(2 * ((samples_per_curve - 1) // 2) + 1, 2 * samples_per_curve)
    slack = lam / (2 * samples_per_curve)
    term3 = trace.hausdorff
    tail = Fraction(1, 2**m)
    bound = term1 + term3 + tail
    return GHBoundReport(
        n=n,
        m=m,
        samples_per_curve=samples_per_curve,
        haus_vertices_to_sample=term1,
        sampling_slack=slack,
        haus_vn_in_vm=term3,
        tail=tail,
        bound=bound,
        bound_with_slack=bound + slack,
        paper_bound=Fraction(2, 2**n),
    )
