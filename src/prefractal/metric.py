"""Geodesic distances on prefractal metric graphs.

The level-n prefractal is, as a point set, the union of its level-n edges,
so its intrinsic metric restricted to vertices is the shortest-path metric
of the weighted graph on V_n whose edges are the level-n curves. Rational
edge weights are rescaled to a common integer denominator, so shortest
paths, Hausdorff distances and agreement certificates are computed in
exact integer arithmetic; harmonic graphs carry float weights. Every
shortest-path query runs one array kernel, _relax: label-correcting
rounds over the CSR slots, in int64 (Python ints past 2^62) or float64.

Core claims exercised by the test suite:
  * d_n and d_m agree exactly on V_n for m >= n (Euclidean gasket), which
    the gasket certifies from the corner distances of its level-n cells;
  * every point of the level-n prefractal is within 2^-(n+1) of a vertex;
  * the certified two-sided bound for the coarse-to-limit comparison is
    (vertex density at level n) + 0 + (vertex density of V_n in V_m) + 2^-m.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isfinite, lcm

import numpy as np

from .curves import curve_count, kappa
from .gasket import (BASE_BYTES, CURVE_SLOTS, PrefractalComplex, check_memory,
                     complex_bytes, dyadic_from_pair)


def _exact_dtype(bound: int):
    """int64 for values under a bound below 2^62 (sums of two fit), else Python ints."""
    return np.int64 if bound < 2**62 else object


def _far(dtype):
    """What an unreached vertex reads: the dtype's max for ints, inf otherwise."""
    return np.iinfo(dtype).max if dtype.kind == "i" else np.inf


def _relax(indptr, nbr, arc, edge_w, sources) -> np.ndarray:
    """Least weight from the nearest of `sources` to every vertex over the
    CSR adjacency from _csr, edge e weighing edge_w[e]; _far(edge_w.dtype)
    if unreached.

    Label-correcting rounds: each relaxes the slots out of the vertices
    the previous round improved and keeps the least candidate per head.
    A label is the weight of a simple path (a walk through a cycle never
    improves on the path without it), so labels stay below the largest
    weight times |V|. With unit weights each round is one BFS level.
    """
    dist = np.full(len(indptr) - 1, _far(edge_w.dtype), dtype=edge_w.dtype)
    slot_of = np.empty(len(dist), dtype=np.int64)
    dist[sources] = 0
    frontier = np.flatnonzero(dist == 0)
    while len(frontier):
        start = indptr[frontier]
        count = indptr[frontier + 1] - start
        # the CSR slots out of every frontier vertex, in one gather
        slots = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
        heads = nbr[slots]
        cand = np.repeat(dist[frontier], count) + edge_w[arc[slots] >> 1]
        better = cand < dist[heads]
        heads = heads[better]
        np.minimum.at(dist, heads, cand[better])
        # keep each improved vertex once: the last write of its position wins
        pos = np.arange(len(heads))
        slot_of[heads] = pos
        frontier = heads[slot_of[heads] == pos]
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
    all floats. indptr, arc and nbr are the CSR adjacency from _csr, and
    _edge_w holds the internal weights for _relax: float64, or exact in
    the dtype _exact_dtype picks for the largest weight times |V|, a bound
    on every distance. Construction verifies ranges, positivity and
    connectivity; instances are immutable by convention.
    """

    def __init__(self, n_vertices, ends, weights, vertex_keys=None):
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
        outside = ((ends < 0) | (ends >= n_vertices)).any(axis=1)
        if outside.any():
            raise ValueError("edge (%r,%r) references a vertex out of range"
                             % tuple(ends[outside.argmax()].tolist()))
        self.vertex_count = n_vertices
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

        self.indptr, self.arc, self.nbr = _csr(ends, n_vertices)
        bound = max(value.values(), default=0) * n_vertices
        self._edge_w = np.array(self.weights, _exact_dtype(bound) if exact else np.float64)
        unreached = (_relax(self.indptr, self.nbr, self.arc, self._edge_w, [0])
                     == _far(self._edge_w.dtype))
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

    def _sssp(self, sources):
        """Internal distances from the nearest of `sources` to every vertex."""
        return _relax(self.indptr, self.nbr, self.arc, self._edge_w, sources).tolist()

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

    def support_block(self, nodes):
        """Distances among `nodes` in internal units, and value_scale()."""
        return [[row[j] for j in nodes] for row in self.internal_rows(nodes)], self._den


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
    nv = cx.level_vertex_counts[level]
    if harmonic_lengths is None:
        # one shared weight object: see MetricGraph
        weights = [Fraction(1, 1 << level)] * len(ends)
    else:
        ids = range(kappa(level, 0), kappa(level + 1, 0))
        weights = [harmonic_lengths[cid] for cid in ids]
    return MetricGraph(nv, ends, weights, vertex_keys=cx._pair_array(nv))


# -- finite metric spaces ----------------------------------------------


# tracemalloc peak of from_dict per entry, beside the document: 180 B with
# distinct 50-bit dyadic entries, 84 B when the entries repeat
_DOCUMENT_BYTES_PER_ENTRY = 180


class FiniteMetricSpace:
    """Labelled distance matrix, held once as support_block returns it:
    `block` holds ints over the common denominator `den` (int64, or Python
    ints from 2^62 on) when every entry is rational, else float64 with `den`
    None. A matrix given to the constructor or from_dict is always checked:
    zero diagonal, symmetry and positive distances at the first bad pair
    i <= j in row-major order, then the triangle inequality on every
    triple, O(n^3) for n points, with a 1e-9 additive slack for floats.
    """

    def __init__(self, labels, matrix):
        labels, rows = list(labels), [list(row) for row in matrix]
        n = len(labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("distance matrix shape does not match labels")
        den, dtype = None, np.float64
        if all(isinstance(e, (int, Fraction)) for row in rows for e in row):
            den = lcm(*{e.denominator for row in rows for e in row})
            rows = [[e.numerator * (den // e.denominator) for e in row] for row in rows]
            dtype = _exact_dtype(max((abs(e) for row in rows for e in row), default=0))
        self._hold(labels, np.array(rows, dtype=dtype).reshape(n, n), den)
        self._validate()

    def _hold(self, labels, block, den):
        self.labels, self.block, self.den = labels, block, den
        self.vertex_count, self.exact = len(labels), den is not None

    def __len__(self):
        return len(self.labels)

    def _value(self, internal):
        return Fraction(int(internal), self.den) if self.exact else float(internal)

    def distance(self, i: int, j: int):
        return self._value(self.block[i, j])

    def support_block(self, nodes):
        """Distances among `nodes` as ints over den, or floats if den is None."""
        return self.block[np.ix_(nodes, nodes)].tolist(), self.den

    def _validate(self):
        d = self.block
        n = len(d)
        bad = np.diag(np.diag(d) != 0) | np.triu((d != d.T) | ~(d > 0), 1)
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            if i == j:
                raise ValueError("nonzero diagonal at %d" % i)
            if d[i, j] != d[j, i]:
                raise ValueError("asymmetry at (%d,%d)" % (i, j))
            raise ValueError("distinct points %d,%d at nonpositive distance %s"
                             % (i, j, self._value(d[i, j])))
        # min-plus sweep over every triple, one intermediate point k at a time
        slack = 0 if self.exact else 1e-9
        for k in range(n):
            bad = d > d[:, k, None] + d[None, k, :] + slack
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError("triangle inequality fails: d(%d,%d) > d(%d,%d)+d(%d,%d)"
                                 % (i, j, i, k, k, j))

    @classmethod
    def from_graph(cls, g: MetricGraph, vertex_ids=None) -> "FiniteMetricSpace":
        """Distances among distinct vertices (default: all), held as
        g.support_block(ids) gives them. Nothing is re-checked: on a
        connected graph with positive weights, which MetricGraph checks,
        shortest paths are a metric on distinct vertices (undirected edges
        give symmetry, positive weights positivity, joined paths the
        triangle inequality). A float pair's two rows sum one path in
        different orders, so the snapshot keeps the smaller rounding."""
        ids = list(range(g.vertex_count)) if vertex_ids is None else list(vertex_ids)
        if any(not 0 <= v < g.vertex_count for v in ids) or len(set(ids)) < len(ids):
            raise ValueError("vertex_ids must be distinct vertices 0..%d of the graph"
                             % (g.vertex_count - 1))
        block = np.empty((len(ids), len(ids)), dtype=g._edge_w.dtype)
        for r, s in enumerate(ids):  # g.support_block(ids), row by row
            block[r] = _relax(g.indptr, g.nbr, g.arc, g._edge_w, [s])[ids]
        if not g.exact:
            np.minimum(block, block.T, out=block)
        space = cls.__new__(cls)
        space._hold(ids, block, g.value_scale())
        return space

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        rows = data["d"]
        check_memory(_DOCUMENT_BYTES_PER_ENTRY * len(rows) ** 2,
                     "a %d-point metric space document" % len(rows))

        def decode(e):
            if isinstance(e, list):
                return dyadic_from_pair(e)
            if isinstance(e, str):
                num, den = e.split("/")
                return Fraction(int(num), int(den))
            return float(e)

        return cls(data["labels"], [[decode(e) for e in row] for row in rows])


def hausdorff(space: FiniteMetricSpace, a_indices, b_indices):
    """Two-sided Hausdorff distance between index subsets of the space, by
    min/max over their block: a Fraction if the space is exact, else a float."""
    a = list(a_indices)
    b = list(b_indices)
    if not a or not b:
        raise ValueError("hausdorff requires nonempty subsets")
    d = space.block[np.ix_(a, b)]
    return space._value(max(d.min(axis=1).max(), d.min(axis=0).max()))


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

class AgreementReport(namedtuple("AgreementReport", [
        "n", "m", "vertices_compared",
        "max_discrepancy",  # exact rational or float
        "worst_pair",       # (i, j) or None
        "exact"])):
    __slots__ = ()


# bytes of one entry of a distance row or block: a list or array slot and
# at most an int object
_ROW_ENTRY_BYTES = 36

# bytes per curve that build_gasket leaves held (tracemalloc 13.3-13.4),
# and the peak bytes of gasket_cell_traces per level-m triangle above
# them: every closure's slot table (54 in all), a level's reach in the
# top-down pass and the first closure's whole-level premise tables
# (tracemalloc 98-129 at m = 9-12 for one trace, 104-142 for a whole
# run). 260 stays, as complex_bytes' 90 does, until m = 14 is measured
_HELD_BYTES_PER_CURVE = 14
_TRACE_BYTES_PER_TRIANGLE = 260


def check_trace_size(m: int, what: str) -> None:
    """Raise ValueError, naming `what`, when building the level-m complex
    and tracing it would pass MEMORY_GUARD_BYTES: BASE_BYTES plus the
    larger of the build's peak and the held complex with the trace."""
    trace = _HELD_BYTES_PER_CURVE * curve_count(m) + _TRACE_BYTES_PER_TRIANGLE * 3**m
    check_memory(BASE_BYTES + max(complex_bytes(m), trace), what)


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
    # internal units over each graph's denominator, 1 for a float graph;
    # exact blocks are compared over dn_den * dm_den, and a graph's largest
    # weight times |V| bounds each of its distances
    dn_den, dm_den = g_n._den or 1, g_m._den or 1
    dtype = (_exact_dtype(max(max(g_n.weights) * nv * dm_den,
                              max(g_m.weights) * g_m.vertex_count * dn_den))
             if both_exact else np.float64)
    # the V_n x V_n block of each graph, one run per row
    diff, other = (np.array([g._sssp([s])[:nv] for s in range(nv)], dtype=dtype)
                   for g in (g_n, g_m))
    if both_exact:
        diff *= dm_den
        other *= dn_den
    else:
        diff /= float(dn_den)
        other /= float(dm_den)
    diff -= other
    np.abs(diff, out=diff)
    # the first maximal pair i < j in row-major order
    diff[np.tri(nv, dtype=bool)] = -1
    i, j = divmod(int(np.argmax(diff)), nv)
    value = Fraction(int(diff[i, j]), dn_den * dm_den) if both_exact else float(diff[i, j])
    return AgreementReport(n, m, nv, value, (i, j), both_exact)


class CellTrace(namedtuple("CellTrace", [
        "n", "m",
        "coarse_vertices",  # |V_n|
        "corners",          # (3^n, 3) vertex ids of each cell's corners
        "hops",             # (3^n, 3, 3) hops between corners a and b inside cell c
        # int32 over V_m: hops from each vertex to its nearest V_n vertex, 0 on V_n
        "nearest_hops"])):
    """The level-m gasket graph traced onto V_n through its level-n cells."""

    __slots__ = ()

    @property
    def haus_hops(self) -> int:
        """Max over V_m of the hops to the nearest vertex of V_n."""
        return int(self.nearest_hops.max())

    @property
    def hausdorff(self) -> Fraction:
        """Haus_{d_m}(V_n, V_m)."""
        return Fraction(self.haus_hops, 2**self.m)


def _check_rows(tri, level: int, nv: int) -> None:
    """Refuse a level's triangle table unless every id is a V_level vertex
    and every row names three distinct vertices."""
    outside = (tri < 0) | (tri >= nv)
    if outside.any():
        t, s = np.argwhere(outside)[0].tolist()
        raise ValueError("level-%d row %d %s names vertex %d, outside V_%d (0..%d)"
                         % (level, t, tri[t].tolist(), tri[t, s], level, nv - 1))
    repeated = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 2] == tri[:, 0])
    if repeated.any():
        t = int(np.argmax(repeated))
        raise ValueError("level-%d row %d %s has fewer than three distinct vertices"
                         % (level, t, tri[t].tolist()))


# the closure's "not joined" entry, far above any hop count the memory
# guard admits; two of them still add up below 2^31, so int32 never wraps
_UNJOINED = (2**31 - 1) // 2

# cells per block of _corner_closure's (9, 9, block) int32 table (332 kB)
_CLOSURE_BLOCK = 1 << 10


def _corner_closure(cx: PrefractalComplex, n: int, child_hops: np.ndarray):
    """Corner hops of the level-n cells from those of their children.

    child_hops is the (3^(n+1), 3, 3) corner table of the level-(n+1)
    cells, exact inside each. The corners of the children, rows 3c + r of
    cx.triangles[n + 1], are the 9 slots of cell c; the premises of level
    n are checked on them. With the same premises at level n + 1 the
    children meet only at their corners, and every level-m vertex shared
    by two level-n cells is such a corner. So a path inside a cell splits
    at child corners into paths inside single children, and a 9-slot
    Floyd-Warshall over the children's tables, slots of one vertex joined
    at 0, is exact; it runs _CLOSURE_BLOCK cells at a time. Returns the
    int32 (3^n, 3, 3) corner table and the (9, 3, 3^n) hops from slot s
    to corner k of cell c, at [s, k, c].
    """
    corners = np.asarray(cx.triangles[n], dtype=np.int64)
    cells = len(corners)
    kids = np.asarray(cx.triangles[n + 1], dtype=np.int64)
    nv_n, nv_kids = cx.level_vertex_counts[n], cx.level_vertex_counts[n + 1]
    if len(kids) != 3 * cells:
        raise ValueError("%d level-%d triangles do not fill %d cells of 3"
                         % (len(kids), n + 1, cells))
    _check_rows(kids, n + 1, nv_kids)
    slots = kids.reshape(cells, 9)

    # a vertex in two cells has its first cell below its last
    cell = np.arange(cells)
    first, last = np.full(nv_kids, cells), np.full(nv_kids, -1)
    np.minimum.at(first, slots.ravel(), np.repeat(cell, 9))
    np.maximum.at(last, slots.ravel(), np.repeat(cell, 9))
    shared = first < last
    shared[:nv_n] = False
    if shared.any():
        v = int(np.argmax(shared))
        raise ValueError("vertex %d is shared by level-%d cells %d and %d but is "
                         "not in V_%d" % (v, n, first[v], last[v], n))
    is_corner = slots[None] == corners.T[:, :, None]  # [corner, cell, slot]
    at = is_corner.argmax(axis=2)  # the slot of corner k, at [k, cell]
    missing = (np.take_along_axis(slots, at.T, axis=1) != corners) | (corners >= nv_n)
    if missing.any():
        c, k = np.argwhere(missing)[0].tolist()
        raise ValueError("corner %d of level-%d cell %d is not a V_%d vertex of "
                         "its level-%d triangles" % (corners[c, k], n, c, n, n + 1))
    extra = (slots < nv_n) & ~(is_corner[0] | is_corner[1] | is_corner[2])
    if extra.any():
        c, s = np.argwhere(extra)[0].tolist()
        raise ValueError("vertex %d of V_%d lies in level-%d cell %d but is not "
                         "one of its corners %s" % (slots[c, s], n, n, c,
                                                    corners[c].tolist()))

    # a 9 x 9 slot table per block, cells last so each min-plus step runs
    # along contiguous rows; slots of one vertex start at 0
    tables = child_hops.reshape(cells, 3, 3, 3).transpose(1, 2, 3, 0)
    to_corner = np.empty((9, 3, cells), dtype=np.int32)  # [slot, corner, cell]
    for lo in range(0, cells, _CLOSURE_BLOCK):
        block = slice(lo, min(cells, lo + _CLOSURE_BLOCK))
        by_slot = np.ascontiguousarray(slots[block].T)
        d = np.multiply(by_slot[:, None] != by_slot[None, :], _UNJOINED, dtype=np.int32)
        for r in range(3):
            d.reshape(3, 3, 3, 3, -1)[r, :, r] = tables[r, ..., block]
        for k in range(9):
            np.minimum(d, d[:, k, None] + d[None, k], out=d)
        to_corner[..., block] = d[:, at[:, block], cell[:block.stop - lo]]
    if (to_corner >= _UNJOINED).any():
        s, k, c = np.argwhere(to_corner >= _UNJOINED)[0].tolist()
        raise ValueError("vertex %d of level-%d cell %d is unreachable from its "
                         "corner %d" % (slots[c, s], n, c, corners[c, k]))
    hops = to_corner[at[:, None], np.arange(3)[:, None], cell]
    return hops.transpose(2, 0, 1), to_corner


def gasket_cell_traces(cx: PrefractalComplex, max_level: int, m: int):
    """Yield the CellTrace of levels (n, m) for n = max_level, ..., 0: the
    corner-to-corner hops of the level-m graph inside each level-n cell.

    A level-n cell is the set of level-m triangles inside one level-n
    triangle; the children of row j are rows 3j + r, so level-m row t lies
    in cell t // 3^(m-n). Suppose a vertex shared by two cells is in V_n,
    and the V_n vertices of each cell are exactly its three corners. A
    path between V_n vertices then splits at its V_n visits into
    corner-to-corner paths inside single cells, so d_m restricted to V_n
    is the metric of the graph H on V_n whose edges are the cells' corner
    distances. A vertex reaches V_n only through a corner of its cell, so
    the min over its cell's corners is d_m(v, V_n) in hops, kept as
    nearest_hops, and the max of those is Haus_{d_m}(V_n, V_m).

    The premises of (n, m) follow from those of every (k, k + 1) with
    n <= k < m, which _corner_closure checks as the closures pass level k.
    Take a level-m vertex v in two level-n cells. Its level-m triangles
    there have two different level-(m-1) parents, so v is in V_(m-1) and
    is a corner of both parents. Those parents lie in the same two level-n
    cells, so the same step applies to them, and so on down to V_n. A V_n
    vertex of a cell is in V_(m-1), so it is a corner of its level-(m-1)
    parent, and so on up to the cell. Each corner of a cell is a corner of
    one of its children, and so on down to level m. And with three
    children per triangle at every level, the level-m triangles fill the
    cells.

    The closures run from level m, where each cell is one triangle whose
    three distinct corners (checked) are one hop apart, down to level n;
    each keeps its slot-to-corner table. nearest_hops then takes one pass
    down those tables, from level n to m - 1. A vertex v of V_(l+1) not
    in V_l lies in exactly one level-l cell, and that cell meets V_n only
    at its corners c_k, so a path from v to V_n leaves it through a
    corner first: d_m(v, V_n) = min_k d_cell(v, c_k) + d_m(c_k, V_n), with
    the corners' values read from the level before. A vertex already in
    V_l is rewritten with its own value: its own corner's term gives it,
    and the triangle inequality bounds the others; V_n stays at 0. Reads
    only cx.triangles and cx.level_vertex_counts; a failed check raises
    ValueError naming the row, or the vertex and the cells.
    """
    if not 0 <= max_level <= m < len(cx.triangles):
        raise ValueError("need 0 <= n <= m <= %d, got n=%d m=%d"
                         % (len(cx.triangles) - 1, max_level, m))
    nv_m = cx.level_vertex_counts[m]
    _check_rows(np.asarray(cx.triangles[m], dtype=np.int64), m, nv_m)
    # int32 hops: they stay below |V_m| < 2^31 at every level the guard admits
    hops = np.broadcast_to(1 - np.eye(3, dtype=np.int32), (len(cx.triangles[m]), 3, 3))
    to_corner = {}  # level -> its closure's [slot, corner, cell] hops
    for n in range(m, -1, -1):
        if n < m:
            hops, to_corner[n] = _corner_closure(cx, n, hops)
        if n <= max_level:
            nearest_hops = np.zeros(nv_m, dtype=np.int32)
            for level in range(n, m):
                table = to_corner[level]
                corner_hops = nearest_hops[np.asarray(cx.triangles[level]).T]
                # a corner at a time: the whole (9, 3, cells) sum would add
                # 24 B per level-m triangle to the peak
                reach = table[:, 0] + corner_hops[0]
                for k in (1, 2):
                    np.minimum(reach, table[:, k] + corner_hops[k], out=reach)
                nearest_hops[np.asarray(cx.triangles[level + 1]).reshape(-1, 9).T] = reach
            yield CellTrace(n, m, cx.level_vertex_counts[n],
                            np.asarray(cx.triangles[n], dtype=np.int64), hops, nearest_hops)


def gasket_cell_trace(cx: PrefractalComplex, n: int, m: int) -> CellTrace:
    """The cell trace of levels (n, m): the first of
    gasket_cell_traces(cx, n, m), closed from level m down to n."""
    return next(gasket_cell_traces(cx, n, m))


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


def gh_upper_bound(trace: CellTrace, samples_per_curve: int = 3) -> GHBoundReport:
    """Certified upper bound for the coarse-vs-limit comparison at level
    n = trace.n, against the fine level m = trace.m.

    Chain: (level-n set vs V_n under d_n) + (exact vertex agreement, zero)
    + (V_n vs V_m under d_m, plus the 2^-m density of V_m in the limit).
    The first term is computed on the on-edge sample S_n; its cover-radius
    slack is reported separately, never folded in silently. The third term
    is the trace's Hausdorff distance.
    """
    check_samples(samples_per_curve)
    n, m = trace.n, trace.m
    # every level-n curve has length 2^-n and both endpoints in V_n, so a
    # sample at parameter t is min(t, 1 - t) of a curve from V_n; the
    # V_n -> S_n direction is zero since vertices are in the sample. Over
    # the parameters (2i+1)/(2k), the max of min(t, 1 - t) is at the one
    # nearest 1/2: i = (k - 1) // 2
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
