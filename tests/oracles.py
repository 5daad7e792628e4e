"""Independent implementations that the tests check prefractal against.

None of this is on a production path, and none of it is fast:

  * interning_build: gasket.build_gasket as it was before the id maps.
    It applies T_0, T_1 and T_2 to the corner points of every triangle,
    level by level, and interns all of them at once by first occurrence
    with np.unique, argsort and a rank table.
  * hop_block / hop_block_agreement: the bit-parallel multi-source BFS
    that certified vertex agreement before the cell trace replaced it;
    the cell certificate must match it exactly.
  * CellTrace / gasket_cell_traces / gasket_cell_trace: the exhaustive
    cell trace that gh-table and extent ran before one generic cell
    (curves.cell_certificate) gave the same numbers for every m. It
    builds on the level-m complex and closes all 3^m level-m triangles
    level by level with numpy (_corner_closure, a 9-slot Floyd-Warshall
    per cell, _CLOSURE_BLOCK cells at a time, premises checked per level
    by _check_rows and the closure), then gives every vertex its hops to
    V_n (nearest_hops) in one top-down pass. check_trace_size is the
    memory guard the commands ran before it, which the pass still
    applies. The certificate's corner hops, Hausdorff term and bound rows
    must equal the trace's, and GasketSpace.to_coarse its nearest_hops.
  * bfs_cell_trace: gasket_cell_traces' trace of one (n, m) pair as it
    was computed before every level was closed from the level-m
    triangles: three BFS passes (metric._relax on unit weights) over the
    disjoint union of the level-n cells, one from corner k of every cell
    at once.
  * maximize / max_difference_objective: a dense exact simplex over
    Fractions with Bland's anti-cycling rule, for shortest-path duality
    checks. It shares no code with the graph machinery; sizes stay in the
    dozens of rows, where exactness matters more than speed.
  * harmonic_curve_length / edge_polyline: the per-curve quadrature that
    harmonic_lengths replaced. It halves one curve's cells in Python
    integers, whose numerators grow as 5^depth, and measures the
    inscribed polyline up to an absolute depth cap. It reports a
    LengthEstimate, the per-curve record with every increment that
    harmonic_lengths returned before its columns.
  * sssp / nearest_sources / min_cost_flow: the shortest-path and
    transport kernels over per-vertex lists of (neighbour, weight) tuples
    that MetricGraph ran before its CSR arrays. sssp, a deque BFS on one
    exact weight and heap Dijkstra otherwise, is the reference for
    metric._relax, which replaced both. They read only g.edges and
    g.value_scale(), so they share no adjacency code with the graph.
  * graph_transport: kantorovich's value as it was solved before it ran
    on the support union alone: min_cost_flow on the whole graph's own
    edges, the whole-graph reference for the support-union kernel.
  * pairwise_support_block: curves.GasketSpace.support_block as it was
    before it grouped pairs by their lowest common cell: every point's
    delta_k tables for all k, then each pair's longest common word
    prefix found by a scan and one 6-point min-plus step there.
  * row_certificate: the plan-cost check kantorovich ran before it
    certified each plan entry from its potentials: one distance row per
    moved source, mass times distance summed and compared with the value.
  * coupled_extent: transport.certify_extent as it ran before the cell
    trace, on the coupled graph of the level-m and level-n gasket graphs:
    Dirac terms from multi-source runs, each mixture atom's target from
    nearest_sources, and each mixture solved on the coupled graph's edges.
  * covariant_reach_oracle: modes.covariant_reach_witness as it ran
    before it evolved only the defect: per grid time, the vector and its
    projection each evolved as a whole ModeVector and then subtracted.
  * fraction_mode_count: spectrum.mode_count as it ran before its floors
    became integer divisions, with both floors taken of normalized
    Fractions.
  * bucket_enumeration / signed: spectrum.enumerate_eigenvalues as it ran
    before it streamed one window at a time: every magnitude of every
    curve length in one float dict, sorted into two whole lists, and the
    full symmetric spectrum with multiplicity that they spell out.
  * sampling_term: gh_upper_bound's sample-to-vertex term per unit curve
    length as it was taken before its closed form, the max of
    min(t, 1 - t) over the list of sample parameters.
  * point_distance / sampled_space: the on-edge point layer, which the
    package dropped once gh_upper_bound's sampling term became a closed
    form. A point is a vertex id or a (curve_id, t) tuple on a curve of
    the graph's own level; distances route through curve ends over the
    graph's internal rows. It is the geodesic reference for that closed
    form and for the Lipschitz-Dirac identity on on-edge points.
  * space_to_dict: the encoder of the document FiniteMetricSpace.from_dict
    reads, left from the metric-space cache.
  * gasket_svg_text: svg.gasket_svg as it was before it streamed its
    polygons in row blocks: per-vertex Python placement and the whole
    document joined into one string.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from prefractal.curves import (_V1_HOPS, BASE_BYTES, V0_IMAGES, check_memory, curve_count,
                               gh_upper_bound, kappa, kappa_inverse, sample_parameters,
                               vertex_word)
from prefractal.gasket import (CORNERS, CURVE_SLOTS, PrefractalComplex,
                               build_gasket, complex_bytes, dyadic_to_pair,
                               similitude_apply)
from prefractal.harmonic import (
    EMBED_SCALE,
    HarmonicTable,
    SubdivisionRule,
)
from prefractal.metric import (AgreementReport, FiniteMetricSpace, MetricGraph, _csr, _far,
                               _relax, gasket_metric_graph)
from prefractal.modes import (ReachReport, evolve, project, random_mode_vector,
                              tail_level_for)
from prefractal.spectrum import PI_LOWER, PI_UPPER
from prefractal.svg import PALETTE, _f
from prefractal.transport import (CoupledGraph, DiscreteMeasure, ExtentReport,
                                  _require_premises, kantorovich)


# -- the complex by interning every corner point -------------------------


def interning_build(max_level: int) -> PrefractalComplex:
    """The complex through max_level, its vertices interned by first
    occurrence in the order levels, triangles, corners."""
    # the children of level m are T_0, T_1, T_2 of all its triangles, in
    # that order, so the child of row j under T_r is row j + r*3^m
    scale = 1 << max_level
    points = [scale * CORNERS[None]]
    for _ in range(max_level):
        points.append(np.concatenate([similitude_apply(r, points[-1], scale)
                                      for r in range(3)]))
    flat = np.concatenate([p.reshape(-1, 2) for p in points])
    keys = flat[:, 0] * (scale + 1) + flat[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ids = rank[inverse.reshape(-1)]
    triangles, level_vertex_counts, start = [], [], 0
    for m in range(max_level + 1):
        stop = start + 3 ** (m + 1)
        triangles.append(ids[start:stop].reshape(-1, 3))
        level_vertex_counts.append(int(ids[:stop].max()) + 1)
        start = stop
    return PrefractalComplex(max_level, triangles, flat[first[order]], level_vertex_counts)


# -- hop blocks by bit-parallel multi-source BFS -------------------------


def neighbour_table(g: MetricGraph) -> np.ndarray:
    """Neighbour indices as a (max degree, V+1) array.

    Column v lists v's neighbours, padded with V, an extra vertex whose
    bitset stays empty; row c holds the c-th neighbour of every vertex.
    """
    n = g.vertex_count
    ends = np.array([(u, v) for u, v, _ in g.edges], dtype=np.intp)
    ends = ends.reshape(-1, 2)
    src = np.concatenate([ends[:, 0], ends[:, 1]])
    dst = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    slot = np.arange(len(src)) - (np.cumsum(deg) - deg)[src]
    table = np.full((max(1, int(deg.max(initial=0))), n + 1), n, dtype=np.intp)
    table[slot, src] = dst
    return table


def one_exact_weight(g: MetricGraph) -> bool:
    """Whether g is exact with one distinct edge weight, so its distances
    are hop counts times that weight."""
    return g.exact and len(set(g.weights)) == 1


def hop_block(g: MetricGraph, sources, targets) -> np.ndarray:
    """Hop counts as an int64 (targets x sources) matrix, by MS-BFS.

    Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
    VLDB 2014): source k owns bit k % 64 of word k // 64 in every
    vertex's bitset, and each step ORs the frontier bitsets of all
    neighbours through the padded neighbour table, so 64 sources share
    one uint64 operation. A bit that first appears at step d is written
    into the bit planes of d, and the planes are unpacked at the end.
    Hops times the uniform weight are the exact internal distances, so
    only exact graphs with one edge weight qualify.
    """
    if not one_exact_weight(g):
        raise ValueError("hop counts need an exact graph with uniform weights")
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    if not len(sources):
        raise ValueError("need at least one source vertex")
    n = g.vertex_count
    for ids in (sources, targets):
        if len(ids) and not (0 <= ids.min() and ids.max() < n):
            raise ValueError("vertex index out of range 0..%d" % (n - 1))
    table = neighbour_table(g)
    words = -(-len(sources) // 64)
    bitset = np.dtype((np.void, 8 * words))
    k = np.arange(len(sources))
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    np.bitwise_or.at(frontier, (sources, k // 64),
                     np.left_shift(np.uint64(1), (k % 64).astype(np.uint64)))
    valid = np.full(words, np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(sources) % 64:
        valid[-1] = (1 << len(sources) % 64) - 1
    unseen = valid & ~frontier
    unseen[n] = 0  # the padding row never joins a frontier
    planes = []
    depth = 0
    # stop once every target has been reached from every source
    while unseen[targets].any():
        depth += 1
        rows = frontier.view(bitset).reshape(n + 1)
        nxt = rows[table[0]].view(np.uint64).reshape(n + 1, words)
        for col in table[1:]:
            nxt |= rows[col].view(np.uint64).reshape(n + 1, words)
        nxt &= unseen
        unseen ^= nxt
        frontier = nxt
        while 1 << len(planes) <= depth:
            planes.append(np.zeros((len(targets), words), dtype=np.uint64))
        reached = frontier[targets]
        for b, plane in enumerate(planes):
            if depth >> b & 1:
                plane |= reached
    hops = np.zeros((len(targets), len(sources)), dtype=np.int64)
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.astype("<u8").view(np.uint8), axis=1,
                             bitorder="little")[:, :len(sources)]
        np.bitwise_or(hops, 1 << b, out=hops, where=bits.view(bool))
    return hops


def hop_block_agreement(n: int, m: int, g_n: MetricGraph, g_m: MetricGraph,
                        fine_hops=None) -> AgreementReport:
    """Max over V_n pairs of |d_n(v,w) - d_m(v,w)| from two hop blocks.

    Both graphs must be exact with uniform weights, V_n a vertex prefix
    of g_m, and the scaled distances must fit int64. worst_pair is the
    first maximal pair i < j in row-major order. fine_hops, if given, is
    hop_block(g_m, ids, ids) over a vertex prefix ids = range(k) with
    k >= |V_n|; its top-left |V_n| x |V_n| corner is the level-m block,
    so one traversal serves every coarser level.
    """
    nv = g_n.vertex_count
    if fine_hops is not None:
        if fine_hops.ndim != 2 or fine_hops.shape[0] != fine_hops.shape[1]:
            raise ValueError("fine_hops must be a square hop block, got shape %s"
                             % (fine_hops.shape,))
        if len(fine_hops) < nv:
            raise ValueError("fine_hops covers %d vertices, V_%d has %d"
                             % (len(fine_hops), n, nv))
    if not (one_exact_weight(g_n) and one_exact_weight(g_m)):
        raise ValueError("hop blocks need two uniform exact graphs")
    # d = hops * weight; times `scale`, the lcm of the two weights'
    # denominators, the discrepancy |hops_n * a - hops_m * b| is an integer
    w_n, w_m = g_n.edges[0][2], g_m.edges[0][2]
    scale = lcm(w_n.denominator, w_m.denominator)
    a, b = int(w_n * scale), int(w_m * scale)
    if max(a, b) * g_m.vertex_count >= 2**63:
        raise ValueError("scaled distances do not fit int64")
    ids = np.arange(nv)
    if fine_hops is None:
        fine_hops = hop_block(g_m, ids, ids)
    diff = hop_block(g_n, ids, ids) * a - b * fine_hops[:nv, :nv]
    np.abs(diff, out=diff)
    diff[ids[:, None] >= ids] = -1
    i, j = divmod(int(np.argmax(diff)), nv)
    return AgreementReport(n, m, nv, Fraction(int(diff[i, j]), scale), (i, j), True)


# -- the cell trace by min-plus closure of every cell -----------------------


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
    check_trace_size(m, "the level-%d cell trace" % m)
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


# -- the cell trace by BFS over the cells' disjoint union ------------------


def _cell_union(corners, tri, n: int, m: int, nv_n: int, nv_m: int):
    """Number the distinct (cell, vertex) pairs, in that order, as the
    vertices of the disjoint union of the level-n cells, and check both
    premises of (n, m) on them directly.

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


def bfs_cell_trace(cx: PrefractalComplex, n: int, m: int) -> CellTrace:
    """The cell trace of levels (n, m) from three BFS passes, one from
    corner k of every level-n cell at once, over the disjoint union of the
    cells; _cell_union numbers it and checks both premises of (n, m)."""
    if not 0 <= n <= m < len(cx.triangles):
        raise ValueError("need 0 <= n <= m <= %d, got n=%d m=%d"
                         % (len(cx.triangles) - 1, n, m))
    corners = np.asarray(cx.triangles[n], dtype=np.int64)
    tri = np.asarray(cx.triangles[m], dtype=np.int64)
    nv_n, nv_m = cx.level_vertex_counts[n], cx.level_vertex_counts[m]
    _check_rows(tri, m, nv_m)
    tri_ids, cell_of, vertex_of, sources = _cell_union(corners, tri, n, m, nv_n, nv_m)
    # the three curves of every level-m triangle, in the union's numbering
    indptr, arc, nbr = _csr(tri_ids[:, CURVE_SLOTS[:, :2]].reshape(-1, 2), len(cell_of))
    unit = np.ones(len(arc) // 2, dtype=np.int32)
    dist = np.empty((3, len(cell_of)), dtype=np.int32)
    for k in range(3):
        dist[k] = _relax(indptr, nbr, arc, unit, sources[:, k])
    unreached = dist == _far(dist.dtype)
    if unreached.any():
        k, u = np.argwhere(unreached)[0].tolist()
        raise ValueError("vertex %d of level-%d cell %d is unreachable from its "
                         "corner %d" % (vertex_of[u], n, cell_of[u], corners[cell_of[u], k]))
    # a V_n vertex is a corner of every cell it lies in, so it reads 0
    nearest_hops = np.zeros(nv_m, dtype=np.int32)
    nearest_hops[vertex_of] = dist.min(axis=0)
    return CellTrace(n, m, nv_n, corners, dist[:, sources].transpose(1, 0, 2), nearest_hops)


# -- shortest paths and min-cost flow over tuple adjacency -----------------


def internal_edges(g: MetricGraph) -> list:
    """(u, v, weight) per edge in the graph's internal units: ints over
    g.value_scale() when exact, floats otherwise."""
    den = g.value_scale()
    if den is None:
        return g.edges
    return [(u, v, int(w * den)) for u, v, w in g.edges]


def tuple_adjacency(g: MetricGraph) -> list:
    """Per-vertex lists of (neighbour, internal weight), in edge order."""
    adj = [[] for _ in range(g.vertex_count)]
    for u, v, w in internal_edges(g):
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def sssp(g: MetricGraph, sources) -> list:
    """Internal distances from the nearest of `sources`: deque BFS times
    the weight when every weight is one exact value, heap Dijkstra
    otherwise."""
    n = g.vertex_count
    adj = tuple_adjacency(g)
    weights = {w for _, _, w in internal_edges(g)}
    if g.exact and len(weights) == 1:
        w0 = weights.pop()
        dist = [-1] * n
        dq = deque()
        for s in sorted(sources):
            if dist[s] != 0:
                dist[s] = 0
                dq.append(s)
        while dq:
            u = dq.popleft()
            du = dist[u]
            for v, _ in adj[u]:
                if dist[v] < 0:
                    dist[v] = du + 1
                    dq.append(v)
        return [d * w0 for d in dist]

    dist = [float("inf")] * n
    heap = []
    for s in sorted(sources):
        dist[s] = 0
        heap.append((0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def nearest_sources(g: MetricGraph, sources) -> tuple[list[int], list]:
    """Position in `sources` of each vertex's nearest source (ties to the
    earliest) and the internal distance to it."""
    adj = tuple_adjacency(g)
    label = [None] * g.vertex_count
    heap = []
    for pos, s in enumerate(sources):
        if label[s] is None:
            label[s] = (0, pos)
            heap.append((0, pos, s))
    heapq.heapify(heap)
    while heap:
        d, pos, u = heapq.heappop(heap)
        if (d, pos) != label[u]:
            continue
        for v, w in adj[u]:
            cand = (d + w, pos)
            if label[v] is None or cand < label[v]:
                label[v] = cand
                heapq.heappush(heap, (d + w, pos, v))
    return [pos for _, pos in label], [d for d, _ in label]


def min_cost_flow(graph: MetricGraph, b, floor):
    """Uncapacitated min-cost flow on the graph's edges for imbalances b,
    over per-vertex (head, weight, arc) lists: successive shortest paths
    under reduced costs, from every vertex whose excess is above `floor`,
    edge e as arcs 2e and 2e+1. Returns (arc flows, potentials)."""
    edges = internal_edges(graph)
    n = graph.vertex_count
    arcs = [[] for _ in range(n)]
    for e, (u, v, w) in enumerate(edges):
        arcs[u].append((v, w, 2 * e))
        arcs[v].append((u, w, 2 * e + 1))
    active = [v for v, x in enumerate(b) if x]
    excess = list(b)
    flow = [0] * (2 * len(edges))
    phi = [0] * n
    pop, push = heapq.heappop, heapq.heappush
    guard = 4 * (len(active) + len(edges)) + 16
    for _ in range(guard):
        sources = [v for v in active if excess[v] > floor]
        if not sources or not any(excess[v] < -floor for v in active):
            return flow, phi
        dist = dict.fromkeys(sources, 0)
        heap = [(0, s) for s in sources]
        parent = {}
        done = {}
        t = None
        while heap:
            d, u = pop(heap)
            if u in done:
                continue
            done[u] = d
            if excess[u] < -floor:
                t = u
                break
            base = d + phi[u]
            for v, w, a in arcs[u]:
                if v in done:
                    continue
                nd = base + (-w if flow[a ^ 1] > 0 else w) - phi[v]
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = (u, a)
                    push(heap, (nd, v))
        if t is None:
            raise RuntimeError("no vertex with a deficit is reachable")
        d_t = done[t]
        for v, d in done.items():
            phi[v] += d - d_t
        path = []
        s = t
        while s in parent:
            s, a = parent[s]
            path.append(a)
        amount = min([excess[s], -excess[t]]
                     + [flow[a ^ 1] for a in path if flow[a ^ 1] > 0])
        for a in path:
            if flow[a ^ 1] > 0:
                flow[a ^ 1] -= amount
            else:
                flow[a] += amount
        excess[s] -= amount
        excess[t] += amount
    raise RuntimeError("min-cost flow failed to settle within %d augmentations" % guard)


def graph_transport(graph: MetricGraph, mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The Kantorovich distance by min_cost_flow on the whole graph: a
    Fraction when the graph and both measures are exact, with masses
    scaled by the lcm of their denominators, else a float with the 1e-12
    mass floor."""
    exact = graph.exact and mu.exact and nu.exact
    scale = (lcm(*(w.denominator for m in (mu, nu) for w in m.weights.values()))
             if exact else 1)
    b = [0] * graph.vertex_count
    for meas, sign in ((mu, 1), (nu, -1)):
        for v, w in meas.weights.items():
            b[v] += sign * (w.numerator * (scale // w.denominator) if exact else float(w))
    flow, _ = min_cost_flow(graph, b, 0 if exact else 1e-12)
    edges = internal_edges(graph)
    cost = sum(f * edges[a >> 1][2] for a, f in enumerate(flow) if f)
    unit = graph.value_scale() or 1
    return Fraction(cost, scale * unit) if exact else cost / unit


# -- exact dense simplex -------------------------------------------------


class Unbounded(Exception):
    pass


class Infeasible(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [e / piv for e in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            f = tableau[r][col]
            tableau[r] = [e - f * p for e, p in zip(tableau[r], tableau[row])]
    basis[row] = col


def _bland_solve(tableau, basis, n_cols):
    """Run simplex to optimality on a feasible tableau (last row = -z)."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        for r in range(len(tableau) - 1):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                key = (ratio, basis[r])
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            raise Unbounded("column %d has no blocking row" % col)
        _pivot(tableau, basis, best[1], col)


def maximize(c, a_ub, b_ub):
    """max c.x subject to a_ub.x <= b_ub, x >= 0, exactly.

    Returns (optimal value, solution list). Negative right-hand sides are
    handled by a phase-1 with artificial variables; raises Infeasible or
    Unbounded accordingly.
    """
    m = len(a_ub)
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in a_ub]
    b = [Fraction(v) for v in b_ub]
    if any(len(r) != n for r in rows):
        raise ValueError("constraint width does not match objective length")

    need_phase1 = any(v < 0 for v in b)
    n_art = sum(1 for v in b if v < 0) if need_phase1 else 0
    width = n + m + n_art + 1
    tableau = []
    basis = []
    art_cols = []
    next_art = n + m
    for i in range(m):
        row = [Fraction(0)] * width
        sign = -1 if b[i] < 0 else 1
        for j in range(n):
            row[j] = sign * rows[i][j]
        row[n + i] = Fraction(sign)
        row[-1] = sign * b[i]
        if sign < 0:
            row[next_art] = Fraction(1)
            art_cols.append(next_art)
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(n + i)
        tableau.append(row)

    if need_phase1:
        obj = [Fraction(0)] * width
        for col in art_cols:
            obj[col] = Fraction(1)
        tableau.append(obj)
        # price out the artificial basis
        for r, col in enumerate(basis):
            if col in art_cols:
                tableau[-1] = [e - t for e, t in zip(tableau[-1], tableau[r])]
        _bland_solve(tableau, basis, n + m + n_art)
        if tableau[-1][-1] != 0:
            raise Infeasible("phase-1 optimum is nonzero")
        tableau.pop()
        # drive any artificial variable out of the basis where possible;
        # a stuck one sits at value zero and never re-enters (the entering
        # scan below stops at column n + m)
        for r, col in enumerate(basis):
            if col in art_cols:
                piv_col = next((j for j in range(n + m)
                                if tableau[r][j] != 0), None)
                if piv_col is not None:
                    _pivot(tableau, basis, r, piv_col)

    obj = [Fraction(0)] * width
    for j in range(n):
        obj[j] = -c[j]
    tableau.append(obj)
    for r, col in enumerate(basis):
        if col < n and tableau[-1][col] != 0:
            f = tableau[-1][col]
            tableau[-1] = [e - f * t for e, t in zip(tableau[-1], tableau[r])]
    _bland_solve(tableau, basis, n + m)

    x = [Fraction(0)] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = tableau[r][-1]
    return tableau[-1][-1], x


def max_difference_objective(n_vars, constraints, plus: int, minus: int):
    """max h[plus] - h[minus] over free h with h[a] - h[b] <= w constraints.

    Every free variable is split h = p - q with p,q >= 0, which keeps all
    right-hand sides nonnegative (weights are) and phase 1 unnecessary.
    Returns the exact optimum.
    """
    c = [Fraction(0)] * (2 * n_vars)
    c[2 * plus] = Fraction(1)
    c[2 * plus + 1] = Fraction(-1)
    c[2 * minus] = Fraction(-1)
    c[2 * minus + 1] = Fraction(1)
    a = []
    b = []
    for u, v, w in constraints:
        if Fraction(w) < 0:
            raise ValueError("difference bound must be nonnegative")
        row = [Fraction(0)] * (2 * n_vars)
        row[2 * u] += 1
        row[2 * u + 1] -= 1
        row[2 * v] -= 1
        row[2 * v + 1] += 1
        a.append(row)
        b.append(Fraction(w))
    value, _ = maximize(c, a, b)
    return value


# -- harmonic curve lengths by exact per-curve subdivision ----------------

# curve kind offset (bottom, right, left) -> (start slot, end slot)
_KIND_SLOTS = ((0, 1), (1, 2), (2, 0))


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


def edge_polyline(depth: int, rule: SubdivisionRule) -> list[tuple[int, ...]]:
    """Integer triples over den^depth of the 2^depth + 1 dyadic points on
    the unit cell's bottom edge, from corner 0 to corner 1."""
    cells = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(depth):
        cells = _subdivide_along(cells, 0, 1, rule.adjacent, rule.opposite,
                                 rule.den)
    return [cells[0][0]] + [cell[1] for cell in cells]


@dataclass
class LengthEstimate:
    """One curve's quadrature, as harmonic_lengths reported it per curve
    before its result became columns."""

    curve_id: int
    level: int
    value: float  # inscribed polyline length, a lower bound
    depth: int  # absolute subdivision level of the polyline
    segments: int
    increments: list[float]
    converged: bool
    tol: float


def harmonic_curve_length(cx: PrefractalComplex, curve_id: int, tol: float,
                          cap: int, table: HarmonicTable) -> LengthEstimate:
    """Halve the curve's cells from the chord on until the increment is at
    most tol times the length or the absolute depth reaches cap."""
    level, tri_pos, kind_off = kappa_inverse(curve_id)
    rule = table.rule
    s, t = _KIND_SLOTS[kind_off]
    tri = cx.triangles[level][tri_pos].tolist()
    cells = [tuple(map(tuple, table.at_level(tri, level).tolist()))]

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


def from_triples(n_vertices: int, edges, **kwargs) -> MetricGraph:
    """MetricGraph from a list of (u, v, weight) triples."""
    return MetricGraph(n_vertices, [(u, v) for u, v, _ in edges],
                       [w for _, _, w in edges], **kwargs)


# -- extent on the coupled graph -----------------------------------------


def coupled_extent(n: int, m: int, alpha=None, samples_per_curve: int = 3,
                   cx: PrefractalComplex | None = None, mixture_trials: int = 5,
                   seed: int = 0) -> ExtentReport:
    """certify_extent over CoupledGraph.from_gasket(cx, n, m, alpha)."""
    if m < n:
        raise ValueError("need m >= n, got n=%d m=%d" % (n, m))
    if cx is None:
        cx = build_gasket(m)
    rep = gh_upper_bound(gasket_cell_trace(cx, n, m), samples_per_curve)
    eps_sample = rep.haus_vertices_to_sample + rep.sampling_slack
    eps_vertex = rep.haus_vn_in_vm + rep.tail
    _require_premises(n, m, eps_sample, eps_vertex)
    epsilon = max(eps_sample, eps_vertex)
    eps_apriori = Fraction(1, 2**n) + Fraction(1, 2**m)
    if alpha is None:
        alpha = epsilon / 4
    alpha = Fraction(alpha)

    cg = CoupledGraph.from_gasket(cx, n, m, alpha)
    g = cg.graph
    # one run from copy B gives each copy-A vertex its distance to B and its
    # nearest B vertex (ties to the lowest index), where mixture atoms move
    nearest_b, to_b = nearest_sources(g, range(cg.n_a, cg.n_a + cg.n_b))
    to_a = g.multi_source(range(cg.n_a))
    worst_a = max(Fraction(g._value(d)) for d in to_b[:cg.n_a])
    worst_b = max(Fraction(d) for d in to_a[cg.n_a:])

    rng = random.Random(seed)
    mixture_max = Fraction(0)
    for _ in range(mixture_trials):
        mu = DiscreteMeasure.random_mixture(rng, range(cg.n_a), min(4, cg.n_a))
        targets = [(cg.b_node(nearest_b[a]), w) for a, w in mu.weights.items()]
        val = Fraction(kantorovich(g, mu, DiscreteMeasure(targets)).value)
        mixture_max = max(mixture_max, val)

    return ExtentReport(
        n=n, m=m, alpha=alpha, epsilon=epsilon, epsilon_sample=eps_sample,
        epsilon_vertex=eps_vertex, epsilon_apriori=eps_apriori,
        samples_per_curve=samples_per_curve, worst_a_to_b=worst_a,
        worst_b_to_a=worst_b, empirical_max=max(worst_a, worst_b),
        per_dirac_bound=alpha + epsilon, bound=2 * alpha + epsilon,
        bound_apriori=2 * alpha + eps_apriori, mixture_trials=mixture_trials,
        mixture_max=mixture_max, exact=True)


# -- plan costs from distance rows ----------------------------------------


def pairwise_support_block(space, nodes) -> tuple[list[list[int]], int]:
    """The distances among `nodes` of a GasketSpace, ints over its scale,
    and the scale, pair by pair."""
    points = []
    for v in nodes:
        if not 0 <= v < space.vertex_count:
            raise ValueError("vertex %d is not in V_%d" % (v, space.level))
        word, p = vertex_word(v)
        unit = space.scale >> len(word) + 1
        tables = [[h * unit for h in _V1_HOPS[p]]]
        for r in reversed(word):
            unit *= 2
            delta, hops = tables[-1], [_V1_HOPS[c] for c in V0_IMAGES[r]]
            tables.append([min(delta[j] + hops[j][q] * unit for j in range(3))
                           for q in range(6)])
        points.append((word, tables[::-1]))
    block = [[0] * len(points) for _ in points]
    for a, (word_a, tables_a) in enumerate(points):
        for c, (word_c, tables_c) in enumerate(points[:a]):
            k = next((k for k, (x, y) in enumerate(zip(word_a, word_c)) if x != y),
                     min(len(word_a), len(word_c)))
            block[a][c] = block[c][a] = min(map(int.__add__, tables_a[k], tables_c[k]))
    return block, space.scale


def row_certificate(space, result) -> dict:
    """{(s, t): d(s, t)} over the moved entries of a kantorovich result.

    One distance row per moved source (the entries are sorted by source,
    so one row is held at a time); raises RuntimeError when the plan
    cost, mass times distance summed, disagrees with the result's value.
    """
    if isinstance(space, MetricGraph):
        distance_row = space.single_source
    else:
        def distance_row(u):
            return [space.distance(u, v) for v in range(len(space))]
    dist, plan_cost, row_source, row = {}, 0, None, None
    for u, v, m in result.plan:
        if u != v:
            if u != row_source:
                row_source, row = u, distance_row(u)
            dist[u, v] = row[v]
            plan_cost += m * row[v]
    if abs(plan_cost - result.value) > (0 if result.exact else 1e-9):
        raise RuntimeError("plan cost %s disagrees with flow cost %s"
                           % (plan_cost, result.value))
    return dist


# -- evolved projection defects and rational mode counts -------------------


def covariant_reach_oracle(n: int, epsilon: float, trials: int,
                           seed: int = 0, t_grid_size: int = 41) -> ReachReport:
    """The reach witness with both vectors evolved at every grid time."""
    tail_ok = n >= tail_level_for(epsilon)  # validates epsilon
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    t_grid = [(-1.0 / epsilon) + (2.0 / epsilon) * i / (t_grid_size - 1)
              for i in range(t_grid_size)]
    max_reach = 0.0
    max_gap = 0.0
    for _ in range(trials):
        xi = random_mode_vector(rng)
        eta = project(xi, n)
        static = (xi - eta).norm()
        sup = max((evolve(xi, t) - evolve(eta, t)).norm() for t in t_grid)
        max_reach = max(max_reach, sup)
        max_gap = max(max_gap, abs(sup - static))
    return ReachReport(n, epsilon, trials, t_grid_size, max_reach, max_gap,
                       tail_ok, max_reach < epsilon)


def bucket_enumeration(spec, cutoff) -> tuple[list[float], list[int]]:
    """(values, multiplicities): the distinct positive magnitudes up to a
    cutoff, ascending, each with the combined weight of +v and -v."""
    buckets = {}
    for lam, mult, count in spec.entries_for(cutoff):
        for k in range(count // 2):
            v = math.pi * (k + 0.5) / float(lam)
            buckets[v] = buckets.get(v, 0) + 2 * mult
    values = sorted(buckets)
    return values, [buckets[v] for v in values]


def signed(values, multiplicities) -> list[float]:
    """Full symmetric spectrum, one entry per eigenvalue with multiplicity."""
    pos = [v for v, m in zip(values, multiplicities) for _ in range(m // 2)]
    return [-v for v in reversed(pos)] + pos


def fraction_mode_count(length, cutoff) -> int:
    """2*floor(c*L/pi + 1/2), both pi-bound floors taken of Fractions."""
    if not 0 <= cutoff < math.inf:
        raise ValueError("cutoff must be finite and nonnegative, got %s" % cutoff)
    lam = Fraction(length)
    cut = Fraction(cutoff)
    if lam <= 0:
        raise ValueError("curve length must be positive, got %s" % length)
    x2 = 2 * cut * lam
    n_lo = (x2 + PI_LOWER) / (2 * PI_UPPER)
    n_hi = (x2 + PI_UPPER) / (2 * PI_LOWER)
    f_lo = n_lo.numerator // n_lo.denominator
    f_hi = n_hi.numerator // n_hi.denominator
    if f_lo != f_hi:
        raise ValueError(
            "cutoff*length/pi is within the pi bracket of a half-integer; "
            "the mode count is not decidable at this precision"
        )
    return 2 * f_lo


def sampling_term(k: int) -> Fraction:
    """max of min(t, 1 - t) over the k sample parameters (2i+1)/(2k)."""
    return max(min(t, 1 - t) for t in sample_parameters(k))


# -- on-edge points --------------------------------------------------------


def _routes(g: MetricGraph, p) -> list:
    """(vertex, internal offset) pairs through which point p of the gasket
    graph g leaves: a vertex id is itself at 0, and (curve_id, t) is t of
    its curve from the first end and 1 - t from the second."""
    if isinstance(p, int):
        return [(p, 0)]
    curve_id, t = p
    level, tri, side = kappa_inverse(curve_id)
    if 3 ** (level + 1) != len(g.ends):
        raise ValueError("curve id %d is not an edge of this graph" % curve_id)
    if not 0 <= t <= 1:
        raise ValueError("edge parameter t=%s outside [0,1]" % t)
    e = 3 * tri + side
    u, v = g.ends[e].tolist()
    return [(u, t * g.weights[e]), (v, (1 - t) * g.weights[e])]


def point_distance(g: MetricGraph, rows, x, y) -> Fraction:
    """Geodesic distance between points x and y of the level graph g of a
    gasket (gasket_metric_graph): vertex ids, or (curve_id, t) at t in
    [0, 1] on one of g's own curves. rows[u] is vertex u's internal row
    (g.internal_rows). Distinct curves meet only at vertices, so a point
    leaves its curve through an end: the distance is the shortest route
    through the two points' ends, or the arc between them on a shared
    curve, whose length is the sum of a point's two offsets."""
    rx, ry = _routes(g, x), _routes(g, y)
    best = min(a + rows[u][v] + b for u, a in rx for v, b in ry)
    if len(rx) == len(ry) == 2 and x[0] == y[0]:
        best = min(best, abs(x[1] - y[1]) * (rx[0][1] + rx[1][1]))
    return Fraction(best) / g.value_scale()


def sampled_space(cx: PrefractalComplex, level: int, k: int, extra=()):
    """The level's vertices, the k samples (2i+1)/(2k) on each of its
    curves, then each extra point not yet listed, as (points,
    FiniteMetricSpace) with exact point_distance entries."""
    g = gasket_metric_graph(cx, level)
    rows = g.internal_rows(range(g.vertex_count))
    points = list(range(g.vertex_count))
    points += [(c, t) for c in range(kappa(level, 0), kappa(level + 1, 0))
               for t in sample_parameters(k)]
    points += [p for p in dict.fromkeys(extra) if p not in points]
    matrix = [[Fraction(0)] * len(points) for _ in points]
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            matrix[i][j] = matrix[j][i] = point_distance(g, rows, x, points[j])
    return points, FiniteMetricSpace(points, matrix)


def space_to_dict(space: FiniteMetricSpace) -> dict:
    """The document FiniteMetricSpace.from_dict reads: dyadic entries as
    [numerator, exponent] pairs, other fractions as "p/q", floats as
    numbers."""
    def encode(e):
        if isinstance(e, float):
            return e
        pair = dyadic_to_pair(e)
        return pair if pair is not None else "%d/%d" % (e.numerator, e.denominator)

    n = len(space)
    return {"labels": space.labels,
            "d": [[encode(space.distance(i, j)) for j in range(n)] for i in range(n)]}


def gasket_svg_text(cx: PrefractalComplex, level: int | None = None, coords=None,
                    size: int = 720, margin: int = 24, stroke: str = PALETTE[0]) -> str:
    """Draw the level triangles as outlined polygons.

    coords overrides the vertex positions (one (x, y) per vertex id),
    which is how harmonic embeddings get rendered; the default is the
    Euclidean picture. y is flipped into screen orientation.
    """
    if level is None:
        level = cx.max_level
    tris = cx.triangles[level].tolist()
    if coords is None:
        coords = cx.euclidean().tolist()
    used = sorted({i for t in tris for i in t})
    xs = [coords[i][0] for i in used]
    ys = [coords[i][1] for i in used]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    scale = (size - 2 * margin) / span
    x0, y1 = min(xs), max(ys)

    def place(i):
        x, y = coords[i]
        return (margin + (x - x0) * scale, margin + (y1 - y) * scale)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (size, size, size, size),
        '<rect width="%d" height="%d" fill="white"/>' % (size, size),
    ]
    for t in tris:
        pts = " ".join("%s,%s" % (_f(px), _f(py))
                       for px, py in (place(i) for i in t))
        lines.append('<polygon points="%s" fill="none" stroke="%s" '
                     'stroke-width="0.8"/>' % (pts, stroke))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
