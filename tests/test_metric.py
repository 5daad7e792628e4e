"""Geodesics on the prefractal graphs, Hausdorff distances, bound chain.

Core claims:
    - exact integer Dijkstra agrees with a Floyd-Warshall oracle in Fractions;
    - distances across refinement levels agree exactly on shared vertices;
    - the on-edge point oracle routes correctly, including the same-curve
      direct arc, and its geodesics give the bound chain's sampling term;
    - Haus(V_n, V_{n+1}) = 2^-(n+1) exactly, and the certified bound chain
      stays below the coarse 2^(1-n) + 2^-m budget;
    - the geodesic oracle of curves.GasketSpace, read from vertex ids,
      equals breadth-first hops on the level graph, and its block, read
      pair by pair at each lowest common cell, equals the pairwise scan;
    - one generic cell per level (curves.cell_certificate) gives the
      corner hops, Hausdorff term and bound rows of the exhaustive cell
      trace (oracles.gasket_cell_traces) for every 0 <= n <= m <= 12.
"""

import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import (bfs_cell_trace, from_triples, gasket_cell_trace, gasket_cell_traces,
                     hop_block, hop_block_agreement, nearest_sources,
                     pairwise_support_block, point_distance, sampled_space, sampling_term,
                     space_to_dict, sssp)
from prefractal import curves, metric
from prefractal.cli import main
from prefractal.curves import (CellCertificate, GasketSpace, cell_certificate, gh_upper_bound,
                               kappa, sample_parameters, vertex_count, vertex_word)
from prefractal.gasket import build_gasket
from prefractal.metric import (
    AgreementReport,
    FiniteMetricSpace,
    MetricGraph,
    certify_vertex_agreement,
    gasket_metric_graph,
    hausdorff,
    hausdorff_vertex_sets,
)
from prefractal.transport import certify_extent

CX = build_gasket(6)


def _make_random_graph(rng, n=9):
    """Connected random graph with small rational weights."""
    edges = [(i, i + 1, Fraction(rng.randint(1, 8), rng.choice([1, 2, 4])))
             for i in range(n - 1)]
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, Fraction(rng.randint(1, 8), rng.choice([1, 3]))))
    return from_triples(n, edges)


def _floyd_warshall(n, edges):
    inf = Fraction(10**9)
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    for u, v, w in edges:
        w = Fraction(w)
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return d


class TestMetricGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="unreachable"):
            from_triples(4, [(0, 1, 1), (2, 3, 1)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            from_triples(2, [(0, 1, 0)])

    @pytest.mark.parametrize("bad, message", [
        (0, "must be positive, got 0"),
        (Fraction(-1, 4), "must be positive, got -1/4"),
        (float("inf"), "positive finite, got inf"),
        (float("nan"), "positive finite, got nan"),
        (-0.5, "positive finite, got -0.5"),
    ])
    def test_one_bad_weight_among_many_raises(self, bad, message):
        good = 0.25 if isinstance(bad, float) else Fraction(1, 4)
        edges = [(i, i + 1, good) for i in range(60)]
        edges[37] = (37, 38, bad)
        with pytest.raises(ValueError, match=message):
            from_triples(61, edges)

    @pytest.mark.parametrize("n, edges, message", [
        (3, [(0, 1, 1), (1, 3, 1)], "edge (1,3) references a vertex out of range"),
        (3, [(0, 1, 1), (-1, 2, 1)], "edge (-1,2) references a vertex out of range"),
        (2, [(0, 1, 0)], "edge weights must be positive, got 0"),
        (2, [(0, 1, -0.5)], "edge weights must be positive finite, got -0.5"),
        (4, [(0, 1, 1), (2, 3, 1)],
         "graph is disconnected: vertex 2 is unreachable from vertex 0"),
    ])
    def test_rejection_messages(self, n, edges, message):
        with pytest.raises(ValueError) as exc:
            from_triples(n, edges)
        assert str(exc.value) == message

    def test_uniform_weight_past_int64_stays_exact(self):
        # the scaled weight 10**30 passes 2**63, so the kernel adds Python
        # ints and must equal the tuple-adjacency oracle
        w = Fraction(10**30, 3)
        g = from_triples(12, [(i, i + 1, w) for i in range(11)] + [(0, 6, w), (3, 11, w)])
        assert g.value_scale() == 3 and g.weights == [10**30] * 13
        for s in range(12):
            row = g.single_source(s)
            assert row == [g._value(d) for d in nearest_sources(g, [s])[1]]
            assert g._sssp([s]) == sssp(g, [s])
        assert g.single_source(0)[11] == 4 * w
        assert max(g._sssp([0])) == 5 * 10**30 > 2**63

    def test_equal_weights_from_distinct_objects_are_uniform(self):
        # weights are converted once per object; equal values still make
        # one uniform weight, and mixed int/Fraction share one denominator
        g = from_triples(4, [(0, 1, Fraction(1, 4)), (1, 2, Fraction(2, 8)),
                             (2, 3, Fraction(1, 4))])
        assert g.weights == [1, 1, 1]
        assert hop_block(g, [0], [3]).tolist() == [[3]]
        g = from_triples(3, [(0, 1, 1), (1, 2, Fraction(1, 3))])
        assert g.value_scale() == 3 and g.weights == [3, 1]
        assert g.edges == [(0, 1, Fraction(1)), (1, 2, Fraction(1, 3))]

    def test_dijkstra_matches_floyd_warshall(self):
        rng = random.Random(7321)
        for _ in range(25):
            g = _make_random_graph(rng)
            oracle = _floyd_warshall(g.vertex_count, g.edges)
            rows = [g.single_source(s) for s in range(g.vertex_count)]
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert rows[i][j] == oracle[i][j]

    def test_uniform_weights_use_same_values(self):
        # one exact weight and two distinct weights run the same kernel
        g_bfs = from_triples(5, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
                                 (2, 3, Fraction(1, 2)), (3, 4, Fraction(1, 2)),
                                 (0, 4, Fraction(1, 2))])
        g_heap = from_triples(5, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2)),
                                  (2, 3, Fraction(1, 2)), (3, 4, Fraction(1, 2)),
                                  (0, 4, Fraction(1, 4))])
        assert g_bfs.single_source(0)[3] == 1
        assert g_heap.single_source(0)[3] == Fraction(3, 4)

    def test_multi_source_is_min_over_sources(self):
        g = gasket_metric_graph(CX, 2)
        singles = [g.single_source(s) for s in (0, 1, 2)]
        multi = g.multi_source([0, 1, 2])
        for v in range(g.vertex_count):
            assert multi[v] == min(row[v] for row in singles)

    def test_hop_block_matches_bfs_on_gasket_levels(self):
        cx9 = build_gasket(9)
        for level in range(10):
            g = gasket_metric_graph(cx9, level)
            sources = list(range(vertex_count(min(level, 2))))
            hops = hop_block(g, sources, range(g.vertex_count))
            w0 = g.weights[0]
            for k, s in enumerate(sources):
                assert (hops[:, k] * w0).tolist() == g._sssp([s])

    def test_hop_block_matches_bfs_across_word_padding(self):
        # random trees (many degree-1 vertices) plus chords: irregular degrees
        rng = random.Random(9130)
        for count in (1, 63, 64, 65, 130):
            n = 160
            edges = [(i, rng.randrange(i), Fraction(3, 8)) for i in range(1, n)]
            edges += [(rng.randrange(n), rng.randrange(n), Fraction(3, 8))
                      for _ in range(12)]
            g = from_triples(n, [e for e in edges if e[0] != e[1]])
            sources = rng.sample(range(n), count)
            targets = rng.sample(range(n), 50)
            hops = hop_block(g, sources, targets)
            assert hops.shape == (len(targets), count)
            w0 = g.weights[0]
            for k, s in enumerate(sources):
                row = g._sssp([s])
                assert (hops[:, k] * w0).tolist() == [row[t] for t in targets]

    def test_hop_block_needs_uniform_exact_weights(self):
        g = from_triples(3, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 4))])
        with pytest.raises(ValueError, match="uniform"):
            hop_block(g, [0], [2])
        with pytest.raises(ValueError, match="uniform"):
            hop_block(from_triples(2, [(0, 1, 0.5)]), [0], [1])

    def test_float_weights_supported(self):
        g = from_triples(3, [(0, 1, 0.5), (1, 2, 0.25)])
        assert not g.exact
        assert g.single_source(0)[2] == 0.75


def _point_distance(level, x, y):
    """oracles.point_distance on the level graph of CX."""
    g = gasket_metric_graph(CX, level)
    return point_distance(g, g.internal_rows(range(g.vertex_count)), x, y)


class TestPointDistances:
    # the on-edge point oracle: (curve_id, t) points, hand-computed values
    def test_corner_to_bottom_midpoint_before_and_after_refining(self):
        # the shortcut through the inner vertex only exists at level >= 1
        g1 = gasket_metric_graph(CX, 1)
        assert _point_distance(0, 2, (0, Fraction(1, 2))) == Fraction(3, 2)
        mid_idx = 3  # (1/2, 0) is the first refinement vertex
        assert g1.single_source(2)[mid_idx] == 1

    def test_bottom_edge_midpoints(self):
        pa = (3, Fraction(1, 2))
        pb = (6, Fraction(1, 2))
        assert _point_distance(1, pa, pb) == Fraction(1, 2)

    def test_same_curve_direct_arc(self):
        # along the curve: (7/8 - 1/8) * 1/2 = 3/8; through its ends at
        # least 1/16 + 1/16 + the 1/2 between them
        a = (3, Fraction(1, 8))
        b = (3, Fraction(7, 8))
        assert _point_distance(1, a, b) == Fraction(3, 8)

    def test_endpoint_parameters_collapse_to_vertices(self):
        assert _point_distance(1, (3, Fraction(0)), 0) == 0

    def test_oracle_over_all_routings(self):
        # brute force: min over four endpoint routes plus same-curve arc
        g = gasket_metric_graph(CX, 2)
        rows = g.internal_rows(range(g.vertex_count))
        rng = random.Random(515)
        curves = range(kappa(2, 0), kappa(3, 0))
        lam = Fraction(1, 4)
        ends = CX.curve_ends(2)
        for _ in range(60):
            ca, cb = rng.choice(curves), rng.choice(curves)
            ta = Fraction(rng.randint(1, 15), 16)
            tb = Fraction(rng.randint(1, 15), 16)
            ua, va = ends[ca - kappa(2, 0)].tolist()
            ub, vb = ends[cb - kappa(2, 0)].tolist()
            cands = []
            for ea, wa in ((ua, ta * lam), (va, (1 - ta) * lam)):
                row = g.single_source(ea)
                for eb, wb in ((ub, tb * lam), (vb, (1 - tb) * lam)):
                    cands.append(wa + Fraction(row[eb]) + wb)
            if ca == cb:
                cands.append(abs(ta - tb) * lam)
            assert point_distance(g, rows, (ca, ta), (cb, tb)) == min(cands)

    def test_rejects_coarse_curve_point(self):
        with pytest.raises(ValueError, match="not an edge of this graph"):
            _point_distance(1, 0, (0, Fraction(1, 2)))

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError, match="outside"):
            _point_distance(1, 0, (3, Fraction(3, 2)))


class TestFiniteMetricSpace:
    def test_from_graph_matches_rows(self):
        g = gasket_metric_graph(CX, 1)
        fm = FiniteMetricSpace.from_graph(g)
        rows = [g.single_source(s) for s in range(g.vertex_count)]
        for i in range(len(fm)):
            for j in range(len(fm)):
                assert fm.distance(i, j) == rows[i][j]

    def test_validation_catches_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            FiniteMetricSpace([0, 1], [[0, 1], [2, 0]])

    def test_validation_catches_triangle_violation(self):
        m = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(ValueError, match="triangle"):
            FiniteMetricSpace([0, 1, 2], m)

    def test_every_triangle_checked_up_to_level_six_sizes(self):
        # one violated pair of ordered triples among 8M, which a sample of
        # triples would miss
        n = 200
        m = [[Fraction(2, 3) if i != j else 0 for j in range(n)] for i in range(n)]
        m[0][1] = m[1][0] = Fraction(1)
        m[0][2] = m[2][0] = m[1][2] = m[2][1] = Fraction(1, 3)
        with pytest.raises(ValueError, match=re.escape("d(0,1) > d(0,2)+d(2,1)")):
            FiniteMetricSpace(range(n), m)
        m[0][1] = m[1][0] = Fraction(2, 3)
        assert FiniteMetricSpace(range(n), m).exact

    def test_every_triangle_checked_above_level_six_sizes(self):
        # 1,101 points: one violated pair among 1.3G ordered triples, which a
        # sample of triples would miss
        n = 1101
        m = [[2 if i != j else 0 for j in range(n)] for i in range(n)]
        m[0][1] = m[1][0] = 3
        m[0][2] = m[2][0] = m[1][2] = m[2][1] = 1
        with pytest.raises(ValueError, match=re.escape("d(0,1) > d(0,2)+d(2,1)")):
            FiniteMetricSpace(range(n), m)

    def test_roundtrip_exact_entries(self):
        g = gasket_metric_graph(CX, 2)
        fm = FiniteMetricSpace.from_graph(g, vertex_ids=range(6))
        back = FiniteMetricSpace.from_dict(space_to_dict(fm))
        # from_graph keeps the graph's denominator, from_dict the lcm of
        # the entries', so compare values
        assert all(back.distance(i, j) == fm.distance(i, j)
                   for i in range(6) for j in range(6))
        assert back.exact


    def test_first_failure_is_the_first_bad_pair(self):
        # row-major over pairs i <= j; at a pair the diagonal, then the
        # asymmetry, then a nonpositive distance
        with pytest.raises(ValueError, match=re.escape("asymmetry at (0,1)")):
            FiniteMetricSpace(range(3), [[0, 1, 2], [2, 0, 1], [2, 1, 5]])
        with pytest.raises(ValueError, match=re.escape(
                "distinct points 0,2 at nonpositive distance 0")):
            FiniteMetricSpace(range(3), [[0, 1, 0], [1, 0, 1], [0, 2, 0]])

    @pytest.mark.parametrize("kind", ["exact", "float", "wide"])
    def test_from_graph_holds_the_graph_block(self, kind):
        weight = {"exact": lambda k: Fraction(k, 4), "float": lambda k: k / 7,
                  "wide": lambda k: Fraction(2**61 + k, 3)}[kind]
        rng = random.Random(17)
        edges = [(i, rng.randrange(i), weight(rng.randint(1, 9))) for i in range(1, 9)]
        edges += [(0, 8, weight(3)), (2, 5, weight(1))]
        g = from_triples(9, edges)
        ids = [4, 0, 7, 2, 8]
        fm = FiniteMetricSpace.from_graph(g, vertex_ids=ids)
        block, den = g.support_block(ids)
        if kind == "float":
            # this graph's rows round some pairs differently from each end
            assert block != np.array(block).T.tolist()
            block = np.minimum(block, np.array(block).T).tolist()
        assert fm.den == den and fm.labels == ids
        assert fm.block.dtype == (object if kind == "wide" else
                                  np.int64 if kind == "exact" else np.float64)
        assert fm.support_block(range(5)) == (block, den)

    def test_from_graph_refuses_repeated_or_missing_vertices(self):
        g = gasket_metric_graph(CX, 1)
        for ids in ([0, 1, 1], [0, 6], [-1, 2]):
            with pytest.raises(ValueError, match="distinct vertices"):
                FiniteMetricSpace.from_graph(g, vertex_ids=ids)

    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_from_graph_on_harmonic_graphs(self, level):
        # the two float rows of a pair sum one path in different orders;
        # the snapshot keeps the smaller rounding, within 1e-12 of both
        from prefractal.harmonic import build_harmonic_gasket
        from prefractal.transport import DiscreteMeasure, kantorovich

        g = build_harmonic_gasket(level).metric_graph()
        fm = FiniteMetricSpace.from_graph(g)
        assert not fm.exact
        for i in range(0, len(fm), 7):
            row = g.single_source(i)
            assert max(abs(fm.distance(i, j) - row[j]) for j in range(len(fm))) <= 1e-12
        rng = random.Random(level)
        for _ in range(3):
            mu = DiscreteMeasure.random_mixture(rng, range(len(fm)), 3)
            nu = DiscreteMeasure.random_mixture(rng, range(len(fm)), 3)
            assert abs(kantorovich(fm, mu, nu).value - kantorovich(g, mu, nu).value) <= 1e-12

    def test_from_graph_peaks_at_sixteen_bytes_per_entry(self):
        g = gasket_metric_graph(CX, 5)
        tracemalloc.start()
        try:
            fm = FiniteMetricSpace.from_graph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * len(fm) ** 2

    def test_from_dict_is_guarded_before_decoding(self):
        class Undecodable:
            def __float__(self):
                raise AssertionError("an entry was decoded")

        row = [Undecodable()] * 30_000
        with pytest.raises(ValueError, match=r"30000-point metric space document "
                                             r"needs about \d+ MiB"):
            FiniteMetricSpace.from_dict({"labels": list(range(30_000)), "d": [row] * 30_000})


class TestHausdorffAndBounds:
    def test_nested_vertex_sets(self):
        for n in range(5):
            g = gasket_metric_graph(CX, n + 1)
            h = hausdorff_vertex_sets(g, range(vertex_count(n)),
                                      range(vertex_count(n + 1)))
            assert h == Fraction(1, 2 ** (n + 1))

    def test_matrix_and_graph_hausdorff_agree(self):
        g = gasket_metric_graph(CX, 2)
        fm = FiniteMetricSpace.from_graph(g)
        a, b = range(6), range(15)
        assert Fraction(hausdorff(fm, a, b)) == Fraction(
            hausdorff_vertex_sets(g, a, b))

    def test_agreement_exact_zero(self):
        for n in range(3):
            g_n = gasket_metric_graph(CX, n)
            for m in range(n, 5):
                g_m = gasket_metric_graph(CX, m)
                rep = certify_vertex_agreement(n, m, g_n, g_m)
                assert isinstance(rep, AgreementReport)
                assert rep.exact
                assert rep.max_discrepancy == 0

    def test_agreement_across_separate_builds(self):
        # vertex keys do not depend on the level a complex was built to
        g_n = gasket_metric_graph(build_gasket(2), 2)
        g_m = gasket_metric_graph(build_gasket(5), 5)
        assert np.array_equal(g_n.vertex_keys, g_m.vertex_keys[: g_n.vertex_count])
        rep = certify_vertex_agreement(2, 5, g_n, g_m)
        assert rep.exact and rep.max_discrepancy == 0
        assert rep.vertices_compared == vertex_count(2)

    def test_agreement_hop_blocks_match_row_oracle(self):
        # uniform shortcuts between V_2 vertices make d_3 differ from d_2;
        # the row path and the hop-block oracle must report the value and
        # first pair of the brute-force comparison below
        g2 = gasket_metric_graph(CX, 2)
        g3 = gasket_metric_graph(CX, 3)
        w = Fraction(1, 8)
        for chords in ([(0, 1)], [(0, 1), (2, 14)], [(3, 9), (9, 12), (5, 7)]):
            g_m = from_triples(g3.vertex_count, g3.edges + [(u, v, w) for u, v in chords],
                               vertex_keys=g3.vertex_keys)
            rep = certify_vertex_agreement(2, 3, g2, g_m)
            assert hop_block_agreement(2, 3, g2, g_m) == rep
            rows_n = g2.internal_rows(range(15))
            rows_m = g_m.internal_rows(range(15))
            worst, pair = None, None
            for i in range(15):
                for j in range(i + 1, 15):
                    diff = abs(rows_n[i][j] * g_m._den - rows_m[i][j] * g2._den)
                    if worst is None or diff > worst:
                        worst, pair = diff, (i, j)
            assert rep.worst_pair == pair
            assert rep.max_discrepancy == Fraction(worst, g2._den * g_m._den) > 0

    def test_float_agreement_matches_the_pair_loop(self):
        # float weights on either graph: each distance over its graph's own
        # denominator as a float, and the first maximal pair in row order
        g2 = gasket_metric_graph(CX, 2)
        g3 = gasket_metric_graph(CX, 3)
        rng = random.Random(4417)

        def jitter(g):
            return from_triples(g.vertex_count, [(u, v, float(w) * rng.uniform(0.5, 1.5))
                                                 for u, v, w in g.edges],
                                vertex_keys=g.vertex_keys)

        for g_n, g_m in ((g2, jitter(g3)), (jitter(g2), g3), (jitter(g2), jitter(g3))):
            rep = certify_vertex_agreement(2, 3, g_n, g_m)
            dn, dm = float(g_n._den or 1), float(g_m._den or 1)
            rows_n = g_n.internal_rows(range(15))
            rows_m = g_m.internal_rows(range(15))
            worst, pair = None, None
            for i in range(15):
                for j in range(i + 1, 15):
                    diff = abs(float(rows_n[i][j]) / dn - float(rows_m[i][j]) / dm)
                    if worst is None or diff > worst:
                        worst, pair = diff, (i, j)
            assert not rep.exact and type(rep.max_discrepancy) is float
            assert (rep.max_discrepancy, rep.worst_pair) == (worst, pair)

    @pytest.mark.parametrize("max_level, m", [(3, 5), (4, 7)])
    def test_shared_fine_block_matches_standalone(self, max_level, m):
        # the oracle reads every V_n block from the top-left corner of the
        # V_max_level block; uniform chords on V_1 make d_m differ from d_n,
        # so a misread corner would change the value or the first worst
        # pair. On the gasket the cell certificate gives the same 0.
        cx = build_gasket(m)
        g_gasket = gasket_metric_graph(cx, m)
        w = g_gasket.edges[0][2]
        g_chords = from_triples(g_gasket.vertex_count,
                                g_gasket.edges + [(0, 4, w), (1, 5, w), (3, 2, w)],
                                vertex_keys=g_gasket.vertex_keys)
        top = range(vertex_count(max_level))
        for g_m in (g_gasket, g_chords):
            fine_hops = hop_block(g_m, top, top)
            for n in range(max_level + 1):
                g_n = gasket_metric_graph(cx, n)
                shared = hop_block_agreement(n, m, g_n, g_m, fine_hops=fine_hops)
                alone = hop_block_agreement(n, m, g_n, g_m)
                assert shared == alone
                if g_m is g_gasket:
                    assert alone.max_discrepancy == 0
                    assert cell_certificate(n, m).discrepancy() == alone.max_discrepancy
                elif n >= 1:
                    assert alone.max_discrepancy > 0

    def test_fine_block_must_be_square_and_cover_v_n(self):
        g2 = gasket_metric_graph(CX, 2)
        g4 = gasket_metric_graph(CX, 4)
        with pytest.raises(ValueError, match="square"):
            hop_block_agreement(2, 4, g2, g4,
                                fine_hops=hop_block(g4, range(15), range(20)))
        with pytest.raises(ValueError, match="square"):
            hop_block_agreement(2, 4, g2, g4, fine_hops=np.zeros(15, np.int64))
        with pytest.raises(ValueError, match="covers 6 vertices, V_2 has 15"):
            hop_block_agreement(2, 4, g2, g4,
                                fine_hops=hop_block(g4, range(6), range(6)))
        # also for V_n with fewer than two vertices
        g_one = from_triples(1, [], vertex_keys=g2.vertex_keys[:1])
        with pytest.raises(ValueError, match="covers 0 vertices"):
            hop_block_agreement(0, 4, g_one, g4, fine_hops=np.zeros((0, 0), np.int64))

    def test_fine_block_needs_the_hop_path(self):
        g1 = gasket_metric_graph(CX, 1)
        lengths = dict.fromkeys(range(kappa(1, 0), kappa(2, 0)), 0.5)
        g_float = gasket_metric_graph(CX, 1, harmonic_lengths=lengths)
        with pytest.raises(ValueError, match="uniform exact"):
            hop_block_agreement(1, 1, g1, g_float, fine_hops=np.zeros((6, 6), np.int64))

    def test_gh_table_builds_no_metric_graph(self, monkeypatch, capsys):
        # one generic cell certifies every row; no graph of any level is
        # built and no shortest-path run starts
        def refuse(*args, **kwargs):
            raise AssertionError("gh-table built a graph or ran a traversal")

        monkeypatch.setattr(MetricGraph, "__init__", refuse)
        monkeypatch.setattr(MetricGraph, "_sssp", refuse)
        assert main(["gh-table", "--max-level", "3", "--m", "5"]) == 0
        assert capsys.readouterr().out.count(",0.0\n") == 4

    def test_gh_table_and_extent_run_no_bfs(self, monkeypatch, capsys):
        # the rows come from one generic cell per level and extent's atoms
        # from vertex ids: no complex is built and no BFS is run
        def refuse(*args, **kwargs):
            raise AssertionError("ran a BFS or built a complex")

        monkeypatch.setattr(metric, "_relax", refuse)
        monkeypatch.setattr("prefractal.gasket.build_gasket", refuse)
        assert main(["gh-table"]) == 0
        assert capsys.readouterr().out.count(",0.0\n") == 7
        assert main(["extent", "--n", "4", "--m", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("4,8,")

    def test_cell_trace_matches_hop_block_oracle(self):
        cx9 = build_gasket(9)
        graphs = {level: gasket_metric_graph(cx9, level) for level in (*range(8), 9)}
        pairs = [(n, m) for m in range(8) for n in range(m + 1)] + [(6, 9)]
        for n, m in pairs:
            trace, cell = gasket_cell_trace(cx9, n, m), cell_certificate(n, m)
            rep = hop_block_agreement(n, m, graphs[n], graphs[m])
            assert rep.max_discrepancy == cell.discrepancy() == 0 and rep.worst_pair == (0, 1)
            assert gh_upper_bound(cell).haus_vn_in_vm == trace.hausdorff == hausdorff_vertex_sets(
                graphs[m], range(vertex_count(n)), range(vertex_count(m)))
            assert trace.hausdorff == (Fraction(1, 2 ** (n + 1)) if n < m else 0)

    def test_agreement_detects_mismatched_indexing(self):
        g1 = gasket_metric_graph(CX, 1)
        shuffled = from_triples(
            g1.vertex_count,
            [(v, u, w) for u, v, w in g1.edges],
            vertex_keys=list(reversed(g1.vertex_keys)),
        )
        with pytest.raises(ValueError, match="vertex-indexing mismatch"):
            certify_vertex_agreement(1, 1, g1, shuffled)

    def test_sample_parameters(self):
        assert sample_parameters(3) == [Fraction(1, 6), Fraction(1, 2),
                                        Fraction(5, 6)]
        assert sample_parameters(1) == [Fraction(1, 2)]

    def test_sampling_term_has_a_closed_form(self):
        cell = cell_certificate(0, 0)
        for k in range(1, 501):
            rep = gh_upper_bound(cell, k)
            assert rep.haus_vertices_to_sample == sampling_term(k)

    def test_sampling_term_is_the_geodesic_hausdorff_distance(self):
        # Haus_{d_n}(V_n, S_n) over the point oracle's geodesics, V_n
        # against every vertex and sample
        for n in range(3):
            cell = cell_certificate(n, n)
            for k in range(1, 6):
                points, space = sampled_space(CX, n, k)
                assert gh_upper_bound(cell, k).haus_vertices_to_sample == hausdorff(
                    space, range(vertex_count(n)), range(len(points)))

    def test_bound_chain_terms(self):
        rep = gh_upper_bound(cell_certificate(2, 6))
        assert Fraction(rep.haus_vertices_to_sample) == Fraction(1, 8)
        assert Fraction(rep.sampling_slack) == Fraction(1, 24)
        assert Fraction(rep.haus_vn_in_vm) == Fraction(1, 8)
        assert Fraction(rep.tail) == Fraction(1, 64)
        assert Fraction(rep.bound) == Fraction(17, 64)

    def test_bound_chain_reads_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bound chain built a graph")

        monkeypatch.setattr(MetricGraph, "__init__", refuse)
        for n in range(4):
            rep = gh_upper_bound(cell_certificate(n, 6), 4)
            # the worst sample sits at t = 3/8 or 5/8 of a 2^-n curve
            assert rep.haus_vertices_to_sample == Fraction(3, 8 * 2**n)

    def test_bound_below_coarse_budget(self):
        for n in range(4):
            rep = gh_upper_bound(cell_certificate(n, 6))
            assert Fraction(rep.bound) <= Fraction(2, 2**n) + Fraction(1, 2**6)
            assert Fraction(rep.bound_with_slack) == (
                Fraction(rep.bound) + Fraction(rep.sampling_slack))


def _cells(level_two_rows, vertices=15):
    """A complex through level 2 with the gasket's level-0 and level-1
    triangles and the given level-2 table; enough for gasket_cell_trace."""
    return SimpleNamespace(
        triangles=[CX.triangles[0], CX.triangles[1],
                   np.array(level_two_rows, dtype=np.int64)],
        level_vertex_counts=[3, 6, vertices])


# level-2 rows of the gasket: cells (0, 3, 4), (3, 1, 5) and (4, 5, 2) of
# three rows each
LEVEL_TWO = [[0, 6, 7], [6, 3, 8], [7, 8, 4], [3, 9, 10], [9, 1, 11],
             [10, 11, 5], [4, 12, 13], [12, 5, 14], [13, 14, 2]]


class TestCellTrace:
    def test_gasket_table_gives_uniform_corner_hops(self):
        trace = gasket_cell_trace(_cells(LEVEL_TWO), 1, 2)
        assert trace.corners.tolist() == [[0, 3, 4], [3, 1, 5], [4, 5, 2]]
        assert (trace.hops == 2 * (1 - np.eye(3, dtype=np.int64))).all()
        assert trace.hausdorff == Fraction(1, 4)

    def test_long_corner_path_falls_back_to_the_row_path(self):
        # cell (4, 5, 2) rebuilt as a path 4/5 - 12 - 14 - 2: corners 5 and
        # 2, and 4 and 2, are 3 hops apart instead of 2; 4 and 5 are 1 hop.
        # The graph of the cells' corner hops then differs from G_1, which
        # the row-by-row agreement names
        rows = LEVEL_TWO[:6] + [[4, 5, 12], [12, 13, 14], [14, 15, 2]]
        trace = gasket_cell_trace(_cells(rows, vertices=16), 1, 2)
        assert trace.hops[2].tolist() == [[0, 1, 3], [1, 0, 3], [3, 3, 0]]
        assert trace.haus_hops == 2  # vertex 13, two hops from 4, 5 or 2
        g_1 = from_triples(6, gasket_metric_graph(CX, 1).edges)
        quarter = Fraction(1, 4)
        h = from_triples(6, [(int(c[a]), int(c[b]), quarter * int(hops[a, b]))
                             for c, hops in zip(trace.corners, trace.hops)
                             for a, b in ((0, 1), (1, 2), (2, 0))])
        assert h.edges == [(0, 3, 2 * quarter), (3, 4, 2 * quarter), (4, 0, 2 * quarter),
                           (3, 1, 2 * quarter), (1, 5, 2 * quarter), (5, 3, 2 * quarter),
                           (4, 5, quarter), (5, 2, 3 * quarter), (2, 4, 3 * quarter)]
        rep = certify_vertex_agreement(1, 2, g_1, h)
        assert rep.max_discrepancy == quarter and rep.worst_pair == (0, 2)

    def test_extent_refuses_a_disagreeing_trace(self):
        # the same path cell puts V_1 vertices 0 and 2 a quarter further
        # apart at level 2 than at level 1, so the extent terms do not hold:
        # a certificate with its corner hops is refused, naming the level
        rows = LEVEL_TWO[:6] + [[4, 5, 12], [12, 13, 14], [14, 15, 2]]
        trace = gasket_cell_trace(_cells(rows, vertices=16), 1, 2)
        hops = trace.hops[2]
        cell = CellCertificate(1, 2, (int(hops[0, 1]), int(hops[1, 2]), int(hops[2, 0])),
                               trace.haus_hops)
        with pytest.raises(ValueError, match=re.escape(
                "d_2 and d_1 differ on V_1: the corners of a level-1 cell are [1, 3, 3] "
                "hops apart in G_2, not 2^1")):
            certify_extent(cell)

    def test_shared_vertex_outside_v_n_is_named(self):
        # row (3, 9, 10) of cell 1 takes vertex 8 from cell 0
        rows = [list(r) for r in LEVEL_TWO]
        rows[3] = [3, 8, 10]
        with pytest.raises(ValueError, match="vertex 8 is shared by level-1 cells "
                                             "0 and 1 but is not in V_1"):
            gasket_cell_trace(_cells(rows), 1, 2)

    def test_v_n_vertex_off_the_corners_is_named(self):
        rows = [list(r) for r in LEVEL_TWO]
        rows[2] = [7, 5, 4]
        with pytest.raises(ValueError, match=re.escape(
                "vertex 5 of V_1 lies in level-1 cell 0 but is not one of its "
                "corners [0, 3, 4]")):
            gasket_cell_trace(_cells(rows), 1, 2)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("row, message", [
        # V_2 is 0..14
        ([0, 6, 15], "names vertex 15, outside V_2 (0..14)"),
        ([-1, 6, 7], "names vertex -1, outside V_2 (0..14)"),
        # the seed's one-hop table needs three distinct corners
        ([0, 6, 6], "has fewer than three distinct vertices"),
    ])
    def test_bad_level_m_row_is_named(self, n, row, message):
        rows = [list(r) for r in LEVEL_TWO]
        rows[0] = row
        with pytest.raises(ValueError, match=re.escape("level-2 row 0 %s %s" % (row, message))):
            gasket_cell_trace(_cells(rows), n, 2)

    def test_bad_coarser_row_is_named_as_the_lift_passes_it(self):
        # level-1 cell 1 lists corner 3 twice, and its children swap vertex
        # 1 for 3, so levels (1, 2) hold; the (0, 1) step refuses the row
        cx = _cells(LEVEL_TWO[:4] + [[9, 3, 11]] + LEVEL_TWO[5:])
        cx.triangles[1] = np.array([[0, 3, 4], [3, 3, 5], [4, 5, 2]])
        assert gasket_cell_trace(cx, 1, 2).n == 1
        with pytest.raises(ValueError, match=re.escape(
                "level-1 row 1 [3, 3, 5] has fewer than three distinct vertices")):
            gasket_cell_trace(cx, 0, 2)


def _assert_same_trace(got, want):
    assert (got.n, got.m, got.coarse_vertices) == (want.n, want.m, want.coarse_vertices)
    for field in ("corners", "hops", "nearest_hops"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.hausdorff == want.hausdorff


# every n <= max_level <= m for m up to 9, then at m = 11 the top of
# gh-table's range and both ends of the levels a single trace can ask for
@pytest.mark.parametrize("max_levels, m", [(range(m + 1), m) for m in range(10)]
                         + [((8,), 11), ((0,), 11), ((11,), 11)],
                         ids=["m%d" % m for m in range(10)]
                         + ["max8-m11", "max0-m11", "max11-m11"])
def test_lifted_traces_match_the_bfs_oracle(max_levels, m):
    cx = build_gasket(m)
    bfs = {}
    for max_level in max_levels:
        traces = list(gasket_cell_traces(cx, max_level, m))
        assert [t.n for t in traces] == list(range(max_level, -1, -1))
        for trace in traces:
            if trace.n not in bfs:
                bfs[trace.n] = bfs_cell_trace(cx, trace.n, m)
            _assert_same_trace(trace, bfs[trace.n])
    _assert_same_trace(gasket_cell_trace(cx, max_level, m), bfs[max_level])


@pytest.mark.parametrize("m", range(13))
def test_certificate_rows_match_the_oracle_trace(m):
    # every 0 <= n <= m: the generic cell's corner hops are every corner
    # pair of every level-n cell of the exhaustive trace, and the bound
    # rows and the Hausdorff term are the trace's
    traces = list(gasket_cell_traces(build_gasket(m), m, m))
    assert [t.n for t in traces] == list(range(m, -1, -1))
    for trace in traces:
        cell = cell_certificate(trace.n, m)
        for pair, hops in zip(((0, 1), (1, 2), (2, 0)), cell.corner_hops):
            assert (trace.hops[:, pair[0], pair[1]] == hops).all()
        assert cell.haus_hops == trace.haus_hops
        assert cell.discrepancy() == 0
        for k in (1, 3, 4):
            assert gh_upper_bound(cell, k) == gh_upper_bound(trace, k)


class TestCellCertificate:
    def test_reads_the_sg1_kernel(self):
        # the SG_1 closure: corners 2 hops apart, V_1 at most 1 hop from V_0
        assert curves._V1_SIDES == (2, 2, 2) and curves._V1_REACH == 1
        assert cell_certificate(3, 3) == CellCertificate(3, 3, (1, 1, 1), 0)
        assert cell_certificate(3, 4) == CellCertificate(3, 4, (2, 2, 2), 1)
        assert cell_certificate(0, 9) == CellCertificate(0, 9, (512, 512, 512), 256)

    def test_a_broken_kernel_breaks_the_rows(self, monkeypatch):
        # the rows are read from _V1_HOPS, not written in: a wrong side
        # raises, naming the level, and a wrong reach moves the bound
        monkeypatch.setattr(curves, "_V1_REACH", 2)
        assert gh_upper_bound(cell_certificate(2, 6)).haus_vn_in_vm == Fraction(1, 4)
        monkeypatch.setattr(curves, "_V1_SIDES", (2, 3, 2))
        with pytest.raises(ValueError, match=re.escape(
                "d_6 and d_2 differ on V_2: the corners of a level-2 cell are [16, 24, 16] "
                "hops apart in G_6, not 2^4")):
            cell_certificate(2, 6).discrepancy()
        assert cell_certificate(2, 2).discrepancy() == 0  # one triangle, no kernel

    @pytest.mark.parametrize("n,m", [(-1, 3), (4, 3)])
    def test_refuses_levels_out_of_order(self, n, m):
        with pytest.raises(ValueError, match="need 0 <= n <= m, got n=%d m=%d" % (n, m)):
            cell_certificate(n, m)

    def test_past_any_level_a_complex_could_reach(self):
        # 2^(m-n) hops and a Hausdorff term of 2^-(n+1), exact at any m
        cell = cell_certificate(40, 1000)
        assert cell.corner_hops == (2**960,) * 3 and cell.discrepancy() == 0
        assert gh_upper_bound(cell).haus_vn_in_vm == Fraction(1, 2**41)


@pytest.mark.parametrize("block", [1, 5])
def test_closure_does_not_depend_on_the_block_size(block, monkeypatch):
    cx = build_gasket(7)
    default = list(gasket_cell_traces(cx, 7, 7))
    # every gasket cell has the same child tables, so also close random
    # ones, where a block that read another block's tables would show
    rng = np.random.default_rng(7)
    child_hops = rng.integers(1, 10, size=(3**6, 3, 3), dtype=np.int32)
    child_hops += child_hops.transpose(0, 2, 1)
    child_hops[:, range(3), range(3)] = 0
    closed = oracles._corner_closure(cx, 5, child_hops)
    monkeypatch.setattr(oracles, "_CLOSURE_BLOCK", block)
    blocked = list(gasket_cell_traces(cx, 7, 7))
    assert [t.n for t in blocked] == list(range(7, -1, -1))
    for trace, want in zip(blocked, default):
        _assert_same_trace(trace, want)
        _assert_same_trace(trace, bfs_cell_trace(cx, trace.n, 7))
    for got, want in zip(oracles._corner_closure(cx, 5, child_hops), closed):
        assert np.array_equal(got, want)


def test_trace_pass_peaks_below_its_share_per_triangle():
    # the closure holds one block's slot table, not 324 B per cell of the
    # level: a (6, 9) pass peaked at 156 B per level-9 triangle under
    # tracemalloc, 249 B with the whole level's table
    cx = build_gasket(9)
    list(gasket_cell_traces(cx, 6, 9))
    tracemalloc.start()
    try:
        for _ in gasket_cell_traces(cx, 6, 9):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * 3**9, peak


CX3 = build_gasket(3)


def _level_three(triangles=None, counts=None):
    """The gasket's tables through level 3 with the given levels replaced;
    gasket_cell_traces(cx, 2, 3) seeds its lift with the level-3 triangles
    and checks levels 2, 1 and 0 as it lifts, yielding from level 2."""
    tables = [np.array(t) for t in CX3.triangles]
    for level, rows in (triangles or {}).items():
        tables[level] = np.array(rows, dtype=np.int64)
    return SimpleNamespace(triangles=tables,
                           level_vertex_counts=counts or list(CX3.level_vertex_counts))


def _fresh_level_two(row, renames):
    """_level_three with vertices of level-2 row `row` and its level-3
    children renamed to fresh V_2 ids from 15 on; the level-3 midpoints
    move up to make room. Every level-2 cell stays intact: its corners are
    two level-3 steps apart."""
    fresh = len(renames)
    t2 = CX3.triangles[2].copy()
    t3 = np.where(CX3.triangles[3] >= 15, CX3.triangles[3] + fresh, CX3.triangles[3])
    for rows in (t2[row:row + 1], t3[3 * row:3 * row + 3]):
        for old, new in renames.items():
            rows[rows == old] = new
    cx = _level_three({2: t2, 3: t3}, counts=[3, 6, 15 + fresh, 42 + fresh])
    assert (gasket_cell_trace(cx, 2, 3).hops == 2 * (1 - np.eye(3, dtype=int))).all()
    return cx


def test_traces_through_a_path_cell_match_the_bfs_oracle():
    # level-2 cell 0, corners (0, 6, 7), rebuilt as the path 0/6 - 15 -
    # 17 - 7 with fresh vertex 42: corners 0 and 6 are 1 hop apart and 3
    # from 7, so the corner hops of the level-1 and level-0 cells above it
    # are no longer uniform either, and every level's pass reads them
    t3 = CX3.triangles[3].copy()
    t3[:3] = [[0, 6, 15], [15, 16, 17], [17, 42, 7]]
    cx = _level_three({3: t3}, counts=[3, 6, 15, 43])
    traces = list(gasket_cell_traces(cx, 2, 3))
    assert traces[0].hops[0].tolist() == [[0, 1, 3], [1, 0, 3], [3, 3, 0]]
    assert traces[2].hops[0].tolist() == [[0, 7, 9], [7, 0, 8], [9, 8, 0]]
    for trace in traces:
        _assert_same_trace(trace, bfs_cell_trace(cx, trace.n, 3))


def test_one_trace_peaks_below_its_share_per_triangle():
    # the top-down pass holds the closures' slot tables and one level's
    # reach: 99.7 B per level-10 triangle under tracemalloc, against 126.9
    # for the bottom-up slot lift it replaced
    cx = build_gasket(10)
    gasket_cell_trace(CX3, 0, 3)
    tracemalloc.start()
    try:
        gasket_cell_trace(cx, 0, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 110 * 3**10, peak


class TestLiftedPremises:
    def test_vertex_shared_by_two_cells_is_named(self):
        # level-2 rows 2 and 3, with their level-3 children, change places:
        # every level-2 cell is intact, but level-1 cell 0 now holds child
        # (3, 9, 10) and cell 1 holds (7, 8, 4), so midpoint 7 sits in both
        t2, t3 = CX3.triangles[2].copy(), CX3.triangles[3].copy()
        t2[[2, 3]] = t2[[3, 2]]
        t3[6:12] = np.concatenate([t3[9:12], t3[6:9]])
        cx = _level_three({2: t2, 3: t3})
        assert (gasket_cell_trace(cx, 2, 3).hops == 2 * (1 - np.eye(3, dtype=int))).all()
        with pytest.raises(ValueError, match="vertex 7 is shared by level-1 cells "
                                             "0 and 1 but is not in V_1"):
            list(gasket_cell_traces(cx, 2, 3))

    def test_v_n_child_corner_off_the_corners_is_named(self):
        # level-1 cell 0 lists corner 3 twice, so its child corner 4 is left over
        cx = _level_three({1: [[0, 3, 3], [3, 1, 5], [4, 5, 2]]})
        with pytest.raises(ValueError, match=re.escape(
                "vertex 4 of V_1 lies in level-1 cell 0 but is not one of its "
                "corners [0, 3, 3]")):
            list(gasket_cell_traces(cx, 2, 3))

    def test_corner_missing_from_the_children_is_named(self):
        # child (7, 8, 4) of level-1 cell 0 becomes (7, 8, 15): corner 4 is
        # no longer among the cell's child corners
        with pytest.raises(ValueError, match="corner 4 of level-1 cell 0 is not a "
                                             "V_1 vertex of its level-2 triangles"):
            list(gasket_cell_traces(_fresh_level_two(2, {4: 15}), 2, 3))
        # V_0 cut to two vertices: corner 2 of the level-0 cell is no V_0
        # vertex, while levels 1-3 keep their counts
        cx = _level_three(counts=[2, 6, 15, 42])
        traces = gasket_cell_traces(cx, 2, 3)
        assert [next(traces).n, next(traces).n] == [2, 1]
        with pytest.raises(ValueError, match="corner 2 of level-0 cell 0 is not a "
                                             "V_0 vertex of its level-1 triangles"):
            next(traces)

    def test_corners_left_unjoined_are_named(self):
        # child (6, 3, 8) of level-1 cell 0 becomes (15, 3, 16), which no
        # sibling touches
        cx = _fresh_level_two(1, {6: 15, 8: 16})
        with pytest.raises(ValueError, match="vertex 0 of level-1 cell 0 is "
                                             "unreachable from its corner 3"):
            list(gasket_cell_traces(cx, 2, 3))


# every forged-complex premise test, rerun with blocks of one and two
# cells, which split the failing level-1 cells; each checks its message
PREMISE_TESTS = [
    "TestCellTrace::test_shared_vertex_outside_v_n_is_named",
    "TestCellTrace::test_v_n_vertex_off_the_corners_is_named",
    "TestCellTrace::test_bad_coarser_row_is_named_as_the_lift_passes_it",
    "TestLiftedPremises::test_vertex_shared_by_two_cells_is_named",
    "TestLiftedPremises::test_v_n_child_corner_off_the_corners_is_named",
    "TestLiftedPremises::test_corner_missing_from_the_children_is_named",
    "TestLiftedPremises::test_corners_left_unjoined_are_named",
]


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize("case", PREMISE_TESTS)
def test_premise_messages_do_not_depend_on_the_block_size(case, block, monkeypatch):
    monkeypatch.setattr(oracles, "_CLOSURE_BLOCK", block)
    cls, name = case.split("::")
    getattr(globals()[cls](), name)()


def _vertex_id(word, p) -> int:
    """The vertex T_word(p), p in V_1 and off V_0 unless word is empty:
    the inverse of vertex_word."""
    counts = [3, 6]
    while len(counts) < len(word) + 2:
        counts.append(3 * counts[-1] - 3)
    for level, r in enumerate(reversed(word), 2):
        block = (counts[level] - counts[level - 1]) // 3
        p = counts[level - 1] + r * block + p - counts[level - 2]
    return p


class TestGasketSpace:
    """The id oracle against BFS hops on the whole level graph."""

    @pytest.mark.parametrize("level", range(7))
    def test_every_pair_is_the_bfs_hop_count(self, level):
        g = gasket_metric_graph(CX, level)
        nodes = range(g.vertex_count)
        block, scale = GasketSpace(level).support_block(nodes)
        assert scale == 2 ** max(level, 1)
        hops = hop_block(g, nodes, nodes)
        assert hops.shape == (len(nodes), len(nodes))
        # level 0 counts half hops, so its sides read 2
        assert (np.array(block) == hops * (scale >> level)).all()

    @pytest.mark.parametrize("level", [9, 11])
    def test_seeded_blocks_deep_down(self, level):
        g = gasket_metric_graph(build_gasket(level), level)
        nodes = random.Random(level).sample(range(g.vertex_count), 40)
        block, scale = GasketSpace(level).support_block(nodes)
        assert scale == 2**level
        assert block == hop_block(g, nodes, nodes).tolist()

    @pytest.mark.parametrize("level", range(13))
    def test_grouped_block_is_the_pairwise_block(self, level):
        space, rng, n = GasketSpace(level), random.Random(level), vertex_count(level)
        for k in (1, 2, min(n, rng.randint(3, 60)), min(n, 300)):
            nodes = rng.sample(range(n), k)
            assert space.support_block(nodes) == pairwise_support_block(space, nodes)

    @pytest.mark.parametrize("level", [1, 2, 7, 12])
    def test_block_with_all_of_v1(self, level):
        # the six V_1 vertices have empty words and meet everything at the top
        space, rng = GasketSpace(level), random.Random(level)
        nodes = [*range(6), *rng.sample(range(6, vertex_count(level)),
                                        min(40, vertex_count(level) - 6))]
        rng.shuffle(nodes)
        assert space.support_block(nodes) == pairwise_support_block(space, nodes)

    @pytest.mark.parametrize("level,prefix", [(8, [2, 0, 1, 1, 0]),
                                              (12, [1, 2, 2, 0, 2, 1, 0])])
    def test_block_packed_into_one_deep_cell(self, level, prefix):
        # T_prefix of every vertex of V_j off its corners, j = level - |prefix|:
        # the cell's vertices but its corners, so every pair meets at or
        # below the cell
        nodes = []
        for v in range(3, vertex_count(level - len(prefix))):
            word, p = vertex_word(v)
            nodes.append(_vertex_id(prefix + word, p))
            assert vertex_word(nodes[-1]) == (prefix + word, p)
        assert max(nodes) < vertex_count(level)
        space = GasketSpace(level)
        assert space.support_block(nodes) == pairwise_support_block(space, nodes)

    @pytest.mark.parametrize("m", range(9))
    def test_to_coarse_is_the_trace_nearest_hops(self, m):
        # d(v, V_n) from v's id, on every vertex of V_m and every n <= m
        space, cx = GasketSpace(m), build_gasket(m)
        unit = space.scale >> m
        for trace in gasket_cell_traces(cx, m, m):
            assert [space.to_coarse(v, trace.n) for v in range(space.vertex_count)] == [
                unit * int(h) for h in trace.nearest_hops]

    def test_refuses_what_is_not_in_v_n(self):
        with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
            GasketSpace(-1)
        with pytest.raises(ValueError, match="vertex 15 is not in V_1"):
            GasketSpace(1).support_block([0, 15])
