import math
import random
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from oracles import (Infeasible, Unbounded, from_triples, gasket_cell_trace,
                     gasket_cell_traces, max_difference_objective, maximize)
from prefractal import metric, transport
from prefractal.curves import GasketSpace, cell_certificate, gh_upper_bound, vertex_count
from prefractal.gasket import build_gasket
from prefractal.harmonic import build_harmonic_gasket
from prefractal.metric import FiniteMetricSpace, MetricGraph, gasket_metric_graph
from prefractal.transport import (CoupledGraph, DiscreteMeasure, _require_premises,
                                  certify_extent, kantorovich, lipschitz_seminorm,
                                  mcshane_extend)

CX = build_gasket(7)


def _random_metric(rng, k):
    """Random exact metric on k points via shortest-path closure."""
    mat = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            mat[i][j] = mat[j][i] = F(rng.randint(1, 9))
    for h in range(k):
        for i in range(k):
            for j in range(k):
                through = mat[i][h] + mat[h][j]
                if through < mat[i][j]:
                    mat[i][j] = through
    return FiniteMetricSpace(list(range(k)), mat)


def _random_graph(rng, n_max):
    k = rng.randint(2, n_max)
    edges = [(i, rng.randrange(i), F(rng.randint(1, 9))) for i in range(1, k)]
    for _ in range(rng.randint(0, k)):
        u, v = rng.sample(range(k), 2)
        edges.append((u, v, F(rng.randint(1, 9))))
    return from_triples(k, edges)


def _lp_transport(space, mu, nu):
    """Primal transport LP solved by the exact simplex, as an oracle."""
    nodes = sorted(set(mu.support) | set(nu.support))
    nn = len(nodes)
    c = [-F(space.distance(nodes[i], nodes[j]))
         for i in range(nn) for j in range(nn)]
    a, b = [], []
    for i in range(nn):
        row = [F(0)] * (nn * nn)
        for j in range(nn):
            row[i * nn + j] = F(1)
        a.append(row)
        b.append(F(mu.weight(nodes[i])))
        a.append([-x for x in row])
        b.append(-F(mu.weight(nodes[i])))
    for j in range(nn):
        col = [F(0)] * (nn * nn)
        for i in range(nn):
            col[i * nn + j] = F(1)
        a.append(col)
        b.append(F(nu.weight(nodes[j])))
        a.append([-x for x in col])
        b.append(-F(nu.weight(nodes[j])))
    value, _ = maximize(c, a, b)
    return -value


class TestExactLP:
    def test_known_optimum(self):
        value, x = maximize([3, 2], [[1, 1], [1, 3]], [4, 6])
        assert value == 12
        assert x == [4, 0]

    def test_negative_rhs_needs_phase_one(self):
        value, x = maximize([1], [[-1], [1]], [-2, 5])
        assert value == 5 and x == [5]
        value, x = maximize([-1], [[-1], [1]], [-2, 5])
        assert value == -2 and x == [2]

    def test_infeasible_and_unbounded(self):
        with pytest.raises(Infeasible):
            maximize([1], [[1], [-1]], [1, -3])
        with pytest.raises(Unbounded):
            maximize([1], [[-1]], [0])

    def test_degenerate_instance_terminates(self):
        # classic cycling example for non-Bland pivot rules
        value, _ = maximize(
            [F(3, 4), -150, F(1, 50), -6],
            [[F(1, 4), -60, F(-1, 25), 9],
             [F(1, 2), -90, F(-1, 50), 3],
             [0, 0, 1, 0]],
            [0, 0, 1])
        assert value == F(1, 20)

    def test_difference_constraints_follow_shortest_path(self):
        cons = [(0, 1, 3), (1, 0, 3), (1, 2, 4), (2, 1, 4)]
        assert max_difference_objective(3, cons, 0, 2) == 7
        cons += [(0, 2, 5), (2, 0, 5)]
        assert max_difference_objective(3, cons, 0, 2) == 5


class TestDiscreteMeasure:
    def test_dirac_and_uniform(self):
        d = DiscreteMeasure.dirac(4)
        assert d.support == [4] and d.weight(4) == 1 and d.exact
        u = DiscreteMeasure.uniform([0, 2, 5])
        assert u.weight(2) == F(1, 3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMeasure({0: F(3, 2), 1: F(-1, 2)})

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure({0: F(1, 2), 1: F(1, 3)})
        # floats get a 1e-12 budget, no more
        DiscreteMeasure({0: 0.5, 1: 0.5 + 1e-13})
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteMeasure({0: 0.5, 1: 0.5 + 1e-9})

    def test_duplicates_merge_and_zeros_drop(self):
        m = DiscreteMeasure([(3, F(1, 2)), (3, F(1, 4)), (1, F(1, 4)), (0, F(0))])
        assert m.support == [1, 3]
        assert m.weight(3) == F(3, 4)

    def test_random_mixture_is_exact_probability(self):
        rng = random.Random(77)
        for _ in range(20):
            m = DiscreteMeasure.random_mixture(rng, range(30), 4)
            assert m.exact and sum(m.weights.values()) == 1
            assert len(m) <= 4

    def test_random_mixture_samples_the_range_uncopied(self):
        # the draw that sampling list(range(|V_12|)) gives, pinned, made
        # without materialising the 797,163 ints
        size = vertex_count(12)
        tracemalloc.start()
        try:
            m = DiscreteMeasure.random_mixture(random.Random(12), range(size), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.weights == {282061: F(3, 17), 497623: F(6, 17), 554833: F(1, 17),
                             689409: F(7, 17)}
        assert peak < 1 << 20


class TestKantorovich:
    def test_split_mass_on_a_line(self):
        space = FiniteMetricSpace("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        mu = DiscreteMeasure({0: F(1, 2), 2: F(1, 2)})
        res = kantorovich(space, mu, DiscreteMeasure.dirac(1))
        assert res.value == 1 and res.gap == 0 and res.exact
        assert sorted(res.plan) == [(0, 1, F(1, 2)), (2, 1, F(1, 2))]

    def test_dirac_pairs_reproduce_the_metric(self):
        g = gasket_metric_graph(CX, 2)
        space = FiniteMetricSpace.from_graph(g)
        for x in range(0, len(space), 3):
            for y in range(x + 1, len(space), 2):
                res = kantorovich(space, DiscreteMeasure.dirac(x),
                                  DiscreteMeasure.dirac(y))
                assert res.value == space.distance(x, y)
                assert res.gap == 0

    def test_matches_exact_lp_oracle(self):
        rng = random.Random(4242)
        for _ in range(15):
            k = rng.randint(2, 5)
            space = _random_metric(rng, k)
            mu = DiscreteMeasure.random_mixture(rng, range(k), rng.randint(1, k))
            nu = DiscreteMeasure.random_mixture(rng, range(k), rng.randint(1, k))
            assert F(kantorovich(space, mu, nu).value) == _lp_transport(space, mu, nu)

    def test_symmetry_and_triangle(self):
        rng = random.Random(918)
        space = _random_metric(rng, 6)
        for _ in range(10):
            mu = DiscreteMeasure.random_mixture(rng, range(6), 3)
            nu = DiscreteMeasure.random_mixture(rng, range(6), 3)
            rho = DiscreteMeasure.random_mixture(rng, range(6), 3)
            d_mn = F(kantorovich(space, mu, nu).value)
            assert d_mn == F(kantorovich(space, nu, mu).value)
            d_mr = F(kantorovich(space, mu, rho).value)
            d_rn = F(kantorovich(space, rho, nu).value)
            assert d_mn <= d_mr + d_rn

    def test_identical_measures_cost_nothing(self):
        rng = random.Random(5)
        space = _random_metric(rng, 5)
        mu = DiscreteMeasure.random_mixture(rng, range(5), 4)
        res = kantorovich(space, mu, mu)
        assert res.value == 0
        assert all(i == j for i, j, _ in res.plan)

    def test_plan_marginals_and_cost_agree(self):
        rng = random.Random(321)
        space = _random_metric(rng, 6)
        mu = DiscreteMeasure.random_mixture(rng, range(6), 4)
        nu = DiscreteMeasure.random_mixture(rng, range(6), 4)
        res = kantorovich(space, mu, nu)
        row = {}
        col = {}
        cost = F(0)
        for i, j, m in res.plan:
            assert m > 0
            row[i] = row.get(i, F(0)) + m
            col[j] = col.get(j, F(0)) + m
            cost += F(m) * F(space.distance(i, j))
        assert row == mu.weights and col == nu.weights
        assert cost == res.value

    def test_dual_witness_certifies(self):
        rng = random.Random(222)
        space = _random_metric(rng, 7)
        mu = DiscreteMeasure.random_mixture(rng, range(7), 4)
        nu = DiscreteMeasure.random_mixture(rng, range(7), 4)
        res = kantorovich(space, mu, nu)
        pts = sorted(res.potentials)
        for a in pts:
            for b in pts:
                if a != b:
                    gap = F(res.potentials[a]) - F(res.potentials[b])
                    assert abs(gap) <= F(space.distance(a, b))
        paired = sum((F(mu.weight(p)) - F(nu.weight(p))) * F(res.potentials[p])
                     for p in pts)
        assert paired == res.value

    def test_support_out_of_range(self):
        space = FiniteMetricSpace("ab", [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="support index"):
            kantorovich(space, DiscreteMeasure.dirac(5), DiscreteMeasure.dirac(0))

    def test_float_mode_keeps_gap_small(self):
        g = gasket_metric_graph(CX, 3)
        space = FiniteMetricSpace.from_graph(g)
        mu = DiscreteMeasure({i: 1.0 / 30 for i in range(30)})
        nu = DiscreteMeasure({i: 1.0 / 30 for i in range(10, 40)})
        res = kantorovich(space, mu, nu)
        assert not res.exact
        assert abs(res.gap) <= 1e-9

    def test_large_rational_support_stays_exact(self):
        g = gasket_metric_graph(CX, 4)
        space = FiniteMetricSpace.from_graph(g)
        mu = DiscreteMeasure({i: F(1, 70) for i in range(70)})
        res = kantorovich(space, mu, DiscreteMeasure.dirac(0))
        assert res.exact and res.gap == 0

    def test_float_masses_on_level_five(self):
        # float masses leave residues below the 1e-12 floor; the flow
        # decomposition must ignore them exactly as the solver does
        rng = random.Random(801)
        space = FiniteMetricSpace.from_graph(gasket_metric_graph(CX, 5))

        def float_mixture():
            drawn = DiscreteMeasure.random_mixture(rng, range(len(space)), 4)
            return DiscreteMeasure({i: float(w) for i, w in drawn.weights.items()})

        mu, nu = float_mixture(), float_mixture()
        res = kantorovich(space, mu, nu)
        assert not res.exact and abs(res.gap) <= 1e-9
        for side, meas in ((0, mu), (1, nu)):
            for p in set(mu.support) | set(nu.support):
                moved = sum(m for *ends, m in res.plan if ends[side] == p)
                assert abs(moved - meas.weight(p)) <= 2e-12

    def test_graph_edges_match_support_union(self):
        # the whole-graph min-cost flow is the oracle for the solve on the
        # support block, whether the graph or its matrix gives the block
        g = gasket_metric_graph(CX, 3)
        space = FiniteMetricSpace.from_graph(g)
        rng = random.Random(2718)
        for _ in range(12):
            mu = DiscreteMeasure.random_mixture(rng, range(len(space)), rng.randint(1, 8))
            nu = DiscreteMeasure.random_mixture(rng, range(len(space)), rng.randint(1, 8))
            res = kantorovich(g, mu, nu)
            assert res.exact and res.gap == 0
            assert set(res.potentials) == set(mu.support) | set(nu.support)
            assert res == kantorovich(space, mu, nu)
            assert res.value == oracles.graph_transport(g, mu, nu)

    def test_edge_certificate_names_the_edge(self, monkeypatch):
        # every pair of the support union is an edge of its complete graph;
        # point 5 carries no net mass, so raising its potential keeps the gap
        solve = transport._transport

        def skewed(d, b, floor):
            flow, f = solve(d, b, floor)
            f[b.index(0)] += 1000
            return flow, f

        monkeypatch.setattr(transport, "_transport", skewed)
        mu = DiscreteMeasure({0: F(1, 2), 5: F(1, 2)})
        nu = DiscreteMeasure({1: F(1, 2), 5: F(1, 2)})
        with pytest.raises(RuntimeError, match=r"^potentials are not 1-Lipschitz on pair "
                                               r"\((0, 5|1, 5)\)$"):
            kantorovich(GasketSpace(2), mu, nu)

    @pytest.mark.parametrize("on_graph", [True, False])
    def test_entry_certificate_names_the_entry(self, on_graph, monkeypatch):
        # the potential of 7 raised by d(3, 7) = 1/2: the entry's potentials
        # then differ by 1, twice the distance it moves its mass
        solve = transport._transport

        def stretched(d, b, floor):
            flow, f = solve(d, b, floor)
            f[1] += d[0][1]
            return flow, f

        monkeypatch.setattr(transport, "_transport", stretched)
        g = gasket_metric_graph(CX, 2)
        space = g if on_graph else FiniteMetricSpace.from_graph(g)
        with pytest.raises(RuntimeError, match=r"^plan entry \(3, 7\) moves mass a "
                           r"distance 1/2, not the potential difference 1$"):
            kantorovich(space, DiscreteMeasure.dirac(3), DiscreteMeasure.dirac(7))

    def test_gap_certificate_names_the_gap(self, monkeypatch):
        # no entry moves, so none is loose, but the plan costs 0 against the
        # potentials' 1
        solve = transport._transport

        def idle(d, b, floor):
            return {}, solve(d, b, floor)[1]

        monkeypatch.setattr(transport, "_transport", idle)
        mu = DiscreteMeasure({0: F(1, 2), 1: F(1, 2)})
        with pytest.raises(RuntimeError, match=r"^duality gap -1 exceeds 0$"):
            kantorovich(GasketSpace(2), mu, DiscreteMeasure.dirac(2))

    def test_solve_on_the_gasket_runs_no_traversal(self, monkeypatch):
        g = gasket_metric_graph(CX, 5)
        rng = random.Random(55)
        mu, nu = (DiscreteMeasure.random_mixture(rng, range(g.vertex_count), 12)
                  for _ in range(2))
        want = kantorovich(FiniteMetricSpace.from_graph(g), mu, nu)

        def refuse(*args, **kwargs):
            raise AssertionError("ran a traversal")

        monkeypatch.setattr(MetricGraph, "_sssp", refuse)
        monkeypatch.setattr(metric, "_relax", refuse)
        res = kantorovich(GasketSpace(5), mu, nu)
        assert res.exact and res.gap == 0 and res == want
        assert len(res.plan) >= 12

    def test_json_round_shape(self):
        space = FiniteMetricSpace("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        res = kantorovich(space, DiscreteMeasure.dirac(0), DiscreteMeasure.dirac(2))
        d = res.to_dict()
        assert d["value"] == 2.0 and d["gap"] == 0.0 and d["exact"]
        assert d["plan"] == [[0, 2, 1.0]]
        assert all(len(entry) == 2 for entry in d["dual"])


def _reference_instances(rng, n):
    """Seeded (mu, nu) pairs on n >= 12 points: disjoint supports,
    overlapping ones, a point with equal mass in both (no net mass), and
    the first pair again with float masses."""
    disjoint = rng.sample(range(n), 12)
    mu, nu = (DiscreteMeasure.random_mixture(rng, half, 6)
              for half in (disjoint[:6], disjoint[6:]))
    pool = rng.sample(range(n), 8)
    overlap = [DiscreteMeasure.random_mixture(rng, pool, 5) for _ in range(2)]
    a, b, z = rng.sample(range(n), 3)
    zero_net = (DiscreteMeasure({a: F(1, 3), z: F(2, 3)}),
                DiscreteMeasure({b: F(1, 3), z: F(2, 3)}))
    floats = [DiscreteMeasure({i: float(w) for i, w in m.weights.items()}) for m in (mu, nu)]
    return [(mu, nu), tuple(overlap), zero_net, tuple(floats)]


class TestSnapshotsAreMetrics:
    # from_graph skips the axiom checks on a proof; rebuilding its block
    # through the constructor runs them all, the O(n^3) sweep included
    @staticmethod
    def _revalidate(space):
        rows = [[space.distance(i, j) for j in range(len(space))] for i in range(len(space))]
        FiniteMetricSpace(space.labels, rows)

    def test_gasket_snapshots(self):
        for level in range(5):
            self._revalidate(FiniteMetricSpace.from_graph(gasket_metric_graph(CX, level)))

    def test_random_graph_snapshots(self):
        rng = random.Random(4242)
        for _ in range(50):
            self._revalidate(FiniteMetricSpace.from_graph(_random_graph(rng, 12)))


class TestGasketTransport:
    """kantorovich on GasketSpace against min-cost flow on the whole graph."""

    @pytest.mark.parametrize("level", range(2, 8))
    def test_matches_the_whole_graph_reference(self, level):
        g = gasket_metric_graph(CX, level)
        rng = random.Random("reference %d" % level)
        instances = [pair for _ in range(3)
                     for pair in _reference_instances(rng, g.vertex_count)]
        for mu, nu in instances:
            res = kantorovich(GasketSpace(level), mu, nu)
            want = oracles.graph_transport(g, mu, nu)
            assert res.exact == mu.exact
            if res.exact:
                assert res.value == want and res.gap == 0
            else:
                assert math.isclose(res.value, want, rel_tol=1e-12)
                assert abs(res.gap) <= 1e-9

    def test_zero_net_point_stays_off_the_plan_but_gets_a_potential(self):
        mu = DiscreteMeasure({0: F(1, 2), 5: F(1, 2)})
        nu = DiscreteMeasure({1: F(1, 2), 5: F(1, 2)})
        res = kantorovich(GasketSpace(2), mu, nu)
        assert res.plan == [(5, 5, F(1, 2)), (0, 1, F(1, 2))]
        assert res.value == F(1, 2) and sorted(res.potentials) == [0, 1, 5]


class TestLipschitzAndMcShane:
    def test_indicator_seminorm(self):
        g = gasket_metric_graph(CX, 1)
        space = FiniteMetricSpace.from_graph(g)
        f = [1 if i == 0 else 0 for i in range(len(space))]
        assert F(lipschitz_seminorm(space, f)) == 2

    def test_extension_agrees_and_stays_within_bound(self):
        g = gasket_metric_graph(CX, 2)
        space = FiniteMetricSpace.from_graph(g)
        subset = [0, 1, 2, 7]
        vals = [F(0), F(1, 2), F(1, 3), F(1, 4)]
        ext = mcshane_extend(space, subset, vals, F(1))
        assert [ext[i] for i in subset] == vals
        assert F(lipschitz_seminorm(space, ext)) <= 1

    def test_rejects_steep_data_naming_the_pair(self):
        g = gasket_metric_graph(CX, 1)
        space = FiniteMetricSpace.from_graph(g)
        with pytest.raises(ValueError, match="not 1-Lipschitz"):
            mcshane_extend(space, [0, 1], [F(0), F(10)], F(1))

    def test_restrictions_stay_lipschitz(self):
        # extend random coarse data to the fine scale, restrict back to the
        # coarse vertex set: the seminorm there never grows past the bound
        rng = random.Random(1414)
        g4 = gasket_metric_graph(CX, 4)
        sp4 = FiniteMetricSpace.from_graph(g4)
        g2 = gasket_metric_graph(CX, 2)
        sp2 = FiniteMetricSpace.from_graph(g2)
        for _ in range(10):
            anchors = rng.sample(range(len(sp4)), 3)
            data = [F(rng.randint(-4, 4), 8) for _ in anchors]
            L = max(F(lipschitz_seminorm(sp4, data, anchors)), F(1))
            fine = mcshane_extend(sp4, anchors, data, L)
            coarse = [fine[i] for i in range(len(sp2))]
            assert F(lipschitz_seminorm(sp2, coarse)) <= L


class TestCoupledGraph:
    def test_shared_vertex_crossing_costs_alpha(self):
        alpha = F(1, 16)
        cg = CoupledGraph.from_gasket(CX, 1, 3, alpha)
        for v in range(6):
            assert cg.distance(("a", v), ("b", v)) == alpha

    def test_within_copy_matches_each_scale(self):
        cg = CoupledGraph.from_gasket(CX, 1, 3, F(1, 16))
        g3 = gasket_metric_graph(CX, 3)
        g1 = gasket_metric_graph(CX, 1)
        assert cg.distance(("a", 0), ("a", 11)) == g3.single_source(0)[11]
        assert cg.distance(("b", 0), ("b", 5)) == g1.single_source(0)[5]

    def test_monotone_in_alpha_with_floor(self):
        prev = None
        for alpha in [F(1, 64), F(1, 16), F(1, 4), F(1, 2)]:
            cg = CoupledGraph.from_gasket(CX, 1, 3, alpha)
            d = cg.distance(("a", 7), ("b", 2))
            assert d >= alpha
            if prev is not None:
                assert d >= prev
            prev = d

    def test_invalid_couplings_rejected(self):
        with pytest.raises(ValueError, match="must be at least"):
            CoupledGraph.from_gasket(CX, 3, 1, F(1, 4))
        with pytest.raises(ValueError, match="positive"):
            CoupledGraph.from_gasket(CX, 1, 2, 0)
        g = gasket_metric_graph(CX, 1)
        with pytest.raises(ValueError, match="shared"):
            CoupledGraph(g, g, [], F(1, 4))

    def test_tunnel_equals_difference_constraint_lp(self):
        rng = random.Random(606)
        for _ in range(10):
            ga = _random_graph(rng, 8)
            gb = _random_graph(rng, 8)
            ns = rng.randint(1, min(ga.vertex_count, gb.vertex_count))
            shared = list(zip(rng.sample(range(ga.vertex_count), ns),
                              rng.sample(range(gb.vertex_count), ns)))
            alpha = F(rng.randint(1, 9))
            cg = CoupledGraph(ga, gb, shared, alpha)
            cons = []
            for u, v, w in ga.edges:
                cons += [(u, v, w), (v, u, w)]
            off = ga.vertex_count
            for u, v, w in gb.edges:
                cons += [(off + u, off + v, w), (off + v, off + u, w)]
            for ai, bi in shared:
                cons += [(ai, off + bi, alpha), (off + bi, ai, alpha)]
            x = rng.randrange(ga.vertex_count)
            y = rng.randrange(gb.vertex_count)
            got = F(cg.distance(("a", x), ("b", y)))
            assert got == max_difference_objective(off + gb.vertex_count,
                                                   cons, x, off + y)


class TestExtentCertificate:
    def test_frozen_three_seven_row(self):
        rep = certify_extent(cell_certificate(3, 7), alpha=F(1, 16))
        assert F(rep.bound_apriori) == F(33, 128)
        assert F(rep.epsilon_apriori) == F(17, 128)
        assert F(rep.worst_b_to_a) == F(1, 16)
        assert F(rep.empirical_max) <= F(rep.per_dirac_bound) <= F(rep.bound)
        n, m, alpha, eps, bound, emp = rep.to_row()
        assert (n, m, alpha) == (3, 7, 0.0625)
        assert emp <= bound

    def test_default_alpha_is_quarter_epsilon(self):
        rep = certify_extent(cell_certificate(2, 6))
        assert F(rep.alpha) == F(rep.epsilon) / 4
        assert F(rep.bound) == 2 * F(rep.alpha) + F(rep.epsilon)
        assert F(rep.epsilon) == max(F(rep.epsilon_sample), F(rep.epsilon_vertex))
        assert F(rep.mixture_max) <= F(rep.per_dirac_bound)

    def test_mixture_targets_match_per_atom_rule(self):
        # per-atom rule: argmin over copy-B indices j of (d(a, b_j), j); the
        # rows come from one run per B vertex, equal to A's rows by symmetry.
        # The oracle's nearest_sources on the coupled graph gives each V_m
        # vertex the distance alpha + nearest_hops * 2^-m to copy B, where
        # nearest_hops is the oracle trace's and GasketSpace.to_coarse's.
        for n, m, cx, expected in ((2, 6, CX, F(317, 1920)),
                                   (4, 8, build_gasket(8), F(761, 19200))):
            trace, space = gasket_cell_trace(cx, n, m), GasketSpace(m)
            rep = certify_extent(cell_certificate(n, m), mixture_trials=20, seed=3)
            assert F(rep.mixture_max) == expected
            cg = CoupledGraph.from_gasket(cx, n, m, F(rep.alpha))
            rows = cg.graph.internal_rows(cg.b_node(j) for j in range(cg.n_b))
            nearest, dist = oracles.nearest_sources(cg.graph, range(cg.n_a, cg.n_a + cg.n_b))
            for a in range(cg.n_a):
                assert nearest[a] == min(range(cg.n_b), key=lambda j: (rows[j][a], j))
                assert dist[a] == rows[nearest[a]][a]
                assert (rep.alpha + F(int(trace.nearest_hops[a]), 2**m)
                        == rep.alpha + F(space.to_coarse(a, n), space.scale)
                        == cg.graph._value(dist[a]))

    @pytest.mark.parametrize("n,m", [(2, 6), (3, 3), (4, 8), (6, 9)])
    def test_every_mixture_value_is_the_coupled_transport(self, n, m):
        # each trial's closed form alpha + sum w * d_m(a, V_n) equals the
        # exact transport on the coupled graph to the per-atom targets
        cx = CX if m <= CX.max_level else build_gasket(m)
        trace = gasket_cell_trace(cx, n, m)
        for seed in range(3):
            rep = certify_extent(cell_certificate(n, m), seed=seed)
            cg = CoupledGraph.from_gasket(cx, n, m, F(rep.alpha))
            nearest, _ = oracles.nearest_sources(cg.graph,
                                                 range(cg.n_a, cg.n_a + cg.n_b))
            rng = random.Random(seed)
            values = []
            for _ in range(rep.mixture_trials):
                mu = DiscreteMeasure.random_mixture(rng, range(cg.n_a), min(4, cg.n_a))
                nu = DiscreteMeasure([(cg.b_node(nearest[a]), w)
                                      for a, w in mu.weights.items()])
                closed = rep.alpha + sum(w * F(int(trace.nearest_hops[a]), 2**m)
                                         for a, w in mu.weights.items())
                assert closed == kantorovich(cg.graph, mu, nu).value
                values.append(closed)
            assert F(rep.mixture_max) == max(values)

    def test_extent_builds_no_metric_graph(self, monkeypatch):
        # every number comes from the cell certificate and vertex ids: no
        # complex or graph is built and no transport is solved, mixtures
        # included
        def fail(*args, **kwargs):
            raise AssertionError("built a graph or solved a transport")

        # transport imports gasket_metric_graph from metric when it calls it
        monkeypatch.setattr(metric, "gasket_metric_graph", fail)
        monkeypatch.setattr(transport, "kantorovich", fail)
        monkeypatch.setattr(MetricGraph, "__init__", fail)
        monkeypatch.setattr(CoupledGraph, "__init__", fail)
        monkeypatch.setattr("prefractal.gasket.build_gasket", fail)
        rep = certify_extent(cell_certificate(4, 8))
        assert F(rep.mixture_max) == F(21, 640)

    @pytest.mark.parametrize("n,m", [(0, 5), (1, 1), (2, 6), (3, 3), (3, 7), (4, 8),
                                     (6, 9)])
    def test_matches_coupled_graph_oracle(self, n, m):
        # every field, seeds 0-4 with alpha auto and 1/16; the oracle takes
        # about 2 s per call at (6, 9), so there 1/16 runs at seed 0 only
        cx = CX if m <= CX.max_level else build_gasket(m)
        cell = cell_certificate(n, m)
        for seed in range(5):
            for alpha in (None, F(1, 16)) if seed == 0 or m < 9 else (None,):
                assert (certify_extent(cell, alpha=alpha, seed=seed)
                        == oracles.coupled_extent(n, m, alpha=alpha, cx=cx, seed=seed))

    def test_one_lift_feeds_every_certificate(self):
        # each trace of one oracle pass gives the bound of its level's cell
        # certificate, and the closed form over its nearest_hops the
        # certificate's mixture values, on the same draws
        cx = build_gasket(8)
        levels = []
        for trace in gasket_cell_traces(cx, 8, 8):
            n = trace.n
            cell = cell_certificate(n, 8)
            assert gh_upper_bound(trace) == gh_upper_bound(cell)
            assert gh_upper_bound(trace, 5) == gh_upper_bound(cell, 5)
            rep = certify_extent(cell, seed=n, mixture_trials=10)
            rng = random.Random(n)
            closed = [rep.alpha + sum(w * F(int(trace.nearest_hops[a]), 2**8)
                                      for a, w in DiscreteMeasure.random_mixture(
                                          rng, range(cx.level_vertex_counts[8]),
                                          4).weights.items())
                      for _ in range(10)]
            assert rep.mixture_max == max(closed)
            levels.append(n)
        assert levels == list(range(8, -1, -1))

    def test_mixtures_index_v_m_up_to_level_39(self):
        # random.sample draws the atoms' ids from range(|V_m|), at most
        # sys.maxsize of them (|V_39| < 2^63 <= |V_40|); with no trials any
        # level runs
        assert transport._LAST_INDEXED_LEVEL == 39
        rep = certify_extent(cell_certificate(20, 39), mixture_trials=3)
        assert rep.mixture_max <= rep.per_dirac_bound
        with pytest.raises(ValueError, match=re.escape(
                "mixture trials draw their atoms from range(|V_40|), past sys.maxsize "
                "from m = 40 on; ask for no trials there")):
            certify_extent(cell_certificate(20, 40), mixture_trials=1)
        rep = certify_extent(cell_certificate(20, 5000), mixture_trials=0)
        assert rep.epsilon_vertex == F(1, 2**21) + F(1, 2**5000)

    def test_premise_failures_name_the_term(self):
        with pytest.raises(ValueError, match="sample-covering premise"):
            _require_premises(2, 6, F(1, 2), F(1, 64))
        with pytest.raises(ValueError, match="vertex-density premise"):
            _require_premises(2, 6, F(1, 8), F(1, 2))

    def test_rejects_inverted_levels(self):
        with pytest.raises(ValueError, match="need 0 <= n <= m"):
            certify_extent(cell_certificate(4, 2))


def _dirac_witnesses(level, pairs):
    """f(y) - f(x) and the Lipschitz seminorm of f = d(x, .), for each pair
    (x, y), on the point oracle's level sampled space (3 samples per curve)
    with the pairs' points added."""
    points, space = oracles.sampled_space(CX, level, 3, [p for pair in pairs for p in pair])
    rows = []
    for x, y in pairs:
        f = [space.distance(points.index(x), j) for j in range(len(space))]
        rows.append((f[points.index(y)] - f[points.index(x)], lipschitz_seminorm(space, f)))
    return rows


class TestDiracIdentity:
    # sup {f(y) - f(x) : Lip(f) <= 1} = d(x, y), attained by f = d(x, .)
    def test_corner_to_midpoint_across_scales(self):
        [(gain, semi)] = _dirac_witnesses(0, [(2, (0, F(1, 2)))])
        assert gain == F(3, 2) and semi <= 1
        [(gain, semi)] = _dirac_witnesses(1, [(2, 3)])
        assert gain == 1 and semi <= 1

    def test_random_vertex_pairs_attain_their_distance(self):
        rng = random.Random(31)
        pairs = [tuple(rng.sample(range(15), 2)) for _ in range(6)]
        g = gasket_metric_graph(CX, 2)
        for (x, y), (gain, semi) in zip(pairs, _dirac_witnesses(2, pairs)):
            assert gain == g.single_source(x)[y]
            assert semi == 1

    def test_sampled_space_is_a_metric_space(self):
        # the constructor checks every axiom: the triangle inequality holds
        # exactly on the point geodesics
        points, space = oracles.sampled_space(CX, 1, 2)
        assert len(points) == 6 + 9 * 2 == len(space)

    def test_sampled_space_entries_are_point_geodesics(self):
        # vertex-vertex, vertex-sample and sample-sample entries, shared
        # curves included, each equal to point_distance on the graph
        g = gasket_metric_graph(CX, 2)
        rows = g.internal_rows(range(g.vertex_count))
        points, space = oracles.sampled_space(CX, 2, 2)
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                assert space.distance(i, j) == oracles.point_distance(g, rows, x, y)


def _kernel_graph(name):
    """The graphs the CSR kernels are checked on, by name."""
    kind, *args = name.split("-")
    args = [int(a) for a in args]
    if kind == "gasket":
        return gasket_metric_graph(CX, args[0])
    if kind == "harmonic":
        return build_harmonic_gasket(args[0]).metric_graph(args[0])
    if kind == "coupled":
        n, m = args
        cx = CX if m <= CX.max_level else build_gasket(m)
        return CoupledGraph.from_gasket(cx, n, m, F(1, 2 ** (m - 1))).graph
    # a seeded tree plus random chords, self-loops and parallel edges;
    # exact weights for even seeds, floats for odd ones
    rng = random.Random(args[0])
    k = rng.randint(2, 30)

    def weight():
        w = F(rng.randint(1, 9), rng.choice([1, 2, 3]))
        return w if args[0] % 2 == 0 else float(w)

    edges = [(i, rng.randrange(i), weight()) for i in range(1, k)]
    edges += [(rng.randrange(k), rng.randrange(k), weight()) for _ in range(k)]
    edges += [(v, u, w) for u, v, w in rng.sample(edges, 4)]
    edges += [(u, v, weight()) for u, v, _ in rng.sample(edges, 4)]
    if kind == "random":
        return from_triples(k, edges)
    # the same graph with integer weights on either side of the kernel's
    # int64 bound: largest weight times |V| just below 2^62 ("narrow"), or
    # every weight at least 2^62 ("wide"), so distances pass it
    top = max(w.numerator for _, _, w in edges)
    scale = (2**62 - 1) // (top * k) if kind == "narrow" else 2**62
    return from_triples(k, [(u, v, w.numerator * scale) for u, v, w in edges])


KERNEL_GRAPHS = (["gasket-%d" % level for level in range(8)]
                 + ["harmonic-4", "coupled-2-5", "coupled-4-8"]
                 + ["random-%d" % seed for seed in range(6)]
                 + ["narrow-4", "wide-2"])


class TestKernelsMatchTupleOracle:
    """The CSR kernels against the tuple-adjacency kernels they replaced."""

    def test_exact_graphs_on_both_sides_of_the_int64_bound(self):
        narrow, wide = _kernel_graph("narrow-4"), _kernel_graph("wide-2")
        assert 2**62 - 2**40 < max(narrow.weights) * narrow.vertex_count < 2**62
        assert narrow._edge_w.dtype == np.int64
        assert wide._edge_w.dtype == object
        assert max(wide._sssp([0])) > 2**63

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_rows_nearest_sources_and_plans(self, name):
        g = _kernel_graph(name)
        n = g.vertex_count
        rng = random.Random(name)
        for s in range(n) if n <= 40 else rng.sample(range(n), 12):
            assert g._sssp([s]) == oracles.sssp(g, [s])
        group = rng.sample(range(n), min(n, 5))
        assert g._sssp(group) == oracles.sssp(g, group)
        nearest, dist = oracles.nearest_sources(g, group)
        assert dist == g._sssp(group)
        rows = [g._sssp([s]) for s in group]
        assert nearest == [min(range(len(group)), key=lambda p: (rows[p][v], p))
                           for v in range(n)]

        # transport values too: the support block against min-cost flow
        # on the whole graph
        for k in (1, 4, 8):
            mu, nu = (DiscreteMeasure.random_mixture(rng, range(n), min(n, k))
                      for _ in range(2))
            res = kantorovich(g, mu, nu)
            assert _agree(res.value, oracles.graph_transport(g, mu, nu), g.exact)


def _agree(a, b, exact):
    return a == b if exact else math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


class TestEntryCertificateMatchesRows:
    """Each moved entry's potential difference and the distance from the
    row oracle are one number, and the plan costs the value."""

    def check(self, space, mu, nu):
        res = kantorovich(space, mu, nu)
        dist = oracles.row_certificate(space, res)
        assert set(dist) == {(s, t) for s, t, _ in res.plan if s != t}
        for (s, t), d in dist.items():
            assert _agree(res.potentials[s] - res.potentials[t], d, space.exact)
        return res

    @pytest.mark.parametrize("name", KERNEL_GRAPHS)
    def test_kernel_graphs(self, name):
        g = _kernel_graph(name)
        n = g.vertex_count
        rng = random.Random("rows " + name)
        for k in (1, 4, 8):
            mu, nu = (DiscreteMeasure.random_mixture(rng, range(n), min(n, k))
                      for _ in range(2))
            self.check(g, mu, nu)

    def test_support_union_solves(self):
        rng = random.Random(6061)
        for _ in range(10):
            k = rng.randint(2, 8)
            space = _random_metric(rng, k)
            mu, nu = (DiscreteMeasure.random_mixture(rng, range(k), rng.randint(1, k))
                      for _ in range(2))
            self.check(space, mu, nu)
        space = FiniteMetricSpace.from_graph(gasket_metric_graph(CX, 3))
        for exact in (True, False):
            mu, nu = (DiscreteMeasure.random_mixture(rng, range(len(space)), 20)
                      for _ in range(2))
            if not exact:
                mu, nu = (DiscreteMeasure({i: float(w) for i, w in m.weights.items()})
                          for m in (mu, nu))
            assert self.check(space, mu, nu).exact == exact

    @pytest.mark.parametrize("level", [3, 4, 5, 6])
    def test_random_gasket_queries(self, level):
        g = gasket_metric_graph(CX, level)
        rng = random.Random(level)
        for k in (2, 10, 25):
            mu, nu = (DiscreteMeasure.random_mixture(rng, range(g.vertex_count), k)
                      for _ in range(2))
            self.check(g, mu, nu)
        mu = DiscreteMeasure({i: 0.1 for i in rng.sample(range(g.vertex_count), 10)})
        assert not self.check(g, mu, DiscreteMeasure.dirac(0)).exact
