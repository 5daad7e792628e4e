"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line on success; the pytest -v status
line carries the pass/fail verdict. Tolerances are part of the checks
and are never loosened here.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from oracles import bucket_enumeration, from_triples, max_difference_objective, signed
from prefractal.curves import cell_certificate, curve_count, gh_upper_bound
from prefractal.gasket import build_gasket
from prefractal.harmonic import HarmonicTable, build_harmonic_gasket
from prefractal.metric import (FiniteMetricSpace, certify_vertex_agreement,
                               gasket_metric_graph)
from prefractal.modes import (covariant_reach_witness, project,
                              random_mode_vector, tail_level_for)
from prefractal.spectrum import (SpectrumSpec, dimension_fit,
                                 enumerate_eigenvalues)
from prefractal.transport import (CoupledGraph, DiscreteMeasure, certify_extent,
                                  kantorovich)


@pytest.fixture(scope="module")
def cx9():
    return build_gasket(9)


def test_criterion_01_vertex_metric_agreement(cx9):
    t0 = time.monotonic()
    graphs = {lvl: gasket_metric_graph(cx9, lvl) for lvl in range(8)}
    pairs = 0
    for n in range(5):
        for m in range(n, 8):
            rep = certify_vertex_agreement(n, m, graphs[n], graphs[m])
            assert rep.exact
            assert rep.max_discrepancy == 0
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("criterion 01 PASS: agreement exactly 0 on %d level pairs (%.1fs)"
          % (pairs, elapsed))


def test_criterion_02_sampled_hausdorff_premise():
    worst = F(0)
    for n in range(9):
        rep = gh_upper_bound(cell_certificate(n, n), 3)
        computed = F(rep.haus_vertices_to_sample)
        slack = F(rep.sampling_slack)
        assert computed <= F(1, 2 ** (n + 1)) + slack
        assert computed + slack <= F(1, 2 ** n)
        worst = max(worst, computed + slack)
    print("criterion 02 PASS: sampled covering radius stays under 2^-n "
          "through n=8 (worst with slack %s)" % worst)


def test_criterion_03_gh_bound_chain():
    m = 9
    for n in range(7):
        rep = gh_upper_bound(cell_certificate(n, m), 3)
        target = F(2, 2 ** n) + F(1, 2 ** m)
        assert F(rep.bound) <= target
        assert F(rep.bound_with_slack) <= target
    print("criterion 03 PASS: certified bounds under 2^(1-n) + 2^-9 for n<=6")


def test_criterion_04_kantorovich_dirac_isometry(cx9):
    checked = 0
    for n in range(5):
        g = gasket_metric_graph(cx9, n)
        space = FiniteMetricSpace.from_graph(g)
        for x in range(len(space)):
            for y in range(x + 1, len(space)):
                res = kantorovich(space, DiscreteMeasure.dirac(x),
                                  DiscreteMeasure.dirac(y))
                assert res.exact
                assert res.value == space.distance(x, y)
                assert res.gap == 0
                checked += 1
    print("criterion 04 PASS: %d Dirac pairs reproduce the metric exactly"
          % checked)


def test_criterion_05_tunnel_extent_bound():
    rows = []
    for n in (2, 3, 4):
        rep = certify_extent(cell_certificate(n, n + 4))
        assert F(rep.alpha) == F(rep.epsilon) / 4
        assert F(rep.worst_a_to_b) <= F(rep.per_dirac_bound)
        assert F(rep.worst_b_to_a) <= F(rep.per_dirac_bound)
        assert F(rep.empirical_max) <= F(rep.bound)
        assert F(rep.mixture_max) <= F(rep.per_dirac_bound)
        rows.append((n, float(rep.empirical_max), float(rep.bound)))
    print("criterion 05 PASS: per-Dirac distances within alpha+epsilon, "
          "empirical max <= 2*alpha+epsilon: %s" % rows)


def test_criterion_06_spectral_dimension():
    t0 = time.monotonic()
    fit = dimension_fit(SpectrumSpec.gasket_limit(), 10.0, 1e5)
    control = dimension_fit(SpectrumSpec.single(), 10.0, 1e5)
    elapsed = time.monotonic() - t0
    assert 1.53 <= fit.slope <= 1.63
    assert 0.97 <= control.slope <= 1.03
    assert elapsed < 30.0
    print("criterion 06 PASS: slope %.5f (target log2(3)=%.5f), control %.5f "
          "(%.2fs)" % (fit.slope, math.log2(3), control.slope, elapsed))


def _random_spec(rng):
    entries = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            lam = F(1, 2 ** rng.randint(0, 10))
        elif kind == 1:
            lam = F(rng.randint(1, 40), rng.randint(1, 40))
        else:
            lam = rng.uniform(0.01, 8.0)
        entries.append((lam, rng.randint(1, 20)))
    return SpectrumSpec(entries, label="random")


def test_criterion_07_no_zero_mode_and_symmetry():
    rng = random.Random(20260815)
    for _ in range(100):
        spec = _random_spec(rng)
        cutoff = rng.uniform(0.5, 60.0)
        values, mults = [], []
        for v, m in enumerate_eigenvalues(spec, cutoff).blocks():
            values += v
            mults += m
        assert (values, mults) == bucket_enumeration(spec, cutoff)
        assert all(v > 0 for v in values)
        full = signed(values, mults)
        assert full == [-v for v in reversed(full)]
        assert all(m % 2 == 0 for m in mults)
    print("criterion 07 PASS: 100 random spectra exclude 0 and are symmetric")


def test_criterion_08_modular_tail_bound():
    rng = random.Random(1202)
    vectors = [random_mode_vector(rng) for _ in range(1000)]
    for eps in (0.1, 0.01):
        n = tail_level_for(eps)
        assert F(1, 2 ** (n + 1)) < F(math.pi) * F(eps) / 2
        violations = 0
        worst = 0.0
        for xi in vectors:
            defect = (xi - project(xi, n)).norm()
            worst = max(worst, defect)
            if defect >= eps:
                violations += 1
        assert violations == 0
        print("criterion 08 PASS: eps=%g level n=%d, 1000 vectors, "
              "0 violations (worst defect %.4g)" % (eps, n, worst))


def test_criterion_09_covariant_reach():
    for eps in (0.1, 0.01):
        n = tail_level_for(eps)
        rep = covariant_reach_witness(n, eps, trials=100, seed=7)
        assert rep.max_identity_gap <= 1e-10
        assert rep.tail_lengths_small
        assert rep.below_epsilon
        assert rep.max_reach < eps
        print("criterion 09 PASS: eps=%g sup-over-t equals static defect "
              "within %.1e, max reach %.4g" % (eps, rep.max_identity_gap,
                                               rep.max_reach))


def test_criterion_10_harmonic_invariants():
    table = HarmonicTable(build_gasket(8))
    den = table.rule.den
    for level in range(9):
        scale = den ** level
        for vid in range(table.cx.level_vertex_counts[level]):
            trip = table.at_level(vid, level)
            assert sum(trip) == scale
            assert all(0 <= c <= scale for c in trip)

    hg = build_harmonic_gasket(6, tol=1e-6)
    for n in range(4):
        g_n = hg.metric_graph(n)
        g_m = hg.metric_graph(n + 2)
        rows_n = [g_n.single_source(s) for s in range(g_n.vertex_count)]
        rows_m = [g_m.single_source(s) for s in range(g_n.vertex_count)]
        gap = max(abs(rows_n[i][j] - rows_m[i][j])
                  for i in range(g_n.vertex_count)
                  for j in range(g_n.vertex_count))
        assert gap <= 10 * hg.tol

    maxima = [hg.max_length_at_level(lvl) for lvl in range(7)]
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    print("criterion 10 PASS: unity and range exact to depth 8, cross-scale "
          "agreement within 10*tol, max lengths strictly decreasing")


def _random_coupled(rng):
    def graph():
        k = rng.randint(2, 8)
        edges = [(i, rng.randrange(i), F(rng.randint(1, 9)))
                 for i in range(1, k)]
        for _ in range(rng.randint(0, k)):
            u, v = rng.sample(range(k), 2)
            edges.append((u, v, F(rng.randint(1, 9))))
        return from_triples(k, edges)

    ga, gb = graph(), graph()
    ns = rng.randint(1, min(ga.vertex_count, gb.vertex_count))
    shared = list(zip(rng.sample(range(ga.vertex_count), ns),
                      rng.sample(range(gb.vertex_count), ns)))
    alpha = F(rng.randint(1, 9))
    return ga, gb, shared, alpha


def test_criterion_11_difference_constraint_duality():
    rng = random.Random(5150)
    t0 = time.monotonic()
    for _ in range(200):
        ga, gb, shared, alpha = _random_coupled(rng)
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
        want = max_difference_objective(off + gb.vertex_count, cons, x, off + y)
        assert got == want
    print("criterion 11 PASS: 200 coupled instances match the exact LP "
          "optimum (%.1fs)" % (time.monotonic() - t0))
