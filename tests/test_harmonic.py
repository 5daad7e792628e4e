"""Harmonic values, the plane embedding, and curve-length quadrature.

Core claims:
    - the derived one-refinement rule is (2,2,1)/5 and actually minimizes
      the level-1 graph energy (perturbation witness);
    - subdivision values match an independent exact Dirichlet solve on
      the level-2 graph, for each corner datum;
    - partition of unity and the maximum principle hold exactly;
    - polyline lengths are monotone in depth, quarter-rate convergent,
      and exactly additive across a subdivision at equal absolute depth;
    - the batched length kernel agrees with the per-curve big-integer
      oracle in tests/oracles.py, polyline and lengths alike;
    - the refinement cap keeps the base polyline's integers inside int64.
"""

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from prefractal.curves import curve_count, kappa, vertex_count
from prefractal.gasket import build_gasket
from prefractal.harmonic import (
    EMBED_SCALE,
    REFINEMENT_CAP,
    HarmonicTable,
    base_polyline,
    build_harmonic_gasket,
    derive_subdivision_rule,
    embedded_gasket,
    embedding_point,
    harmonic_curve_length,
    harmonic_extend,
    harmonic_lengths,
)
from prefractal.metric import certify_vertex_agreement

CX = build_gasket(5)
TABLE = HarmonicTable(CX)


def _level1_energy(values):
    cx = build_gasket(1)
    e = Fraction(0)
    for u, v in cx.curve_ends(1).tolist():
        e += (values[u] - values[v]) ** 2
    return e


def _exact_dirichlet_level2(corner):
    """Minimize the level-2 edge energy directly, 12 unknowns, Fractions."""
    cx = build_gasket(2)
    nv = vertex_count(2)
    interior = list(range(3, nv))
    pos = {v: i for i, v in enumerate(interior)}
    neighbors = {v: [] for v in range(nv)}
    for u, w in cx.curve_ends(2).tolist():
        neighbors[u].append(w)
        neighbors[w].append(u)
    n = len(interior)
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for v in interior:
        i = pos[v]
        a[i][i] = Fraction(len(neighbors[v]))
        for w in neighbors[v]:
            if w in pos:
                a[i][pos[w]] -= 1
            else:
                b[i] += corner[w]
    # forward elimination with partial pivot, then back substitution
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                b[r] -= f * b[col]
                for c2 in range(col, n):
                    a[r][c2] -= f * a[col][c2]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c2] * x[c2] for c2 in range(r + 1, n))
        x[r] = s / a[r][r]
    out = list(corner) + [None] * (nv - 3)
    for v in interior:
        out[v] = x[pos[v]]
    return out


class TestSubdivisionRule:
    def test_derived_weights(self):
        rule = derive_subdivision_rule()
        assert (rule.adjacent, rule.opposite, rule.den) == (2, 1, 5)

    def test_rule_minimizes_level1_energy(self):
        base = harmonic_extend((1, 0, 0), 1)
        e0 = _level1_energy(base)
        for v in (3, 4, 5):
            for delta in (Fraction(1, 7), Fraction(-1, 9)):
                bumped = list(base)
                bumped[v] += delta
                assert _level1_energy(bumped) > e0

    def test_depth1_values(self):
        vals = harmonic_extend((1, 0, 0), 1)
        assert vals[:3] == [1, 0, 0]
        # 2/5 on the midpoints that touch the hot corner, 1/5 opposite
        assert vals[3] == Fraction(2, 5)
        assert vals[4] == Fraction(2, 5)
        assert vals[5] == Fraction(1, 5)


class TestHarmonicValues:
    def test_matches_exact_dirichlet_solve(self):
        for r in range(3):
            corner = [Fraction(int(i == r)) for i in range(3)]
            oracle = _exact_dirichlet_level2(corner)
            for v in range(vertex_count(2)):
                assert TABLE.triple(v)[r] == oracle[v]

    def test_partition_of_unity_exact(self):
        den = TABLE.rule.den
        for v in range(len(CX.vertices)):
            assert sum(TABLE.numerators[v]) == den ** TABLE.levels[v]

    def test_maximum_principle_exact(self):
        for v in range(len(CX.vertices)):
            assert min(TABLE.numerators[v]) >= 0

    def test_restriction_consistency(self):
        small = HarmonicTable(build_gasket(3))
        for v in range(vertex_count(3)):
            assert small.triple(v) == TABLE.triple(v)

    def test_extension_linear_in_data(self):
        data = (Fraction(3, 7), Fraction(-1, 2), Fraction(5, 11))
        vals = harmonic_extend(data, 2)
        oracle = _exact_dirichlet_level2(data)
        assert vals == oracle

    def test_constant_data(self):
        c = Fraction(4, 9)
        assert set(harmonic_extend((c, c, c), 2)) == {c}

    def test_depth_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            harmonic_extend((1, 0, 0), 13)


class TestEmbedding:
    def test_images_lie_on_plane(self):
        emb = TABLE.embedding_array()
        assert np.abs(emb.sum(axis=1) + math.sqrt(2)).max() < 1e-12

    def test_corner_images_unit_apart(self):
        emb = TABLE.embedding_array()[:3]
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(emb[i] - emb[j]) == pytest.approx(1.0)

    def test_corner_image_value(self):
        p = embedding_point((1, 0, 0))
        assert np.allclose(p, EMBED_SCALE * np.array([0.0, -1.0, -1.0]))

    def test_injective_on_vertices(self):
        triples = {TABLE.triple(v) for v in range(vertex_count(4))}
        assert len(triples) == vertex_count(4)


def _row(lengths, i=0) -> dict:
    """Row i of a CurveLengths record as Python scalars by column name."""
    return {name: getattr(lengths, name)[i].item() for name in lengths._fields}


def _set_cap(monkeypatch, cap):
    """Refine to `cap` halvings below each curve's level from the next call."""
    monkeypatch.setattr("prefractal.harmonic.REFINEMENT_CAP", cap)


class TestCurveLength:
    def test_chord_is_lower_bound(self):
        est = _row(harmonic_curve_length(CX, 0, tol=1e-6))
        chord = 1.0  # corner images are unit apart
        assert est["value"] > chord

    def test_increments_positive_and_quarter_rate(self, monkeypatch):
        # at tol 0 a cap of k refinements ends on curve 0's k-th increment
        incs = []
        for k in range(1, 13):
            _set_cap(monkeypatch, k)
            incs.append(harmonic_lengths(CX, TABLE, [0], tol=0.0).last_increment[0])
        assert all(inc > 0 for inc in incs)
        ratios = [a / b for a, b in zip(incs[2:], incs[3:])]
        assert all(3.3 < r < 5.2 for r in ratios)

    def test_level0_value_frozen(self):
        est = _row(harmonic_curve_length(CX, 0, tol=0.0))
        assert est["value"] == pytest.approx(1.074351979421, abs=1e-9)
        assert est["depth"] == 12
        assert not est["converged"]

    def test_three_sides_symmetric(self):
        vals = [harmonic_curve_length(CX, j, tol=0.0).value[0] for j in range(3)]
        assert max(vals) - min(vals) < 1e-12

    def test_converges_at_default_tolerance(self):
        est = _row(harmonic_curve_length(CX, 0, tol=1e-6))
        assert est["converged"]
        assert est["depth"] < 12
        assert est["last_increment"] / est["value"] <= 1e-6

    def test_additive_at_equal_absolute_depth(self, monkeypatch):
        # halves of the bottom edge live in child cells 0 and 1
        _set_cap(monkeypatch, 10)
        parent = _row(harmonic_curve_length(CX, 0, tol=0.0))
        # the cap counts refinements below each curve's level: all three
        # polylines end at absolute depth 10
        _set_cap(monkeypatch, 9)
        left = _row(harmonic_curve_length(CX, kappa(1, 0) + 0, tol=0.0))
        right = _row(harmonic_curve_length(CX, kappa(1, 1) + 0, tol=0.0))
        assert parent["depth"] == left["depth"] == right["depth"] == 10
        assert parent["value"] == pytest.approx(left["value"] + right["value"],
                                                abs=1e-12)

    def test_cap_below_tolerance_flags_unconverged(self, monkeypatch):
        _set_cap(monkeypatch, 6)
        est = _row(harmonic_curve_length(CX, 0, tol=1e-12))
        assert not est["converged"]
        assert est["depth"] == 6
        assert est["value"] > 1.0

    def test_cap_counts_refinements_below_the_curve_level(self, monkeypatch):
        cid = kappa(5, 17) + 2
        _set_cap(monkeypatch, 4)
        est = _row(harmonic_curve_length(CX, cid, tol=0.0))
        segments = 2 ** (est["depth"] - est["level"])
        assert (est["ids"], est["level"], est["depth"], segments) == (cid, 5, 9, 16)
        assert not est["converged"]

    def test_no_refinement_leaves_the_chord(self, monkeypatch):
        _set_cap(monkeypatch, 0)
        est = _row(harmonic_curve_length(CX, 0))
        assert est["value"] == pytest.approx(1.0) and est["depth"] == 0
        assert not est["converged"]
        assert math.isnan(est["last_increment"])

    def test_rejects_curves_beyond_the_complex(self):
        with pytest.raises(ValueError, match="curve ids"):
            harmonic_curve_length(CX, curve_count(5))


class TestLengthOracle:
    RULE = derive_subdivision_rule()

    @pytest.mark.parametrize("cap", [0, 1, 2, 7, 10])
    def test_base_polyline_equals_oracle_integers(self, cap):
        got = base_polyline(cap, self.RULE)
        assert got.dtype == np.int64 and got.shape == (2**cap + 1, 3)
        assert got.tolist() == [list(p) for p in oracles.edge_polyline(cap, self.RULE)]

    @staticmethod
    def _agree(monkeypatch, cx, table, ids, tol, cap):
        """harmonic_lengths of the ids against the oracle, curve by curve,
        and every increment of the oracle's against the last increment of
        a tol-0 run whose cap ends on it."""
        _set_cap(monkeypatch, cap)
        got = harmonic_lengths(cx, table, ids, tol=tol)
        assert got.ids.tolist() == list(ids)
        refs = [oracles.harmonic_curve_length(cx, cid, tol, m + cap, table)
                for cid, m in zip(ids, got.level.tolist())]
        for i, ref in enumerate(refs):
            est = _row(got, i)
            assert (est["depth"], 2 ** (est["depth"] - est["level"]),
                    est["converged"]) == (ref.depth, ref.segments, ref.converged)
            assert est["value"] == pytest.approx(ref.value, rel=1e-12, abs=0)
            assert abs(est["last_increment"] - ref.increments[-1]) <= 1e-12 * ref.value
        for k in range(1, max(len(ref.increments) for ref in refs) + 1):
            _set_cap(monkeypatch, k)
            at_k = harmonic_lengths(cx, table, ids, tol=0.0).last_increment
            for inc, ref in zip(at_k.tolist(), refs):
                if k <= len(ref.increments):
                    assert abs(inc - ref.increments[k - 1]) <= 1e-12 * ref.value
        return got

    def test_every_curve_through_level4_at_equal_depth(self, monkeypatch):
        cx = build_gasket(4)
        self._agree(monkeypatch, cx, HarmonicTable(cx), range(curve_count(4)), 0.0, 6)

    def test_sampled_level6_curves_stop_where_the_oracle_stops(self, monkeypatch):
        cx = build_gasket(6)
        ids = random.Random(606).sample(range(kappa(6, 0), curve_count(6)), 24)
        got = self._agree(monkeypatch, cx, HarmonicTable(cx), ids, 1e-6, 12)
        assert got.converged.all()

    def test_one_curve_call_matches_the_batch(self):
        ids = [0, 4, kappa(3, 20) + 1, kappa(5, 200)]
        batch = harmonic_lengths(CX, TABLE, ids)
        for i, cid in enumerate(ids):
            assert _row(harmonic_curve_length(CX, cid)) == _row(batch, i)


class TestRefinementCap:
    def test_base_polyline_integers_fit_int64(self):
        # base_polyline's entries reach den^cap, which int64 must hold
        assert derive_subdivision_rule().den ** REFINEMENT_CAP < 2**63

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_gasket_tolerance_refused_before_building(self, tol, monkeypatch):
        # tol = 0 stays open to harmonic_lengths, where it refines to the cap
        def no_build(level):
            raise AssertionError("built the level-%d complex" % level)

        monkeypatch.setattr("prefractal.harmonic.build_gasket", no_build)
        with pytest.raises(ValueError, match="^quadrature tol must be positive and "
                                             "finite, got %s$" % tol):
            build_harmonic_gasket(1, tol=tol)


class TestHarmonicGasket:
    def test_drawing_guard_refuses_before_the_build(self, monkeypatch):
        # 32 MiB plus 56 B per curve: level 13 reaches the build, 14 is
        # refused though the plain complex would pass its own guard
        def no_build(level):
            raise AssertionError("built the level-%d complex" % level)

        monkeypatch.setattr("prefractal.harmonic.build_gasket", no_build)
        with pytest.raises(AssertionError, match="built the level-13 complex"):
            embedded_gasket(13)
        with pytest.raises(ValueError, match=re.escape(
                "max_level 14 is past the size cap: the complex with its harmonic drawing "
                "needs about 1181 MiB, above the guard of 1024 MiB")):
            embedded_gasket(14)

    def test_guard_refuses_before_the_build(self, monkeypatch):
        # 32 MiB plus 300 B per curve: level 12 reaches the build, 13 is
        # refused though the plain complex would pass its own guard
        def no_build(level):
            raise AssertionError("built the level-%d complex" % level)

        monkeypatch.setattr("prefractal.harmonic.build_gasket", no_build)
        with pytest.raises(AssertionError, match="built the level-12 complex"):
            build_harmonic_gasket(12)
        with pytest.raises(ValueError, match=re.escape(
                "max_level 13 is past the size cap: the complex with its harmonic lengths "
                "needs about 2084 MiB, above the guard of 1024 MiB")):
            build_harmonic_gasket(13)

    def test_combinatorics_match_euclidean(self):
        hg = build_harmonic_gasket(2)
        from prefractal.metric import gasket_metric_graph
        g_h = hg.metric_graph(2)
        g_e = gasket_metric_graph(hg.cx, 2)
        assert np.array_equal(g_h.vertex_keys, g_e.vertex_keys)
        assert [(u, v) for u, v, _ in g_h.edges] == [(u, v) for u, v, _ in g_e.edges]

    def test_cross_level_distance_agreement(self):
        hg = build_harmonic_gasket(3, tol=1e-6)
        for n in (0, 1):
            rep = certify_vertex_agreement(n, n + 2, hg.metric_graph(n),
                                           hg.metric_graph(n + 2))
            assert rep.max_discrepancy <= 10 * hg.tol

    def test_max_length_strictly_decreasing(self):
        hg = build_harmonic_gasket(3)
        maxima = [hg.max_length_at_level(m) for m in range(4)]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))

    def test_total_length_grows_slower_than_three_halves(self):
        hg = build_harmonic_gasket(3)
        totals = [hg.total_length_at_level(m) for m in range(4)]
        assert all(b / a < 1.5 for a, b in zip(totals, totals[1:]))

    def test_unconverged_estimates_reported_honestly(self):
        # at the default tol every curve converges; 1e-9 leaves some short
        hg = build_harmonic_gasket(3, tol=1e-9)
        assert 0 < len(hg.unconverged()) < curve_count(3)
        for cid in hg.unconverged():
            e = _row(hg.lengths, cid)
            assert e["ids"] == cid
            assert e["depth"] == e["level"] + hg.cap
            assert e["last_increment"] / e["value"] > hg.tol

    def test_level7_converges_at_the_defaults(self):
        hg = build_harmonic_gasket(7)
        assert hg.lengths.ids.tolist() == list(range(curve_count(7)))
        assert hg.unconverged() == []
        assert (hg.lengths.last_increment / hg.lengths.value <= 1e-6).all()

    def test_length_table_shape(self):
        hg = build_harmonic_gasket(1)
        rows = hg.length_table()
        assert len(rows) == 12
        assert {r["kind"] for r in rows} == {"bottom", "right", "left"}
        assert all(r["length"] > 0 for r in rows)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("level", range(6))
    def test_length_chunks_join_to_the_dumps_text(self, level, rows, monkeypatch):
        # the streamed writer against the dict-per-curve table
        monkeypatch.setattr("prefractal.gasket._BLOCK_ROWS", rows)
        hg = build_harmonic_gasket(level)
        want = json.dumps(hg.length_table(), sort_keys=True, indent=2)
        assert "".join(hg.length_json_chunks(1)) == want.replace("\n", "\n  ")
        assert "".join(hg.length_json_chunks(0)) == want

    @pytest.mark.parametrize("value,last", [(math.nan, 0.5), (1.0, math.inf),
                                            (-math.inf, None), (1.0, math.nan)])
    def test_length_chunks_refuse_non_finite_floats(self, value, last):
        # %r spells these nan and inf, json.dumps NaN and Infinity; the
        # refusal comes before any chunk. last None: no refinement ran
        hg = build_harmonic_gasket(1)
        c = hg.lengths
        value_col, last_col, depth_col = c.value.copy(), c.last_increment.copy(), c.depth.copy()
        value_col[7] = value
        if last is None:
            last_col[7], depth_col[7] = math.nan, c.level[7]
        else:
            last_col[7] = last
        hg.lengths = c._replace(value=value_col, last_increment=last_col, depth=depth_col)
        with pytest.raises(RuntimeError, match="harmonic length of curve 7 is not "
                           "finite"):
            hg.length_json_chunks()

    def test_vertex_rationals_export(self):
        hg = build_harmonic_gasket(1)
        rows = hg.vertex_rationals()
        assert rows[0] == ["1", "0", "0"]
        assert rows[3] == ["2/5", "2/5", "1/5"]
