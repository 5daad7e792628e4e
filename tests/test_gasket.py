"""Prefractal construction: contractions, curve indexing, vertex enumeration.

Core claims:
    - the three contractions halve toward the corners, exactly, on the
      integer lattice of a given scale;
    - curve ids follow the level/position layout with 3 edges per triangle;
    - counts: 3^(n+1) triangles' edges at level n, (3^(n+1)+3)/2 vertices;
    - vertex enumeration is a stable prefix: V_n sits at the front of any
      deeper build, and equals the brute-force iterated-map vertex set;
    - the id-map build equals the interning build it replaced, and
      curves.vertex_word inverts its id maps;
    - oversized builds are refused before anything is allocated, and the
      build's memory stays within its estimate and near what it holds;
    - a serialized complex is validated against its own triangle table,
      and its JSON text is json.dumps's text of complex_to_dict.
"""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import interning_build
from prefractal.curves import (BASE_BYTES, curve_count, kappa, kappa_inverse, vertex_count,
                               vertex_word)
from prefractal.gasket import (
    CORNERS,
    CURVE_KINDS,
    build_gasket,
    complex_bytes,
    complex_from_dict,
    complex_json_chunks,
    complex_to_dict,
    similitude_apply,
)


def _brute_force_vertices(n):
    """Iterate the three corner maps on the corner set, in floats."""
    pts = {(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)}
    for _ in range(n):
        nxt = set()
        for (x, y) in pts:
            for (cx, cy) in [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]:
                nxt.add((round((x + cx) / 2, 12), round((y + cy) / 2, 12)))
        pts = nxt
    return pts


def _reference_build(max_level):
    """Vertex list and triangle tables from the per-point interning loop
    that the array build replaced, on exact Fraction coordinates."""
    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(1))]
    vertices, index_of = [], {}

    def intern(p):
        if p not in index_of:
            index_of[p] = len(vertices)
            vertices.append(p)
        return index_of[p]

    triangles = [[tuple(intern(p) for p in corners)]]
    for m in range(max_level):
        children = []
        for sa, sb in corners:  # T_r outside, parent triangles inside
            for tri in triangles[m]:
                children.append(tuple(
                    intern(((vertices[i][0] + sa) / 2, (vertices[i][1] + sb) / 2))
                    for i in tri))
        triangles.append(children)
    return vertices, triangles


def _squared_distance(p, q):
    # |da*v1 + db*v2|^2 = da^2 + da*db + db^2 since v1.v2 = 1/2
    da, db = (int(x) for x in np.subtract(p, q))
    return da * da + da * db + db * db


class TestSimilitudes:
    def test_fixed_points_are_corners(self):
        for scale in (1, 8):
            for r in range(3):
                corner = scale * CORNERS[r]
                assert similitude_apply(r, corner, scale).tolist() == corner.tolist()

    def test_halves_toward_corner(self):
        # T_0(v1) = v1/2, which is (1, 0) on the lattice of scale 2
        assert similitude_apply(0, 2 * CORNERS[1], 2).tolist() == [1, 0]

    def test_top_corner_image_of_right(self):
        p = similitude_apply(2, 2 * CORNERS[1], 2)
        assert p.tolist() == [1, 1]  # (1/2, 1/2) in the basis {v1, v2}
        cx = build_gasket(1)
        (row,) = np.flatnonzero((cx.vertices == p).all(axis=1))
        x, y = cx.euclidean()[row]
        assert abs(x - 0.75) < 1e-12 and abs(y - math.sqrt(3) / 4) < 1e-12

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            similitude_apply(3, CORNERS[0], 1)

    def test_contraction_ratio_exact(self):
        rng = random.Random(404)
        for _ in range(50):
            # points on the lattice of scale 8, written at scale 16 so that
            # every image is a lattice point too
            p = [2 * rng.randint(-8, 8), 2 * rng.randint(-8, 8)]
            q = [2 * rng.randint(-8, 8), 2 * rng.randint(-8, 8)]
            r = rng.randrange(3)
            pq = similitude_apply(r, np.array([p, q]), 16)
            d2 = _squared_distance(pq[0], pq[1])
            assert d2 * 4 == _squared_distance(p, q)


class TestCurveIndexing:
    def test_kappa_values(self):
        assert kappa(0, 0) == 0
        assert kappa(1, 0) == 3
        assert kappa(2, 8) == 36

    def test_kappa_inverse_roundtrip(self):
        for n in range(5):
            for r in range(3**n):
                cid = kappa(n, r)
                for off in range(3):
                    assert kappa_inverse(cid + off) == (n, r, off)

    def test_kappa_inverse_matches_level_loop_at_boundaries(self):
        # the level search that the bisect over level starts replaced,
        # past the precomputed table so that it has to grow
        def loop_level(cid):
            n = 0
            while kappa(n + 1, 0) <= cid:
                n += 1
            return n

        for n in range(45):
            start = kappa(n, 0)
            for cid in (start - 1, start, start + 1):
                if cid >= 0:
                    level = loop_level(cid)
                    within = cid - kappa(level, 0)
                    assert kappa_inverse(cid) == (level, within // 3, within % 3)

    def test_counts(self):
        assert curve_count(1) == 12
        assert curve_count(4) == 363
        assert vertex_count(4) == 123
        for n in range(7):
            assert curve_count(n) == 3 * (3 ** (n + 1) - 1) // 2
            assert vertex_count(n) == (3 ** (n + 1) + 3) // 2

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            kappa(1, 3)


class TestBuildGasket:
    def test_triangle_and_curve_tallies(self):
        cx = build_gasket(3)
        for m in range(4):
            assert cx.triangles[m].shape == (3**m, 3)
            assert cx.curve_ends(m).shape == (3 ** (m + 1), 2)
        assert cx.b_n == curve_count(3)
        assert cx.vertices.shape == (vertex_count(3), 2)

    def test_vertex_word_inverts_the_id_maps(self):
        # T_word(p) through similitude_apply, innermost letter first, lands
        # on the vertex's own coordinates, for every vertex through level 10
        cx = build_gasket(10)
        scale = 1 << cx.max_level
        words = {}
        for v in range(len(cx.vertices)):
            word, p = vertex_word(v)
            words.setdefault(len(word), ([], [], []))
            for column, x in zip(words[len(word)], (v, word, p)):
                column.append(x)
        assert sorted(words) == list(range(10))
        for length, (ids, word, p) in words.items():
            letters = np.array(word, dtype=np.int64).reshape(len(ids), length)
            at = cx.vertices[p]
            for k in range(length - 1, -1, -1):
                for r in range(3):
                    mask = letters[:, k] == r
                    at[mask] = similitude_apply(r, at[mask], scale)
            assert (at == cx.vertices[ids]).all(), length
        assert vertex_word(6) == ([0], 3) and vertex_word(41) == ([2, 2], 5)
        with pytest.raises(ValueError, match="vertex id must be nonnegative"):
            vertex_word(-1)

    def test_vertex_counts_per_level(self):
        cx = build_gasket(4)
        assert cx.level_vertex_counts == [vertex_count(n) for n in range(5)]

    def test_vertex_prefix_is_stable(self):
        cx5, cx3 = build_gasket(5), build_gasket(3)
        nv = len(cx3.vertices)
        # the same points, with coordinates scaled by 2^5 and 2^3
        assert (cx5.vertices[:nv] == 4 * cx3.vertices).all()
        assert cx5.vertex_pairs()[:nv] == cx3.vertex_pairs()

    def test_matches_interning_loop_reference(self):
        for level in range(7):
            cx = build_gasket(level)
            vertices, triangles = _reference_build(level)
            scale = 1 << level
            assert [(Fraction(a, scale), Fraction(b, scale))
                    for a, b in cx.vertices.tolist()] == vertices
            assert [list(map(tuple, t.tolist())) for t in cx.triangles] == triangles

    def test_matches_the_interning_build(self):
        for level in range(11):
            cx, ref = build_gasket(level), interning_build(level)
            assert cx.level_vertex_counts == ref.level_vertex_counts
            assert np.array_equal(cx.vertices, ref.vertices)
            assert len(cx.triangles) == len(ref.triangles) == level + 1
            for got, want in zip(cx.triangles, ref.triangles):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)

    def test_vertices_match_brute_force(self):
        cx = build_gasket(4)
        mine = sorted(map(tuple, cx.euclidean().tolist()))
        ref = sorted(_brute_force_vertices(4))
        assert len(mine) == len(ref)
        for (x, y), (rx, ry) in zip(mine, ref):
            assert abs(x - rx) < 1e-9 and abs(y - ry) < 1e-9

    def test_curve_endpoints_are_triangle_sides(self):
        cx = build_gasket(3)
        # side 2^-3 is one lattice step at scale 2^3
        ends = cx.curve_ends(3)
        for i, (u, v) in enumerate(ends.tolist()):
            assert _squared_distance(cx.vertices[u], cx.vertices[v]) == 1
            # bottom, right and left sides of triangle row i // 3
            i0, i1, i2 = cx.triangles[3][i // 3].tolist()
            assert (u, v) == ((i0, i1), (i1, i2), (i2, i0))[i % 3]
        with pytest.raises(ValueError, match="level 4 outside built range"):
            cx.curve_ends(4)
        with pytest.raises(ValueError):
            ends[0, 0] = 7

    def test_child_triangles_partition_ids(self):
        cx = build_gasket(2)
        scale = 1 << cx.max_level
        # triangle j at level m spawns children j + r*3^m at level m+1,
        # whose corners are the images of its corners under T_r
        for m in range(2):
            for j, ids in enumerate(cx.triangles[m]):
                for r in range(3):
                    child = cx.triangles[m + 1][j + r * 3**m]
                    image = similitude_apply(r, cx.vertices[ids], scale)
                    assert (cx.vertices[child] == image).all()

    def test_orientation_cycles(self):
        cx = build_gasket(2)
        for m in range(3):
            for j in range(3**m):
                bottom, right, left = cx.curve_ends(m)[3 * j : 3 * j + 3].tolist()
                # bottom ends where right starts, right ends where left starts
                assert bottom[1] == right[0]
                assert right[1] == left[0]
                assert left[1] == bottom[0]

    def test_arrays_are_read_only(self):
        cx = build_gasket(1)
        for arr in (cx.vertices, cx.triangles[1]):
            with pytest.raises(ValueError):
                arr[0, 0] = 7

    def test_size_guard_names_the_estimate(self, monkeypatch):
        # level 14 reaches the build (counting V_0, ..., V_14), 15 is refused
        def no_counts(level):
            raise AssertionError("built the complex")

        with pytest.raises(ValueError, match=r"max_level 15 .* needs about \d+ MiB, "
                                             r"above the guard of 1024 MiB"):
            build_gasket(15)
        monkeypatch.setattr("prefractal.gasket.vertex_count", no_counts)
        with pytest.raises(AssertionError, match="built the complex"):
            build_gasket(14)

    def test_memory_stays_within_the_estimate(self):
        # the triangle table is the only per-curve store: peak within the
        # guard's estimate, and a few int64 entries held per curve
        build_gasket(9)  # warm imports and caches outside the measurement
        tracemalloc.start()
        try:
            cx = build_gasket(9)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= complex_bytes(9) - BASE_BYTES
        assert held < 32 * cx.b_n

    def test_peak_stays_near_what_the_build_holds(self):
        # the id maps are the only transient: peak 1.20x held at levels
        # 9-12, where interning every corner point peaked at 6.5x
        build_gasket(9)
        tracemalloc.start()
        try:
            cx = build_gasket(9)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held >= 12 * cx.b_n
        assert peak < 1.5 * held

    def test_level_eleven_still_builds(self):
        cx = build_gasket(11)
        assert cx.level_vertex_counts[-1] == vertex_count(11) == len(cx.vertices)
        assert cx.b_n == curve_count(11)


class TestSerialization:
    def test_roundtrip(self):
        cx = build_gasket(3)
        data = complex_to_dict(cx)
        back = complex_from_dict(data)
        assert back.max_level == 3
        assert (back.vertices == cx.vertices).all()
        assert all((b == t).all() for b, t in zip(back.triangles, cx.triangles))
        assert back.level_vertex_counts == cx.level_vertex_counts
        assert complex_to_dict(back) == data

    @pytest.mark.parametrize("level", range(9))
    def test_json_text_is_the_dumps_text(self, level):
        cx = build_gasket(level)
        want = json.dumps(complex_to_dict(cx), sort_keys=True, indent=2)
        assert "".join(complex_json_chunks(cx, 0)) == want
        assert "".join(complex_json_chunks(cx, 1)) == want.replace("\n", "\n  ")

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("level", range(6))
    def test_json_chunks_join_to_the_dumps_text_at_any_block_size(self, level, rows,
                                                                  monkeypatch):
        monkeypatch.setattr("prefractal.gasket._BLOCK_ROWS", rows)
        cx = build_gasket(level)
        want = json.dumps(complex_to_dict(cx), sort_keys=True, indent=2)
        chunks = list(complex_json_chunks(cx, 1))
        assert "".join(chunks) == want.replace("\n", "\n  ")
        # curves, triangles and vertices each take a chunk per block
        blocks = -(-len(cx.vertices) // rows) + 2 * sum(
            -(-3**m // rows) for m in range(level + 1))
        assert len(chunks) >= blocks

    def test_dict_shape(self):
        data = complex_to_dict(build_gasket(1))
        assert data["maxLevel"] == 1
        assert len(data["vertices"]) == 6
        assert all(len(v) == 4 for v in data["vertices"])
        assert {c["kind"] for c in data["curves"]} == {"bottom", "right", "left"}
        assert data["vertices"][3] == [1, 1, 0, 0]  # (1/2, 0)
        assert data["curves"][3]["length"] == [1, 1]
        # curve kappa(m, 0) + i: kind i % 3, the sides of triangle row i // 3
        tris = [t["vertices"] for t in data["triangles"]]
        for c in data["curves"]:
            level, row, kind = kappa_inverse(c["id"])
            i0, i1, i2 = tris[(3**level - 1) // 2 + row]
            assert c["kind"] == CURVE_KINDS[kind] and c["level"] == level
            assert c["endpoints"] == [[i0, i1], [i1, i2], [i2, i0]][kind]

    @pytest.mark.parametrize("pair", [[1, -1], [1, 3]])
    def test_rejects_exponent_outside_level_range(self, pair):
        data = complex_to_dict(build_gasket(2))
        data["vertices"][4] = pair + [0, 0]
        with pytest.raises(ValueError, match="vertex 4 "):
            complex_from_dict(data)

    @pytest.mark.parametrize("corrupt", [
        lambda tris: tris.pop(5),              # level-2 index 2 missing
        lambda tris: tris[5].update(index=3),  # level-2 index 3 twice
        lambda tris: tris[5].update(level=3),  # past maxLevel
    ], ids=["missing", "duplicate", "level"])
    def test_rejects_triangle_indices_other_than_one_to_three_to_the_m(self, corrupt):
        data = complex_to_dict(build_gasket(2))
        corrupt(data["triangles"])
        with pytest.raises(ValueError, match="triangle (indices|level)"):
            complex_from_dict(data)

    def test_rejects_vertex_ids_outside_the_vertex_list(self):
        # 15 vertices; the id 99 used to load and fail later in the cell trace
        data = complex_to_dict(build_gasket(2))
        data["triangles"][-1]["vertices"] = [0, 1, 99]
        with pytest.raises(ValueError, match="level-2 triangle 9 has vertex id 99 "
                                             "outside 0..14"):
            complex_from_dict(data)
        data["triangles"][-1]["vertices"] = [0, 1, -1]
        with pytest.raises(ValueError, match="vertex id -1"):
            complex_from_dict(data)

    def test_rejects_v_m_that_is_not_an_id_prefix(self):
        data = complex_to_dict(build_gasket(2))
        tri = data["triangles"][1]  # level 1, index 1: [0, 3, 4]
        assert tri["level"] == 1 and tri["vertices"] == [0, 3, 4]
        tri["vertices"] = [0, 14, 4]
        with pytest.raises(ValueError, match="V_1 is not an id prefix: vertex 6 "
                                             "is missing below vertex 14"):
            complex_from_dict(data)

    def test_rejects_vertices_on_no_triangle(self):
        data = complex_to_dict(build_gasket(2))
        data["vertices"].append([1, 2, 1, 2])
        with pytest.raises(ValueError, match="vertex 15 lies on no triangle"):
            complex_from_dict(data)

    def test_rejects_curve_that_disagrees_with_its_triangle(self):
        # curve 38 is the left side [2, 13] of level-2 triangle 9, [13, 14, 2]
        data = complex_to_dict(build_gasket(2))
        assert data["triangles"][-1]["vertices"] == [13, 14, 2]
        assert data["curves"][38]["endpoints"] == [2, 13]
        data["curves"][38]["endpoints"] = [0, 14]
        with pytest.raises(ValueError, match="curve 38 disagrees with the triangle "
                                             "table"):
            complex_from_dict(data)
        data = complex_to_dict(build_gasket(2))
        data["curves"].pop()
        with pytest.raises(ValueError, match="the file has 38 curves, its "
                                             "triangles give 39"):
            complex_from_dict(data)
