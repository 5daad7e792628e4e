"""Output checkers for the benchmark's CLI commands.

Each checker takes the bytes a command wrote to stdout plus the command's
parameters and raises CheckFailed when the output is wrong. The checks
test what the output means (closed-form counts, certificates recomputed
here), never its bytes, so any correct output passes whatever its
schemaVersion. Nothing here imports prefractal: distances for the
transport certificate come from a gasket graph built and searched in
this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from collections import deque
from fractions import Fraction
from pathlib import Path

# pi to 50 decimals; the bracket decides every floor the checks need
_PI_DIGITS = Fraction("3.14159265358979323846264338327950288419716939937510")
_PI_LO = _PI_DIGITS - Fraction(1, 10**50)
_PI_HI = _PI_DIGITS + Fraction(1, 10**50)

_HARMONIC_REF = Path(__file__).with_name("harmonic_lengths_level6.json")
_FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    """A command's output is not a correct answer."""


def verify(check, out: bytes) -> None:
    """Run `check` on `out`; output too malformed to read fails as well."""
    try:
        check(out)
    except (LookupError, TypeError, ValueError) as exc:
        raise CheckFailed("unreadable output: %s: %s" % (type(exc).__name__, exc)) from None


def _require(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


def _json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed("output is not JSON: %s" % exc) from None


def _csv_rows(out: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(out.decode())))
    _require(len(rows) >= 1, "empty CSV output")
    return rows[0], rows[1:]


# -- closed forms --------------------------------------------------------


def vertex_count(level: int) -> int:
    return (3 ** (level + 1) + 3) // 2


def curve_count(level: int) -> int:
    return 3 * (3 ** (level + 1) - 1) // 2


def triangle_count(level: int) -> int:
    return (3 ** (level + 1) - 1) // 2


def _half_floor(x: Fraction) -> int:
    """floor(x / pi + 1/2), decided on both ends of the pi bracket."""
    lo = x / _PI_HI + Fraction(1, 2)
    hi = x / _PI_LO + Fraction(1, 2)
    f_lo, f_hi = math.floor(lo), math.floor(hi)
    _require(f_lo == f_hi, "mode count at %s is within the pi bracket of a tie", x)
    return f_lo


def gasket_mode_total(cutoff, level: int | None) -> int:
    """Eigenvalues in [-c, c] over all curves through `level`.

    A curve of length 2^-m has 2*floor(c*2^-m/pi + 1/2) of them and each
    level has 3^(m+1) curves; level None is the limit, summed until the
    per-curve count vanishes.
    """
    cut = Fraction(cutoff)
    total = 0
    m = 0
    while level is None or m <= level:
        per_curve = 2 * _half_floor(cut / 2**m)
        if per_curve == 0 and level is None:
            break
        total += 3 ** (m + 1) * per_curve
        m += 1
    return total


# -- an independent gasket graph -----------------------------------------


def gasket_graph(level: int) -> tuple[int, list[list[int]]]:
    """(|V_level|, adjacency lists) of the level-`level` gasket graph.

    Vertices are interned in the CLI's documented order: corners first,
    then level by level, children of similitude r outside, parent
    triangles inside, corners of each triangle in order. Coordinates are
    integers over 2^level in the oblique lattice basis.
    """
    side = 1 << level
    shifts = ((0, 0), (side, 0), (0, side))
    index = {}
    points = []

    def intern(p):
        i = index.get(p)
        if i is None:
            i = index[p] = len(points)
            points.append(p)
        return i

    triangles = [tuple(intern(p) for p in shifts)]
    for _ in range(level):
        children = []
        for sa, sb in shifts:
            for tri in triangles:
                children.append(tuple(
                    intern(((points[i][0] + sa) // 2, (points[i][1] + sb) // 2))
                    for i in tri))
        triangles = children
    adj = [[] for _ in points]
    for i0, i1, i2 in triangles:
        for u, v in ((i0, i1), (i1, i2), (i2, i0)):
            adj[u].append(v)
            adj[v].append(u)
    return len(points), adj


def hop_rows(adj, sources) -> dict[int, list[int]]:
    """Breadth-first hop counts from each source to every vertex."""
    rows = {}
    for s in sources:
        dist = [-1] * len(adj)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        rows[s] = dist
    return rows


def parse_measure(text: str) -> dict[int, Fraction]:
    out = {}
    for chunk in text.split(","):
        idx, w = chunk.split(":")
        out[int(idx)] = out.get(int(idx), Fraction(0)) + Fraction(w)
    return out


# -- per-command checks --------------------------------------------------


def check_gh_table(out: bytes, max_level: int, m: int) -> None:
    header, rows = _csv_rows(out)
    col = {name: k for k, name in enumerate(header)}
    for name in ("n", "m", "bound", "referenceBound", "agreementDiscrepancy"):
        _require(name in col, "gh-table header lacks %s", name)
    _require([int(r[col["n"]]) for r in rows] == list(range(max_level + 1)),
             "gh-table rows are not levels 0..%d", max_level)
    for r in rows:
        n = int(r[col["n"]])
        _require(int(r[col["m"]]) == m, "row %d has m=%s, expected %d", n, r[col["m"]], m)
        _require(float(r[col["agreementDiscrepancy"]]) == 0,
                 "row %d: agreement discrepancy %s is not 0", n,
                 r[col["agreementDiscrepancy"]])
        bound = float(r[col["bound"]])
        _require(0 < bound <= float(r[col["referenceBound"]]),
                 "row %d: bound %s is not in (0, reference %s]", n, bound,
                 r[col["referenceBound"]])


def check_gen_sg(out: bytes, level: int) -> None:
    cx = _json(out)["complex"]
    _require(cx["maxLevel"] == level, "maxLevel %s, expected %d", cx["maxLevel"], level)
    _require(len(cx["vertices"]) == vertex_count(level),
             "%d vertices, closed form gives %d", len(cx["vertices"]), vertex_count(level))
    _require(len(cx["curves"]) == curve_count(level),
             "%d curves, closed form gives %d", len(cx["curves"]), curve_count(level))
    _require(len(cx["triangles"]) == triangle_count(level),
             "%d triangles, closed form gives %d", len(cx["triangles"]),
             triangle_count(level))


def check_gen_svg(out: bytes, level: int) -> None:
    try:
        root = ET.fromstring(out)
    except ET.ParseError as exc:
        raise CheckFailed("SVG does not parse: %s" % exc) from None
    _require(root.tag.endswith("svg"), "root element is %s, not svg", root.tag)
    polys = [e for e in root.iter() if e.tag.endswith("polygon")]
    _require(len(polys) == 3**level, "%d polygons, level %d has %d triangles",
             len(polys), level, 3**level)
    for p in polys:
        _require(len(p.get("points", "").split()) == 3, "polygon without 3 corners")


def _harmonic_reference() -> list[float]:
    with open(_HARMONIC_REF) as fh:
        return json.load(fh)["lengths"]


def check_gen_harmonic(out: bytes, level: int, tol: float) -> None:
    """Right curve count; every length positive and no shorter than
    (1 - tol) times the recorded reference, since inscribed polylines
    only lengthen under refinement."""
    rows = _json(out)["lengths"]
    _require(len(rows) == curve_count(level), "%d lengths, closed form gives %d curves",
             len(rows), curve_count(level))
    ref = _harmonic_reference()
    _require(len(ref) >= len(rows), "no reference lengths for level %d", level)
    _require(sorted(r["id"] for r in rows) == list(range(len(rows))),
             "curve ids are not 0..%d", len(rows) - 1)
    for r in rows:
        length = r["length"]
        _require(length > 0, "curve %d has length %r", r["id"], length)
        _require(length >= (1 - tol) * ref[r["id"]],
                 "curve %d length %r is below the reference %r", r["id"], length,
                 ref[r["id"]])


def check_spectrum(out: bytes, level: int, cutoff: float) -> None:
    header, rows = _csv_rows(out)
    _require(header == ["value", "multiplicity"], "unexpected header %s", header)
    values = [float(r[0]) for r in rows]
    mults = [int(r[1]) for r in rows]
    _require(all(0 < v <= cutoff for v in values), "a value lies outside (0, cutoff]")
    _require(values == sorted(set(values)), "values are not distinct and ascending")
    _require(all(k > 0 and k % 2 == 0 for k in mults), "a multiplicity is not positive even")
    expected = gasket_mode_total(cutoff, level)
    _require(sum(mults) == expected, "total %d, closed form gives %d", sum(mults), expected)


def check_dimension(out: bytes, grid: int) -> None:
    fit = _json(out)["fit"]
    _require(len(fit["grid"]) == grid == len(fit["counts"]),
             "fit has %d cutoffs and %d counts, expected %d", len(fit["grid"]),
             len(fit["counts"]), grid)
    for cut, count in zip(fit["grid"], fit["counts"]):
        expected = gasket_mode_total(cut, None)
        _require(count == expected, "count %d at cutoff %r, closed form gives %d",
                 count, cut, expected)
    _require(1 < fit["slope"] < 2, "slope %r outside (1, 2)", fit["slope"])


def check_covariant(out: bytes, trials: int) -> None:
    rep = _json(out)["report"]
    _require(rep["trials"] == trials, "report has %s trials, asked for %d",
             rep["trials"], trials)
    _require(rep["max_identity_gap"] <= 1e-12, "identity gap %r above 1e-12",
             rep["max_identity_gap"])


def check_kantorovich(out: bytes, level: int, mu_text: str, nu_text: str,
                      graph) -> None:
    """Marginals, cost and a dual certificate recomputed from hop counts.

    Plan cost equal to the dual value with 1-Lipschitz potentials proves
    the value optimal (weak duality), without trusting the solver. `graph`
    is gasket_graph(level), built once per workload.
    """
    res = _json(out)["transport"]
    mu, nu = parse_measure(mu_text), parse_measure(nu_text)
    support = sorted(set(mu) | set(nu))
    _, adj = graph
    rows = hop_rows(adj, support)
    scale = 2.0**-level

    def dist(i, j):
        return rows[i][j] * scale if i in rows else rows[j][i] * scale

    value = res["value"]
    tol = _FLOAT_TOL * max(1.0, abs(value))
    row_sum = dict.fromkeys(support, 0.0)
    col_sum = dict.fromkeys(support, 0.0)
    cost = 0.0
    for i, j, mass in res["plan"]:
        _require(i in row_sum and j in col_sum, "plan moves mass off the support (%d, %d)", i, j)
        _require(mass >= -_FLOAT_TOL, "negative plan mass %r", mass)
        row_sum[i] += mass
        col_sum[j] += mass
        cost += mass * dist(i, j)
    for p in support:
        _require(abs(row_sum[p] - float(mu.get(p, 0))) <= _FLOAT_TOL,
                 "plan row marginal at %d is %r, mu has %s", p, row_sum[p], mu.get(p, 0))
        _require(abs(col_sum[p] - float(nu.get(p, 0))) <= _FLOAT_TOL,
                 "plan column marginal at %d is %r, nu has %s", p, col_sum[p], nu.get(p, 0))
    _require(abs(cost - value) <= tol, "plan cost %r differs from value %r", cost, value)

    pot = {int(i): p for i, p in res["dual"]}
    _require(set(pot) == set(support), "potentials do not cover the support")
    for a, i in enumerate(support):
        for j in support[a + 1:]:
            _require(abs(pot[i] - pot[j]) <= dist(i, j) + _FLOAT_TOL,
                     "potentials are not 1-Lipschitz at (%d, %d)", i, j)
    dual = sum(float(mu.get(p, 0) - nu.get(p, 0)) * pot[p] for p in support)
    _require(abs(dual - value) <= tol, "dual value %r differs from value %r", dual, value)


def check_extent(out: bytes, n: int, m: int) -> None:
    header, rows = _csv_rows(out)
    _require(len(rows) == 1, "extent wrote %d rows, expected 1", len(rows))
    row = dict(zip(header, rows[0]))
    _require(int(row["n"]) == n and int(row["m"]) == m, "row is for levels %s/%s",
             row.get("n"), row.get("m"))
    _require(float(row["empiricalMax"]) <= float(row["bound"]),
             "empiricalMax %s exceeds bound %s", row["empiricalMax"], row["bound"])
