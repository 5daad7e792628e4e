"""Optimal transport on finite metric spaces and coupled two-scale graphs.

Kantorovich distances are solved on the distance block of the support
union alone: a FiniteMetricSpace slices its one block, a MetricGraph runs one
traversal per support point, and a GasketSpace (prefractal.curves) reads
the gasket's geodesics from vertex ids. Mass moves from the net-supply to
the net-demand points, as a metric needs no transshipment. Rational
inputs run in integers at any support size (masses scaled by the lcm of
their denominators) and the duality gap must be exactly zero; float
inputs get a 1e-9 gap tolerance. The potentials are checked 1-Lipschitz
on every pair of the support union, and every plan entry (s, t) tight:
its potentials differ by exactly d(s, t).

The extent certificate bounds, from the gasket's cell trace, how far a
Dirac state on the fine level sits from the coarse one glued to it by
cross edges of weight alpha. Reported numbers are upper bounds from
measured Hausdorff quantities; premises are checked, not assumed. Its
mixture spot-checks solve no transport: moving each atom to its nearest
V_n vertex is optimal by Kantorovich-Rubinstein duality, so their value
is a closed-form sum over the atoms. Only CoupledGraph and
certify_extent import numpy and prefractal.metric, when they run.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple
from fractions import Fraction
from math import isfinite, lcm
from operator import mul, truediv

_FLOAT_MASS_TOL = 1e-12
_FLOAT_GAP_TOL = 1e-9


def _is_exact_weight(w) -> bool:
    return isinstance(w, (int, Fraction))


def _as_float(value):
    if isinstance(value, float):
        return value
    return float(Fraction(value))


class DiscreteMeasure:
    """Probability measure with finite support, given by index -> weight.

    Weights must be nonnegative and sum to one: exactly when rational,
    within 1e-12 when float. Duplicate indices merge.
    """

    def __init__(self, weights):
        items = weights.items() if isinstance(weights, dict) else weights
        merged = {}
        exact = True
        for i, w in items:
            if not isinstance(i, int) or i < 0:
                raise ValueError("support index must be a nonnegative int, got %r" % (i,))
            if _is_exact_weight(w):
                w = Fraction(w)
            else:
                w = float(w)
                exact = False
                if not isfinite(w):
                    raise ValueError("weight at %d is not finite" % i)
            if w < 0:
                raise ValueError("negative weight %s at index %d" % (w, i))
            if w != 0:
                merged[i] = merged.get(i, Fraction(0) if exact else 0.0) + w
        if not merged:
            raise ValueError("measure needs at least one positive weight")
        if exact:
            total = sum(merged.values())
            if total != 1:
                raise ValueError("weights must sum to 1, got %s" % total)
        else:
            merged = {i: float(w) for i, w in merged.items()}
            total = sum(merged.values())
            if abs(total - 1.0) > _FLOAT_MASS_TOL:
                raise ValueError("weights must sum to 1 within %g, got %.17g"
                                 % (_FLOAT_MASS_TOL, total))
        self.weights = dict(sorted(merged.items()))
        self.exact = exact

    @classmethod
    def dirac(cls, index: int) -> "DiscreteMeasure":
        return cls({index: Fraction(1)})

    @classmethod
    def uniform(cls, indices) -> "DiscreteMeasure":
        idx = list(indices)
        return cls([(i, Fraction(1, len(idx))) for i in idx])

    @classmethod
    def random_mixture(cls, rng: random.Random, indices, k: int) -> "DiscreteMeasure":
        """Exact random mixture on k points drawn from the sequence `indices`
        (a range is sampled without being copied)."""
        chosen = rng.sample(indices, k)
        raw = [rng.randint(1, 9) for _ in chosen]
        total = sum(raw)
        return cls([(i, Fraction(r, total)) for i, r in zip(chosen, raw)])

    @property
    def support(self):
        return list(self.weights)

    def weight(self, index: int):
        return self.weights.get(index, Fraction(0) if self.exact else 0.0)

    def __len__(self):
        return len(self.weights)


class TransportResult(namedtuple("TransportResult", [
        "value",
        "plan",        # (source index, target index, mass), marginal-exact
        "potentials",  # support index -> dual value, 1-Lipschitz
        "gap",         # primal cost minus dual value
        "exact"])):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "value": _as_float(self.value),
            "plan": [[i, j, _as_float(m)] for i, j, m in self.plan],
            "dual": [[i, _as_float(p)] for i, p in sorted(self.potentials.items())],
            "gap": _as_float(self.gap),
            "exact": self.exact,
        }


def _transport(d, b, floor):
    """Uncapacitated transport on the distance block d for net supplies b,
    from the points above `floor` to those below -floor.

    Successive shortest paths: each round runs heap Dijkstra under reduced
    costs from the first point with excess above `floor`, over the arcs
    from a supply point to every demand point and, at the negated cost,
    back along each pair that carries flow, and augments along the path
    to the first point with a deficit. The potentials phi keep d(s, t) +
    phi[s] - phi[t] >= 0 on every arc, with equality where flow runs.
    Returns the flow {(s, t): mass} and f(x) = min over supply points s of
    phi[s] + d(s, x), which is 1-Lipschitz and phi where flow runs.
    """
    supply = [v for v, x in enumerate(b) if x > floor]
    demand = [v for v, x in enumerate(b) if x < -floor]
    excess, flow, phi = list(b), {}, [0] * len(b)
    into = {t: {} for t in demand}  # the supply points that send t flow
    guard = 4 * (len(supply) + 1) * (len(demand) + 1)
    for _ in range(guard):
        source = next((s for s in supply if excess[s] > floor), None)
        if source is None or all(excess[t] >= -floor for t in demand):
            break
        dist, heap, parent, done = {source: 0}, [(0, source)], {}, {}
        while heap:  # every demand point is one arc from the source
            du, u = heapq.heappop(heap)
            if u in done:
                continue
            done[u] = du
            if excess[u] < -floor:
                break
            base = du + phi[u]
            if u in into:
                arcs = [(s, base - d[s][u] - phi[s]) for s in into[u] if s not in done]
            else:
                row = d[u]
                arcs = [(t, base + row[t] - phi[t]) for t in demand if t not in done]
            for v, nd in arcs:
                if v not in dist or nd < dist[v]:
                    dist[v], parent[v] = nd, u
                    heapq.heappush(heap, (nd, v))
        # shifting phi by min(d, d_u) - d_u keeps reduced costs nonnegative
        for v, dv in done.items():
            phi[v] += dv - du
        path, v = [], u
        while v in parent:
            path.append((parent[v], v))
            v = parent[v]
        # a backward arc leaves a demand point and cancels flow
        amount = min([excess[v], -excess[u]] + [flow[y, x] for x, y in path if x in into])
        for x, y in path:
            if x in into:
                flow[y, x] -= amount
                if not flow[y, x]:
                    del flow[y, x], into[x][y]
            else:
                flow[x, y] = flow.get((x, y), 0) + amount
                into[y][x] = True
        excess[v] -= amount
        excess[u] += amount
    else:
        raise RuntimeError("transport failed to settle within %d augmentations" % guard)
    return flow, [min(phi[s] + d[s][x] for s in supply) if supply else 0
                  for x in range(len(b))]


def kantorovich(space, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportResult:
    """Optimal transport cost between mu and nu, with a checked certificate.

    `space` is a FiniteMetricSpace, a MetricGraph or a GasketSpace, whose
    support_block gives the distances among the support union: ints over
    a common denominator, or floats. Exact at any support size when those
    and both measures are rational: masses are scaled to integers by the
    lcm of their denominators and the duality gap must be exactly zero.
    Float inputs give float results with a gap of at most 1e-9. The
    potentials are reported on the support union; a failed check names
    the gap, the pair or the entry.
    """
    for meas, name in ((mu, "mu"), (nu, "nu")):
        if max(meas.support) >= space.vertex_count:
            raise ValueError("%s has support index %d but the space has %d points"
                             % (name, max(meas.support), space.vertex_count))
    nodes = sorted(set(mu.support) | set(nu.support))
    d, unit = space.support_block(nodes)
    exact = bool(unit) and mu.exact and nu.exact
    slack, unit = (0, unit) if unit else (_FLOAT_GAP_TOL, 1)
    scale = lcm(*(w.denominator for m in (mu, nu) for w in m.weights.values())) if exact else 1
    lift = (lambda w: w.numerator * (scale // w.denominator)) if exact else _as_float
    out = Fraction if exact else truediv
    den = scale * unit
    tol, floor = (0, 0) if exact else (_FLOAT_GAP_TOL * den, _FLOAT_MASS_TOL)
    mu_w = {k: lift(mu.weights[p]) for k, p in enumerate(nodes) if p in mu.weights}
    nu_w = {k: lift(nu.weights[p]) for k, p in enumerate(nodes) if p in nu.weights}
    b = [mu_w.get(k, 0) - nu_w.get(k, 0) for k in range(len(nodes))]

    flow, f = _transport(d, b, floor)
    moved = sorted((s, t, m) for (s, t), m in flow.items() if m > floor)
    # f(t) - f(s) <= d(s, t) for 1-Lipschitz f, so equality pins each entry's cost
    for s, t, _ in moved:
        if abs(f[t] - f[s] - d[s][t]) > slack:
            raise RuntimeError(
                "plan entry (%d, %d) moves mass a distance %s, not the potential "
                "difference %s" % (nodes[s], nodes[t], out(d[s][t], unit),
                                   out(f[t] - f[s], unit)))
    value = sum(m * d[s][t] for s, t, m in moved)
    gap = value + sum(map(mul, b, f))
    if abs(gap) > tol:
        raise RuntimeError("duality gap %s exceeds %g" % (out(gap, den), tol / den))
    for a, row in enumerate(d):
        for c in range(a):
            if abs(f[a] - f[c]) > row[c] + slack:
                raise RuntimeError("potentials are not 1-Lipschitz on pair (%d, %d)"
                                   % (nodes[c], nodes[a]))
    plan = [(k, k, min(w, nu_w[k])) for k, w in mu_w.items() if k in nu_w] + moved
    row, col = {}, {}
    for s, t, m in plan:
        row[s] = row.get(s, 0) + m
        col[t] = col.get(t, 0) + m
    for k, p in enumerate(nodes):
        if max(abs(row.get(k, 0) - mu_w.get(k, 0)),
               abs(col.get(k, 0) - nu_w.get(k, 0))) > 2 * floor:
            raise RuntimeError("plan marginals disagree with the measures at point %d" % p)
    return TransportResult(
        value=out(value, den),
        plan=[(nodes[s], nodes[t], out(m, scale)) for s, t, m in plan],
        potentials={p: out(-f[k], unit) for k, p in enumerate(nodes)},
        gap=out(gap, den), exact=exact)


# -- Lipschitz calculus ---------------------------------------------------


def _seminorm_with_witness(space: FiniteMetricSpace, values, indices):
    best = None
    pair = None
    exact = space.exact and all(_is_exact_weight(v) for v in values)
    for a, row in enumerate(space.support_block(indices)[0]):
        for c in range(a + 1, len(indices)):
            num, d = abs(values[a] - values[c]), space._value(row[c])
            ratio = (Fraction(num) / d) if exact else _as_float(num) / _as_float(d)
            if best is None or ratio > best:
                best = ratio
                pair = (indices[a], indices[c])
    if best is None:
        best = Fraction(0) if exact else 0.0
    return best, pair, exact


def lipschitz_seminorm(space: FiniteMetricSpace, values, indices=None):
    """max |f(i) - f(j)| / d(i, j) over pairs; exact when inputs are."""
    indices = list(range(len(space)) if indices is None else indices)
    values = list(values)
    if len(values) != len(indices):
        raise ValueError("need one value per point, got %d values for %d points"
                         % (len(values), len(indices)))
    return _seminorm_with_witness(space, values, indices)[0]


def mcshane_extend(space: FiniteMetricSpace, indices, values, bound):
    """Largest L-Lipschitz extension g(x) = min_s (f(s) + L d(s, x)).

    Requires f to be L-Lipschitz on the subset already; otherwise raises
    naming a violating pair. Returns values on every point of the space,
    agreeing with f on the subset.
    """
    indices = list(indices)
    values = list(values)
    if len(values) != len(indices):
        raise ValueError("need one value per subset point")
    if not indices:
        raise ValueError("cannot extend from an empty subset")
    semi, pair, exact = _seminorm_with_witness(space, values, indices)
    lift = Fraction if exact and _is_exact_weight(bound) else _as_float
    bound_l = lift(bound)
    if semi > bound_l:
        raise ValueError(
            "data is not %s-Lipschitz on the subset: pair (%r, %r) has slope %s"
            % (bound, space.labels[pair[0]], space.labels[pair[1]], semi))
    rows = space.block[indices].tolist()
    return [min(lift(fs) + bound_l * lift(space._value(row[x]))
                for fs, row in zip(values, rows)) for x in range(len(space))]


# -- coupled two-scale graphs ---------------------------------------------


class CoupledGraph:
    """Two metric graphs glued by cross edges of weight alpha.

    Copy A keeps its vertex indices; copy B is shifted by A's vertex
    count. Shared pairs (a_index, b_index) get one cross edge each. The
    combined graph must come out connected, which MetricGraph checks.
    """

    def __init__(self, graph_a: MetricGraph, graph_b: MetricGraph, shared, alpha):
        import numpy as np

        from .metric import MetricGraph

        alpha_f = Fraction(alpha) if _is_exact_weight(alpha) else float(alpha)
        if alpha_f <= 0:
            raise ValueError("cross-edge weight alpha must be positive, got %s" % alpha)
        shared = list(shared)
        if not shared:
            raise ValueError("coupling needs at least one shared vertex pair")
        self.alpha = alpha_f
        self.n_a = graph_a.vertex_count
        self.n_b = graph_b.vertex_count
        self.shared = shared
        for a_idx, b_idx in shared:
            if not (0 <= a_idx < self.n_a and 0 <= b_idx < self.n_b):
                raise ValueError("shared pair (%d, %d) out of range" % (a_idx, b_idx))
        ends = np.concatenate([graph_a.ends, graph_b.ends + self.n_a,
                               np.array(shared, dtype=np.int64) + [0, self.n_a]])
        weights = (graph_a.weight_values() + graph_b.weight_values()
                   + [alpha_f] * len(shared))
        self.graph = MetricGraph(self.n_a + self.n_b, ends, weights)

    @classmethod
    def from_gasket(cls, cx: PrefractalComplex, n: int, m: int, alpha) -> "CoupledGraph":
        """Couple the fine level-m graph (copy A) to the coarse level-n one."""
        if m < n:
            raise ValueError("fine level m=%d must be at least coarse level n=%d" % (m, n))
        from .metric import gasket_metric_graph

        g_m = gasket_metric_graph(cx, m)
        g_n = gasket_metric_graph(cx, n)
        shared = [(v, v) for v in range(g_n.vertex_count)]
        return cls(g_m, g_n, shared, alpha)

    def a_node(self, index: int) -> int:
        if not 0 <= index < self.n_a:
            raise ValueError("copy-A index %d out of range" % index)
        return index

    def b_node(self, index: int) -> int:
        if not 0 <= index < self.n_b:
            raise ValueError("copy-B index %d out of range" % index)
        return self.n_a + index

    def node(self, side: str, index: int) -> int:
        if side == "a":
            return self.a_node(index)
        if side == "b":
            return self.b_node(index)
        raise ValueError("side must be 'a' or 'b', got %r" % side)

    def distance(self, x, y):
        """Distance between (side, index) pairs in the coupled graph. From
        ("a", x) to ("b", y) it is sup f(x) - g(y) over pairs with coupled
        seminorm at most one: shortest paths are dual to difference
        constraints."""
        return self.graph.single_source(self.node(*x))[self.node(*y)]


# -- extent certification -------------------------------------------------


class ExtentReport(namedtuple("ExtentReport", [
        "n", "m", "alpha",
        "epsilon",            # max of the two measured covering terms
        "epsilon_sample",     # on-edge sample term, cover slack included
        "epsilon_vertex",     # vertex-set term plus the 2^-m tail
        "epsilon_apriori",    # 2^-n + 2^-m, what the premises alone give
        "samples_per_curve", "worst_a_to_b", "worst_b_to_a", "empirical_max",
        "per_dirac_bound",    # alpha + epsilon
        "bound",              # 2*alpha + epsilon
        "bound_apriori",      # 2*alpha + epsilon_apriori
        "mixture_trials", "mixture_max", "exact"])):
    __slots__ = ()

    def to_row(self) -> tuple:
        """(n, m, alpha, epsilon, bound, empiricalMax) as floats, for tables."""
        return (self.n, self.m, _as_float(self.alpha), _as_float(self.epsilon),
                _as_float(self.bound), _as_float(self.empirical_max))

    def as_floats(self) -> dict:
        out = {}
        for key, val in self._asdict().items():
            out[key] = _as_float(val) if _is_exact_weight(val) and not isinstance(val, (int, bool)) else val
        return out


def _require_premises(n, m, eps_sample, eps_vertex):
    if eps_sample > Fraction(1, 2**n):
        raise ValueError(
            "sample-covering premise failed at level %d: the on-edge sample sits "
            "%s away from the vertex set, above the required %s"
            % (n, eps_sample, Fraction(1, 2**n)))
    if eps_vertex > Fraction(1, 2**n) + Fraction(1, 2**m):
        raise ValueError(
            "vertex-density premise failed between levels %d and %d: measured "
            "%s, above the required %s"
            % (n, m, eps_vertex, Fraction(1, 2**n) + Fraction(1, 2**m)))


def check_trials(k: int) -> None:
    """Raise ValueError unless k is a nonnegative number of mixture trials."""
    if k < 0:
        raise ValueError("mixture trials must be nonnegative, got %d" % k)


def check_alpha(alpha) -> None:
    """Raise ValueError unless alpha is None (epsilon/4) or positive."""
    if alpha is not None and alpha <= 0:
        raise ValueError("alpha must be positive, got %s" % alpha)


def certify_extent(trace: CellTrace, alpha=None, samples_per_curve: int = 3,
                   mixture_trials: int = 5, seed: int = 0) -> ExtentReport:
    """Certify how far Dirac states on either scale sit from the other, at
    the levels n = trace.n and m = trace.m.

    Measures the covering radii (sample-to-vertices at level n, vertices
    n-to-m plus the 2^-m tail), takes epsilon as their max, couples copy
    A (level m) to copy B (level n) with cross edges of weight alpha
    (default epsilon/4) on V_n, and reports the worst Dirac-to-opposite-
    copy distance against alpha + epsilon, with 2*alpha + epsilon as the
    headline bound. Random small mixtures are spot-checked against the
    same bound, which convexity guarantees.

    Everything comes from the trace; no complex, trace or graph is built.
    A path from copy A to copy B crosses at some V_n vertex for alpha, so
    d(x, B) = alpha + d_m(x, V_n), whose max over V_m is alpha +
    Haus_{d_m}(V_n, V_m), and every B vertex sits alpha from its A copy.
    Both need d_m = d_n on V_n, which the trace certifies.

    A mixture mu = sum w_i delta(a_i) on A moves each atom to the nearest
    corner c_i of its level-n cell, and W(mu, T#mu) = alpha + sum w_i
    d_m(a_i, V_n) exactly, read from the trace's nearest_hops. The plan
    a_i -> c_i, crossing at c_i, costs at most that sum. And f = d(., B)
    is 1-Lipschitz, alpha + d_m(a_i, V_n) at a_i (a path to B first
    crosses at some V_n vertex) and 0 on B, so Kantorovich-Rubinstein
    duality gives W >= int f dmu - int f d(T#mu), the same sum.
    """
    from .metric import certify_trace_agreement, gh_upper_bound

    check_trials(mixture_trials)
    n, m = trace.n, trace.m
    rep = gh_upper_bound(trace, samples_per_curve)
    eps_sample = rep.haus_vertices_to_sample + rep.sampling_slack
    eps_vertex = rep.haus_vn_in_vm + rep.tail
    _require_premises(n, m, eps_sample, eps_vertex)
    epsilon = max(eps_sample, eps_vertex)
    eps_apriori = Fraction(1, 2**n) + Fraction(1, 2**m)
    if alpha is None:
        alpha = epsilon / 4
    alpha = Fraction(alpha)
    check_alpha(alpha)
    agree = certify_trace_agreement(trace)
    if agree.max_discrepancy:
        raise ValueError("extent needs d_%d = d_%d on V_%d, but they differ by %s "
                         "at pair %s" % (m, n, n, agree.max_discrepancy,
                                         agree.worst_pair))

    # alpha + the Hausdorff term is below alpha + epsilon by the 2^-m tail
    worst_a = alpha + trace.hausdorff
    per_dirac = alpha + epsilon

    nv_m = len(trace.nearest_hops)
    rng = random.Random(seed)
    mixture_max = Fraction(0)
    for _ in range(mixture_trials):
        mu = DiscreteMeasure.random_mixture(rng, range(nv_m), min(4, nv_m))
        val = alpha + sum(w * Fraction(int(trace.nearest_hops[a]), 2**m)
                          for a, w in mu.weights.items())
        if val > mixture_max:
            mixture_max = val
    if mixture_max > per_dirac:
        raise RuntimeError("mixture spot-check found transport cost %s above "
                           "alpha + epsilon = %s" % (mixture_max, per_dirac))

    return ExtentReport(
        n=n, m=m,
        alpha=alpha,
        epsilon=epsilon,
        epsilon_sample=eps_sample,
        epsilon_vertex=eps_vertex,
        epsilon_apriori=eps_apriori,
        samples_per_curve=samples_per_curve,
        worst_a_to_b=worst_a,
        worst_b_to_a=alpha,
        empirical_max=worst_a,
        per_dirac_bound=per_dirac,
        bound=2 * alpha + epsilon,
        bound_apriori=2 * alpha + eps_apriori,
        mixture_trials=mixture_trials,
        mixture_max=mixture_max,
        exact=True,
    )
