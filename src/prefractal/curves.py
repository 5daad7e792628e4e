"""Curve and vertex counts of the gasket's standard parametrization.

The bottom, right and left edges of the r-th level-m triangle are curves
kappa(m, r), kappa(m, r) + 1 and kappa(m, r) + 2; through level n there
are curve_count(n) curves on vertex_count(n) vertices. This is integer
arithmetic on ids only, with no complex and no arrays, so the sparse
mode vectors of `covariant` index their curves without importing numpy.
"""

from __future__ import annotations

from bisect import bisect_right


def kappa(n: int, r: int) -> int:
    """Curve id of the bottom edge of the r-th (0-indexed) level-n triangle."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    if not 0 <= r < 3**n:
        raise ValueError("triangle index %d out of range 0..%d for level %d" % (r, 3**n - 1, n))
    # 3 * (sum_{k<n} 3^k + r), with kappa(0,0) = 0 by convention
    return 3 * ((3**n - 1) // 2 + r)


# kappa(n, 0) for n = 0, 1, ...; kappa_inverse extends it past the largest id seen
_LEVEL_STARTS = [kappa(n, 0) for n in range(32)]


def kappa_inverse(curve_id: int) -> tuple[int, int, int]:
    """Inverse lookup: curve id -> (level n, triangle index r, edge offset)."""
    if curve_id < 0:
        raise ValueError("curve id must be nonnegative, got %d" % curve_id)
    while _LEVEL_STARTS[-1] <= curve_id:
        _LEVEL_STARTS.append(kappa(len(_LEVEL_STARTS), 0))
    n = bisect_right(_LEVEL_STARTS, curve_id) - 1
    within = curve_id - _LEVEL_STARTS[n]
    return (n, within // 3, within % 3)


def curve_count(n: int) -> int:
    """B_n, the number of curves with level <= n: (3/2)(3^(n+1) - 1)."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    return 3 * (3 ** (n + 1) - 1) // 2


def vertex_count(n: int) -> int:
    """|V_n| = (3^(n+1) + 3)/2."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    return (3 ** (n + 1) + 3) // 2

