"""Spectra of the interval Dirac operators attached to curve systems.

A curve of length L contributes eigenvalues pi*(k+1/2)/L for integer k,
so everything here reduces to half-integer lattice counts. Counting never
materializes eigenvalues: N is a sum of closed-form floors, evaluated
with two-sided rational bounds on pi so that no floor can flip through
float noise. Enumeration streams the spectrum one window of rows at a time.

The log-log slope of N over a cutoff grid estimates the dimension; the
gasket curve system targets log(3)/log(2), a single interval targets 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING

from .curves import check_cost

if TYPE_CHECKING:
    import numpy as np

WINDOW_ROWS = 1 << 16
# seconds per row written (1.2-1.8 us, JSON the slower) and a window's bytes
_ROW_SECONDS, _WINDOW_BYTES = 2e-6, 16 << 20


def _arctan_inv_bounds(x: int, terms: int):
    """Bracketing partial sums of arctan(1/x); alternating and decreasing."""
    lo = hi = None
    s = Fraction(0)
    for k in range(terms):
        term = Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
        s += term
        if k % 2 == 0:
            hi = s
        else:
            lo = s
    if lo is None or hi is None or hi - lo > Fraction(1, 10**41):
        raise RuntimeError("arctan bracket too loose; raise term count")
    return lo, hi


def _pi_bounds():
    # 16*arctan(1/5) - 4*arctan(1/239), tight two-sided rational bracket
    a_lo, a_hi = _arctan_inv_bounds(5, 34)
    b_lo, b_hi = _arctan_inv_bounds(239, 12)
    lo = 16 * a_lo - 4 * b_hi
    hi = 16 * a_hi - 4 * b_lo
    if not lo < hi or hi - lo > Fraction(1, 10**40):
        raise RuntimeError("pi bracket failed its width check")
    if not (float(lo) <= math.pi <= float(hi) or abs(float(lo) - math.pi) < 1e-15):
        raise RuntimeError("pi bracket disagrees with float pi")
    return lo, hi


PI_LOWER, PI_UPPER = _pi_bounds()


# cross products of the pi bracket a/b <= pi <= c/d, for mode_count
_PI_BD = PI_LOWER.denominator * PI_UPPER.denominator
_PI_AD = PI_LOWER.numerator * PI_UPPER.denominator
_PI_CB = PI_UPPER.numerator * PI_LOWER.denominator


def mode_count(length, cutoff) -> int:
    """Number of eigenvalues of the length-L interval operator in [-c, c].

    Equals 2*floor(c*L/pi + 1/2); the floor is decided with both pi
    bounds and rejected in the (practically unreachable) case where the
    argument sits inside the pi bracket of a half-integer. With
    2*c*L = p/q and the bracket a/b <= pi <= c/d, the two floors are
    floor((p/q + a/b) / (2c/d)) = (p*bd + q*ad) // (2q*cb) and
    floor((p/q + c/d) / (2a/b)) = (p*bd + q*cb) // (2q*ad), integer
    divisions with positive denominators, so no fraction is normalized.
    """
    if not 0 <= cutoff < math.inf:
        raise ValueError("cutoff must be finite and nonnegative, got %s" % cutoff)
    lam_num, lam_den = Fraction(length).as_integer_ratio()
    if lam_num <= 0:
        raise ValueError("curve length must be positive, got %s" % length)
    cut_num, cut_den = Fraction(cutoff).as_integer_ratio()
    p, q = 2 * cut_num * lam_num, cut_den * lam_den
    f_lo = (p * _PI_BD + q * _PI_AD) // (2 * q * _PI_CB)
    f_hi = (p * _PI_BD + q * _PI_CB) // (2 * q * _PI_AD)
    if f_lo != f_hi:
        raise ValueError(
            "cutoff*length/pi is within the pi bracket of a half-integer; "
            "the mode count is not decidable at this precision"
        )
    return 2 * f_lo


def _gasket_levels():
    """(length, multiplicity) of the gasket's curves level by level, without
    end: 3^(m+1) curves of length 2^-m at level m."""
    m = 0
    while True:
        yield Fraction(1, 2**m), 3 ** (m + 1)
        m += 1


class SpectrumSpec:
    """Curve-length multiset defining a direct-sum Dirac operator.

    entries: list of (length, multiplicity). A spec may instead be the
    full gasket limit: levels are then generated on demand, stopping at
    the level whose per-curve count at the working cutoff is zero
    (lengths below pi/(2*cutoff) contribute nothing).
    """

    def __init__(self, entries=None, infinite_gasket: bool = False, label: str = ""):
        self.infinite_gasket = infinite_gasket
        self.label = label
        if infinite_gasket:
            self.entries = None
            return
        self.entries = []
        for length, mult in entries:
            if Fraction(length) <= 0:
                raise ValueError("curve length must be positive, got %s" % length)
            if mult < 1 or mult != int(mult):
                raise ValueError("multiplicity must be a positive integer, got %s"
                                 % mult)
            self.entries.append((length, int(mult)))
        if not self.entries:
            raise ValueError("spectrum spec needs at least one curve")

    @classmethod
    def single(cls, length=1) -> "SpectrumSpec":
        return cls([(length, 1)], label="single interval")

    @classmethod
    def gasket(cls, level: int) -> "SpectrumSpec":
        if level < 0:
            raise ValueError("level must be nonnegative, got %d" % level)
        return cls(islice(_gasket_levels(), level + 1), label="gasket level %d" % level)

    @classmethod
    def gasket_limit(cls) -> "SpectrumSpec":
        return cls(infinite_gasket=True, label="gasket limit")

    @classmethod
    def from_lengths(cls, lengths) -> "SpectrumSpec":
        seen = {}
        for lam in lengths:
            seen[lam] = seen.get(lam, 0) + 1
        return cls(sorted(seen.items(), reverse=True))

    def entries_for(self, cutoff):
        """(length, multiplicity, mode count) triples at a working cutoff;
        the gasket limit stops at its first level with no modes."""
        if not self.infinite_gasket:
            return [(lam, mult, mode_count(lam, cutoff)) for lam, mult in self.entries]
        out = []
        for lam, mult in _gasket_levels():
            count = mode_count(lam, cutoff)
            if count == 0:
                return out
            out.append((lam, mult, count))


def counting_function(spec: SpectrumSpec, grid) -> list[tuple[float, int]]:
    """Exact (cutoff, eigenvalue count) pairs over an increasing grid."""
    grid = list(grid)
    if any(g <= 0 for g in grid):
        raise ValueError("cutoff grid must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("cutoff grid must be strictly increasing")
    out = []
    for cut in grid:
        total = sum(mult * count for _, mult, count in spec.entries_for(cut))
        out.append((float(cut), total))
    return out


class EigenvalueEnumeration(namedtuple("EigenvalueEnumeration", [
        "cutoff",
        "total",      # eigenvalues in [-cutoff, cutoff], with multiplicity
        "entries"])):  # (length, multiplicity, mode count) with modes
    """Distinct absolute eigenvalues <= cutoff with multiplicities, in blocks."""

    __slots__ = ()

    def blocks(self):
        """Ascending (values, multiplicities) blocks, one per nonempty window of
        about WINDOW_ROWS rows, in which equal floats of all lengths merge."""
        cursors = [[0, count // 2, float(lam), 2 * mult] for lam, mult, count in self.entries]
        edge = 0.0
        while cursors:
            edge += WINDOW_ROWS * math.pi / sum(c[2] for c in cursors)
            window = {}
            for c in cursors:
                k, stop, lam, weight = c
                while k < stop and (v := math.pi * (k + 0.5) / lam) < edge:
                    window[v] = window.get(v, 0) + weight
                    k += 1
                c[0] = k
            cursors = [c for c in cursors if c[0] < c[1]]
            if window:
                values = sorted(window)
                yield values, [window[v] for v in values]


def enumerate_eigenvalues(spec: SpectrumSpec, cutoff) -> EigenvalueEnumeration:
    """The spectrum up to a cutoff, in blocks; refused past the work guard."""
    entries = [e for e in spec.entries_for(cutoff) if e[2]]
    rows = sum(count // 2 for _, _, count in entries)
    check_cost(_WINDOW_BYTES, rows * _ROW_SECONDS,
               "enumerating %d rows up to cutoff %s" % (rows, cutoff))
    total = sum(mult * count for _, mult, count in entries)
    return EigenvalueEnumeration(float(cutoff), total, entries)


class DimensionFit(namedtuple("DimensionFit", "slope intercept stderr grid counts "
                                             "residuals spec_label")):
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "stderr": self.stderr,
            "grid": self.grid.tolist(),
            "counts": self.counts.tolist(),
            "residuals": self.residuals.tolist(),
            "spec": self.spec_label,
        }


def dimension_fit(spec: SpectrumSpec, lam_min, lam_max,
                  grid_size: int = 40) -> DimensionFit:
    """Least-squares slope of log N against log cutoff on a log-uniform grid.

    The slope estimates the growth exponent of the counting function; the
    gasket limit targets log(3)/log(2), one interval targets 1.
    """
    for name, value in (("lower", lam_min), ("upper", lam_max)):
        if not math.isfinite(value):
            raise ValueError("%s cutoff must be finite, got %s" % (name, value))
    if grid_size < 2:
        raise ValueError("grid must have at least two points")
    if not float(lam_min) >= float(PI_LOWER):
        raise ValueError("lower cutoff %s is below pi; counts can vanish"
                         % lam_min)
    if not float(lam_max) > float(lam_min):
        raise ValueError("degenerate cutoff range")
    import numpy as np

    grid = np.exp(np.linspace(math.log(float(lam_min)),
                              math.log(float(lam_max)), grid_size))
    table = counting_function(spec, grid.tolist())
    counts = np.array([n for _, n in table], dtype=float)
    if (counts <= 0).any():
        raise ValueError("counting function vanished inside the fit window")
    x = np.log(grid)
    y = np.log(counts)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - a.dot(coef)
    dof = max(len(x) - 2, 1)
    var = float(resid.dot(resid)) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(var / sxx) if sxx > 0 else float("inf")
    return DimensionFit(slope, intercept, stderr, grid, counts.astype(int),
                        resid, spec.label)


def _half_integer_zeta(s: float, tol: float = 1e-12) -> float:
    """Sum of (k+1/2)^(-s) for k >= 0, to absolute tolerance tol.

    Partial sum plus integral tail K^(1-s)/(s-1); the tail is a midpoint
    rule for the integral, so its error is bounded by s*K^(-s-1)/24,
    and K doubles until that bound is below tol.
    """
    k_tail = 64
    while s * k_tail ** (-s - 1) / 24 > tol:
        k_tail *= 2
        if k_tail > 2**26:
            raise ValueError("mode-sum tolerance unreachable for s=%s" % s)
    import numpy as np

    ks = np.arange(k_tail) + 0.5
    partial = math.fsum((ks ** (-s)).tolist())
    tail = k_tail ** (1 - s) / (s - 1)
    return partial + tail


class ZetaPartial(namedtuple("ZetaPartial", "value s curves_included mode_tol spec_label")):
    __slots__ = ()


def zeta_partial(spec: SpectrumSpec, s: float, max_curves: int | None = None) -> ZetaPartial:
    """Partial sum of |eigenvalue|^(-s) over the first curves of the spec.

    Per curve the mode sum is closed-form-accelerated; curves are taken in
    spec order until max_curves is reached. For the gasket limit a cap is
    required, since level contributions grow like (3*2^(-s))^level.
    """
    if not s > 1:
        raise ValueError("mode sums diverge for s <= 1, got s=%s" % s)
    if spec.infinite_gasket:
        if max_curves is None:
            raise ValueError("the gasket limit needs an explicit curve cap")
        entries = _gasket_levels()
    else:
        entries = spec.entries
    mode_tol = 1e-12
    base = _half_integer_zeta(s, mode_tol)
    included = 0
    terms = []
    # the gasket levels never end; the curve cap stops the loop
    for lam, mult in entries:
        take = mult
        if max_curves is not None:
            take = min(mult, max_curves - included)
            if take <= 0:
                break
        terms.append(take * 2 * (float(lam) / math.pi) ** s * base)
        included += take
    return ZetaPartial(math.fsum(terms), s, included, mode_tol, spec.label)
