"""Sparse vectors in the Dirac eigenbasis of the gasket curve system.

A vector is a finite map (curve id, integer mode) -> complex coefficient;
the operator, its norm, its unitary evolution and the level projections
are all diagonal in this basis, so none of them is ever materialized as
a matrix. The D-norm is the graph norm ||v|| + ||Dv||; membership in the
level-n space just means every supported curve id is below the level-n
curve count.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from fractions import Fraction

from .curves import curve_count, kappa, kappa_inverse
from .spectrum import PI_LOWER

INFINITE = None  # level argument meaning "no truncation"


def mode_frequency(curve_id: int, mode: int) -> float:
    """Diagonal eigenvalue pi*(mode+1/2)/length of the (curve, mode) basis vector.

    The length is 2**-level, so the division is an exact scaling by 2**level.
    """
    level, _, _ = kappa_inverse(curve_id)
    return math.pi * (mode + 0.5) * (1 << level)


class ModeVector:
    """Finitely supported eigenbasis coefficients over the gasket curves."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for (j, k), t in dict(entries).items():
                if j < 0:
                    raise ValueError("negative curve id %d" % j)
                t = complex(t)
                if t != 0:
                    self.entries[(int(j), int(k))] = t

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, ModeVector) and self.entries == other.entries

    def __add__(self, other):
        out = dict(self.entries)
        for key, t in other.entries.items():
            out[key] = out.get(key, 0j) + t
        return ModeVector(out)

    def __sub__(self, other):
        out = dict(self.entries)
        for key, t in other.entries.items():
            out[key] = out.get(key, 0j) - t
        return ModeVector(out)

    def __mul__(self, scalar):
        return ModeVector({key: t * scalar for key, t in self.entries.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(math.fsum(abs(t) ** 2 for t in self.entries.values()))

    def to_dict(self) -> dict:
        rows = [{"curve": j, "mode": k, "re": t.real, "im": t.imag}
                for (j, k), t in sorted(self.entries.items())]
        return {"entries": rows}

    @classmethod
    def from_dict(cls, data: dict) -> "ModeVector":
        return cls({(r["curve"], r["mode"]): complex(r["re"], r["im"])
                    for r in data["entries"]})


def inner(a: ModeVector, b: ModeVector) -> complex:
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    total = 0j
    for key, t in small.entries.items():
        u = big.entries.get(key)
        if u is not None:
            if small is a:
                total += t.conjugate() * u
            else:
                total += u.conjugate() * t
    return total


def _check_membership(xi: ModeVector, level) -> None:
    if level is INFINITE:
        return
    cap = curve_count(level)
    for j, _ in xi.entries:
        if j >= cap:
            raise ValueError(
                "curve id %d lies outside the level-%d system (first %d curves)"
                % (j, level, cap)
            )


def dn_norm(xi: ModeVector, level=INFINITE) -> float:
    """Graph norm ||v|| + ||Dv|| of the level's Dirac operator."""
    _check_membership(xi, level)
    d2 = math.fsum((mode_frequency(j, k) ** 2) * abs(t) ** 2
                   for (j, k), t in xi.entries.items())
    return xi.norm() + math.sqrt(d2)


def project(xi: ModeVector, level: int) -> ModeVector:
    """Orthogonal projection onto the level's curve system: drop the rest."""
    cap = curve_count(level)
    return ModeVector({key: t for key, t in xi.entries.items() if key[0] < cap})


def evolve(xi: ModeVector, t: float) -> ModeVector:
    """Unitary evolution: each coefficient picks up phase exp(i t freq)."""
    return ModeVector({
        (j, k): coeff * cmath.exp(1j * t * mode_frequency(j, k))
        for (j, k), coeff in xi.entries.items()
    })


def tail_level_for(epsilon: float) -> int:
    """Smallest n with every level > n curve length below pi*epsilon/2,
    decided with the rational lower bound PI_LOWER on pi."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite, got %s" % epsilon)
    n = 0
    while not Fraction(1, 2 ** (n + 1)) < PI_LOWER * Fraction(epsilon) / 2:
        n += 1
    return n


def coupled_dnorm(xi: ModeVector, eta: ModeVector, n: int, epsilon: float) -> float:
    """Tunnel norm max{DN_inf(xi), DN_n(eta), ||xi - eta|| / epsilon}."""
    return max(dn_norm(xi), dn_norm(eta, n), (xi - eta).norm() / epsilon)


def random_mode_vector(rng: random.Random) -> ModeVector:
    """Seeded DN-normalized vector: 1 or 2 entries, of modes -8..8, on each
    of 3 to 9 distinct levels among 0..8."""
    entries = {}
    for lev in rng.sample(range(9), rng.randint(3, 9)):
        for _ in range(rng.randint(1, 2)):
            j = kappa(lev, 0) + rng.randrange(3 ** (lev + 1))
            k = rng.randint(-8, 8)
            entries[(j, k)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    xi = ModeVector(entries)
    return xi * (1.0 / dn_norm(xi))


class ReachReport(namedtuple("ReachReport", [
        "n", "epsilon", "trials", "t_grid_size",
        "max_reach",           # worst sup_t ||evolve(xi,t) - evolve(eta,t)|| over trials
        "max_identity_gap",    # worst |sup_t(...) - ||xi - eta|| |
        "tail_lengths_small",  # all dropped lengths < pi*epsilon/2
        "below_epsilon"])):
    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def covariant_reach_witness(n: int, epsilon: float, trials: int,
                            seed: int = 0, t_grid_size: int = 41) -> ReachReport:
    """Empirical reach of the level-n projection under evolution.

    For seeded DN-normalized vectors, the projection defect is supported
    on dropped curves, evolution acts there by unit phases, and so the
    sup over the time grid must equal the static defect norm; when the
    dropped lengths are all below pi*epsilon/2 the defect stays under
    epsilon.

    Only the defect is evolved: a kept entry evolves to the same number
    in a vector and in its projection, so it cancels exactly in their
    difference, and fsum makes each norm independent of entry order.
    """
    tail_ok = n >= tail_level_for(epsilon)  # validates epsilon
    if not math.isfinite(2.0 / epsilon):
        raise ValueError("epsilon %s is too small: the time grid's 2/epsilon "
                         "is not finite" % epsilon)
    if trials < 1:
        raise ValueError("need at least one trial")
    if t_grid_size < 2:
        raise ValueError("time grid needs at least two points, got %s"
                         % t_grid_size)
    cap = curve_count(n)
    rng = random.Random(seed)
    t_grid = [(-1.0 / epsilon) + (2.0 / epsilon) * i / (t_grid_size - 1)
              for i in range(t_grid_size)]
    max_reach = 0.0
    max_gap = 0.0
    for _ in range(trials):
        xi = random_mode_vector(rng)
        defect = [(c, mode_frequency(j, k))
                  for (j, k), c in xi.entries.items() if j >= cap]
        static = math.sqrt(math.fsum(abs(c) ** 2 for c, _ in defect))
        sup = max(math.sqrt(math.fsum([abs(c * cmath.exp(1j * t * f)) ** 2
                                       for c, f in defect]))
                  for t in t_grid)
        max_reach = max(max_reach, sup)
        max_gap = max(max_gap, abs(sup - static))
    return ReachReport(n, epsilon, trials, t_grid_size, max_reach, max_gap,
                       tail_ok, max_reach < epsilon)
