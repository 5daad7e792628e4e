"""Sparse eigenbasis vectors: D-norms, projections, evolution, reach.

Core claims:
    - DN is a norm dominating the plain norm, with frozen hand values;
    - projection is idempotent, norm-nonincreasing, and obeys the
      small-tail bound ||v - project(v,n)|| < eps when the dropped curve
      lengths sit below pi*eps/2;
    - evolution is unitary, a group, commutes with projection, and the
      sup of the evolved projection defect over any time grid equals the
      static defect norm;
    - the two-vector tunnel norm satisfies the inner-product Leibniz
      inequality.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles
from prefractal.curves import curve_count, kappa, kappa_inverse
from prefractal.modes import (
    ModeVector,
    coupled_dnorm,
    covariant_reach_witness,
    dn_norm,
    evolve,
    inner,
    mode_frequency,
    project,
    random_mode_vector,
    tail_level_for,
)
from prefractal.spectrum import PI_LOWER


def _make_rng():
    return random.Random(6151)


class TestModeVector:
    def test_zero_coefficients_dropped(self):
        v = ModeVector({(0, 0): 0.0, (1, 2): 1.0})
        assert len(v) == 1

    def test_negative_curve_rejected(self):
        with pytest.raises(ValueError, match="curve id"):
            ModeVector({(-1, 0): 1.0})

    def test_vector_arithmetic(self):
        a = ModeVector({(0, 0): 1.0, (3, 1): 2.0})
        b = ModeVector({(0, 0): 1.0})
        assert (a - b).entries == {(3, 1): 2.0}
        assert (a + b).entries[(0, 0)] == 2.0
        assert (2 * b).entries[(0, 0)] == 2.0

    def test_json_roundtrip(self):
        v = random_mode_vector(_make_rng())
        assert ModeVector.from_dict(v.to_dict()) == v

    def test_inner_conjugate_symmetry(self):
        rng = _make_rng()
        a = random_mode_vector(rng)
        b = random_mode_vector(rng)
        assert inner(a, b) == pytest.approx(inner(b, a).conjugate())
        assert inner(a, a).real == pytest.approx(a.norm() ** 2)


class TestDnNorm:
    def test_unit_eigenvector(self):
        v = ModeVector({(0, 0): 1.0})
        assert dn_norm(v) == pytest.approx(1 + math.pi / 2)

    def test_two_mode_pythagoras(self):
        v = ModeVector({(0, 0): 0.6, (0, -1): 0.8})
        assert v.norm() == pytest.approx(1.0)
        assert dn_norm(v) == pytest.approx(1 + math.pi / 2)

    def test_zero_vector(self):
        assert dn_norm(ModeVector()) == 0.0

    def test_membership_rejection_names_curve(self):
        v = ModeVector({(curve_count(2), 0): 1.0})
        with pytest.raises(ValueError, match="curve id 39"):
            dn_norm(v, 2)

    def test_dominates_plain_norm(self):
        rng = _make_rng()
        for _ in range(50):
            v = random_mode_vector(rng)
            assert dn_norm(v) >= v.norm()

    def test_homogeneity_and_triangle(self):
        rng = _make_rng()
        for _ in range(50):
            a = random_mode_vector(rng)
            b = random_mode_vector(rng)
            c = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            assert dn_norm(c * a) == pytest.approx(abs(c) * dn_norm(a), abs=1e-12)
            assert dn_norm(a + b) <= dn_norm(a) + dn_norm(b) + 1e-12

    def test_frequency_sign_carries_mode_sign(self):
        assert mode_frequency(0, -1) == -mode_frequency(0, 0)

    def test_frequency_equals_division_by_fraction_length(self):
        # dividing by the float of 2**-level is an exact scaling by 2**level
        for level in range(31):
            for j in (kappa(level, 0), kappa(level + 1, 0) - 1):
                length = float(Fraction(1, 2**level))
                for k in range(-64, 65):
                    assert mode_frequency(j, k) == math.pi * (k + 0.5) / length


class TestProject:
    def test_identity_on_members(self):
        v = ModeVector({(kappa(2, 1), 3): 1.5})
        assert project(v, 2) == v

    def test_idempotent_and_nonincreasing(self):
        rng = _make_rng()
        for _ in range(30):
            v = random_mode_vector(rng)
            p = project(v, 3)
            assert project(p, 3) == p
            assert p.norm() <= v.norm() + 1e-15
            assert dn_norm(p) <= dn_norm(v) + 1e-12

    def test_tail_bound_seeded(self):
        rng = _make_rng()
        for _ in range(200):
            v = random_mode_vector(rng)
            for eps in (0.1, 0.01):
                n = tail_level_for(eps)
                assert (v - project(v, n)).norm() < eps

    def test_tail_levels(self):
        assert tail_level_for(0.1) == 2
        assert tail_level_for(0.01) == 5

    def test_tail_level_is_minimal_for_pi_lower(self):
        # the smallest n with 2^-(n+1) < PI_LOWER * eps / 2, decided exactly
        rng = random.Random(4417)
        for eps in [10 ** rng.uniform(-6, 1) for _ in range(300)] + [0.1, 0.01]:
            n = tail_level_for(eps)
            budget = PI_LOWER * Fraction(eps) / 2
            assert Fraction(1, 2 ** (n + 1)) < budget
            assert n == 0 or Fraction(1, 2**n) >= budget

    def test_single_mode_tail(self):
        j = kappa(10, 0)
        lam = 2.0 ** -kappa_inverse(j)[0]
        v = ModeVector({(j, 0): 1.0})
        v = v * (1.0 / dn_norm(v))
        assert (v - project(v, 9)).norm() <= 2 * lam / math.pi


class TestEvolve:
    def test_time_zero_identity(self):
        v = random_mode_vector(_make_rng())
        assert (evolve(v, 0.0) - v).norm() == 0.0

    def test_unitary(self):
        rng = _make_rng()
        for _ in range(20):
            v = random_mode_vector(rng)
            t = rng.uniform(-10, 10)
            assert abs(evolve(v, t).norm() - v.norm()) < 1e-12

    def test_group_law(self):
        rng = _make_rng()
        v = random_mode_vector(rng)
        s, t = 1.25, -3.5
        assert (evolve(evolve(v, s), t) - evolve(v, s + t)).norm() < 1e-12

    def test_commutes_with_project(self):
        v = random_mode_vector(_make_rng())
        assert (project(evolve(v, 2.2), 3)
                - evolve(project(v, 3), 2.2)).norm() < 1e-15


class TestCovariantReach:
    def test_member_vector_reaches_zero(self):
        v = random_mode_vector(_make_rng())
        v = project(v, 4)
        for t in (-3.0, 0.5, 9.0):
            assert (evolve(v, t) - evolve(project(v, 4), t)).norm() == 0.0

    def test_sup_equals_static_defect(self):
        rep = covariant_reach_witness(2, 0.1, trials=40, seed=11)
        assert rep.max_identity_gap < 1e-12

    def test_threshold_regime(self):
        for eps in (0.1, 0.01):
            n = tail_level_for(eps)
            rep = covariant_reach_witness(n, eps, trials=40, seed=23)
            assert rep.tail_lengths_small
            assert rep.below_epsilon
            assert rep.max_reach < eps

    @pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("n", range(10))
    def test_matches_whole_vector_oracle(self, n, epsilon):
        # n >= max_level (8) leaves an empty defect, so the sup is 0
        for seed in range(5):
            for size in (2, 41):
                got = covariant_reach_witness(n, epsilon, trials=12, seed=seed,
                                              t_grid_size=size)
                assert got == oracles.covariant_reach_oracle(
                    n, epsilon, trials=12, seed=seed, t_grid_size=size)
                if n >= 8:
                    assert got.max_reach == 0.0

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_rejects_short_time_grid(self, size):
        with pytest.raises(ValueError, match="at least two points, got %d" % size):
            covariant_reach_witness(2, 0.1, trials=1, t_grid_size=size)

    def test_report_round_trips(self):
        rep = covariant_reach_witness(2, 0.1, trials=5, seed=3)
        d = rep.to_dict()
        assert d["n"] == 2 and d["trials"] == 5


class TestTunnelNorm:
    def test_inner_leibniz_chain(self):
        # |<a,a'> - <pa,pa'>| <= 2 eps T(a,pa) T(a',pa')
        rng = _make_rng()
        eps = 0.05
        n = tail_level_for(eps)
        for _ in range(40):
            a = random_mode_vector(rng)
            b = random_mode_vector(rng)
            pa, pb = project(a, n), project(b, n)
            lhs = abs(inner(a, b) - inner(pa, pb))
            rhs = 2 * eps * coupled_dnorm(a, pa, n, eps) * coupled_dnorm(b, pb, n, eps)
            assert lhs <= rhs + 1e-12

    def test_tunnel_norm_floor(self):
        rng = _make_rng()
        v = random_mode_vector(rng)
        p = project(v, 2)
        assert coupled_dnorm(v, p, 2, 0.1) >= dn_norm(v)
