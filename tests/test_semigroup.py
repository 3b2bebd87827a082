import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from fracheat import semigroup, special
from fracheat.grid import Mesh, restrict
from fracheat.semigroup import (
    frac_semigroup_apply,
    frac_semigroup_kernel,
    heat_semigroup_apply,
    heat_semigroup_kernel,
    subordinate_scalar_P,
    subordinate_scalar_S,
    subordinated_P_apply,
    subordinated_S_apply,
    subordinated_kernel,
    subordination_quadrature,
)
from fracheat.special import mittag_leffler


def _gaussian(mesh):
    return restrict(lambda x: math.exp(-x * x / 4.0), mesh)


class TestFracSemigroupKernel:
    def test_identity_at_t_zero(self):
        k = frac_semigroup_kernel(0.6, 0.5, 0.0, 10)
        assert k.w[0] == 1.0 and np.all(k.w[1:] == 0.0)

    def test_positivity_and_submarkov_mass(self):
        k = frac_semigroup_kernel(0.6, 0.2, 0.7, 400)
        assert np.min(k.w) > -1e-14
        assert k.mass() <= 1.0 + 1e-12

    def test_mass_approaches_one_with_width(self):
        # the dropped tail is the only mass deficit
        masses = [frac_semigroup_kernel(0.4, 0.5, 0.3, n).mass() for n in (50, 200, 800)]
        assert masses[0] < masses[1] < masses[2] <= 1.0 + 1e-12

    def test_s_equal_one_matches_bessel(self):
        t, h = 0.3, 0.5
        k = frac_semigroup_kernel(1.0, h, t, 50)
        ref = ive(np.arange(51), 2.0 * t / h ** 2)
        assert np.max(np.abs(k.w - ref)) < 1e-10

    def test_semigroup_law(self):
        s, h = 0.6, 0.2
        k1 = frac_semigroup_kernel(s, h, 0.3, 600).w
        k2 = frac_semigroup_kernel(s, h, 0.4, 600).w
        k12 = frac_semigroup_kernel(s, h, 0.7, 600).w
        f1 = np.concatenate((k1[:0:-1], k1))
        f2 = np.concatenate((k2[:0:-1], k2))
        conv = np.convolve(f1, f2)
        mid = len(conv) // 2
        assert np.max(np.abs(conv[mid:mid + 400] - k12[:400])) < 1e-8

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            frac_semigroup_kernel(1.5, 0.5, 0.1, 10)
        with pytest.raises(ValueError):
            frac_semigroup_kernel(0.5, 0.5, -0.1, 10)


class TestApply:
    def test_contraction(self):
        mesh = Mesh(h=0.25, a=-20.0, b=20.0)
        u = _gaussian(mesh)
        for t in (0.05, 0.5, 2.0):
            v = frac_semigroup_apply(u, 0.7, t)
            assert v.sup_norm() <= u.sup_norm() + 1e-13

    def test_generator_consistency(self):
        # (u - T(delta) u)/delta -> A u at rate O(delta)
        from fracheat.kernel import apply_operator, kernel_weights

        mesh = Mesh(h=0.2, a=-30.0, b=30.0)
        u = _gaussian(mesh)
        kern = kernel_weights(0.6, mesh.h, mesh.n_points)
        au = apply_operator(kern, u).values
        sl = mesh.window_slice(-5.0, 5.0)
        gaps = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            v = frac_semigroup_apply(u, 0.6, delta)
            quot = (u.values - v.values) / delta
            gaps.append(np.max(np.abs(quot[sl] - au[sl])))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.3)

    def test_heat_semigroup_matches_fractional_at_s_one(self):
        mesh = Mesh(h=0.25, a=-20.0, b=20.0)
        u = _gaussian(mesh)
        a = heat_semigroup_apply(u, 0.4)
        kern = frac_semigroup_kernel(1.0, mesh.h, 0.4, mesh.n_points)
        b = frac_semigroup_apply(u, 1.0, 0.4, kernel=kern)
        assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_heat_kernel_values(self):
        k = heat_semigroup_kernel(0.5, 0.3, 40)
        ref = ive(np.arange(k.half_width + 1), 2.0 * 0.3 / 0.25)
        assert np.max(np.abs(k.w - ref)) < 1e-14


class TestSubordination:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_moments(self, alpha):
        q = subordination_quadrature(alpha)
        m0 = q.integrate(np.ones_like(q.nodes))
        m1 = q.integrate(q.nodes)
        m2 = q.integrate(q.nodes ** 2)
        assert m0 == pytest.approx(1.0, abs=1e-10)
        assert m1 == pytest.approx(1.0 / math.gamma(1.0 + alpha), abs=1e-10)
        assert m2 == pytest.approx(2.0 / math.gamma(1.0 + 2.0 * alpha), abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0])
    def test_scalar_identity_S(self, alpha, lam, t):
        ref = mittag_leffler(alpha, -lam * t ** alpha)
        assert subordinate_scalar_S(alpha, lam, t) == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_scalar_identity_P(self, alpha):
        lam, t = 1.3, 0.7
        ref = t ** (alpha - 1.0) * mittag_leffler(alpha, -lam * t ** alpha, beta=alpha)
        assert subordinate_scalar_P(alpha, lam, t) == pytest.approx(ref, abs=1e-6)

    def test_S_identity_at_zero_time(self):
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        u = _gaussian(mesh)
        v = subordinated_S_apply(u, 0.6, 0.5, 0.0)
        assert np.array_equal(u.values, v.values)

    def test_S_contraction_random(self):
        rng = np.random.default_rng(11)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        from fracheat.grid import GridFunction

        for _ in range(100):
            u = GridFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_points))
            v = subordinated_S_apply(u, 0.6, 0.5, 0.8)
            assert v.sup_norm() <= u.sup_norm() + 1e-12

    def test_P_bound_random(self):
        # ||P(t) g|| <= t^{alpha-1} ||g||
        rng = np.random.default_rng(13)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        from fracheat.grid import GridFunction

        alpha = 0.7
        for t in (0.25, 1.0, 2.0):
            for _ in range(34):
                u = GridFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_points))
                v = subordinated_P_apply(u, 0.6, alpha, t)
                assert v.sup_norm() <= t ** (alpha - 1.0) * u.sup_norm() + 1e-12

    def test_P_rejects_zero_time(self):
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        with pytest.raises(ValueError):
            subordinated_P_apply(_gaussian(mesh), 0.6, 0.5, 0.0)

    @given(alpha=st.floats(0.2, 0.9), lam=st.floats(0.1, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_scalar_S_decreasing_in_time(self, alpha, lam):
        vals = [subordinate_scalar_S(alpha, lam, t) for t in (0.1, 0.5, 1.5)]
        assert vals[0] > vals[1] > vals[2] > 0.0


def _richardson_trapezoid(s, factors, rates, half_width, m=1 << 20):
    """Reference coefficients n = 0..half_width of
    sum_i factors_i exp(-rates_i (4 sin^2(theta/2))^s): the plain m-node
    trapezoid rule, extrapolated against the m/2-node rule (every other
    node) to remove its leading O(m^{-1-2s}) aliasing term.  Alone, the
    2^20-node rule is 2e-10 to 4e-10 off at s = 0.3, above both
    tolerances checked here."""
    theta = 2.0 * math.pi * np.arange(m) / m
    lam = (4.0 * np.sin(theta / 2.0) ** 2) ** s
    g = np.zeros(m)
    for f, r in zip(factors, rates):
        g += f * np.exp(-r * lam)
    fine = np.fft.rfft(g).real[: half_width + 1] / m
    coarse = np.fft.rfft(g[::2]).real[: half_width + 1] / (m // 2)
    q = 2.0 ** (1.0 + 2.0 * s)
    return (q * fine - coarse) / (q - 1.0)


class TestSpectralBuilder:
    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
    def test_against_trapezoid(self, s):
        h, t, width, alpha = 0.1, 0.2, 40, 0.8
        k = frac_semigroup_kernel(s, h, t, width)
        ref = _richardson_trapezoid(s, [1.0], [t / h ** (2.0 * s)], width)
        assert np.max(np.abs(k.w - ref)) <= 1e-12

        q = subordination_quadrature(alpha)
        rates = q.nodes * t ** alpha / h ** (2.0 * s)
        for weighted in (False, True):
            factors = q.weights * q.phi * (q.nodes if weighted else 1.0)
            k = subordinated_kernel(s, h, alpha, t, width, weighted_by_tau=weighted)
            ref = _richardson_trapezoid(s, factors, rates, width)
            assert np.max(np.abs(k.w - ref)) <= 1e-10


def test_quadrature_builds_without_extended_precision(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.workdps called")

    monkeypatch.setattr(mpmath, "workdps", refuse)
    # uncached density and quadrature, so that no earlier value hides a call
    monkeypatch.setattr(semigroup, "wright_phi", special.wright_phi.__wrapped__)
    for alpha in (0.3, 0.5, 0.8):
        q = subordination_quadrature.__wrapped__(alpha)
        assert q.integrate(np.ones_like(q.nodes)) == pytest.approx(1.0, abs=1e-10)
