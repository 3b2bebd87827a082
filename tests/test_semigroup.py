import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.special import ive

from fracheat import semigroup, special
from fracheat.grid import GridFunction, Mesh
from fracheat.kernel import kernel_weights, toeplitz_matvec
from fracheat.semigroup import (
    frac_semigroup_kernel,
    subordinate_scalar_P,
    subordinate_scalar_S,
    subordinated_kernel,
    subordination_quadrature,
)
from fracheat.special import SeriesConvergenceError, mittag_leffler


def _gaussian(mesh):
    return GridFunction(mesh, np.exp(-mesh.nodes ** 2 / 4.0))


class TestFracSemigroupKernel:
    def test_identity_at_t_zero(self):
        k = frac_semigroup_kernel(0.6, 0.5, 0.0, 10)
        assert k.w[0] == 1.0 and np.all(k.w[1:] == 0.0)

    def test_refuses_an_infinite_time(self):
        # it asked for ~inf quadrature nodes
        with pytest.raises(ValueError, match="t must be non-negative and finite"):
            frac_semigroup_kernel(0.5, 0.1, math.inf, 4)

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
            v = toeplitz_matvec(frac_semigroup_kernel(0.7, mesh.h, t, mesh.n_points), u.values)
            assert np.max(np.abs(v)) <= u.sup_norm() + 1e-13

    def test_generator_consistency(self):
        # (u - T(delta) u)/delta -> A u at rate O(delta)
        mesh = Mesh(h=0.2, a=-30.0, b=30.0)
        u = _gaussian(mesh)
        kern = kernel_weights(0.6, mesh.h, mesh.n_points)
        au = toeplitz_matvec(kern, u.values)
        sl = mesh.window_slice(-5.0, 5.0)
        gaps = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            v = toeplitz_matvec(frac_semigroup_kernel(0.6, mesh.h, delta, mesh.n_points),
                                u.values)
            quot = (u.values - v) / delta
            gaps.append(np.max(np.abs(quot[sl] - au[sl])))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[2] == pytest.approx(2.0, abs=0.3)

    def test_heat_semigroup_matches_fractional_at_s_one(self):
        # the lattice heat kernel e^{-x} I_n(x), x = 2t/h^2, as a dense
        # Toeplitz matrix
        mesh = Mesh(h=0.25, a=-20.0, b=20.0)
        u = _gaussian(mesh)
        heat = toeplitz(ive(np.arange(mesh.n_points), 2.0 * 0.4 / mesh.h ** 2))
        b = toeplitz_matvec(frac_semigroup_kernel(1.0, mesh.h, 0.4, mesh.n_points), u.values)
        assert np.max(np.abs(heat @ u.values - b)) < 1e-10

    def test_heat_kernel_values(self):
        k = frac_semigroup_kernel(1.0, 0.5, 0.3, 40)
        ref = ive(np.arange(k.half_width + 1), 2.0 * 0.3 / 0.25)
        assert np.max(np.abs(k.w - ref)) < 1e-14


class TestSubordination:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_moments(self, alpha):
        q = subordination_quadrature(alpha)
        m0 = q.factors.sum()
        m1 = q.factors @ q.nodes
        m2 = q.factors @ q.nodes ** 2
        assert m0 == pytest.approx(1.0, abs=1e-10)
        assert m1 == pytest.approx(1.0 / math.gamma(1.0 + alpha), abs=1e-10)
        assert m2 == pytest.approx(2.0 / math.gamma(1.0 + 2.0 * alpha), abs=1e-8)

    @pytest.mark.xfail(strict=True, raises=SeriesConvergenceError,
                       reason="0.5-wide panels cannot resolve Phi_alpha's peak at tau ~ 1")
    def test_builds_near_alpha_one(self):
        # EvolutionProblem accepts alpha up to 1, the quadrature only up to 0.94
        subordination_quadrature(0.99)

    def test_quadrature_rejects_alpha_one(self):
        # Phi_1 is a unit mass, which callers take as the node tau = 1
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            subordination_quadrature(1.0)

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
        identity = np.zeros(5)
        identity[0] = 1.0
        assert np.array_equal(subordinated_kernel(0.6, 0.5, 0.5, 0.0, 4).w, identity)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_tau_weighted_kernel_at_zero_time_is_the_first_moment(self, alpha):
        # the first Wright moment 1/Gamma(1+alpha) times the identity, exactly
        moment = np.zeros(5)
        moment[0] = 1.0 / math.gamma(1.0 + alpha)
        k = subordinated_kernel(0.6, 0.5, alpha, 0.0, 4, weighted_by_tau=True)
        assert np.array_equal(k.w, moment)

    def test_S_contraction_random(self):
        rng = np.random.default_rng(11)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        kern = subordinated_kernel(0.6, mesh.h, 0.5, 0.8, mesh.n_points)
        for _ in range(100):
            u = GridFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_points))
            v = toeplitz_matvec(kern, u.values)
            assert np.max(np.abs(v)) <= u.sup_norm() + 1e-12

    def test_P_bound_random(self):
        # ||P(t) g|| <= t^{alpha-1} ||g||
        rng = np.random.default_rng(13)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        alpha = 0.7
        for t in (0.25, 1.0, 2.0):
            kern = subordinated_kernel(0.6, mesh.h, alpha, t, mesh.n_points,
                                       weighted_by_tau=True)
            for _ in range(34):
                u = GridFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_points))
                v = alpha * t ** (alpha - 1.0) * toeplitz_matvec(kern, u.values)
                assert np.max(np.abs(v)) <= t ** (alpha - 1.0) * u.sup_norm() + 1e-12

    @pytest.mark.parametrize("weighted_by_tau", [False, True])
    def test_kernel_rejects_negative_time(self, weighted_by_tau):
        # as frac_semigroup_kernel does, instead of a complex t ** alpha
        with pytest.raises(ValueError, match="t must be non-negative"):
            subordinated_kernel(0.6, 0.5, 0.5, -0.1, 8, weighted_by_tau=weighted_by_tau)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_scalar_S_rejects_negative_time(self, t):
        # a negative t made t ** alpha complex, whose real part was returned
        with pytest.raises(ValueError, match="t must be non-negative"):
            subordinate_scalar_S(0.5, 1.0, t)

    @pytest.mark.parametrize("alpha", [0.3, 0.99])
    def test_exact_at_t_zero(self, alpha):
        # every exponential is 1 at t = 0, so each sum is the Wright moment
        # exactly: the quadrature left S(0.3) at 0.9999999999999998, and at
        # alpha = 0.99, past the quadrature's range, every call below raised
        moment = 1.0 / math.gamma(1.0 + alpha)
        lam = np.array([0.0, 1.0, 50.0])
        assert subordinate_scalar_S(alpha, 1.0, 0.0) == 1.0
        assert np.all(semigroup._mode_sum(alpha, 0.0, lam) == 1.0)
        assert np.all(semigroup._mode_sum(alpha, 0.0, lam, weighted_by_tau=True) == moment)
        for weighted, w0 in ((False, 1.0), (True, moment)):
            k = subordinated_kernel(0.5, 0.1, alpha, 0.0, 3, weighted_by_tau=weighted)
            assert k.w.tolist() == [w0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("reduction", [subordinate_scalar_S, subordinate_scalar_P])
    def test_scalar_reductions_refuse_an_infinite_time(self, reduction, alpha):
        # t = inf returned exp(-inf) = 0 at alpha = 1 and met the Wright
        # limit below it
        with pytest.raises(ValueError, match="t must be non-negative and finite"):
            reduction(alpha, 1.0, math.inf)

    def test_scalar_P_rejects_zero_time(self):
        # its factor t^(alpha - 1) is unbounded at t = 0
        with pytest.raises(ValueError, match="the forcing propagator requires t > 0"):
            subordinate_scalar_P(0.5, 1.0, 0.0)

    @pytest.mark.parametrize("weighted_by_tau", [False, True])
    def test_kernel_refuses_past_the_wright_limit(self, weighted_by_tau):
        # s = 0.9, h = 0.0125, t = 0.2: z = t^alpha 4^s / h^{2s} is about
        # 4,149, far past the z = 100 up to which the Wright sum holds
        with pytest.raises(SeriesConvergenceError,
                           match="the Wright quadrature cannot resolve .* = 4149"):
            subordinated_kernel(0.9, 0.0125, 0.5, 0.2, 8, weighted_by_tau=weighted_by_tau)

    def test_kernel_builds_just_inside_the_wright_limit(self):
        # s = 0.9, h = 0.1, t = 0.2: z = 98.26
        assert subordinated_kernel(0.9, 0.1, 0.5, 0.2, 19).mass() <= 1.0

    @pytest.mark.parametrize("reduction", [subordinate_scalar_S, subordinate_scalar_P])
    def test_scalar_reductions_refuse_past_the_wright_limit(self, reduction):
        # at z = lam t^alpha = 1000 the Wright sum gives 2.71e-4 for
        # E_0.5(-1000) = 5.64e-4
        with pytest.raises(SeriesConvergenceError,
                           match="the Wright quadrature cannot resolve .* = 1000"):
            reduction(0.5, 1000.0, 1.0)

    @pytest.mark.parametrize("reduction", [subordinate_scalar_S, subordinate_scalar_P])
    @pytest.mark.parametrize("lam", [-200.0, -1.0, math.nan])
    def test_scalar_reductions_refuse_a_negative_or_nan_rate(self, reduction, lam):
        # z = lam t^alpha < 0 or NaN passed the Wright limit: lam = -200
        # overflowed to inf, lam = -1 returned 5.009 and NaN returned nan
        with pytest.raises(ValueError, match="lambda must be non-negative"):
            reduction(0.5, lam, 1.0)

    @pytest.mark.parametrize("s, h, alpha, t, match", [
        (1.5, 0.5, 0.5, 0.1, r"s must lie in \(0, 1\]"),
        (0.0, 0.5, 0.5, 0.1, r"s must lie in \(0, 1\]"),
        (0.5, 0.0, 0.5, 0.1, "h must be positive"),
        (0.5, -0.5, 0.5, 0.1, "h must be positive"),
        (0.5, math.nan, 0.5, 0.1, "h must be positive"),
        (0.5, 0.5, 0.0, 0.1, r"alpha must lie in \(0, 1\]"),
        (0.5, 0.5, 1.5, 0.1, r"alpha must lie in \(0, 1\]"),
        (0.5, 0.5, 0.5, math.nan, "t must be non-negative"),
        (0.5, 0.5, 0.5, math.inf, "t must be non-negative and finite"),
        (0.5, 0.5, 1.0, math.inf, "t must be non-negative and finite"),
    ])
    @pytest.mark.parametrize("weighted_by_tau", [False, True])
    def test_kernel_rejects_bad_args(self, s, h, alpha, t, match, weighted_by_tau):
        # as frac_semigroup_kernel does: h = 0 divided by zero, s = 1.5 met
        # the Wright limit at z = 3578, h = NaN did not settle, and t = inf
        # met the Wright limit below alpha = 1 and asked for ~inf quadrature
        # nodes at alpha = 1
        with pytest.raises(ValueError, match=match):
            subordinated_kernel(s, h, alpha, t, 8, weighted_by_tau=weighted_by_tau)

    @pytest.mark.parametrize("t", [0.0, 0.1])
    @pytest.mark.parametrize("build", [
        partial(frac_semigroup_kernel, 0.5, 0.5),
        partial(subordinated_kernel, 0.5, 0.5, 0.5),
        partial(subordinated_kernel, 0.5, 0.5, 0.5, weighted_by_tau=True),
    ], ids=["semigroup", "subordinated", "tau-weighted"])
    def test_kernels_refuse_a_negative_half_width(self, build, t):
        # half_width = -1 met numpy's "zero-size array to reduction
        # operation maximum" at t > 0 and an IndexError at t = 0
        with pytest.raises(ValueError, match="half_width must be non-negative, got -1"):
            build(t, -1)
        assert build(t, 0).half_width == 0

    @pytest.mark.parametrize("weighted_by_tau", [False, True])
    def test_mode_sum_at_alpha_one_is_the_exponential(self, weighted_by_tau):
        # Phi_1 is the unit mass at tau = 1, so the Wright rule is one node
        lam = np.random.default_rng(29).uniform(0.0, 50.0, 201)
        for t in (0.0, 0.3, 2.0):
            got = semigroup._mode_sum(1.0, t, lam, weighted_by_tau=weighted_by_tau)
            assert got.tobytes() == np.exp(-t * lam).tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.5, 8.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 3.0])
    def test_scalar_reductions_at_alpha_one_are_the_exponential(self, lam, t):
        # np.exp, the exponential the per-mode sum takes; math.exp may
        # differ from it in the last bit
        assert subordinate_scalar_S(1.0, lam, t) == np.exp(-lam * t)
        assert subordinate_scalar_P(1.0, lam, t) == np.exp(-lam * t)

    @pytest.mark.parametrize("weighted_by_tau", [False, True])
    @pytest.mark.parametrize("s, h, t", [(0.6, 0.5, 0.3), (0.3, 0.1, 0.2), (0.9, 0.05, 1.0)])
    def test_kernel_at_alpha_one_is_the_semigroup_kernel(self, s, h, t, weighted_by_tau):
        # with or without tau weighting: the one node tau = 1 has weight 1
        k = subordinated_kernel(s, h, 1.0, t, 40, weighted_by_tau=weighted_by_tau)
        assert np.max(np.abs(k.w - frac_semigroup_kernel(s, h, t, 40).w)) <= 1e-10

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
            factors = q.factors * (q.nodes if weighted else 1.0)
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
        assert q.factors.sum() == pytest.approx(1.0, abs=1e-10)
