import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from fracheat import study
from fracheat.grid import Mesh
from fracheat.kernel import (
    SymmetricKernel,
    frac_laplacian_constant,
    kernel_weights,
    toeplitz_matvec,
)
from fracheat.problems import gaussian_frac_laplacian, gaussian_profile
from fracheat.semigroup import frac_semigroup_kernel
from oracles import (
    OracleConvergenceError,
    continuous_op_oracle,
    kernel_weights_direct,
    toeplitz_direct,
)


class TestWeights:
    def test_center_weight_closed_form(self):
        # w_0 = Gamma(2s+1) / (Gamma(1+s)^2 h^{2s}); at s = 1/2, h = 1: 4/pi
        k = kernel_weights(0.5, 1.0, 8)
        assert k.w[0] == pytest.approx(4.0 / math.pi, abs=1e-13)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("h", [1.0, 0.1])
    def test_two_closed_forms_agree(self, s, h):
        a = kernel_weights(s, h, 1000).w
        b = kernel_weights_direct(s, h, 1000).w
        scale = np.maximum(np.abs(a), np.abs(b))
        assert np.max(np.abs(a - b) / scale) < 1e-12

    def test_off_center_negative_center_positive(self):
        k = kernel_weights(0.3, 0.7, 200)
        assert k.w[0] > 0.0
        assert np.all(k.w[1:] < 0.0)

    def test_row_sum_vanishes_in_the_limit(self):
        # sum over all offsets is 0 (constants are annihilated); the
        # truncated row sum decays like the kernel tail
        s, h = 0.4, 1.0
        sums = []
        for n in (500, 1000, 2000, 4000):
            k = kernel_weights(s, h, n)
            sums.append(k.w[0] + 2.0 * np.sum(k.w[1:]))
        assert all(abs(a) > abs(b) for a, b in zip(sums, sums[1:]))
        assert abs(sums[-1]) * 4000 ** (2 * s) < 1.0

    def test_tail_asymptotics(self):
        # w_n ~ -C_s / (h^{2s} ... ) * n^{-1-2s} (lattice tail
        # matches the continuous kernel C_s |x|^{-1-2s})
        s, h = 0.35, 1.0
        k = kernel_weights(s, h, 20000)
        n = 20000
        pred = -frac_laplacian_constant(s) * (n * h) ** (-1.0 - 2.0 * s) * h
        assert k.w[n] == pytest.approx(pred, rel=1e-3)

    def test_near_one_recovers_classical_stencil(self):
        # s -> 1: kernel tends to the 3-point Laplacian [-1, 2, -1]/h^2
        k = kernel_weights(0.9999, 0.5, 50)
        assert k.w[0] == pytest.approx(2.0 / 0.25, rel=1e-3)
        assert k.w[1] == pytest.approx(-1.0 / 0.25, rel=1e-3)
        assert abs(k.w[2]) < 0.01 * abs(k.w[1])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            kernel_weights(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            kernel_weights(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            kernel_weights(0.5, -1.0, 10)


class TestToeplitzApply:
    def test_fft_equals_direct(self):
        rng = np.random.default_rng(7)
        k = kernel_weights(0.6, 0.3, 128)
        v = rng.standard_normal(100)
        a = toeplitz_matvec(k, v)
        b = toeplitz_direct(k, v)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    @given(n=st.integers(4, 64), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_fft_equals_dense_toeplitz(self, n, seed):
        rng = np.random.default_rng(seed)
        k = kernel_weights(0.45, 0.5, n)
        v = rng.standard_normal(n)
        full = np.concatenate((k.w[:0:-1], k.w))
        dense = toeplitz(k.w[:n], k.w[:n])
        ref = dense @ v
        assert np.allclose(toeplitz_matvec(k, v), ref, rtol=0.0, atol=1e-11)

    def test_symmetry(self):
        # the operator matrix is symmetric: <Au, v> = <u, Av>
        rng = np.random.default_rng(3)
        k = kernel_weights(0.7, 0.2, 80)
        u, v = rng.standard_normal(80), rng.standard_normal(80)
        assert np.dot(toeplitz_matvec(k, u), v) == pytest.approx(
            np.dot(u, toeplitz_matvec(k, v)), rel=1e-12
        )

    def test_annihilates_constants_up_to_tail(self):
        k = kernel_weights(0.5, 1.0, 4000)
        out = toeplitz_matvec(k, np.ones(101))
        # interior nodes see almost the full two-sided sum ~ 0 + tail
        assert abs(out[50]) < 0.05

    def test_kernel_too_narrow_rejected(self):
        k = kernel_weights(0.5, 1.0, 4)
        with pytest.raises(ValueError):
            toeplitz_matvec(k, np.zeros(10))


class TestSymmetricKernel:
    def test_one_type_under_every_name(self):
        assert type(kernel_weights(0.5, 1.0, 4)) is SymmetricKernel
        assert type(frac_semigroup_kernel(0.5, 1.0, 0.2, 4)) is SymmetricKernel

    def test_weights_read_only(self):
        for k in (kernel_weights(0.5, 1.0, 8), frac_semigroup_kernel(0.5, 1.0, 0.2, 8)):
            with pytest.raises(ValueError):
                k.w[1] = 0.0
            with pytest.raises(ValueError):
                k.w *= 2.0


class TestContinuousOracle:
    def test_power_profile_closed_form(self):
        # (-Delta)^s (1+x^2)^{-(1/2-s)} has an explicit closed form
        for s in (0.25, 0.7):
            c = 4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)
            for x in (0.0, 0.8, -2.5):
                ref = c * (1.0 + x * x) ** (-(0.5 + s))
                got = continuous_op_oracle(
                    lambda y, s=s: (1.0 + y * y) ** (s - 0.5), s, x, tol=1e-7
                )
                assert got == pytest.approx(ref, abs=2e-7)

    def test_getoor_profile_constant_inside(self):
        # (-Delta)^s (1-x^2)^s_+ is constant on (-1, 1)
        s = 0.3
        ref = 4.0 ** s * math.gamma(0.5 + s) * math.gamma(1.0 + s) / math.sqrt(math.pi)
        prof = lambda y: max(1.0 - y * y, 0.0) ** s
        vals = [
            continuous_op_oracle(prof, s, x, tol=1e-6, kinks=(-1.0, 1.0))
            for x in (0.0, 0.45, -0.8)
        ]
        assert all(v == pytest.approx(ref, abs=1e-5) for v in vals)

    def test_cosine_symbol(self):
        s, om, x = 0.55, 1.1, 0.7
        got = continuous_op_oracle(lambda y: math.cos(om * y), s, x, tol=1e-7)
        assert got == pytest.approx(om ** (2 * s) * math.cos(om * x), abs=1e-6)

    def test_honest_failure_at_impossible_tolerance(self):
        prof = lambda y: max(1.0 - y * y, 0.0) ** 0.6
        with pytest.raises(OracleConvergenceError):
            continuous_op_oracle(prof, 0.6, 0.3, tol=1e-12, kinks=(-1.0, 1.0))

    def test_normalization_constant(self):
        # C_s -> 0 as s -> 0+ and the s-dependence is smooth
        assert frac_laplacian_constant(0.5) == pytest.approx(
            0.5 * 2.0 * math.gamma(1.0) / (math.sqrt(math.pi) * math.gamma(0.5)), rel=1e-12
        )


class TestConsistency:
    # one cell of the consistency study: the lattice operator of the sampled
    # Gaussian against its closed form, on the window nodes
    def test_gaussian_rate_one_s(self):
        # the guaranteed order is at least 2 - 2s; on smooth profiles the
        # observed order is in fact ~2, so assert the one-sided bound
        s = 0.4
        hs = (0.4, 0.2, 0.1)
        errs = [study._consistency_cell((-20.0, 20.0), (-2.0, 2.0), s, h).error for h in hs]
        assert errs[0] > errs[1] > errs[2]
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 2.0 - 2.0 * s - 0.25

    def test_matches_direct_sum(self):
        # the FFT product of the sampled profile against the O(N^2) sum,
        # both measured against the closed form at the window nodes
        s = 0.6
        mesh = Mesh(h=0.2, a=-10.0, b=10.0)
        sl = mesh.window_slice(-2.0, 2.0)
        direct = toeplitz_direct(kernel_weights(s, mesh.h, mesh.n_points),
                                 gaussian_profile(mesh.nodes))
        ref = np.max(np.abs(direct[sl] - gaussian_frac_laplacian(s)(mesh.nodes[sl])))
        rec = study._consistency_cell((-10.0, 10.0), (-2.0, 2.0), s, 0.2)
        assert (rec.problem, rec.s, rec.h, rec.alpha, rec.dt) == ("gaussian", s, 0.2, 0.0, 0.0)
        assert abs(rec.error - ref) < 1e-12 * max(1.0, np.max(np.abs(direct)))

    def test_samples_once_per_mesh(self, monkeypatch):
        calls = {"U": 0, "exact_op": 0}

        def counted_U(x):
            calls["U"] += 1
            return gaussian_profile(x)

        def counted_closed_form(s):
            op = gaussian_frac_laplacian(s)

            def counted_op(x):
                calls["exact_op"] += 1
                return op(x)

            return counted_op

        monkeypatch.setattr(study, "gaussian_profile", counted_U)
        monkeypatch.setattr(study, "gaussian_frac_laplacian", counted_closed_form)
        study._consistency_cell((-5.0, 5.0), (-2.5, 2.5), 0.5, 0.25)
        assert calls == {"U": 1, "exact_op": 1}

    def test_window_without_nodes_refused_before_sampling(self, monkeypatch):
        def U(x):
            raise AssertionError("profile sampled before the window was checked")

        monkeypatch.setattr(study, "gaussian_profile", U)
        for window in ((0.1, 0.4), (5.5, 6.0), (-6.0, -5.5)):
            with pytest.raises(ValueError, match="contains no mesh nodes"):
                study._consistency_cell((-5.0, 5.0), window, 0.5, 0.5)
