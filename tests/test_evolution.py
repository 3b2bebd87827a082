import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import evolution
from fracheat.evolution import (
    EvolutionProblem,
    Nonlinearity,
    SchemeConfig,
    caputo_l1_weights,
    evaluate_mild,
    solve,
    solve_scalar_l1,
)
from fracheat.grid import GridFunction, Mesh
from fracheat.kernel import kernel_weights, toeplitz_matvec
from fracheat.problems import example2, to_evolution_problem
from fracheat.special import SeriesConvergenceError, mittag_leffler


def _gaussian(mesh):
    return GridFunction(mesh, np.exp(-mesh.nodes ** 2 / 4.0))


class TestL1Weights:
    def test_first_weight(self):
        alpha, dt = 0.5, 0.01
        b = caputo_l1_weights(alpha, 10, dt)
        assert b[0] == pytest.approx(dt ** (-alpha) / math.gamma(2.0 - alpha), rel=1e-14)

    def test_positive_strictly_decreasing(self):
        b = caputo_l1_weights(0.5, 100, 0.01)
        assert np.all(b > 0.0)
        assert np.all(np.diff(b) < 0.0)

    def test_alpha_near_one_collapses_to_backward_difference(self):
        dt = 0.01
        b = caputo_l1_weights(0.999, 50, dt)
        assert b[0] == pytest.approx(1.0 / dt, rel=2e-2)
        assert abs(b[1]) < 1e-2 * b[0]

    def test_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            caputo_l1_weights(1.0, 10, 0.01)

    @pytest.mark.parametrize("dt", [-1e-3, 0.0])
    def test_rejects_non_positive_dt(self, dt):
        # a negative dt would give complex weights
        with pytest.raises(ValueError, match="dt"):
            caputo_l1_weights(0.5, 3, dt)

    def test_rejects_no_steps(self):
        with pytest.raises(ValueError, match="n_steps"):
            caputo_l1_weights(0.5, 0, 0.1)

    @given(alpha=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_weights_decreasing_any_alpha(self, alpha):
        b = caputo_l1_weights(alpha, 40, 0.02)
        assert np.all(np.diff(b) < 0.0)


class TestScalarL1:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_error_decreases_with_dt(self, alpha):
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            tt, y = solve_scalar_l1(alpha, 1.0, 1.0, dt)
            ref = np.array([mittag_leffler(alpha, -t ** alpha) for t in tt])
            errs.append(np.max(np.abs(y - ref)))
        assert errs[0] > errs[1] > errs[2]

    def test_final_time_value(self):
        tt, y = solve_scalar_l1(0.6, 2.0, 1.0, 1e-3)
        ref = mittag_leffler(0.6, -2.0)
        assert y[-1] == pytest.approx(ref, abs=5e-3)

    @pytest.mark.parametrize("t_final, dt", [(2.0, -1e-3), (-2.0, -1e-3), (1.0, 0.0)])
    def test_rejects_non_positive_dt(self, t_final, dt):
        with pytest.raises(ValueError, match="dt"):
            solve_scalar_l1(0.5, 1.0, t_final, dt)

    @pytest.mark.parametrize("t_final, dt, message", [
        (math.inf, 0.01, "must be finite"),
        (1e300, 1e-300, "must be finite"),
        (1.0, math.inf, "less than one step"),
        (0.1, 0.3, "less than one step"),
    ])
    def test_rejects_step_counts_that_are_not_finite_or_positive(self, t_final, dt, message):
        with pytest.raises(ValueError, match=message):
            solve_scalar_l1(0.5, 1.0, t_final, dt)

    @pytest.mark.parametrize("t_final", [-2.0, 0.0])
    def test_rejects_non_positive_horizon(self, t_final):
        with pytest.raises(ValueError, match="horizon must be positive"):
            solve_scalar_l1(0.5, 1.0, t_final, 1e-3)


class TestBackwardEuler:
    def test_zero_data_zero_forcing_stays_zero(self):
        # the linear march hands CG a zero right-hand side at every step
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        nl = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        for nonlinearity in (nl, None):
            prob = EvolutionProblem(
                s=0.5, alpha=1.0, mesh=mesh,
                u0=GridFunction(mesh, np.zeros(mesh.n_points)),
                t_horizon=0.1, nonlinearity=nonlinearity,
            )
            traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.02),
                         exact=lambda t, x: np.zeros_like(x))
            assert traj.sup_error == 0.0  # over every state, t = 0 included
            assert traj.log == [f"{n},{0.02 * n:.10g},0,0,0.000e+00" for n in range(1, 6)]

    def test_sup_norm_stability_homogeneous(self):
        rng = np.random.default_rng(5)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        prob = EvolutionProblem(
            s=0.7, alpha=1.0, mesh=mesh,
            u0=GridFunction(mesh, rng.uniform(-1.0, 1.0, mesh.n_points)),
        )
        cfg = SchemeConfig(stepper="backward_euler", dt=0.02)
        norms = [prob.u0.sup_norm()] + [
            solve(dataclasses.replace(prob, t_horizon=t), cfg).final.sup_norm()
            for t in (0.02, 0.1, 0.2)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_implicit_residual_small(self):
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        prob = EvolutionProblem(s=0.6, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.01)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.01))
        residual = float(traj.log[0].split(",")[4])
        assert residual < 1e-10

    def test_plane_wave_amplitude_scaling(self):
        # one homogeneous step: center amplitude scales by 1/(1 + dt * symbol)
        s, h, om, dt = 0.6, 0.1, 1.3, 0.01
        mesh = Mesh(h=h, a=-400.0, b=400.0)
        u0 = GridFunction(mesh, np.cos(om * mesh.nodes))
        prob = EvolutionProblem(s=s, alpha=1.0, mesh=mesh, u0=u0, t_horizon=dt)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=dt))
        sym = (4.0 * math.sin(om * h / 2.0) ** 2 / h ** 2) ** s
        sl = mesh.window_slice(-2.0, 2.0)
        expected = u0.values[sl] / (1.0 + dt * sym)
        assert np.max(np.abs(traj.final.values[sl] - expected)) < 1e-5

    def test_newton_quadratic_convergence_semilinear(self):
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        bump = GridFunction(mesh, 0.5 * np.exp(-mesh.nodes ** 2))
        nl = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, u0=bump,
                                t_horizon=0.05, nonlinearity=nl)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.05))
        newton_iters = int(traj.log[0].split(",")[2])
        assert 0 < newton_iters <= 5

    def test_damped_newton_converges_where_the_full_step_overshoots(self):
        # f(u) = -u^3 with rhs 1e3 from u = 0: the full first Newton step
        # solves the linear stage, whose cube overshoots the residual, so
        # the stage halves its step; full steps alone need 17 iterations
        n, shift = 21, 1.0
        kernel = kernel_weights(0.5, 0.5, n)
        rhs = np.full(n, 1e3)
        cubic = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        A = scipy.linalg.toeplitz(kernel.w[:n])
        full = np.linalg.solve(shift * np.eye(n) + A, rhs)
        assert np.max(np.abs(shift * full + A @ full + full ** 3 - rhs)) > np.max(rhs)
        _, newton_iters, _, res, _ = evolution._implicit_stage(kernel, shift, rhs, cubic,
                                                                np.zeros(n), None, 0.1)
        assert res <= evolution._NEWTON_TOL * np.max(rhs)
        assert newton_iters <= 10

    @staticmethod
    def _cubic_stage():
        # the stage of the test above: it converges in 7 Newton iterations
        n = 21
        cubic = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        return kernel_weights(0.5, 0.5, n), 1.0, np.full(n, 1e3), cubic, np.zeros(n), None, 0.1

    def test_newton_returns_a_stage_converged_on_its_last_iteration(self, monkeypatch):
        monkeypatch.setattr(evolution, "_NEWTON_MAX_ITER", 7)
        _, newton_iters, _, res, _ = evolution._implicit_stage(*self._cubic_stage())
        assert newton_iters == 7
        assert res <= evolution._NEWTON_TOL * 1e3

    def test_newton_refuses_a_stage_it_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(evolution, "_NEWTON_MAX_ITER", 6)
        with pytest.raises(RuntimeError,
                           match=r"step to t=0\.1: Newton did not converge in 6 iterations"):
            evolution._implicit_stage(*self._cubic_stage())

    def test_alpha_mismatch_rejected(self):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = EvolutionProblem(s=0.5, alpha=0.7, mesh=mesh, u0=_gaussian(mesh))
        with pytest.raises(ValueError):
            solve(prob, SchemeConfig(stepper="backward_euler", dt=0.1))

    def test_each_step_reuses_the_previous_product(self, monkeypatch):
        # the logged CG count includes every step's initial-residual product,
        # but only the first step computes it: the others reuse the
        # end-of-step residual product of the step before
        calls = []

        def counting(kernel, values):
            calls.append(len(values))
            return toeplitz_matvec(kernel, values)

        monkeypatch.setattr(evolution, "toeplitz_matvec", counting)
        mesh = Mesh(h=0.5, a=-10.0, b=10.0)
        prob = EvolutionProblem(s=0.6, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.1)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.01))
        logged = sum(int(line.split(",")[3]) for line in traj.log)
        assert len(traj.log) == 10
        assert len(calls) == logged + 1

    def test_indefinite_jacobian_fails_loudly(self):
        # f(u) = c u with c above shift + lambda_max makes the Jacobian
        # shift + A - c I negative definite; CG must refuse it
        s, h, dt = 0.5, 0.5, 0.05
        mesh = Mesh(h=h, a=-5.0, b=5.0)
        c = 2.0 * (1.0 / dt + 4.0 ** s / h ** (2.0 * s))
        nl = Nonlinearity(f=lambda u: c * u, df=lambda u: c * np.ones_like(u))
        prob = EvolutionProblem(s=s, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.1, nonlinearity=nl)
        with pytest.raises(RuntimeError, match=r"step to t=0\.05: .*not positive definite"):
            solve(prob, SchemeConfig(stepper="backward_euler", dt=dt))


class TestL1Caputo:
    def test_matches_mild_reference(self):
        mesh = Mesh(h=0.5, a=-20.0, b=20.0)
        prob = EvolutionProblem(s=0.6, alpha=0.7, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.5)
        traj = solve(prob, SchemeConfig(stepper="l1_caputo", dt=2e-3))
        ref = evaluate_mild(prob, 0.5)
        # measured 2.55e-4 (it halves with dt); the bound leaves 25% margin
        assert np.max(np.abs(traj.final.values - ref.values)) < 3.2e-4

    def test_scalar_mode_decay(self):
        # single lattice mode: L1 trajectory tracks E_{alpha,1}(-lambda t^alpha)
        alpha, lam = 0.6, 1.7
        tt, y = solve_scalar_l1(alpha, lam, 1.0, 1e-3)
        ref = mittag_leffler(alpha, -lam)
        assert y[-1] == pytest.approx(ref, abs=5e-3)

    def test_alpha_one_rejected(self):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, u0=_gaussian(mesh))
        with pytest.raises(ValueError):
            solve(prob, SchemeConfig(stepper="l1_caputo", dt=0.1))


class TestMildReference:
    def test_solve_evaluates_the_mild_solution(self):
        prob = to_evolution_problem(example2(0.7), Mesh(h=0.1, a=-0.9, b=0.9),
                                    alpha=0.6, t_horizon=0.2)
        # against zero the error is sup |u(T)|
        traj = solve(prob, SchemeConfig(stepper="mild_reference"),
                     exact=lambda t, x: np.zeros_like(x))
        assert traj.final.values.tobytes() == evaluate_mild(prob, 0.2).values.tobytes()
        assert traj.sup_error == traj.final.sup_norm()
        assert traj.log == ["1,0.2,0,0,0.0e+00"]

    @pytest.mark.parametrize("stepper,dt", [
        ("mild_reference", 0.1), ("backward_euler", None), ("l1_caputo", 0.0),
    ])
    def test_dt_only_for_the_marching_steppers(self, stepper, dt):
        with pytest.raises(ValueError):
            SchemeConfig(stepper=stepper, dt=dt)

    def test_rejects_negative_time(self):
        # t^alpha of a negative t is complex; a NaN t reached GridFunction.
        # An infinite t warned twice and then failed as a non-finite grid
        # function at alpha = 1, and met the Wright limit at alpha = 0.5.
        # t = 0 itself gives u0, in an array of its own
        for alpha in (0.5, 1.0):
            prob = to_evolution_problem(example2(0.7), Mesh(h=0.1, a=-0.9, b=0.9),
                                        alpha=alpha, t_horizon=0.2)
            for t in (-0.1, math.nan, math.inf):
                with pytest.raises(ValueError, match="t must be non-negative"):
                    evaluate_mild(prob, t)
            u = evaluate_mild(prob, 0.0).values
            assert u.tobytes() == prob.u0.values.tobytes()
            assert not np.shares_memory(u, prob.u0.values)

    @pytest.mark.parametrize("t_horizon", [math.inf, math.nan])
    def test_problem_refuses_a_non_finite_horizon(self, t_horizon):
        # t_horizon = inf was accepted, and a mild_reference solve of it
        # failed in the Wright quadrature
        with pytest.raises(ValueError, match="t_horizon must be positive and finite"):
            to_evolution_problem(example2(0.5), Mesh(h=0.2, a=-0.8, b=0.8),
                                 alpha=0.5, t_horizon=t_horizon)

    def test_refuses_modes_past_the_wright_limit(self):
        # s = 0.9, h = 0.0125: t^alpha max(lambda) is about 4,200 at t = 0.2,
        # where the Wright sum is off by a large fraction of E_alpha itself
        h = 0.0125
        prob = to_evolution_problem(example2(0.9), Mesh(h=h, a=-1.0 + h, b=1.0 - h),
                                    alpha=0.5, t_horizon=0.2)
        with pytest.raises(SeriesConvergenceError, match="past its limit 100"):
            evaluate_mild(prob, 0.2)

    def test_rejects_nonlinearity(self):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        nl = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                nonlinearity=nl)
        with pytest.raises(ValueError):
            evaluate_mild(prob, 0.5)

    @staticmethod
    def _example2(alpha, forced=True):
        """Example 2 at s = 0.7, h = 0.05, T = 0.2 (N = 41), and its
        truncated operator A[j, k] = w[|j - k|] as a dense matrix."""
        mesh = Mesh(h=0.05, a=-1.0, b=1.0)
        prob = to_evolution_problem(example2(0.7), mesh, alpha=alpha, t_horizon=0.2)
        if not forced:
            prob = dataclasses.replace(prob, forcing=None)
        n = mesh.n_points
        return prob, scipy.linalg.toeplitz(kernel_weights(0.7, mesh.h, n).w[:n])

    def test_unforced_is_expm_of_the_truncated_operator(self):
        # the reference solves the marching schemes' zero-exterior problem;
        # the whole-lattice semigroup kernel is 0.146 away from it here
        prob, a = self._example2(1.0, forced=False)
        want = scipy.linalg.expm(-0.2 * a) @ prob.u0.values
        got = evaluate_mild(prob, 0.2).values
        assert np.max(np.abs(got - want)) <= 1e-12 * prob.u0.sup_norm()

    def test_forced_is_the_closed_form_duhamel_integral(self):
        # F = e^{-t} g, so the memory integral is (A - I)^{-1} (e^{-T} - e^{-TA}) g;
        # measured 1.7e-12 against sup|u| = 0.66
        prob, a = self._example2(1.0)
        g, decay = prob.forcing_values(0.0), scipy.linalg.expm(-0.2 * a)
        want = decay @ prob.u0.values + np.linalg.solve(
            a - np.eye(len(g)), math.exp(-0.2) * g - decay @ g)
        got = evaluate_mild(prob, 0.2).values
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_modes_decay_as_mittag_leffler(self):
        # S(t) v_k = E_alpha(-t^alpha lambda_k) v_k on each eigenvector of
        # A, with t^alpha lambda_k up to 78; measured within 1e-12
        prob, a = self._example2(0.5, forced=False)
        lam, modes = np.linalg.eigh(a)
        for k in range(len(lam)):
            mode = GridFunction(prob.mesh, modes[:, k].copy())
            got = evaluate_mild(dataclasses.replace(prob, u0=mode), 0.2).values
            want = mittag_leffler(0.5, -0.2 ** 0.5 * lam[k]) * modes[:, k]
            assert np.max(np.abs(got - want)) <= 1e-9, k

    def test_l1_converges_to_mild(self):
        # measured 7.6e-4 and 1.9e-4: first order in dt, with forcing
        prob, _ = self._example2(0.5)
        ref = evaluate_mild(prob, 0.2).values
        gaps = [np.max(np.abs(solve(prob, SchemeConfig(stepper="l1_caputo", dt=dt))
                              .final.values - ref))
                for dt in (4e-3, 1e-3)]
        assert gaps[0] >= 3.0 * gaps[1]

    def test_backward_euler_converges_to_mild(self):
        mesh = Mesh(h=0.25, a=-40.0, b=40.0)
        prob = EvolutionProblem(s=0.6, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.5)
        ref = evaluate_mild(prob, 0.5)
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=dt))
            gaps.append(np.max(np.abs(traj.final.values - ref.values)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[2] == pytest.approx(4.0, rel=0.25)


class TestTrajectory:
    def test_log_line_format(self):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                t_horizon=0.1)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.05))
        for line in traj.log:
            step, t, ni, ci, res = line.split(",")
            assert int(step) >= 1 and float(t) > 0.0
            assert int(ni) >= 0 and int(ci) >= 0 and float(res) >= 0.0


class TestEvolutionProblem:
    @pytest.mark.parametrize("settings, message", [
        ({"s": 0.0}, r"s must lie in \(0, 1\)"),
        ({"s": 1.0}, r"s must lie in \(0, 1\)"),
        ({"alpha": 0.0}, r"alpha must lie in \(0, 1\]"),
        ({"alpha": 1.5}, r"alpha must lie in \(0, 1\]"),
        ({"mesh": Mesh(h=0.5, a=-4.0, b=4.0)}, "initial datum lives on a different mesh"),
    ])
    def test_refuses_bad_settings(self, settings, message):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        base = {"s": 0.5, "alpha": 1.0, "mesh": mesh, "u0": _gaussian(mesh)}
        with pytest.raises(ValueError, match=message):
            EvolutionProblem(**{**base, **settings})

    def test_forcing_of_the_wrong_shape_is_refused(self):
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = EvolutionProblem(s=0.5, alpha=1.0, mesh=mesh, u0=_gaussian(mesh),
                                forcing=lambda t: np.zeros(mesh.n_points + 1))
        with pytest.raises(ValueError, match="forcing returned the wrong shape"):
            prob.forcing_values(0.1)


class TestNonlinearity:
    def test_requires_f_zero_at_zero(self):
        with pytest.raises(ValueError):
            Nonlinearity(f=lambda u: u + 1.0, df=lambda u: np.ones_like(u))

    def test_local_lipschitz_spot_check(self):
        rng = np.random.default_rng(2)
        nl = Nonlinearity(f=lambda u: -u ** 3, df=lambda u: -3.0 * u * u)
        m = 3.0
        for _ in range(200):
            a, b = rng.uniform(-1.0, 1.0, 2)
            assert abs(nl.f(a) - nl.f(b)) <= m * abs(a - b) + 1e-12
