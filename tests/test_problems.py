import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat.evolution import SchemeConfig, solve
from fracheat.grid import Mesh
from fracheat.problems import (
    example1,
    example2,
    gaussian_frac_laplacian,
    gaussian_profile,
    getoor_constant,
    semilinear_variant,
    to_evolution_problem,
)
from oracles import continuous_op_oracle


class TestExample1:
    def test_exact_at_origin(self):
        m = example1(0.4)
        assert m.exact(0.0, np.array([0.0]))[0] == 1.0

    def test_forcing_at_origin(self):
        s = 0.4
        m = example1(s)
        c = 4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)
        assert m.source(np.array([0.0]))[0] == pytest.approx(-1.0 + c, rel=1e-14)

    def test_time_separability(self):
        m = example1(0.7)
        x = np.linspace(-3.0, 3.0, 7)
        assert np.allclose(m.exact(1.0, x), math.exp(-1.0) * m.exact(0.0, x), rtol=1e-14)

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            example1(0.5)

    def test_rejects_out_of_range(self):
        for s in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                example1(s)

    @pytest.mark.parametrize("s", [0.3, 0.75])
    def test_closed_form_against_oracle(self, s):
        # oracle first: the quadrature value of (-Lap)^s U at a sample point
        m = example1(s)
        x0 = 0.7
        oracle = continuous_op_oracle(lambda x: (1.0 + x * x) ** (s - 0.5), s, x0, tol=1e-7)
        closed = (
            4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)
            * (1.0 + x0 * x0) ** (-(0.5 + s))
        )
        assert oracle == pytest.approx(closed, rel=1e-5)


class TestExample2:
    def test_zero_on_and_outside_boundary(self):
        m = example2(0.5)
        vals = m.exact(0.0, np.array([-1.5, -1.0, 1.0, 2.0]))
        assert np.all(vals == 0.0)

    def test_normalization_constant(self):
        s = 0.6
        m = example2(s)
        # the source inside reduces to -U + 1 exactly when the profile
        # carries 1/getoor_constant
        x = np.array([0.3])
        assert m.source(x)[0] == pytest.approx(-m.profile(x)[0] + 1.0, rel=1e-14)
        assert m.exact(0.0, np.array([0.0]))[0] == pytest.approx(
            1.0 / getoor_constant(s), rel=1e-14)

    def test_getoor_identity_against_oracle(self):
        # oracle first: (-Lap)^s (1-x^2)^s_+ should be the Getoor constant
        s = 0.6
        prof = lambda x: np.maximum(1.0 - np.asarray(x, float) ** 2, 0.0) ** s \
            if not np.isscalar(x) else max(1.0 - x * x, 0.0) ** s
        oracle = continuous_op_oracle(prof, s, 0.3, tol=1e-7, kinks=(-1.0, 1.0))
        assert oracle == pytest.approx(getoor_constant(s), rel=1e-5)

    def test_forcing_zero_outside(self):
        m = example2(0.3)
        assert np.all(m.source(np.array([-2.0, 1.0, 3.0])) == 0.0)

    @given(s=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_getoor_constant_positive_increasing_sanity(self, s):
        assert getoor_constant(s) > 0.0


class TestGetoorConstant:
    def test_known_value_at_half(self):
        # 4^{1/2} Gamma(1) Gamma(3/2) / sqrt(pi) = 2 * (sqrt(pi)/2) / sqrt(pi) = 1
        assert getoor_constant(0.5) == pytest.approx(1.0, rel=1e-15)


class TestToEvolutionProblem:
    def test_mesh_must_fit_support(self):
        m = example2(0.5)
        with pytest.raises(ValueError):
            to_evolution_problem(m, Mesh(h=0.5, a=-2.0, b=2.0))

    def test_u0_matches_profile(self):
        m = example1(0.4)
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = to_evolution_problem(m, mesh)
        assert np.array_equal(prob.u0.values, m.exact(0.0, mesh.nodes))

    def test_forcing_passthrough(self):
        m = example1(0.4)
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = to_evolution_problem(m, mesh)
        assert prob.forcing_values(0.7).tobytes() == (m.tau(0.7) * m.source(mesh.nodes)).tobytes()

    def test_profile_and_source_sampled_once_per_mesh(self):
        # 10-step solves on two meshes, one linear and one semilinear: every
        # step only rescales the samples taken when the problem was built
        calls = {"profile": 0, "source": 0}

        def counted(name, fn):
            def wrapper(x):
                calls[name] += 1
                return fn(x)
            return wrapper

        m = example1(0.4)
        m = dataclasses.replace(m, profile=counted("profile", m.profile),
                                source=counted("source", m.source))
        for build, h in ((to_evolution_problem, 0.5), (semilinear_variant, 0.25)):
            prob = build(m, Mesh(h=h, a=-5.0, b=5.0), t_horizon=0.1)
            traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.01))
            assert len(traj.log) == 10
        assert calls == {"profile": 2, "source": 2}


def _closures_before_factoring(name, s):
    """exact(t, x) and forcing(t, x) of the examples as they were written
    before the (tau, U, G) factoring: each closure applied e^{-t} itself
    and sampled the profile afresh on every call."""
    if name == "example1":
        c = 4.0 ** s * math.gamma(0.5 + s) / math.gamma(0.5 - s)

        def exact(t, x):
            return math.exp(-t) * (1.0 + x * x) ** (s - 0.5)

        def forcing(t, x):
            return math.exp(-t) * (
                -((1.0 + x * x) ** (s - 0.5)) + c * (1.0 + x * x) ** (-(0.5 + s))
            )
    else:
        c = 1.0 / getoor_constant(s)

        def exact(t, x):
            return c * math.exp(-t) * np.maximum(1.0 - x * x, 0.0) ** s

        def forcing(t, x):
            inside = np.abs(x) < 1.0
            return np.where(inside, -exact(t, x) + math.exp(-t), 0.0)

    return exact, forcing


class TestForcingBeforeFactoring:
    TIMES = (0.0, 0.013, 0.25, 0.5, 1.7)

    def test_example1_is_bitwise_unchanged(self):
        mesh = Mesh(h=0.25, a=-20.0, b=20.0)
        exact, forcing = _closures_before_factoring("example1", 0.6)
        m = example1(0.6)
        prob = to_evolution_problem(m, mesh)
        x = mesh.nodes
        assert prob.u0.values.tobytes() == exact(0.0, x).tobytes()
        for t in self.TIMES:
            assert prob.forcing_values(t).tobytes() == forcing(t, x).tobytes(), t
            assert m.exact(t, x).tobytes() == exact(t, x).tobytes(), t

    def test_semilinear_example1_is_bitwise_unchanged(self):
        # the semilinear forcing was forcing + exact^3
        mesh = Mesh(h=0.25, a=-20.0, b=20.0)
        exact, forcing = _closures_before_factoring("example1", 0.6)
        prob = semilinear_variant(example1(0.6), mesh, alpha=0.5)
        x = mesh.nodes
        assert prob.u0.values.tobytes() == exact(0.0, x).tobytes()
        for t in self.TIMES:
            want = forcing(t, x) + exact(t, x) ** 3
            assert prob.forcing_values(t).tobytes() == want.tobytes(), t

    def test_example2_moves_only_at_rounding_level(self):
        # e - (c e) P became e (1 - c P): measured at most 3.1e-16 apart
        mesh = Mesh(h=0.05, a=-0.95, b=0.95)
        exact, forcing = _closures_before_factoring("example2", 0.7)
        m = example2(0.7)
        prob = to_evolution_problem(m, mesh)
        x = mesh.nodes
        assert np.max(np.abs(prob.u0.values - exact(0.0, x))) <= 1e-15
        for t in self.TIMES:
            assert np.max(np.abs(prob.forcing_values(t) - forcing(t, x))) <= 1e-15, t
            assert np.max(np.abs(m.exact(t, x) - exact(t, x))) <= 1e-15, t


class TestSemilinearVariant:
    def test_exact_solution_preserved(self):
        # the folded cubic keeps the manufactured exact solution: solving
        # the semilinear problem must land near e^{-t} times the profile
        m = example1(0.4)
        mesh = Mesh(h=0.5, a=-100.0, b=100.0)
        prob = semilinear_variant(m, mesh, t_horizon=0.2)
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=0.01),
                     exact=m.exact, window=(-20.0, 20.0))
        lin = to_evolution_problem(m, mesh, t_horizon=0.2)
        traj_lin = solve(lin, SchemeConfig(stepper="backward_euler", dt=0.01),
                         exact=m.exact, window=(-20.0, 20.0))
        # both discretizations converge to the same exact solution
        assert traj.sup_error < 5.0 * traj_lin.sup_error + 1e-3

    def test_has_nonlinearity(self):
        m = example1(0.4)
        mesh = Mesh(h=0.5, a=-5.0, b=5.0)
        prob = semilinear_variant(m, mesh)
        assert prob.nonlinearity is not None
        assert prob.nonlinearity.f(0.0) == 0.0


class TestGaussianProfile:
    def test_values(self):
        assert gaussian_profile(0.0) == 1.0
        assert np.allclose(gaussian_profile(np.array([1.0, -1.0])), math.exp(-1.0))

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.6, 0.95])
    def test_closed_form_against_mpmath(self, s):
        x = np.linspace(-30.0, 30.0, 241)
        got = gaussian_frac_laplacian(s)(x)
        with mpmath.workdps(40):
            a = mpmath.mpf(0.5) + s
            c = mpmath.mpf(4) ** s * mpmath.gamma(a) / mpmath.sqrt(mpmath.pi)
            ref = np.array([float(c * mpmath.hyp1f1(a, 0.5, -mpmath.mpf(xi) ** 2)) for xi in x])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("s", [0.3, 0.6, 0.75])
    def test_closed_form_against_oracle(self, s):
        # the window nodes of the acceptance consistency sweep's coarsest
        # mesh (h = 0.8 on [-20, 20]) inside the window (-2, 2)
        op = gaussian_frac_laplacian(s)
        for x in (-1.6, -0.8, 0.0, 0.8, 1.6):
            oracle = continuous_op_oracle(gaussian_profile, s, x, tol=1e-9)
            assert abs(op(x) - oracle) <= 1e-9, x

    def test_closed_form_rejects_out_of_range(self):
        for s in (0.0, 1.0):
            with pytest.raises(ValueError):
                gaussian_frac_laplacian(s)
