import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat.grid import GridFunction, Mesh, restrict


class TestMesh:
    def test_basic_construction(self):
        mesh = Mesh(h=0.5, a=-2.0, b=3.0)
        assert mesh.j_min == -4 and mesh.j_max == 6
        assert mesh.n_points == 11
        assert np.allclose(mesh.nodes, np.arange(-4, 7) * 0.5)

    def test_endpoints_must_be_nodes(self):
        with pytest.raises(ValueError):
            Mesh(h=0.5, a=-2.3, b=3.0)

    def test_interval_must_straddle_zero(self):
        with pytest.raises(ValueError):
            Mesh(h=0.5, a=1.0, b=3.0)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            Mesh(h=0.0, a=-1.0, b=1.0)

    def test_window_slice(self):
        mesh = Mesh(h=0.5, a=-2.0, b=2.0)
        sl = mesh.window_slice(-1.0, 1.0)
        assert np.allclose(mesh.nodes[sl], [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_window_slice_empty(self):
        mesh = Mesh(h=1.0, a=-3.0, b=3.0)
        with pytest.raises(ValueError):
            mesh.window_slice(0.1, 0.2)

    def test_decimal_h_endpoints(self):
        # non-binary h still validates when the endpoints are h-multiples
        mesh = Mesh(h=0.1, a=-1.0, b=1.0)
        assert mesh.n_points == 21


class TestGridFunction:
    def test_shape_checked(self):
        mesh = Mesh(h=1.0, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            GridFunction(mesh, np.zeros(5))

    def test_rejects_nonfinite(self):
        mesh = Mesh(h=1.0, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            GridFunction(mesh, np.array([0.0, np.nan, 0.0]))

    def test_sup_norm(self):
        mesh = Mesh(h=1.0, a=-1.0, b=1.0)
        u = GridFunction(mesh, np.array([1.0, -3.0, 2.0]))
        assert u.sup_norm() == 3.0


class TestRestrict:
    def test_zero(self):
        mesh = Mesh(h=0.5, a=-1.0, b=1.0)
        assert restrict(lambda x: 0.0, mesh).sup_norm() == 0.0

    def test_samples_at_nodes(self):
        mesh = Mesh(h=0.5, a=-1.0, b=1.0)
        u = restrict(lambda x: x * x, mesh)
        assert np.allclose(u.values, mesh.nodes ** 2)

    def test_rejects_nonfinite_profile(self):
        mesh = Mesh(h=0.5, a=-1.0, b=1.0)
        with pytest.raises(ValueError):
            restrict(lambda x: 1.0 / x if x != 0.0 else math.inf, mesh)

    @given(h=st.sampled_from([0.1, 0.25, 0.5]), scale=st.floats(0.1, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_sup_norm_never_exceeds_profile_sup(self, h, scale):
        mesh = Mesh(h=h, a=-2.0, b=2.0)
        u = restrict(lambda x: scale * math.exp(-x * x), mesh)
        assert u.sup_norm() <= scale + 1e-15

    def test_sampled_max_approaches_true_max(self):
        # Gaussian peak at 0.237..., finer meshes catch it better
        peak = 0.237
        prof = lambda x: math.exp(-((x - peak) ** 2))
        gaps = []
        for h in (0.5, 0.25, 0.125, 0.0625):
            mesh = Mesh(h=h, a=-2.0, b=2.0)
            gaps.append(1.0 - restrict(prof, mesh).sup_norm())
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3
