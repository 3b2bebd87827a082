import numpy as np
import pytest

from fracheat.grid import GridFunction, Mesh


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

    @pytest.mark.parametrize("h, a, b", [
        (0.5, -np.inf, 1.0), (0.5, -1.0, np.inf), (np.inf, 0.0, 0.0), (np.nan, -1.0, 1.0),
        (0.5, np.nan, 1.0),
    ])
    def test_rejects_nonfinite(self, h, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            Mesh(h=h, a=a, b=b)

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

