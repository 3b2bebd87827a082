"""Uniform 1D meshes and grid functions with zero exterior extension.

A mesh is the portion of the uniform lattice {jh : j integer} that falls
in a truncation interval [a, b]; grid functions carry one value per node
and are implicitly zero outside the interval.  A continuous profile F is
sampled on a mesh as GridFunction(mesh, F(mesh.nodes)), which refuses
non-finite samples.  Grid functions have no file format: the one report
the package writes is the study CSV (study.emit_csv).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh", "GridFunction"]


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh {jh} intersected with [a, b].

    h, a and b must be finite, and a and b (floating-point) multiples of
    h with a <= 0 <= b, so the mesh has at least the node 0; nodes are jh
    for j = j_min..j_max.
    """

    h: float
    a: float
    b: float
    j_min: int = field(init=False)
    j_max: int = field(init=False)

    def __post_init__(self):
        if not np.all(np.isfinite((self.h, self.a, self.b))):
            raise ValueError(f"h, a and b must be finite, got {self.h}, {self.a}, {self.b}")
        if not self.h > 0.0:
            raise ValueError(f"mesh size must be positive, got {self.h}")
        if not self.a <= 0.0 <= self.b:
            raise ValueError(f"truncation interval must contain 0, got [{self.a}, {self.b}]")
        j_min = round(self.a / self.h)
        j_max = round(self.b / self.h)
        for j, end in ((j_min, self.a), (j_max, self.b)):
            if abs(j * self.h - end) > 4.0 * np.spacing(abs(end) + self.h):
                raise ValueError(
                    f"endpoint {end} is not a multiple of h={self.h} (nearest node {j * self.h})"
                )
        object.__setattr__(self, "j_min", j_min)
        object.__setattr__(self, "j_max", j_max)

    @property
    def n_points(self):
        return self.j_max - self.j_min + 1

    @property
    def nodes(self):
        """Node coordinates jh as an array of length n_points."""
        return np.arange(self.j_min, self.j_max + 1) * self.h

    def window_slice(self, c, d):
        """Index slice of the nodes lying in the closed interval [c, d]."""
        x = self.nodes
        idx = np.nonzero((x >= c - 1e-12 * self.h) & (x <= d + 1e-12 * self.h))[0]
        if idx.size == 0:
            raise ValueError(f"window [{c}, {d}] contains no mesh nodes")
        return slice(int(idx[0]), int(idx[-1]) + 1)


@dataclass
class GridFunction:
    """Real values sampled on the nodes of a mesh, zero outside [a, b]."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_points,):
            raise ValueError(
                f"expected {self.mesh.n_points} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

