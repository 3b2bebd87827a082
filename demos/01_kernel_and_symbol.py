"""Demo 1: the discrete fractional Laplacian kernel.

Builds the convolution weights, shows the power-law tail, and verifies
the Fourier symbol on a plane wave.  The tests check the weights against
their alternating-sign closed form.
Run:  python3 demos/01_kernel_and_symbol.py
"""

import math

import numpy as np

from fracheat import GridFunction, Mesh, kernel_weights, toeplitz_matvec


def main():
    s, h = 0.6, 0.1

    # --- the weights -------------------------------------------------------
    kern = kernel_weights(s, h, 1000)
    print(f"center weight  w[0] = {kern.w[0]:.6f}  "
          f"(= Gamma(2s+1)/Gamma(1+s)^2 / h^2s)")
    print("off-center weights are negative and decay like n^(-1-2s):")
    for n in (1, 10, 100, 1000):
        print(f"  w[{n:4d}] = {kern.w[n]: .6e}   "
              f"n^(1+2s) w[n] h^2s = {kern.w[n] * n ** (1 + 2 * s) * h ** (2 * s): .6f}")

    # --- the symbol --------------------------------------------------------
    # applying the kernel to cos(omega x) multiplies it by the discrete
    # symbol (4 sin^2(omega h/2) / h^2)^s, the lattice version of |omega|^{2s}
    omega = 1.3
    mesh = Mesh(h=h, a=-500.0, b=500.0)
    u = GridFunction(mesh, np.cos(omega * mesh.nodes))
    au = toeplitz_matvec(kernel_weights(s, h, mesh.n_points), u.values)
    sym = (4.0 * math.sin(omega * h / 2.0) ** 2 / h ** 2) ** s
    sl = mesh.window_slice(-2.0, 2.0)
    err = np.max(np.abs(au[sl] - sym * u.values[sl]))
    print(f"\nplane wave omega={omega}: discrete symbol {sym:.8f} "
          f"vs |omega|^2s = {omega ** (2 * s):.8f}")
    print(f"eigen-relation residual in the window: {err:.2e}")


if __name__ == "__main__":
    main()
