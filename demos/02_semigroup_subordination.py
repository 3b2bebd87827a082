"""Demo 2: the discrete semigroup and its time-fractional subordination.

The fractional heat semigroup on the lattice is a sub-Markov convolution
kernel; integrating it against the Mainardi/Wright density turns it into
the solution operator of the time-fractional (Caputo) equation.  The
scalar reduction of that integral is the Mittag-Leffler function, which
gives an exact cross-check.  Run:
    python3 demos/02_semigroup_subordination.py
"""

import numpy as np

from fracheat import (
    GridFunction,
    Mesh,
    frac_semigroup_kernel,
    mittag_leffler,
    subordinate_scalar_S,
    toeplitz_matvec,
    wright_phi,
)


def main():
    s, h, t = 0.6, 0.2, 0.5

    # --- semigroup kernel --------------------------------------------------
    kern = frac_semigroup_kernel(s, h, t, 400)
    print(f"semigroup kernel at s={s}, t={t}: "
          f"min weight {np.min(kern.w):.2e} (>= 0 up to roundoff), "
          f"mass {kern.mass():.12f} (sub-Markov)")

    mesh = Mesh(h=h, a=-30.0, b=30.0)
    u = GridFunction(mesh, np.exp(-mesh.nodes ** 2 / 4.0))
    v = toeplitz_matvec(frac_semigroup_kernel(s, h, t, mesh.n_points), u.values)
    print(f"sup norm: u0 {u.sup_norm():.6f} -> T(t)u0 {np.max(np.abs(v)):.6f} "
          f"(contraction)")

    # --- the Wright density ------------------------------------------------
    alpha = 0.7
    print(f"\nMainardi density Phi_alpha at alpha={alpha}:")
    for x in (0.0, 0.5, 1.0, 2.0, 4.0):
        print(f"  Phi({x}) = {wright_phi(alpha, x):.8f}")

    # --- subordination vs Mittag-Leffler -----------------------------------
    print(f"\nscalar subordination check, alpha={alpha}:")
    for lam in (0.5, 2.0):
        for t in (0.25, 1.0):
            sub = subordinate_scalar_S(alpha, lam, t)
            ml = mittag_leffler(alpha, -lam * t ** alpha)
            print(f"  lambda={lam}, t={t}: quadrature {sub:.10f}  "
                  f"E_alpha {ml:.10f}  gap {abs(sub - ml):.1e}")


if __name__ == "__main__":
    main()
