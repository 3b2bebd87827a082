"""Demo 3: time stepping — backward Euler, the L1 Caputo scheme, and the
mild reference integrator on the same truncated operator.

Solves the homogeneous problem from a Gaussian bump with each scheme and
cross-checks them: backward Euler converges to the mild solution at
first order in dt, and the scalar L1 scheme tracks the Mittag-Leffler
decay.  Run:  python3 demos/03_time_stepping.py
"""

import numpy as np

from fracheat import (
    EvolutionProblem,
    GridFunction,
    Mesh,
    SchemeConfig,
    evaluate_mild,
    mittag_leffler,
    solve,
    solve_scalar_l1,
)


def main():
    mesh = Mesh(h=0.25, a=-40.0, b=40.0)
    u0 = GridFunction(mesh, np.exp(-mesh.nodes ** 2 / 4.0))

    # --- backward Euler vs the mild reference (alpha = 1) ------------------
    prob = EvolutionProblem(s=0.6, alpha=1.0, mesh=mesh, u0=u0, t_horizon=0.5)
    ref = evaluate_mild(prob, 0.5)
    print("backward Euler vs mild reference at t=0.5 (s=0.6):")
    prev = None
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = solve(prob, SchemeConfig(stepper="backward_euler", dt=dt))
        gap = np.max(np.abs(traj.final.values - ref.values))
        note = "" if prev is None else f"  ratio {prev / gap:.2f}"
        print(f"  dt={dt}: gap {gap:.3e}{note}")
        prev = gap

    # --- the L1 Caputo scheme, scalar cross-check --------------------------
    alpha, lam = 0.7, 1.0
    print(f"\nscalar L1 scheme vs E_alpha(-t^alpha), alpha={alpha}:")
    for dt in (1e-2, 5e-3, 2.5e-3):
        tt, y = solve_scalar_l1(alpha, lam, 1.0, dt)
        ref_vals = np.array([mittag_leffler(alpha, -lam * t ** alpha) for t in tt])
        print(f"  dt={dt}: max error {np.max(np.abs(y - ref_vals)):.3e}")

    # --- full L1 run on the lattice ----------------------------------------
    prob_frac = EvolutionProblem(s=0.6, alpha=0.7, mesh=mesh, u0=u0,
                                 t_horizon=0.5)
    traj = solve(prob_frac, SchemeConfig(stepper="l1_caputo", dt=2e-3))
    mild = evaluate_mild(prob_frac, 0.5)
    gap = np.max(np.abs(traj.final.values - mild.values))
    print(f"\nL1 (s=0.6, alpha=0.7) vs the mild solution of the "
          f"truncated operator at t=0.5: gap {gap:.3e}")


if __name__ == "__main__":
    main()
