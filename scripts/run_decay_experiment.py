#!/usr/bin/env python3
"""Uniform Coulomb-decay experiment.

Runs the solver on spatially uniform data with Coulomb friction, where the
dynamics reduce to the ODE du/dt = -gamma u/|u| with exact solution
u(t) = (1 - gamma t / |u0|)_+ u0, and prints the observed error and stopping
time against that closed form.
"""

import argparse

import numpy as np

from shlab.fields import TorusGrid
from shlab.friction import FrictionParams
from shlab.solver import Scenario, Workspace, cfl_dt, step


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=64)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--u0", type=float, default=1.0)
    ap.add_argument("--slack", type=float, default=0.2, help="extra time past the stopping time")
    args = ap.parse_args()

    grid = TorusGrid(args.nx, args.nx)
    t_stop = args.u0 / args.gamma
    scn = Scenario(
        grid=grid,
        T=t_stop + args.slack,
        a=0.5,
        friction=FrictionParams(gamma=args.gamma),
        h0=np.ones(grid.shape),
        u0=np.stack([np.full(grid.shape, args.u0), np.zeros(grid.shape)]),
    )

    st = scn.initial_state()
    work = Workspace(grid.shape)
    t, worst, max_dt, observed_stop = 0.0, 0.0, 0.0, None
    print(f"{'t':>8s} {'u_numeric':>12s} {'u_exact':>12s} {'error':>10s}")
    next_print = 0.0
    while t < scn.T - 1e-12:
        work.fill(st.h, *st.q, scn.a)
        dt = min(cfl_dt(st, scn.cfl, grid.dx, scn.default_dt_max(), work), scn.T - t)
        st, _ = step(st, scn, dt, work)
        t += dt
        max_dt = max(max_dt, dt)
        u = float(np.max(st.velocity()[0]))
        exact = max(args.u0 - args.gamma * t, 0.0)
        worst = max(worst, abs(u - exact))
        if observed_stop is None and u == 0.0:
            observed_stop = t
        if t >= next_print:
            print(f"{t:8.4f} {u:12.6f} {exact:12.6f} {abs(u - exact):10.2e}")
            next_print += scn.T / 10.0

    print()
    print(f"worst L-inf velocity error: {worst:.3e}  (3 dt = {3 * max_dt:.3e})")
    if observed_stop is None:
        print("flow did not stop inside the horizon")
    else:
        print(
            f"stopping time: observed {observed_stop:.5f}, exact {t_stop:.5f}, "
            f"difference {abs(observed_stop - t_stop):.3e} (2 dt = {2 * max_dt:.3e})"
        )


if __name__ == "__main__":
    main()
