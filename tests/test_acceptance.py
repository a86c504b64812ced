"""End-to-end acceptance gate: one test per headline guarantee.

Each test pins the tolerance it certifies; the terminal summary (see
conftest) reports one PASS/FAIL line per criterion.
"""

import numpy as np
import pytest

from conftest import sample
from shlab.diagnostics import (
    energy_jump,
    weak_residual,
    weak_strong_experiment,
)
from shlab.fields import TorusGrid, deviatoric_outer
from shlab.friction import FrictionParams
from shlab.solver import Scenario, Workspace, cfl_dt, simulate, step
from shlab.spectral import (
    div_traceless_values,
    div_values,
    grad_values,
    helmholtz_decompose,
    korn_solve_values,
    laplacian_values,
    poisson_solve_values,
)
from shlab.workbench import (
    SpaceTimeBox,
    WorkbenchProblem,
    _constraint_lambda,
    energy_gap,
    find_energy_offset,
    improvement_step,
    oscillatory_pair,
    subsolution_certificate,
)

TWO_PI = 2.0 * np.pi
BOX = SpaceTimeBox(0.15, 0.85, 0.1, 0.9, 0.1, 0.9)


def band_limited(rng, n, kmax=None):
    kmax = kmax if kmax is not None else n // 4
    fh = np.zeros((n, n), dtype=complex)
    for sl1 in (slice(None, kmax), slice(-kmax, None)):
        for sl2 in (slice(None, kmax), slice(-kmax, None)):
            fh[sl1, sl2] = rng.standard_normal((kmax, kmax)) + 1j * rng.standard_normal(
                (kmax, kmax)
            )
    return np.fft.ifft2(fh).real


def smooth_scenario(grid, T, n_output=3, u_amp=0.1):
    return Scenario(
        grid=grid,
        T=T,
        a=0.5,
        friction=FrictionParams(),
        h0=sample(grid, lambda x1, x2: 1.0 + 0.2 * np.sin(TWO_PI * x1)),
        u0=sample(
            grid, lambda x1, x2: u_amp * np.cos(TWO_PI * x2), lambda x1, x2: 0.0 * x1
        ),
        n_output=n_output,
    )


def zero_field_inputs(grid, K, T=1.0):
    """Time nodes and the trivial background (g = 0, W = 0, r = 1, e = 1) for
    the oscillation lemma."""
    times = np.linspace(0.0, T, K + 1)
    Z = np.zeros((K + 1, 2, *grid.shape))
    ones = np.ones((K + 1, *grid.shape))
    return times, Z, Z.copy(), ones, ones.copy()


def canonical_problem(grid, num_steps, gamma=0.3):
    return WorkbenchProblem(
        grid=grid,
        T=1.0,
        num_steps=num_steps,
        a=0.5,
        friction=FrictionParams(gamma=gamma),
        h0=sample(grid, 1.0),
        u0=sample(grid, 0.0, 0.0),
        delta=0.1,
    )


def test_criterion_1_pointwise_eigenvalue_algebra():
    rng = np.random.default_rng(7)
    N = 10_000
    p = rng.standard_normal(N) * 10.0
    s = rng.standard_normal(N) * 10.0
    mats = np.zeros((N, 2, 2))
    mats[:, 0, 0] = p
    mats[:, 1, 1] = -p
    mats[:, 0, 1] = mats[:, 1, 0] = s
    oracle = np.linalg.eigvalsh(mats)[:, -1]
    # the certificate's top eigenvalue of -[[p, s], [s, -p]] at zero momentum
    W = -np.stack([p, s]).reshape(1, 2, 100, 100)
    lam = _constraint_lambda(np.zeros_like(W), np.ones((1, 100, 100)), W).ravel()
    np.testing.assert_allclose(lam, oracle, atol=1e-12, rtol=1e-12)

    # half |q|^2 / h equals the top eigenvalue of the traceless part of q (x) q / h
    q = rng.standard_normal((2, 100, 100)) * 5.0
    h = rng.uniform(0.1, 10.0, (100, 100))
    lam = np.hypot(*deviatoric_outer(q, h))
    np.testing.assert_allclose(lam, 0.5 * (q[0] ** 2 + q[1] ** 2) / h, atol=1e-12, rtol=1e-12)


def test_criterion_2_elliptic_solver_suite():
    rng = np.random.default_rng(11)
    n = 64

    # manufactured Poisson: solve, apply the forward operator, compare
    rhs = band_limited(rng, n)
    rhs -= rhs.mean()
    psi = poisson_solve_values(rhs)
    np.testing.assert_allclose(-laplacian_values(psi), rhs, atol=1e-9 * np.abs(rhs).max())

    # manufactured div-form solve: known m*, forward operator, round trip
    grid = TorusGrid(n, n)
    m_star = sample(
        grid, lambda x1, x2: np.sin(TWO_PI * x2), lambda x1, x2: np.cos(TWO_PI * x1)
    )
    g1 = grad_values(m_star[0])
    g2 = grad_values(m_star[1])
    ps = np.stack([g1[0] - g2[1], g1[1] + g2[0]])
    rhs = div_traceless_values(ps)
    np.testing.assert_allclose(korn_solve_values(rhs), ps, atol=1e-9)
    np.testing.assert_allclose(-poisson_solve_values(rhs), m_star, atol=1e-9)

    # Helmholtz round trip
    q = np.stack([band_limited(rng, n), band_limited(rng, n)])
    parts = helmholtz_decompose(q)
    recon = parts.v + parts.Vmean[:, None, None] + grad_values(parts.psi)
    np.testing.assert_allclose(recon, q, atol=1e-10 * np.abs(q).max())
    assert np.abs(div_values(parts.v)).max() < 1e-10 * np.abs(q).max()

    # symmetric-gradient lower bound with constant 1/2, 100 random fields
    for _ in range(100):
        m = np.stack([band_limited(rng, 32, 8), band_limited(rng, 32, 8)])
        g1 = grad_values(m[0])
        g2 = grad_values(m[1])
        grad_norm = np.sqrt(np.mean(g1[0] ** 2 + g1[1] ** 2 + g2[0] ** 2 + g2[1] ** 2))
        p = g1[0] - g2[1]
        s = g1[1] + g2[0]
        op_norm = np.sqrt(np.mean(2.0 * (p**2 + s**2)))
        assert op_norm >= 0.5 * grad_norm - 1e-12


def test_criterion_3_solver_conservation_and_decay():
    grid = TorusGrid(128, 128)

    # mass to 1e-12 relative and per-step energy decrease over 10^3 steps
    scn = smooth_scenario(grid, T=10.0)
    st = scn.initial_state()
    mass0 = float(st.h.mean())
    prev_total = None
    work = Workspace(grid.shape)
    for _ in range(1000):
        work.fill(st.h, *st.q, scn.a)
        dt = cfl_dt(st, scn.cfl, grid.dx, scn.default_dt_max(), work)
        st, _ = step(st, scn, dt, work)
        h, q = st.h, st.q
        total = float(np.mean(0.5 * (q[0] ** 2 + q[1] ** 2) / h + scn.a * h * h))
        if prev_total is not None:
            assert total <= prev_total + 1e-10
        prev_total = total
    assert abs(float(st.h.mean()) - mass0) / mass0 <= 1e-12

    # uniform Coulomb decay reproduces u(t) = (1 - gamma t)_+ u0/|u0|
    gamma = 0.5
    decay = Scenario(
        grid=grid,
        T=2.2,
        a=0.5,
        friction=FrictionParams(gamma=gamma),
        h0=sample(grid, 1.0),
        u0=sample(grid, 1.0, 0.0),
    )
    st = decay.initial_state()
    t, max_dt, worst, stop_time = 0.0, 0.0, 0.0, None
    while t < decay.T - 1e-12:
        work.fill(st.h, *st.q, decay.a)
        dt = min(cfl_dt(st, decay.cfl, grid.dx, decay.default_dt_max(), work), decay.T - t)
        st, _ = step(st, decay, dt, work)
        t += dt
        max_dt = max(max_dt, dt)
        u1 = float(np.max(st.velocity()[0]))
        worst = max(worst, abs(u1 - max(1.0 - gamma * t, 0.0)))
        if stop_time is None and u1 == 0.0:
            stop_time = t
    assert worst <= 3.0 * max_dt
    assert stop_time is not None and abs(stop_time - 1.0 / gamma) <= 2.0 * max_dt

    # first-order L1 self-convergence against a 4x-refined reference
    ref = simulate(smooth_scenario(TorusGrid(256, 256), T=0.2))
    errors = []
    for nx in (32, 64):
        traj = simulate(smooth_scenario(TorusGrid(nx, nx), T=0.2))
        f = 256 // nx
        coarse_ref = ref.states[-1].h.reshape(nx, f, nx, f).mean(axis=(1, 3))
        errors.append(float(np.mean(np.abs(traj.states[-1].h - coarse_ref))))
    assert np.log2(errors[0] / errors[1]) >= 0.8


def test_criterion_4_subsolution_pipeline():
    grid = TorusGrid(64, 64)
    prob = canonical_problem(grid, num_steps=64)

    offset = find_energy_offset(prob)
    assert offset == pytest.approx(1.1 * 0.6, rel=0.02)

    sub = prob.build(offset)
    cert = subsolution_certificate(sub)
    assert cert.passed
    # flat data: the margin is the constant offset - a h0^2 - delta
    margin = cert.margin
    assert float(np.ptp(margin)) <= 1e-12
    assert float(margin.min()) == pytest.approx(offset - 0.5 - 0.1, abs=1e-12)

    # the gap functional equals minus the space-time integral of E
    e_integral = float(np.trapezoid(sub.kinetic_energy.mean(axis=(1, 2)), prob.times))
    assert energy_gap(sub) == pytest.approx(-e_integral, abs=1e-8)

    new, report = improvement_step(sub, seed=0)
    assert report.accepted
    assert energy_gap(new) > energy_gap(sub)
    assert subsolution_certificate(new).passed

    # the linear transport constraint tightens at first order under dt refinement
    resids = []
    for K in (64, 128):
        times, g, W, r, e = zero_field_inputs(grid, K)
        pair = oscillatory_pair(times, grid, g, W, r, e, 8, BOX, seed=0)
        w, G = pair.w, pair.G
        dt = 1.0 / K
        dw = (w[2:] - w[:-2]) / (2.0 * dt)
        dG = np.array([div_traceless_values(G[k]) for k in range(K + 1)])
        resids.append(float(np.abs(dw + dG[1:-1]).max()))
    assert np.log2(resids[0] / resids[1]) >= 1.0


def test_criterion_5_oscillatory_pair_invariants():
    grid = TorusGrid(128, 128)
    times, g, W, r, e = zero_field_inputs(grid, K=32)
    x = (np.arange(128) + 0.5) / 128.0
    phi = np.sin(TWO_PI * x)[:, None] * np.cos(TWO_PI * x)[None, :]

    prev_pairing = None
    for n in (8, 16, 32):
        pair = oscillatory_pair(times, grid, g, W, r, e, n, BOX, seed=0)
        assert not pair.degenerate
        w, G = pair.w, pair.G

        # exactly divergence-free in the discrete calculus
        for k in range(0, 33, 4):
            assert np.abs(div_values(w[k])).max() <= 1e-9

        # constraint preserved pointwise after the perturbation
        assert np.all(_constraint_lambda(w, r, G) < e)

        # weak decay: pairing with a fixed test function halves per doubling
        series = (w[:, 0] * phi).mean(axis=(1, 2))
        pairing = abs(np.trapezoid(series, times))
        if prev_pairing is not None:
            assert pairing <= prev_pairing / 2.0
        prev_pairing = pairing

    # space-time conservation holds to the time-stencil truncation error
    resids = []
    for K in (64, 128):
        tK, gK, WK, rK, eK = zero_field_inputs(grid, K)
        pair = oscillatory_pair(tK, grid, gK, WK, rK, eK, 8, BOX, seed=0)
        w, G = pair.w, pair.G
        dt = 1.0 / K
        dw = (w[2:] - w[:-2]) / (2.0 * dt)
        dG = np.array([div_traceless_values(G[k]) for k in range(K + 1)])
        resids.append(float(np.abs(dw + dG[1:-1]).max()))
    assert np.log2(resids[0] / resids[1]) >= 1.5


def test_criterion_6_initial_energy_jump():
    grid = TorusGrid(32, 32)
    prob = canonical_problem(grid, num_steps=16, gamma=0.0)
    threshold = float(np.mean(prob.a * prob.h0**2))  # flat data, u0 = 0

    jumps = {}
    for offset in (threshold, 0.55, 0.7, 1.0):
        jumps[offset] = energy_jump(prob.build(offset))

    assert jumps[threshold] == pytest.approx(0.0, abs=1e-12)
    for offset, jump in jumps.items():
        assert (jump > 0.0) == (offset > threshold)
    slope = (jumps[1.0] - jumps[0.55]) / (1.0 - 0.55)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_criterion_7_relative_energy_experiment():
    def wave(grid):
        return Scenario(
            grid=grid,
            T=0.1,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(
                grid, lambda x1, x2: 1.0 + 0.2 * np.cos(TWO_PI * x1)
            ),
            u0=sample(grid, 0.0, 0.0),
            n_output=6,
        )

    # identical data: the relative energy shrinks under coarse-grid refinement
    fine = TorusGrid(128, 128)
    finals = []
    for nc in (16, 32):
        [rep] = weak_strong_experiment(wave, [0.0], TorusGrid(nc, nc), fine)
        finals.append(rep.values[-1])
    assert finals[0] / finals[1] >= 1.5

    # perturbed data: quadratic initial scaling and a stable fitted rate
    def flat(grid):
        return Scenario(
            grid=grid,
            T=0.5,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(grid, 1.0),
            u0=sample(grid, 0.0, 0.0),
            n_output=11,
        )

    eps_list = (1e-3, 1e-2, 1e-1)
    reports = weak_strong_experiment(flat, eps_list, TorusGrid(16, 16), TorusGrid(64, 64))
    initials = [rep.values[0] for rep in reports]
    rates = [rep.rate for rep in reports]
    slope = np.polyfit(np.log(eps_list), np.log(initials), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    mean_rate = np.mean(rates)
    assert np.all(np.abs(np.array(rates) - mean_rate) <= 0.2 * abs(mean_rate))


def test_criterion_8_weak_formulation_residuals():
    # exact steady state: residuals at quadrature tolerance
    grid = TorusGrid(32, 32)
    steady = Scenario(
        grid=grid,
        T=0.5,
        a=0.5,
        friction=FrictionParams(),
        h0=sample(grid, 1.0),
        u0=sample(grid, 0.0, 0.0),
        n_output=6,
    )
    rep = weak_residual(simulate(steady), basis_size=2)
    assert rep.continuity <= 1e-12
    assert rep.momentum <= 1e-12
    assert rep.mass_mode <= 1e-12

    # smooth run: residual decreases at order >= 0.8, mass mode at roundoff
    reps = []
    for nx, n_out in ((16, 11), (32, 21)):
        scn = Scenario(
            grid=TorusGrid(nx, nx),
            T=0.1,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(
                TorusGrid(nx, nx), lambda x1, x2: 1.0 + 0.2 * np.cos(TWO_PI * x1)
            ),
            u0=sample(TorusGrid(nx, nx), 0.0, 0.0),
            n_output=n_out,
        )
        reps.append(weak_residual(simulate(scn), basis_size=2))
        assert reps[-1].mass_mode <= 1e-12
    assert np.log2(reps[0].momentum / reps[1].momentum) >= 0.8
