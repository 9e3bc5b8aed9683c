"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Every tolerance below is fixed here, not tuned at runtime.  Independent
oracles (manual bisection, nested adaptive quadrature, closed transfer-matrix
forms) are implemented inside this module so they share no code with the
paths they certify.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from slspec import (PotentialSpec, biorthogonal_asym, biorthogonality_check,
                    correction_terms, default_grid, eigenfunction_asym,
                    eigenfunction_numeric, eigenvalue_asym,
                    integrate_quasi_system, phase_modulus_ratio_profile, moments,
                    remainder_sweep, solve_eigenvalue,
                    solve_spectrum)
from conftest import RAW_PIECES, integrate_prufer, piecewise_quad, rk4_end

PI = math.pi


def _verdict(num, name, ok, detail=""):
    print(f"\n[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def step_sweep(step_pot):
    # shared by criteria 3 and 5: eigenvalues to n = 200, tables to n = 100
    return remainder_sweep(step_pot, 200, eigfun_up_to=100, sup_grid=192)


def test_criterion_1_free_operator_exactness(free_pot):
    points = solve_spectrum(free_pot, range(1, 51))
    lam_err = max(abs(p.sqrt_lambda_numeric ** 2 - p.m ** 2) for p in points)
    asym_err = max(abs(p.sqrt_lambda_asym - p.m) for p in points)
    grid = default_grid(513)
    fun_err = 0.0
    for p in points:
        tab = eigenfunction_numeric(
            free_pot, p.sqrt_lambda_numeric ** 2, grid,
            align_to=eigenfunction_asym(free_pot, p.n, grid))
        ref = np.sqrt(2 / PI) * np.sin(p.m * grid)
        fun_err = max(fun_err, float(np.abs(tab.values - ref).max()))
    ok = lam_err <= 1e-8 and asym_err <= 1e-12 and fun_err <= 1e-8
    _verdict(1, "free operator exactness", ok,
             f"max|lam-m^2|={lam_err:.2e} max|asym-m|={asym_err:.2e} "
             f"sup eigfun err={fun_err:.2e}")


def test_criterion_2_constant_robin_reduction(const_pot):
    # independent oracle: plain bisection of s cos(s pi) = sin(s pi)
    def robin_root(m):
        f = lambda s: s * math.cos(s * PI) - math.sin(s * PI)
        lo, hi = m - 0.49, m + 0.49
        flo = f(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = f(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        return 0.5 * (lo + hi)

    worst = 0.0
    for n in range(10, 101):
        m = n - 0.5
        asym = m - 1 / (PI * m)
        point = eigenvalue_asym(const_pot, n)
        assert abs(point.sqrt_lambda_asym - asym) < 1e-12
        worst = max(worst, n * n * abs(asym - robin_root(m)))
    ok = worst <= 5.0
    _verdict(2, "constant-u Robin reduction", ok,
             f"max n^2 |asym - bisected root| = {worst:.3f} (bound 5)")


def test_criterion_3_delta_interaction_remainders(step_pot, step_sweep):
    recs = {r.n: r for r in step_sweep.records if not r.flag}
    mid = [recs[n].ratio for n in range(10, 101) if n in recs]
    tail = [recs[n].ratio for n in range(101, 201) if n in recs]
    ratio_ok = max(tail) <= 2.0 * max(mid)
    inc = sum(recs[n].eig_error for n in range(101, 201) if n in recs)
    base = sum(recs[n].eig_error for n in range(10, 101) if n in recs)
    cauchy_ok = inc < 0.1 * base
    ok = ratio_ok and cauchy_ok and not step_sweep.degraded
    _verdict(3, "delta interaction remainder scaling", ok,
             f"ratio tail/mid = {max(tail):.3g}/{max(mid):.3g}, "
             f"rho increment {inc:.3g} vs 0.1 * {base:.3g}")


def test_criterion_4_phase_and_modulus_representations(const_pot, step_pot):
    details = []
    ok = True
    for name, pot in (("const", const_pot), ("step", step_pot)):
        prof = phase_modulus_ratio_profile(pot, 100, n_min=10)
        assert not prof["degraded"]
        for key in ("theta_ratio", "r_ratio"):
            vals = dict(zip(prof["n_values"], prof[key]))
            mid = max(vals[n] for n in range(10, 56))
            tl = max(vals[n] for n in range(56, 101))
            ok = ok and (tl <= 2.0 * mid)
            details.append(f"{name}.{key}: tail {tl:.3g} vs mid {mid:.3g}")
    _verdict(4, "phase/modulus remainder ratios", ok, "; ".join(details))


def test_criterion_5_eigenfunction_asymptotics(step_sweep):
    errs = {r.n: r.eigfun_sup_error for r in step_sweep.records
            if not r.flag and r.n <= 100}
    first_ok = errs[10] <= 0.05
    decreasing = errs[80] < errs[40] < errs[20] < errs[10]
    sums = np.cumsum([errs[n] for n in sorted(errs)])
    ns = sorted(errs)
    s25 = sums[ns.index(25)]
    s50 = sums[ns.index(50)]
    s100 = sums[ns.index(100)]
    cauchy_ok = (s50 - s25) >= 1.5 * (s100 - s50)
    ok = first_ok and decreasing and cauchy_ok
    _verdict(5, "eigenfunction sup errors", ok,
             f"e(10)={errs[10]:.4f} e(20)={errs[20]:.4f} e(40)={errs[40]:.4f} "
             f"e(80)={errs[80]:.4f}; increments {s50 - s25:.4f} vs "
             f"{s100 - s50:.4f}")


def test_criterion_6_biorthogonality(trig_pot, step_pot):
    out = biorthogonality_check(trig_pot, 15, n_min=5)
    dev = max(out["max_offdiag"], out["max_diag_deviation"])
    grid = default_grid(1025)
    degen = 0.0
    for n in (3, 8, 14):
        y = eigenfunction_asym(step_pot, n, grid)
        w = biorthogonal_asym(step_pot, n, grid)
        degen = max(degen, float(np.abs(y.values - w.values).max()))
    ok = dev <= 5e-3 and degen <= 1e-14
    _verdict(6, "biorthogonality of the asymptotic systems", ok,
             f"max |(y_n, w_k) - delta| = {dev:.2e} (bound 5e-3); "
             f"real degeneration sup = {degen:.2e} (bound 1e-14)")


def test_criterion_7_quadrature_engine(all_pots):
    rng = np.random.default_rng(20240817)
    names = ["const", "step", "trig", "poly"]
    worst = 0.0
    for _ in range(50):
        name = names[rng.integers(len(names))]
        pot, raw = all_pots[name], RAW_PIECES[name]
        lam = float(np.exp(rng.uniform(0.0, np.log(3600.0))))
        x = float(rng.uniform(0.5, PI))
        s = np.sqrt(complex(lam))
        got = correction_terms(pot, x, lam).total
        t1 = piecewise_quad(raw, lambda u, t: u * np.sin(2 * s * t), 0.0, x)
        t2 = piecewise_quad(raw, lambda u, t: u * u, 0.0, x) / (2 * s)

        def inner(t):
            return piecewise_quad(raw, lambda u, w: u * np.sin(2 * s * w),
                                  0.0, t, epsabs=1e-11, epsrel=1e-11,
                                  limit=200)

        t3 = 2 * piecewise_quad(raw,
                                lambda u, t: u * np.cos(2 * s * t) * inner(t),
                                0.0, x, epsabs=1e-10, epsrel=1e-10, limit=150)
        t4 = -piecewise_quad(raw, lambda u, t: u * u * np.cos(2 * s * t),
                             0.0, x) / (2 * s)
        worst = max(worst, abs(got - (t1 + t2 + t3 + t4)))
    # half-integer moment identity through the exact engine
    ident = 0.0
    xker = moments.linear((0.0, PI))
    for n in range(1, 51):
        m = n - 0.5
        val = (xker * moments.sin_kernel(2 * m, (0.0, PI))).integral()
        ident = max(ident, abs(val - PI / (2 * m)))
    ok = worst <= 1e-8 and ident <= 1e-12
    _verdict(7, "oscillatory quadrature vs brute force", ok,
             f"worst |v - quadrature| = {worst:.2e} (bound 1e-8); "
             f"moment identity dev = {ident:.2e} (bound 1e-12)")


def test_criterion_8_oracle_self_consistency(all_pots, step_pot):
    recon = 0.0
    grid = np.linspace(0.0, PI, 33)
    for name, pot in all_pots.items():
        for lam in (10.0, 50.0, 250.0):
            tp = integrate_prufer(pot, lam, grid)
            tq = integrate_quasi_system(pot, lam, grid)
            recon = max(recon, float(np.abs(tp.y1 - tq.y1).max()))
    # step halving on a smooth potential in the clean h^4 regime
    pot = PotentialSpec.trig([(0.0, PI, [1.0])])
    vals = [rk4_end(pot, 90.0, step_scale=0.08 * k) for k in (1.0, 0.5, 0.25)]
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
    halving_ok = 12.0 <= ratio <= 20.0
    # roots of the exact constant-piece propagator, re-rooted on the RK4
    # reference of conftest (rk4_end from (0, 1))
    root_dev = 0.0
    for n in range(1, 51):
        res = solve_eigenvalue(step_pot, n)       # exact propagator route
        lam0 = float(res.lam.real)
        f = lambda lam: rk4_end(step_pot, lam, init=(0.0, 1.0)).real
        w = 0.2 * max(1.0, math.sqrt(abs(lam0)))
        r2 = brentq(f, lam0 - w, lam0 + w, xtol=1e-12, rtol=8.9e-16)
        root_dev = max(root_dev, abs(r2 - lam0) / max(1.0, abs(lam0)))
    ok = recon <= 1e-7 and halving_ok and root_dev <= 1e-9
    _verdict(8, "oracle self-consistency", ok,
             f"Prufer-vs-system sup = {recon:.2e} (bound 1e-7); halving "
             f"ratio = {ratio:.1f} (16 +/- 4); secular root dev = "
             f"{root_dev:.2e} (bound 1e-9)")
