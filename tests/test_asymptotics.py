"""First-order formulas: eigenvalues, phase/modulus, eigenfunction tables."""

import math

import numpy as np
import pytest

from slspec import (PotentialSpec, SingularArgumentError, biorthogonal_asym,
                    default_grid, eigenfunction_asym,
                    eigenvalue_asym, moments, normalization_factor,
                    prufer_modulus_asym, prufer_phase_asym, solve_eigenvalue,
                    eigenfunction_numeric, remainder_gauge)
PI = math.pi


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# -- eigenvalue asymptotics ------------------------------------------------------

def test_free_eigenvalue_is_exact(free_pot):
    p = eigenvalue_asym(free_pot, 7)
    assert p.sqrt_lambda_asym == 6.5
    assert p.phase_correction == 0
    assert p.gamma_at_m2 == 0.0
    assert p.m == 6.5
    assert p.rho is None


def test_constant_potential_closed_form_and_robin_root(const_pot):
    p = eigenvalue_asym(const_pot, 5)
    expect = 4.5 - 1 / (4.5 * PI)
    assert abs(p.sqrt_lambda_asym - expect) < 1e-12
    assert abs(p.sqrt_lambda_asym - 4.429264) < 1e-6
    # independent scalar bisection of sqrt(lam) cos(sqrt(lam) pi) = sin(...)
    root = _bisect(lambda s: s * math.cos(s * PI) - math.sin(s * PI), 4.1, 4.9)
    assert abs(p.sqrt_lambda_asym - root) < 1e-3


def test_step_potential_second_order_structure(step_pot):
    # v(pi, m^2) = 1/m + (-1)^(n-1)/m^2 for height 2 on [pi/2, pi]
    for n in (6, 10, 17):
        m = n - 0.5
        p = eigenvalue_asym(step_pot, n)
        expect = m - (1 / m + (-1) ** (n - 1) / m ** 2) / PI
        assert abs(p.sqrt_lambda_asym - expect) < 1e-12


def test_spectral_point_invariants(step_pot):
    p = eigenvalue_asym(step_pot, 4)
    assert p.m == 3.5
    assert abs(p.sqrt_lambda_asym - (p.m + p.phase_correction)) < 1e-15
    with pytest.raises(ValueError):
        eigenvalue_asym(step_pot, 0)


# -- phase and modulus leading parts ---------------------------------------------

def test_phase_free_and_origin(free_pot, const_pot):
    assert abs(prufer_phase_asym(free_pot, 1.3, 49.0) - 7 * 1.3) < 1e-13
    assert abs(prufer_phase_asym(const_pot, 0.0, 49.0)) < 1e-14


def test_phase_constant_closed_form(const_pot):
    m = 19.5
    got = prufer_phase_asym(const_pot, PI, m * m)
    assert abs(got - (m * PI + 1 / m)) < 1e-11


def test_modulus_leading_forms(free_pot, const_pot):
    assert abs(prufer_modulus_asym(free_pot, 2.0, 30.0) - 1.0) < 1e-14
    assert abs(prufer_modulus_asym(const_pot, 0.0, 30.0) - 1.0) < 1e-14
    # u = 1 at lam = m^2, x = pi: the cosine moment vanishes and the
    # square-sine moment contributes -1/(2 m^2)
    m = 9.5
    got = prufer_modulus_asym(const_pot, PI, m * m)
    assert abs(got - (1 - 1 / (2 * m * m))) < 1e-12


def test_phase_modulus_reject_lambda_zero(const_pot):
    with pytest.raises(SingularArgumentError):
        prufer_phase_asym(const_pot, 1.0, 0.0)
    with pytest.raises(SingularArgumentError):
        prufer_modulus_asym(const_pot, 1.0, 0.0)


def test_phase_consistency_at_pi(const_pot, step_pot):
    # theta_leading(pi, lam_asym) stays within O(gamma^2) of pi m
    for pot in (const_pot, step_pot):
        for n in (10, 18, 25, 40, 60, 80, 100):
            p = eigenvalue_asym(pot, n)
            th = prufer_phase_asym(pot, PI, p.lambda_asym)
            dev = abs(th - PI * p.m)
            assert dev <= 2.0 * p.gamma_at_m2 ** 2, (n, dev)


# -- eigenfunction tables ---------------------------------------------------------

def test_free_tables_are_exact_sines(free_pot):
    g = default_grid(257)
    for n in (1, 4, 9):
        m = n - 0.5
        y = eigenfunction_asym(free_pot, n, g)
        w = biorthogonal_asym(free_pot, n, g)
        ref = np.sqrt(2 / PI) * np.sin(m * g)
        assert np.abs(y.values - ref).max() < 1e-13
        assert np.abs(w.values - ref).max() < 1e-13


def test_table_vanishes_at_origin(step_pot, trig_pot):
    g = default_grid(129)
    for pot in (step_pot, trig_pot):
        for n in (2, 8):
            assert abs(eigenfunction_asym(pot, n, g).values[0]) < 1e-13


def test_real_potential_degeneration(step_pot, const_pot):
    g = default_grid(513)
    for pot in (step_pot, const_pot):
        for n in (3, 12):
            y = eigenfunction_asym(pot, n, g)
            w = biorthogonal_asym(pot, n, g)
            assert np.abs(y.values - w.values).max() < 1e-14


def test_real_biorthogonal_table_is_eigenfunction_table(poly_pot):
    # the conjugated assembly rounds differently from the plain one on
    # some polys (here a literal copy of a bench quadratic, where 16 of
    # the 20 tables differed by up to 3e-16), so the real tables must come
    # from one assembly to coincide
    quadratic = PotentialSpec.poly([
        (0.0, 1.3044947547868515,
         [0.1606588577869131, -0.16075700730768822, -0.30481862480947525]),
        (1.3044947547868515, PI,
         [-0.17431223003739588, 0.22139468090938771, 0.09917118125226723])])
    g = default_grid(16385)
    for pot in (poly_pot, quadratic):
        for n in range(1, 21):
            y = eigenfunction_asym(pot, n, g)
            w = biorthogonal_asym(pot, n, g)
            assert w.kind == "biorthogonal" and w.index == n
            assert np.array_equal(w.values, y.values), n


def test_step_eigenfunction_close_to_oracle(step_pot):
    g = default_grid(513)
    res = solve_eigenvalue(step_pot, 10)
    asym = eigenfunction_asym(step_pot, 10, g)
    num = eigenfunction_numeric(step_pot, res.lam, g, align_to=asym)
    assert asym.sup_distance(num) <= 0.05


def test_biorthogonal_against_oracle_pairs(trig_pot):
    # oracle eigenfunctions paired with one asymptotic biorthogonal table
    g = default_grid(2049)
    w8 = biorthogonal_asym(trig_pot, 8, g)
    from scipy.integrate import simpson
    for k in (6, 7, 8, 9, 10):
        res = solve_eigenvalue(trig_pot, k)
        yk = eigenfunction_numeric(trig_pot, res.lam, g,
                                   align_to=eigenfunction_asym(trig_pot, k, g))
        val = simpson(yk.values * np.conj(w8.values), x=g)
        target = 1.0 if k == 8 else 0.0
        assert abs(val - target) < 2e-2, (k, val)


def test_table_grid_validation(step_pot):
    with pytest.raises(Exception):
        eigenfunction_asym(step_pot, 3, np.asarray([0.0, 0.5, 0.4, PI]))
    with pytest.raises(Exception):
        eigenfunction_asym(step_pot, 3, np.asarray([0.1, 0.5, PI]))


def test_eigenfunction_brackets_match_numeric_construction(trig_pot):
    # rebuild the first-order expansion with cumulative trapezoid integrals
    # (no shared code with the closed-form engine) and compare tables
    n = 9
    m = n - 0.5
    t = np.linspace(0.0, PI, 60001)
    u = (1 + 1j) * np.sin(t)
    u2 = u * u
    uR = np.sin(t)
    uI = np.sin(t)

    def cum(f):
        return np.concatenate([[0], np.cumsum((f[1:] + f[:-1]) / 2 * np.diff(t))])

    u_cos = cum(u * np.cos(2 * m * t))
    u_sin = cum(u * np.sin(2 * m * t))
    u2_sin = cum(u2 * np.sin(2 * m * t))
    u2_int = cum(u2)
    u2_cos = cum(u2 * np.cos(2 * m * t))
    dbl = cum(u * np.cos(2 * m * t) * u_sin)
    k_cos = np.trapezoid((PI - t) * uR * np.cos(2 * m * t), t)
    k_sin = np.trapezoid((PI - t) * (uR ** 2 - uI ** 2) * np.sin(2 * m * t), t)
    sinb = 1 + k_cos / PI - u_cos + (-u2_sin + k_sin / PI) / (2 * m)
    cosb = (u_sin + 2 * dbl - (t / PI) * (u_sin[-1] + 2 * dbl[-1])
            + (u2_int - u2_cos - (t / PI) * (u2_int[-1] - u2_cos[-1])) / (2 * m))
    raw = np.sin(m * t) * sinb + np.cos(m * t) * cosb
    raw /= np.sqrt(np.trapezoid(np.abs(raw) ** 2, t))
    table = eigenfunction_asym(trig_pot, n, t)
    assert np.abs(table.values - raw).max() < 1e-5


# -- normalization factor ----------------------------------------------------------

def test_normalization_factor_free(free_pot):
    assert abs(normalization_factor(free_pot, 5) - PI / 2) < 1e-15


def test_normalization_factor_constant_closed_form(const_pot):
    m = 4.5
    got = normalization_factor(const_pot, 5)
    expect = PI / 2 * (1 - 1 / (PI * m * m) - 1 / (PI * m * m)
                       - 1 / (2 * m * m))
    assert abs(got - expect) < 1e-12
    assert got.imag == 0.0


def test_normalization_factor_real_for_real_potential(step_pot):
    for n in (3, 9):
        assert abs(normalization_factor(step_pot, n).imag) < 1e-15


def test_normalization_factor_matches_oracle_quadrature(const_pot):
    # |factor - int y ybar| = O(gamma^2) for the raw (slope sqrt(lam)) solution
    from scipy.integrate import simpson
    for n in (5, 12):
        res = solve_eigenvalue(const_pot, n)
        s = res.sqrt_lambda.real
        xs = np.linspace(0.0, PI, 8193)
        y = np.sin(s * xs)              # classical solution for u constant
        ref = simpson(y * y, x=xs)
        fac = normalization_factor(const_pot, n)
        gam = remainder_gauge(const_pot, res.lam).value
        assert abs(fac - ref) <= 1.0 * gam ** 2, (n, abs(fac - ref), gam ** 2)


# -- the half-integer moment identity ----------------------------------------------

def test_half_integer_moment_identity():
    breaks = (0.0, PI)
    x_poly = moments.linear(breaks)
    for n in range(1, 51):
        m = n - 0.5
        val = (x_poly * moments.sin_kernel(2 * m, breaks)).integral()
        assert abs(val - PI / (2 * m)) < 1e-12, n
