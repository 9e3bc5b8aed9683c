"""Oracle integrators, secular functions, root location, eigenfunctions."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from slspec import (DomainError, IntegrationBlowupError, PotentialSpec,
                    SingularArgumentError, characteristic, default_grid,
                    eigenfunction_asym, eigenfunction_numeric,
                    eigenvalue_asym, integrate_prufer,
                    integrate_quasi_system, solve_eigenvalue, solve_spectrum,
                    table_norm_sq)
from slspec import moments, oracle
from slspec.oracle import QuasiDerivState, _char_reduced

PI = math.pi

# Literal copy of a real 6-piece step with two negative eigenvalues
# (lambda_1 ~ -2.562, lambda_2 ~ -0.348); its second index used to be
# rejected because the zero count started from (0, sqrt(lam)).
TWO_BOUND_STEP = PotentialSpec.step([
    (0.0, 0.5986234000034831, 1.2524967736634278),
    (0.5986234000034831, 1.0251510961888821, -0.02970619259865437),
    (1.0251510961888821, 1.7932933658347754, -1.5253434676620181),
    (1.7932933658347754, 1.9649682636305876, -1.3319199388682383),
    (1.9649682636305876, 2.1406780306487327, 0.06176675379436425),
    (2.1406780306487327, PI, 1.655029004143449)])


# -- quasi-derivative system -------------------------------------------------

def test_free_trajectory(free_pot):
    tr = integrate_quasi_system(free_pot, 25.0, np.linspace(0, PI, 9))
    assert np.abs(tr.y1 - np.sin(5 * tr.x)).max() < 1e-12
    assert np.abs(tr.y2 - 5 * np.cos(5 * tr.x)).max() < 1e-12
    assert abs(tr.y1[-1]) < 1e-12          # sin(5 pi) = 0
    assert not tr.state(1).trivial
    assert QuasiDerivState(0, 0).trivial


def test_constant_potential_is_sheared_free_solution(const_pot):
    # q = u' = 0, so y = sin(s x) classically and y2 = y' - u y
    lam, a = 90.0, 1.0
    s = math.sqrt(lam)
    tr = integrate_quasi_system(const_pot, lam, np.linspace(0, PI, 33))
    assert np.abs(tr.y1 - np.sin(s * tr.x)).max() < 1e-12
    assert np.abs(tr.y2 + a * tr.y1 - s * np.cos(s * tr.x)).max() < 1e-11


def test_step_exact_vs_rk4(step_pot):
    grid = np.linspace(0, PI, 65)
    exact = integrate_quasi_system(step_pot, 90.0, grid)
    rk4 = integrate_quasi_system(step_pot, 90.0, grid, force_rk4=True)
    assert np.abs(exact.y1 - rk4.y1).max() < 1e-9
    assert np.abs(exact.y2 - rk4.y2).max() < 1e-9


def _classical_transfer(pot, lam, nodes):
    """Reference: (y, y') of a step potential by classical transfer matrices.

    Propagates the classical pair with free 2x2 blocks between breaks and
    applies the jump y' += c_k y at each interior break x_k, c_k being the
    height jump of u.  Returns (y, y') at the sorted nodes (a node on a break
    takes the state after the jump), then (y, y')(pi).
    """
    s = complex(oracle.principal_sqrt(lam))
    heights = [c[0] for c in pot.coeffs]
    yv = np.empty(len(nodes), dtype=complex)
    ypv = np.empty(len(nodes), dtype=complex)
    y, yp = 0j, s
    pos = 0
    for i, (a, b) in enumerate(zip(pot.breaks, pot.breaks[1:])):
        if i > 0:
            yp = yp + (heights[i] - heights[i - 1]) * y
        hi = b + 1e-12 if i == len(heights) - 1 else b - 1e-15
        j1 = pos + int(np.searchsorted(nodes[pos:], hi))
        d = nodes[pos:j1] - a
        yv[pos:j1] = np.cos(s * d) * y + np.sin(s * d) / s * yp
        ypv[pos:j1] = -s * np.sin(s * d) * y + np.cos(s * d) * yp
        pos = j1
        c, sn = cmath.cos(s * (b - a)), cmath.sin(s * (b - a))
        y, yp = c * y + sn / s * yp, -s * sn * y + c * yp
    return yv, ypv, y, yp


def test_quasi_system_matches_classical_transfer(step_pot):
    # (y, y' - u y) needs no jump rule: the quasi propagator alone must
    # reproduce the classical pair with its jumps, nodes on breaks included
    for pot in (step_pot, TWO_BOUND_STEP):
        grid = np.union1d(np.linspace(0, PI, 97), pot.breaks)
        u = pot.eval_u(grid)
        for lam in (-2.0, 90.0, 150.0 + 4.0j):
            tr = integrate_quasi_system(pot, lam, grid)
            yv, ypv, y_pi, yp_pi = _classical_transfer(pot, lam, grid)
            scale = max(np.abs(yv).max(), np.abs(ypv).max())
            assert np.abs(tr.y1 - yv).max() <= 1e-13 * scale, lam
            assert np.abs(tr.y2 - (ypv - u * yv)).max() <= 1e-13 * scale, lam
            expect = yp_pi - pot.coeffs[-1][0] * y_pi
            assert abs(characteristic(pot, lam) - expect) <= 1e-13 * scale, lam


# -- Prufer route ---------------------------------------------------------------

def test_prufer_free(free_pot):
    tr = integrate_prufer(free_pot, 49.0, np.linspace(0, PI, 9))
    assert np.abs(tr.theta - 7 * tr.x).max() < 1e-12
    assert np.abs(tr.log_r).max() < 1e-13


def test_prufer_reconstruction_all_potentials(all_pots):
    grid = np.linspace(0, PI, 41)
    for name, pot in all_pots.items():
        for lam in (10.0, 50.0, 250.0):
            tp = integrate_prufer(pot, lam, grid)
            tq = integrate_quasi_system(pot, lam, grid)
            assert np.abs(tp.y1 - tq.y1).max() < 1e-7, (name, lam)
            assert np.abs(tp.y2 - tq.y2).max() < 1e-7 * math.sqrt(lam), (name, lam)


def test_prufer_reconstruction_complex_lambda(trig_pot):
    # mildly complex lam, still inside the well-behaved strip
    grid = np.linspace(0, PI, 33)
    lam = complex(250.0, 2.0)
    tp = integrate_prufer(trig_pot, lam, grid)
    tq = integrate_quasi_system(trig_pot, lam, grid)
    assert np.abs(tp.y1 - tq.y1).max() < 1e-6


def test_prufer_blowup_is_typed(step_pot):
    # deeper in the complex plane the substitution degenerates; the failure
    # must surface as the dedicated error with a location, not an overflow
    from slspec import IntegrationBlowupError
    with pytest.raises(IntegrationBlowupError):
        integrate_prufer(step_pot, complex(50.0, 5.0), np.asarray([PI]))


def test_prufer_rejects_lambda_zero(step_pot):
    with pytest.raises(SingularArgumentError):
        integrate_prufer(step_pot, 0.0, np.asarray([PI]))


# -- characteristic function ------------------------------------------------------

def test_characteristic_free_zeros(free_pot):
    for n in (1, 2, 5, 9):
        m = n - 0.5
        assert abs(characteristic(free_pot, m * m)) < 1e-10
    # nonzero away from the spectrum
    assert abs(characteristic(free_pot, 1.0)) > 0.1


def test_characteristic_robin_residual(const_pot):
    # at the asymptotic prediction Delta is already small on the local
    # slope scale (|dDelta/ds| ~ 14 here); at the converged root it vanishes
    lam = 4.429264 ** 2
    assert abs(characteristic(const_pot, lam)) < 1e-2
    res = solve_eigenvalue(const_pot, 5)
    assert abs(characteristic(const_pot, res.lam)) < 1e-10


def test_characteristic_analytic_in_lambda(trig_pot):
    # finite-difference Cauchy-Riemann residual at random complex lambda
    rng = np.random.default_rng(3)
    for _ in range(4):
        lam = complex(rng.uniform(20, 120), rng.uniform(-3, 3))
        h = 1e-5 * abs(lam)
        d_re = (characteristic(trig_pot, lam + h) -
                characteristic(trig_pot, lam - h)) / (2 * h)
        d_im = (characteristic(trig_pot, lam + 1j * h) -
                characteristic(trig_pot, lam - 1j * h)) / (2j * h)
        scale = max(1.0, abs(d_re))
        assert abs(d_re - d_im) / scale < 1e-6


# -- batched end-state kernel ------------------------------------------------------

COMPLEX_STEP = PotentialSpec.step([(0, PI / 2, 0.0), (PI / 2, PI, 1.0 + 0.8j)])


def _contour(center, points=16):
    return center + 0.2 * np.exp(2j * PI * np.arange(points) / points)


@pytest.mark.parametrize("name", ["trig", "poly", "complex step"])
def test_batch_matches_scalar_evaluations(name, trig_pot, poly_pot):
    pot = {"trig": trig_pot, "poly": poly_pot, "complex step": COMPLEX_STEP}[name]
    # one |sqrt(lam)| for every member, so under force_rk4 each takes the
    # step table it takes alone; the Magnus cells never depend on lambda
    lam = (16.5 * np.exp(1j * np.linspace(-0.02, 0.02, 5))) ** 2
    for force_rk4 in (False, True):
        for f in (characteristic, _char_reduced):
            batch = f(pot, lam, force_rk4=force_rk4)
            alone = np.array([f(pot, complex(v), force_rk4=force_rk4)
                              for v in lam])
            assert batch.shape == (5,)
            assert (np.abs(batch - alone) <= 1e-12 * np.abs(alone)).all(), \
                (f, force_rk4)
    with pytest.raises(ValueError):
        integrate_quasi_system(pot, lam, np.linspace(0, PI, 5))


@pytest.mark.parametrize("name", ["trig", "poly"])
def test_batch_steps_for_its_largest_root(name, trig_pot, poly_pot):
    # under force_rk4 every member takes the step table of the largest |s|:
    # that member is its own evaluation bit for bit in any batch, the others
    # get a finer table than alone and agree to the accuracy of the default
    # RK4 step
    pot = trig_pot if name == "trig" else poly_pot
    lam = _contour(16.5 + 0.1j) ** 2
    top = int(np.argmax(np.abs(lam)))
    alone = np.array([_char_reduced(pot, complex(v), force_rk4=True)
                      for v in lam])
    batch = _char_reduced(pot, lam, force_rk4=True)
    assert batch[top] == alone[top]
    assert _char_reduced(pot, lam[[0, top, 5]], force_rk4=True)[1] == alone[top]
    assert np.abs(batch - alone).max() <= 1e-9 * np.abs(alone).max()


def test_winding_one_kernel_call_on_distinct_points(free_pot):
    seen = []

    def F(s):
        seen.append(np.asarray(s))
        return _char_reduced(free_pot, s * s)

    assert oracle._winding(F, 3.5) == 1        # free root s = k - 1/2
    assert oracle._winding(F, 3.0) == 0
    assert [v.shape for v in seen] == [(16,), (16,)]
    assert all(len(np.unique(v)) == 16 for v in seen)


def test_secant_iterations_count_every_contour_value(trig_pot, monkeypatch):
    sizes = []
    real = oracle._char_reduced

    def counted(pot, lam, **kw):
        sizes.append(np.size(lam))
        return real(pot, lam, **kw)

    monkeypatch.setattr(oracle, "_char_reduced", counted)
    res = solve_eigenvalue(trig_pot, 5)
    assert sizes[-1] == 16 and sizes.count(16) == 1
    assert res.iterations == sum(sizes)


# -- exact secular function for steps ----------------------------------------------

def test_secular_reduces_to_free(free_pot):
    for n in (1, 3, 7):
        m = n - 0.5
        assert abs(characteristic(free_pot, m * m)) < 1e-10


def test_secular_single_step_closed_form():
    # independent closed form for one jump c at x0 (Dirichlet start)
    c, x0 = 2.0, PI / 2
    pot = PotentialSpec.step([(0, x0, 0.0), (x0, PI, c)])
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = rng.uniform(0.5, 900.0)
        s = math.sqrt(lam)
        y, yp = math.sin(s * x0), s * math.cos(s * x0)
        yp += c * y
        dx = PI - x0
        y_pi = y * math.cos(s * dx) + yp * math.sin(s * dx) / s
        yp_pi = -s * y * math.sin(s * dx) + yp * math.cos(s * dx)
        expect = yp_pi - c * y_pi
        assert abs(characteristic(pot, lam) - expect) < 1e-10 * max(1, abs(expect))


def test_small_jump_limit_linear_in_height():
    # roots converge to the free ones linearly in the jump height
    devs = []
    for c in (1e-3, 5e-4, 2.5e-4):
        pot = PotentialSpec.step([(0, PI / 2, 0.0), (PI / 2, PI, c)])
        res = solve_eigenvalue(pot, 4)
        devs.append(abs(res.lam - 3.5 ** 2))
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.15)
    assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.15)


# -- root location ------------------------------------------------------------------

def test_solve_free_exact(free_pot):
    res = solve_eigenvalue(free_pot, 3)
    assert abs(res.lam - 6.25) < 1e-12
    assert res.multiplicity_hint == 1
    assert res.residual < 1e-10


def test_solve_constant_matches_independent_bisection(const_pot):
    res = solve_eigenvalue(const_pot, 5)
    f = lambda s: s * math.cos(s * PI) - math.sin(s * PI)
    lo, hi = 4.1, 4.9
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(res.sqrt_lambda - 0.5 * (lo + hi)) < 1e-9


def test_solve_low_index_bound_states(const_pot, step_pot):
    # u = 1 has a Robin-type bound state: beta = tanh(beta pi), lam = -beta^2
    res = solve_eigenvalue(const_pot, 1)
    beta = 0.9962
    lo, hi = 0.5, 1.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (lo - math.tanh(lo * PI)) * (mid - math.tanh(mid * PI)) <= 0:
            hi = mid
        else:
            lo = mid
    beta = 0.5 * (lo + hi)
    assert abs(res.lam + beta * beta) < 1e-9
    res1 = solve_eigenvalue(step_pot, 1)
    assert res1.lam.real < 0       # scan finds the bound state
    assert res1.residual < 1e-9


def test_solve_phase_method_agrees(step_pot, const_pot):
    for pot, n in ((step_pot, 4), (const_pot, 6)):
        a = solve_eigenvalue(pot, n)
        b = solve_eigenvalue(pot, n, method="phase")
        assert abs(a.lam - b.lam) < 1e-6
        assert b.method == "phase"


def test_solve_complex_potential(trig_pot):
    point = eigenvalue_asym(trig_pot, 12)
    res = solve_eigenvalue(trig_pot, 12, seed=point)
    assert res.residual < 1e-8
    assert abs(res.sqrt_lambda - point.sqrt_lambda_asym) < 0.1
    assert res.multiplicity_hint == 1
    assert res.method == "secant"


def test_solve_complex_step_potential():
    # complex jump height drives the secant path through the exact propagator
    pot = PotentialSpec.step([(0, PI / 2, 0.0), (PI / 2, PI, 1.0 + 0.8j)])
    from slspec import eigenvalue_asym
    for n in (6, 11):
        point = eigenvalue_asym(pot, n)
        res = solve_eigenvalue(pot, n, seed=point)
        assert res.method == "secant"
        assert res.residual < 1e-9
        assert abs(characteristic(pot, res.lam)) < 1e-9
        assert abs(res.sqrt_lambda - point.sqrt_lambda_asym) \
            <= 2.0 * point.gamma_at_m2 ** 2


def test_characteristic_vs_transfer_matrix_roots(step_pot):
    # the two independent secular formulations share roots to 1e-9
    from scipy.optimize import brentq
    for n in range(2, 51, 7):
        res = solve_eigenvalue(step_pot, n)       # exact propagator route
        lam0 = res.lam.real
        f = lambda lam: _char_reduced(step_pot, lam, force_rk4=True).real
        lo, hi = lam0 - 0.4 * math.sqrt(abs(lam0)), lam0 + 0.4 * math.sqrt(abs(lam0))
        root = brentq(f, lo, hi, xtol=1e-11)
        assert abs(root - lam0) < 1e-9 * max(1.0, abs(lam0)), n


def test_solve_spectrum_flags_instead_of_raising(step_pot, monkeypatch):
    import slspec.oracle as om

    real_solve = om.solve_eigenvalue

    def flaky(pot, n, seed=None, **kw):
        if n == 3:
            raise om.NonconvergenceError("synthetic failure", best=None)
        return real_solve(pot, n, seed=seed, **kw)

    monkeypatch.setattr(om, "solve_eigenvalue", flaky)
    pts = om.solve_spectrum(step_pot, range(2, 6))
    flags = {p.n: p.flag for p in pts}
    assert "degraded" in flags[3]
    assert flags[2] == "" and flags[4] == ""


# -- eigenvalue counting and step policy --------------------------------------------

def test_phase_at_pi_crosses_each_half_integer_once():
    # u = 1/4 keeps the whole spectrum positive (no Robin bound state), so
    # every level pi (n - 1/2) is crossed inside the sweep window
    pot = PotentialSpec.constant(0.25)
    lams = np.linspace(0.01, 8.5 ** 2, 400)
    thetas = np.asarray([
        float(integrate_prufer(pot, lam, np.asarray([PI])).theta[0].real)
        for lam in lams])
    for n in range(1, 9):
        level = PI * (n - 0.5)
        ups = np.count_nonzero((thetas[:-1] < level) & (thetas[1:] >= level))
        downs = np.count_nonzero((thetas[:-1] >= level) & (thetas[1:] < level))
        assert ups == 1 and downs == 0, n


def test_step_halving_fourth_order():
    pot = PotentialSpec.trig([(0.0, PI, [1.0])])
    lam = 90.0
    vals = [characteristic(pot, lam, step_scale=0.08 * k, force_rk4=True)
            for k in (1.0, 0.5, 0.25, 0.125)]
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    d3 = abs(vals[2] - vals[3])
    assert 12.0 <= d1 / d2 <= 20.0
    assert 12.0 <= d2 / d3 <= 20.0


def test_default_step_accuracy_at_large_lambda():
    # halving the default step moves Delta by less than 1e-9 relative
    pot = PotentialSpec.trig([(0.0, PI, [1.0])])
    lam = 3600.0
    d1 = characteristic(pot, lam)
    d2 = characteristic(pot, lam, step_scale=0.002)
    assert abs(d1 - d2) <= 1e-9 * abs(d1)


# -- Magnus cells on smooth pieces ----------------------------------------------------

# smooth, constant and smooth again, with jumps of u at both breaks
MIXED = PotentialSpec.poly([(0.0, 1.0, [0.0, 1.0]), (1.0, 2.0, [1.5]),
                            (2.0, PI, [1.0, 0.0, -0.3])])


def _fine_rk4_root(pot, lam):
    """Reference: lam moved by one Newton step on RK4 at step scale 0.002."""
    f = lambda l: _char_reduced(pot, l, step_scale=0.002, force_rk4=True).real
    h = 1e-6 * max(1.0, abs(lam))
    return lam - f(lam) * 2 * h / (f(lam + h) - f(lam - h))


@pytest.mark.parametrize("name", ["poly", "real trig"])
def test_cell_roots_match_fine_rk4(name, poly_pot):
    pot = poly_pot if name == "poly" else PotentialSpec.trig([(0.0, PI, [1.0])])
    for n in (1, 2, 5, 20, 50, 200):
        lam = solve_eigenvalue(pot, n).lam
        s = oracle.principal_sqrt(lam)
        s_ref = oracle.principal_sqrt(_fine_rk4_root(pot, lam))
        assert abs(s - s_ref) <= 1e-10 * abs(s_ref), n


def _chunked_rk4_reduced(pot, lam, chunk=1 << 16):
    """_char_reduced by RK4 at the default step scale, one chunk of the step
    table at a time: the forced end state builds the whole table at once,
    which at n = 1000 takes hundreds of MB."""
    s = abs(oracle.principal_sqrt(lam))
    pe = pot.piecewise
    y = (0j, 1 + 0j)
    for atoms, a, b in zip(pe.pieces, pe.breaks, pe.breaks[1:]):
        steps = int(oracle._n_sub(b - a, s, oracle._DEFAULT_STEP_SCALE))
        h = (b - a) / steps
        for lo in range(0, steps, chunk):
            x = h * np.arange(lo, min(steps, lo + chunk))
            mats = oracle._rk4_matrices(moments._eval_atoms(atoms, x),
                                        moments._eval_atoms(atoms, x + h / 2),
                                        moments._eval_atoms(atoms, x + h),
                                        lam, h)
            y = oracle._apply(oracle._chain(mats), y)
    return y[1].real


@pytest.mark.parametrize("name", ["poly", "real trig"])
def test_cell_root_matches_rk4_at_large_index(name, poly_pot):
    # a default cell spans about 4 radians of phase at n = 1000; the cell
    # error still does not grow with lambda
    pot = poly_pot if name == "poly" else PotentialSpec.trig([(0.0, PI, [1.0])])
    lam = solve_eigenvalue(pot, 1000).lam.real
    h = 1e-6 * lam
    f = [_chunked_rk4_reduced(pot, v) for v in (lam, lam + h, lam - h)]
    ref = lam - f[0] * 2 * h / (f[1] - f[2])
    assert abs(math.sqrt(lam) - math.sqrt(ref)) <= 1e-10 * math.sqrt(ref)


def test_cell_characteristic_matches_fine_rk4_complex(trig_pot):
    # |s| <= 50: above that RK4 at 0.002 is itself no better than 1e-10
    for s in (3.5 + 0.4j, 10.5 + 0.3j, 50.3 - 0.2j):
        ref = characteristic(trig_pot, s * s, step_scale=0.002, force_rk4=True)
        assert abs(characteristic(trig_pot, s * s) - ref) <= 1e-10 * abs(ref), s


def test_cell_halving_fourth_order(trig_pot):
    # step_scale = pi / 2^j cuts the one piece into exactly 2^j cells
    for pot in (PotentialSpec.trig([(0.0, PI, [1.0])]), trig_pot):
        vals = [characteristic(pot, 90.0, step_scale=PI / 2 ** j)
                for j in (6, 7, 8, 9)]
        d = [abs(v - w) for v, w in zip(vals, vals[1:])]
        assert 12.0 <= d[0] / d[1] <= 20.0 and 12.0 <= d[1] / d[2] <= 20.0


@pytest.mark.parametrize("name", ["poly", "trig", "mixed"])
def test_cell_node_states_match_fine_rk4(name, poly_pot, trig_pot):
    pot = {"poly": poly_pot, "trig": trig_pot, "mixed": MIXED}[name]
    grid = np.linspace(0, PI, 513)
    for lam in (-2.0, 90.0, 400.0 + 3.0j, 2500.0):
        tr = integrate_quasi_system(pot, lam, grid)
        ref = integrate_quasi_system(pot, lam, grid, step_scale=0.002,
                                     force_rk4=True)
        scale = max(np.abs(ref.y1).max(), np.abs(ref.y2).max())
        assert np.abs(tr.y1 - ref.y1).max() <= 1e-9 * scale, lam
        assert np.abs(tr.y2 - ref.y2).max() <= 1e-9 * scale, lam
        # the last node comes from the prefix states, Delta from one
        # product over the cells of each smooth piece
        assert abs(tr.y2[-1] - characteristic(pot, lam)) <= 1e-13 * scale, lam


# -- Sturm counts and the scan route --------------------------------------------------

def _reduced_g(pot):
    """The real secular function solve_eigenvalue brackets, as a closure."""
    def g(lam):
        if lam == 0.0:
            lam = 1e-24
        return float(_char_reduced(pot, lam).real)
    return g


def _linear_scan_root(pot, n, g, s_seed):
    """Reference: the linear lambda-grid scan the count bisection replaced."""
    from scipy.optimize import brentq
    sup_u = float(np.abs(pot.eval_u(np.linspace(0.0, PI, 513))).max())
    lam_lo = -4.0 * (1.0 + sup_u) ** 2
    lam_hi = max((abs(s_seed) + 1.5) ** 2, (n + 1.0) ** 2)
    neg = np.linspace(lam_lo, 0.0, max(64, int(abs(lam_lo) / 0.05)))
    pos = np.linspace(0.05, math.sqrt(lam_hi), int(math.sqrt(lam_hi) / 0.05)) ** 2
    lams = np.concatenate([neg, pos])
    roots = []
    lam_prev = float(lams[0])
    f_prev = g(lam_prev)
    for lam in lams[1:]:
        lam = float(lam)
        f_cur = g(lam)
        if f_cur == 0.0:
            roots.append(lam)
        elif f_prev * f_cur < 0:
            roots.append(brentq(g, lam_prev, lam, xtol=1e-13, rtol=8.9e-16,
                                maxiter=200))
        if len(roots) >= n:
            return roots[n - 1]
        lam_prev, f_prev = lam, f_cur
    raise AssertionError("reference scan found too few roots")


def test_sturm_count_free_spectrum(free_pot):
    # eigenvalues (n - 1/2)^2, so floor(s + 1/2) of them lie below s^2;
    # y1 = sin(s x) has floor(s) interior zeros
    for lam, zeros, below in ((-3.0, 0, 0), (0.2, 0, 0), (0.3, 0, 1),
                              (2.0, 1, 1), (2.3, 1, 2), (30.0, 5, 5),
                              (31.0, 5, 6)):
        assert oracle._sturm_count(free_pot, lam, step_scale=0.004) \
            == (zeros, below), lam


def test_negative_second_eigenvalue_is_indexed():
    pts = solve_spectrum(TWO_BOUND_STEP, range(1, 4))
    assert [p.flag for p in pts] == ["", "", ""]
    lams = [solve_eigenvalue(TWO_BOUND_STEP, n).lam for n in (1, 2, 3)]
    assert lams[0] < lams[1] < 0 < lams[2]
    assert abs(lams[1] + 0.348164529) < 1e-8


@pytest.mark.parametrize("case", ["poly-1", "step-1", "step-2"])
def test_count_bisection_matches_linear_scan(case, poly_pot):
    kind, n = case.split("-")
    pot, n = (poly_pot if kind == "poly" else TWO_BOUND_STEP), int(n)
    res = solve_eigenvalue(pot, n)
    assert res.method == "scan"
    assert res.iterations <= 30            # g and count evaluations together
    s_seed = eigenvalue_asym(pot, n).sqrt_lambda_asym.real
    assert res.lam == _linear_scan_root(pot, n, _reduced_g(pot), s_seed)


def test_verified_floor_doubles_until_count_is_zero():
    seen = []

    def below(lam):
        seen.append(lam)
        return 0 if lam <= -50.0 else 2

    assert oracle._verified_floor(below, -10.0) == -80.0
    assert seen == [-10.0, -20.0, -40.0, -80.0]
    with pytest.raises(oracle.NonconvergenceError):
        oracle._verified_floor(lambda lam: 1, -1.0)


def test_scan_floor_lowered_past_undersampled_sup(monkeypatch):
    # u = 3 has a Robin bound state lam_1 = -beta^2, beta = 3 tanh(beta pi),
    # below the floor -4 that a sampled sup|u| of 0 would give
    pot = PotentialSpec.constant(3.0)
    seed = eigenvalue_asym(pot, 1)
    monkeypatch.setattr(PotentialSpec, "eval_u",
                        lambda self, x: np.zeros_like(np.asarray(x, float)))
    assert oracle._sturm_count(pot, -4.0, step_scale=0.004)[1] == 1
    res = solve_eigenvalue(pot, 1, seed=seed)
    lo, hi = 2.5, 3.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (lo - 3 * math.tanh(lo * PI)) * (mid - 3 * math.tanh(mid * PI)) <= 0:
            hi = mid
        else:
            lo = mid
    beta = 0.5 * (lo + hi)
    assert res.method == "scan"
    assert abs(res.lam + beta * beta) < 1e-9


def test_solve_spectrum_flags_shared_root(shared_root_trig):
    pot = shared_root_trig
    s1 = solve_eigenvalue(pot, 1).sqrt_lambda
    s2 = solve_eigenvalue(pot, 2).sqrt_lambda
    assert abs(s1 - s2) <= 1e-6 * abs(s1)
    pts = solve_spectrum(pot, range(1, 4))
    assert pts[0].flag == "degraded: shared root with index 2"
    assert pts[1].flag == "degraded: shared root with index 1"
    assert pts[0].sqrt_lambda_numeric is None and pts[1].residual is None
    assert pts[2].flag == "" and pts[2].sqrt_lambda_numeric is not None


# -- numeric eigenfunctions ----------------------------------------------------------

def _dense_states_per_stop(pot, lam, nodes, *, step_scale, init=None):
    """Reference: the per-stop step-table loop _dense_states replaced.

    Covers smooth pieces only; the poly fixture has no constant piece.
    """
    s = complex(oracle.principal_sqrt(lam))
    pe = pot.piecewise
    y1 = np.empty(len(nodes), dtype=complex)
    y2 = np.empty(len(nodes), dtype=complex)
    y = (0j, s) if init is None else (complex(init[0]), complex(init[1]))
    pos = 0
    while pos < len(nodes) and nodes[pos] <= 1e-15:
        y1[pos], y2[pos] = y
        pos += 1
    maxnode = float(nodes[-1])
    for i, (a, b) in enumerate(zip(pe.breaks, pe.breaks[1:])):
        if pos >= len(nodes) or a >= maxnode - 1e-15:
            break
        assert oracle._piece_constant(pe, i) is None
        end = min(b, maxnode)
        j1 = pos + int(np.searchsorted(nodes[pos:], end + 1e-15))
        stops = list(nodes[pos:j1])
        record = [True] * len(stops)
        if not stops or end - stops[-1] > 1e-15:
            stops.append(end)
            record.append(False)
        lefts, hs, bnd = [], [], []
        prev, count = a, 0
        for t in stops:
            need = max((t - prev) * max(1.0, abs(s)) / step_scale,
                       (t - prev) / oracle._H_MAX)
            nsub = max(1, int(math.ceil(need - 1e-12)))
            h = (t - prev) / nsub
            lefts.append(prev + h * np.arange(nsub))
            hs.append(np.full(nsub, h))
            count += nsub
            bnd.append(count)
            prev = t
        lefts, hs = np.concatenate(lefts), np.concatenate(hs)
        mats = oracle._rk4_matrices(
            moments._eval_atoms(pe.pieces[i], lefts - a),
            moments._eval_atoms(pe.pieces[i], lefts + hs / 2 - a),
            moments._eval_atoms(pe.pieces[i], lefts + hs - a), complex(lam), hs)
        if not any(record):
            p = oracle._chain(mats)
            y = (complex(p[0, 0] * y[0] + p[0, 1] * y[1]),
                 complex(p[1, 0] * y[0] + p[1, 1] * y[1]))
        else:
            marks = {e - 1: k for k, e in enumerate(bnd) if record[k]}
            a1, a2 = y
            for j, (m00, m01, m10, m11) in enumerate(
                    mats.reshape(4, -1).T.tolist()):
                a1, a2 = m00 * a1 + m01 * a2, m10 * a1 + m11 * a2
                k = marks.get(j)
                if k is not None:
                    y1[pos + k], y2[pos + k] = a1, a2
            y = (a1, a2)
        pos = j1
    return y1, y2


def test_dense_states_step_tables_bit_identical(poly_pot):
    # the RK4 route (force_rk4) against the per-stop loop it replaced
    breaks = np.asarray(poly_pot.breaks)
    node_sets = {
        "norm grid": np.union1d(np.linspace(0.0, PI, 32769), breaks),
        "513 grid": np.union1d(np.linspace(0.0, PI, 513), breaks),
        "sparse, no node in the first piece": np.asarray([0.0, 2.0, 3.0]),
        "ends before pi": np.linspace(0.0, 2.0, 77),
    }
    # s ~ 9.5 puts RK4 steps (~4e-4) between the two grid spacings
    for lam, init in ((90.0, None), (-3.1, (0.0, 1.0)), (400.0 + 3.0j, None)):
        for name, nodes in node_sets.items():
            got = oracle._dense_states(poly_pot, lam, nodes, step_scale=0.004,
                                       force_rk4=True, init=init)
            ref = _dense_states_per_stop(poly_pot, lam, nodes,
                                         step_scale=0.004, init=init)
            assert np.array_equal(got[0], ref[0]), (lam, name)
            assert np.array_equal(got[1], ref[1]), (lam, name)


def test_numeric_eigenfunction_free(free_pot):
    grid = default_grid(129)
    tab = eigenfunction_numeric(free_pot, 6.25, grid,
                                align_to=eigenfunction_asym(free_pot, 3, grid))
    assert np.abs(tab.values - np.sqrt(2 / PI) * np.sin(2.5 * grid)).max() < 1e-9


def test_numeric_eigenfunction_matches_transfer_closed_form(step_pot):
    res = solve_eigenvalue(step_pot, 10)
    grid = default_grid(513)
    tab = eigenfunction_numeric(step_pot, res.lam, grid,
                                align_to=eigenfunction_asym(step_pot, 10, grid))
    s = res.sqrt_lambda.real
    c, x0 = 2.0, PI / 2
    y = np.where(grid < x0, np.sin(s * grid), 0.0)
    mask = grid >= x0
    y0, yp0 = math.sin(s * x0), s * math.cos(s * x0) + c * math.sin(s * x0)
    y2 = y0 * np.cos(s * (grid - x0)) + yp0 * np.sin(s * (grid - x0)) / s
    y = np.where(mask, y2, y)
    from scipy.integrate import simpson
    dense = np.linspace(0, PI, 32769)
    yd = np.where(dense < x0, np.sin(s * dense),
                  y0 * np.cos(s * (dense - x0)) + yp0 * np.sin(s * (dense - x0)) / s)
    y = y / math.sqrt(simpson(yd ** 2, x=dense))
    sign = 1.0 if np.sum(y * tab.values.real) > 0 else -1.0
    assert np.abs(sign * y - tab.values).max() < 1e-9


def test_numeric_norm_postcondition(step_pot):
    res = solve_eigenvalue(step_pot, 10)
    grid = default_grid(4097)
    tab = eigenfunction_numeric(step_pot, res.lam, grid,
                                align_to=eigenfunction_asym(step_pot, 10, grid))
    assert abs(table_norm_sq(tab) - 1.0) < 1e-8


def test_numeric_alignment_to_asymptotic_table(step_pot):
    res = solve_eigenvalue(step_pot, 7)
    grid = default_grid(257)
    asym = eigenfunction_asym(step_pot, 7, grid)
    num = eigenfunction_numeric(step_pot, res.lam, grid, align_to=asym)
    # aligned: the inner product is positive real
    ip = np.sum(asym.values * np.conj(num.values))
    assert ip.real > 0 and abs(ip.imag) < 1e-9
    assert num.index == 7
    with pytest.raises(ValueError):
        eigenfunction_numeric(step_pot, res.lam, default_grid(129), align_to=asym)


def _closed_form_norm(pot, lam):
    return oracle._dense_states(pot, lam, np.asarray([PI]),
                                step_scale=oracle._DEFAULT_STEP_SCALE,
                                norm=True)[2]


def _piecewise_simpson_norm(pot, lam, intervals=2 ** 17):
    """|y1|^2 over [0, pi] by Simpson on each piece, the breaks as nodes.

    |y1|^2 has a kink at every jump of u, where Simpson across the break
    is only second order; inside a piece it is smooth.
    """
    total = 0.0
    for a, b in zip(pot.breaks, pot.breaks[1:]):
        m = 2 * max(1, round(intervals * (b - a) / (2 * PI)))
        x = np.linspace(a, b, m + 1)
        total += simpson(np.abs(integrate_quasi_system(pot, lam, x).y1) ** 2,
                         x=x)
    return total


def test_closed_form_norm_matches_piecewise_simpson(step_pot, poly_pot,
                                                    trig_pot):
    cstep = PotentialSpec.step([(0.0, PI / 2, 1j), (PI / 2, PI, 1 - 1j)])
    # the two-bound step has irregular breaks and two negative eigenvalues,
    # so its constant pieces take imaginary z at n = 1, 2
    pots = {"step": step_pot, "two-bound step": TWO_BOUND_STEP,
            "poly": poly_pot, "trig": trig_pot, "complex step": cstep}
    for name, pot in pots.items():
        for n in (1, 2, 10, 100, 200):
            lam = solve_eigenvalue(pot, n).lam
            got, ref = _closed_form_norm(pot, lam), _piecewise_simpson_norm(
                pot, lam)
            assert abs(got - ref) <= 1e-9 * ref, (name, n, got, ref)


def test_closed_form_norm_small_and_large_cells(poly_pot):
    # lambda equal to the cell average of q = u' on one Magnus cell puts
    # that cell at a turning point: z^2 = -delta^2, far below the series
    # threshold of _sinc_defect
    h, (delta, gamma), *_ = oracle._mesh(poly_pot.piecewise.pieces[0], 1.3,
                                         oracle._DEFAULT_STEP_SCALE)
    k = len(gamma) // 2
    lam = (gamma[k] / h).real
    z = np.sqrt(-(delta * delta + h * (gamma - lam * h)))
    assert abs(z[k]) < 1e-6
    got, ref = _closed_form_norm(poly_pot, lam), _piecewise_simpson_norm(
        poly_pot, lam)
    assert abs(got - ref) <= 1e-9 * ref
    # a constant piece with s d = 47.1 + 9.4i: |y1| grows by e^9.4 across it
    pot = PotentialSpec.step([(0.0, 1.0, 0.5), (1.0, PI, -1.0 + 0.5j)])
    lam = (22.0 + 4.4j) ** 2
    got, ref = _closed_form_norm(pot, lam), _piecewise_simpson_norm(pot, lam)
    assert abs(got - ref) <= 1e-9 * ref


def test_numeric_grid_past_pi_rejected(step_pot):
    # a table takes a last node within 1e-9 of pi; the trajectory stops at pi
    grid = default_grid(65)
    grid[-1] = PI + 5e-10
    lam = solve_eigenvalue(step_pot, 3).lam
    with pytest.raises(DomainError):
        eigenfunction_numeric(step_pot, lam, grid)


def test_norm_overflow_is_typed(free_pot):
    # Im sqrt(lam) pi = 377: y1 stays finite (about 1e163), |y1|^2 does not
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError):
            eigenfunction_numeric(free_pot, (1 + 120j) ** 2, default_grid(33))


def test_node_states_independent_of_other_nodes(step_pot, poly_pot, trig_pot):
    grid = default_grid(513)
    dense = np.linspace(0.0, PI, 32769)
    nodes = np.union1d(grid, dense)
    at = np.searchsorted(nodes, grid)
    cstep = PotentialSpec.step([(0.0, PI / 2, 1j), (PI / 2, PI, 1 - 1j)])
    for pot, n in ((step_pot, 7), (poly_pot, 5), (trig_pot, 4), (cstep, 6)):
        lam = solve_eigenvalue(pot, n).lam
        for norm in (False, True):
            few = oracle._dense_states(pot, lam, grid, step_scale=0.004,
                                       norm=norm)
            many = oracle._dense_states(pot, lam, nodes, step_scale=0.004,
                                        norm=norm)
            assert np.array_equal(few[0], many[0][at]), (n, norm)
            assert np.array_equal(few[1], many[1][at]), (n, norm)
        # an unsorted grid with a repeated node maps back node by node
        order = np.random.default_rng(n).permutation(len(grid))
        idx = np.append(order, order[3])
        vals = oracle._unit_trajectory(pot, lam, grid)
        assert np.array_equal(oracle._unit_trajectory(pot, lam, grid[idx]),
                              vals[idx])
