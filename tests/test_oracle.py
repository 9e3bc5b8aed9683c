"""Oracle integrators, secular functions, root location, eigenfunctions."""

import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

from slspec import (DomainError, IndexingError, IntegrationBlowupError,
                    NonconvergenceError, PotentialSpec, SingularArgumentError,
                    characteristic, default_grid, eigenfunction_asym,
                    eigenfunction_numeric, eigenvalue_asym,
                    integrate_quasi_system, remainder_gauge, solve_eigenvalue,
                    solve_spectrum)
from slspec import asymptotics, oracle, validation

from conftest import (brent_root, char_reduced, integrate_prufer, rk4_end,
                      rk4_states, winding, zero_count)

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

# Real potentials whose seed bracket s0 -+ 0.35 holds the root of another
# index at some n <= 12: the validate-step bench potential at seed 29
# (n = 2), a 3-piece quadratic (n = 3, 4, 6, 10) and a 3-mode sine series
# (n = 2, 3).  Their angles send those indices to the angle search.
MISBRACKETED = {
    "step": PotentialSpec.step([
        (0.0, 0.27490262637385793, 1.9192737057181657),
        (0.27490262637385793, 0.44247654327162617, 0.635785222226942),
        (0.44247654327162617, 1.0177133245142973, -1.8705164987887626),
        (1.0177133245142973, 1.85851612083082, 0.7405450355258822),
        (1.85851612083082, 2.7546293204154177, -0.474092961414617),
        (2.7546293204154177, PI, -1.2203830377599498)]),
    "poly": PotentialSpec.poly([
        (0.0, 0.6374587884061049, [-0.531, 0.042, 1.579]),
        (0.6374587884061049, 2.7469986032369986, [-0.275, -1.143, -1.455]),
        (2.7469986032369986, PI, [-0.333, -1.125, 2.821])]),
    "trig": PotentialSpec.trig([(0.0, PI, [-4.568, 7.03, -0.282])]),
}

# Real step whose first eigenvalue is a deep bound state (fuzz steps, numpy
# default_rng(5), potential 24): a zero count at its root reads 1 from a
# tail where |y1| is 1e-10 of its peak, so only the angle at the ends of
# its bracket indexes it.
DEEP_BOUND_STEP = PotentialSpec.step([
    (0.0, 0.5142603723773005, 10.770212589547427),
    (0.5142603723773005, 0.7751812050766056, -3.9189785327709488),
    (0.7751812050766056, 2.166513294503461, -2.2936080715688045),
    (2.166513294503461, 2.705736044129607, 0.14632603739495262),
    (2.705736044129607, PI, 1.9329849765809353)])

# Real potentials of the seeded fuzz (numpy default_rng; steps, seed 5: 2-5
# pieces with breaks uniform on (0, pi) and heights N(0, 4^2); polys, seed
# 9: 1-3 quadratic pieces with coefficients N(0, 1.5^2); trig, seed 11: 3
# modes N(0, 3^2)), named kind-seed-potential, with the index range the
# fuzz solved.  On each, some indices take the angle route and the others
# the seed bracket.
FUZZ_SCANNED = {
    "step-5-27": (PotentialSpec.step([
        (0.0, 0.29147435453598486, -8.417864040342241),
        (0.29147435453598486, 0.6076344353144891, -2.322798821957826),
        (0.6076344353144891, 1.0173902719009524, 6.039932517248423e-05),
        (1.0173902719009524, 2.9385650062157995, 4.755322714149481),
        (2.9385650062157995, PI, -4.057872550409708)]), 30),
    "step-5-31": (PotentialSpec.step([
        (0.0, 1.1759284017720226, 3.4290455978651715),
        (1.1759284017720226, 2.763404005478871, -9.59146109071248),
        (2.763404005478871, 2.976632870042956, -4.636684792992392),
        (2.976632870042956, PI, 4.224294469493967)]), 30),
    "poly-9-3": (PotentialSpec.poly([
        (0.0, 1.74200331604952,
         [-1.7568606072451014, 0.8178626572429676, -1.5661893588237037]),
        (1.74200331604952, 2.9004383719868096,
         [-2.755602163377708, -0.8906513765004048, -2.1958716232486717]),
        (2.9004383719868096, PI,
         [0.8299173453309507, 0.032506675499013885, 0.7641697442534287])]),
        20),
    "poly-9-11": (PotentialSpec.poly([
        (0.0, 1.039963713852653,
         [2.168017348222803, 1.3690096503566038, 1.502468305458267]),
        (1.039963713852653, PI,
         [-0.08239736722366503, -1.74719332992891, 3.281671733136604])]), 20),
    "trig-11-6": (PotentialSpec.trig([(0.0, PI, [
        -0.45835853571059126, 2.057095832427774, -2.6110219258415137])]), 20),
    "trig-11-15": (PotentialSpec.trig([(0.0, PI, [
        -2.514500882147024, -5.202044538698555, 0.3793036655909886])]), 20),
}


# -- quasi-derivative system -------------------------------------------------

def test_free_trajectory(free_pot):
    tr = integrate_quasi_system(free_pot, 25.0, np.linspace(0, PI, 9))
    assert np.abs(tr.y1 - np.sin(5 * tr.x)).max() < 1e-12
    assert np.abs(tr.y2 - 5 * np.cos(5 * tr.x)).max() < 1e-12
    assert abs(tr.y1[-1]) < 1e-12          # sin(5 pi) = 0


def test_constant_potential_is_sheared_free_solution(const_pot):
    # q = u' = 0, so y = sin(s x) classically and y2 = y' - u y
    lam, a = 90.0, 1.0
    s = math.sqrt(lam)
    tr = integrate_quasi_system(const_pot, lam, np.linspace(0, PI, 33))
    assert np.abs(tr.y1 - np.sin(s * tr.x)).max() < 1e-12
    assert np.abs(tr.y2 + a * tr.y1 - s * np.cos(s * tr.x)).max() < 1e-11


def test_step_exact_vs_rk4(step_pot):
    # the exact constant steps against the RK4 reference of conftest
    grid = np.linspace(0, PI, 65)
    exact = integrate_quasi_system(step_pot, 90.0, grid)
    rk4_y1, rk4_y2 = rk4_states(step_pot, 90.0, grid)
    assert np.abs(exact.y1 - rk4_y1).max() < 1e-9
    assert np.abs(exact.y2 - rk4_y2).max() < 1e-9


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


def test_prufer_from_quasi_matches_the_ode(all_pots, trig_pot):
    # the library reads theta and log r off the quasi system; the Prufer
    # ODE is the independent reference
    grid = np.linspace(0, PI, 401)
    cases = [(name, pot, lam) for name, pot in all_pots.items()
             for lam in (10.0, 50.0, 250.0)]
    cases.append(("trig", trig_pot, complex(250.0, 2.0)))
    for name, pot, lam in cases:
        tp = integrate_prufer(pot, lam, grid)
        tq = oracle._prufer_from_quasi(integrate_quasi_system(pot, lam, grid))
        assert np.abs(tq.theta - tp.theta).max() < 1e-7, (name, lam)
        assert np.abs(tq.log_r - tp.log_r).max() < 1e-7, (name, lam)


def test_prufer_degeneracy_is_typed_on_both_routes(poly_pot):
    # below zero on the poly fixture (its n = 1 root) and near a complex
    # zero of y1^2 + y2^2/lam on the +-3i step the substitution degenerates:
    # the ODE and the quasi reading both raise the typed error, no warning
    pm_step = PotentialSpec.step([(0.0, 1.0, 3j), (1.0, PI, -3j)])
    s = 3.6931297043368225 + 0.3411991033170673j
    for pot, lam in ((poly_pot, solve_eigenvalue(poly_pot, 1).lam),
                     (pm_step, s * s)):
        xs = np.union1d(np.linspace(0.0, PI, 512), np.asarray(pot.breaks))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationBlowupError) as ode:
                integrate_prufer(pot, lam, xs)
            with pytest.raises(IntegrationBlowupError) as quasi:
                oracle._prufer_from_quasi(integrate_quasi_system(pot, lam, xs))
        assert 0.0 < ode.value.location <= PI
        assert 0.0 < quasi.value.location <= PI


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
    # every member takes the scalar steps of its lambda evaluated alone
    lam = (16.5 * np.exp(1j * np.linspace(-0.02, 0.02, 5))) ** 2
    for f in (characteristic, char_reduced):
        batch = f(pot, lam)
        alone = np.array([f(pot, complex(v)) for v in lam])
        assert batch.shape == (5,)
        assert np.array_equal(batch, alone), f
    with pytest.raises(ValueError):
        integrate_quasi_system(pot, lam, np.linspace(0, PI, 5))


# Delta(lam) and the reduced characteristic, real and imaginary parts as
# float.hex, at PIN_LAMBDAS: the bits the exact steps and Magnus cell
# products give with numpy 2.4 on x86-64 (constant pieces in scalar cmath
# arithmetic, one cell product per smooth piece); any change to the
# rounding of the walk shows here.
PIN_LAMBDAS = (7.3, 412.9, -3.7, 25 + 4j, 900 - 40j)
PINNED = {
    "step": [
        ("-0x1.cae75b9645f8fp+1", "0x0.0p+0",
         "-0x1.53b21f43c693fp+0", "0x0.0p+0"),
        ("0x1.400a41e54cd82p+3", "0x0.0p+0",
         "0x1.f8006702e7640p-2", "0x0.0p+0"),
        ("0x0.0p+0", "-0x1.76dd366033928p+4",
         "-0x1.85c3e06922598p+3", "0x0.0p+0"),
        ("-0x1.51fbfed735c34p+3", "0x1.6032c75d898fdp+0",
         "-0x1.0910d9ce56ad8p+1", "0x1.c16fe5cfb9682p-2"),
        ("0x1.ef0e46d550ca6p+6", "0x1.0333cc8d9788fp+2",
         "0x1.07a486c9a7d68p+2", "0x1.cfcd10c199728p-3"),
    ],
    "poly": [
        ("-0x1.9a280f3e076e2p+0", "0x0.0p+0",
         "-0x1.2f9c87f9147e0p-1", "0x0.0p+0"),
        ("0x1.5c630f3871828p+3", "0x0.0p+0",
         "0x1.12523c339e572p-1", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.1e238c10a35a3p+8",
         "0x1.298354fe6ea8bp+7", "0x0.0p+0"),
        ("-0x1.33aaed61aff56p+3", "-0x1.240abc096d178p-2",
         "-0x1.e8c75ca89bbb8p+0", "0x1.84c9fcc8a9458p-4"),
        ("0x1.ef0fbc54c370ep+6", "0x1.2c4917e9c9ec0p-2",
         "0x1.07d2d7638ddf9p+2", "0x1.9f0f1200d1f82p-4"),
    ],
    "real trig": [
        ("0x1.bcbefc6152437p+3", "0x1.2b51d51e6098fp-49",
         "0x1.49373ddec02a1p+2", "0x1.bb21f8d1474e9p-51"),
        ("0x1.5cf7276154c32p+3", "0x1.a29abe24b07a8p-52",
         "0x1.12c6d861f5ee5p-1", "0x1.499c5b8db0231p-56"),
        ("0x1.10d230cee4c27p-44", "-0x1.48e29a9aa7318p+9",
         "-0x1.55f561737c9cbp+8", "-0x1.1baa73b2b60fdp-45"),
        ("-0x1.d9e91f5761022p+2", "-0x1.1c1546d95a58cp+2",
         "-0x1.897399f27c353p+0", "-0x1.868a43614f4eap-1"),
        ("0x1.ed27343856278p+6", "-0x1.4f9c12a3f87f9p-3",
         "0x1.06d4065639ba3p+2", "0x1.5f3f4d0acedcdp-4"),
    ],
    "complex trig": [
        ("-0x1.b74b022168ae6p+0", "-0x1.35ad680bbbf32p-4",
         "-0x1.452de48b01262p-1", "-0x1.ca7789c1daaf7p-6"),
        ("0x1.5cf069a6dd043p+3", "0x1.cb4f5fed1c139p-7",
         "0x1.12c1898996d8cp-1", "0x1.69a99a7ebfe50p-11"),
        ("0x1.03e81d5146594p+6", "0x1.60f9701ab0941p+8",
         "0x1.6f01596d5b843p+7", "-0x1.0e3cf5297dbebp+5"),
        ("-0x1.366fbf450e876p+3", "-0x1.0d6225ce434dfp-1",
         "-0x1.ee23780e6d3a5p+0", "0x1.8db3b16f1c329p-5"),
        ("0x1.eee0a1e5155bep+6", "0x1.d9540b1fd58afp-4",
         "0x1.07bbe45c0ebffp+2", "0x1.86ad4d47fa698p-4"),
    ],
    "complex step": [
        ("-0x1.0e09f47da822ap+1", "-0x1.966747222eda6p-1",
         "-0x1.8fc893bbc135cp-1", "-0x1.2cd55421cf67ep-2"),
        ("0x1.4ee0aea926395p+3", "-0x1.6c80bb4a4ba01p-2",
         "0x1.07af18799b646p-1", "-0x1.1f02ce2b67b84p-6"),
        ("0x1.56c78b73a5243p+7", "0x1.18260f248eb25p+8",
         "0x1.2348e31b11b0ap+7", "-0x1.6467b62ca9372p+6"),
        ("-0x1.48553c1e99748p+3", "0x1.59e2b4ce92376p-5",
         "-0x1.041b120aa0bd7p+1", "0x1.5c122a5e32f1fp-3"),
        ("0x1.e814e295dc12ep+6", "0x1.0b29000262006p+1",
         "0x1.0404d077e690ap+2", "0x1.4742e5127fa0dp-3"),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_end_state_walk_keeps_its_bits(name, step_pot, poly_pot, trig_pot):
    pot = {"step": step_pot, "poly": poly_pot,
           "real trig": MISBRACKETED["trig"], "complex trig": trig_pot,
           "complex step": COMPLEX_STEP}[name]
    for lam, (c_re, c_im, r_re, r_im) in zip(PIN_LAMBDAS, PINNED[name]):
        pinned = complex(float.fromhex(c_re), float.fromhex(c_im))
        assert characteristic(pot, lam) == pinned, lam
        pinned = complex(float.fromhex(r_re), float.fromhex(r_im))
        assert char_reduced(pot, lam) == pinned, lam


def test_winding_one_kernel_call_on_distinct_points(free_pot):
    seen = []

    def F(s):
        seen.append(np.asarray(s))
        return char_reduced(free_pot, s * s)

    assert winding(F, 3.5) == 1        # free root s = k - 1/2
    assert winding(F, 3.0) == 0
    assert [v.shape for v in seen] == [(16,), (16,)]
    assert all(len(np.unique(v)) == 16 for v in seen)


# A step with a zero height, a complex height and a real one
ZERO_COMPLEX_STEP = PotentialSpec.step([(0.0, 0.8, 0.0),
                                        (0.8, 2.0, 1.5 - 2.0j),
                                        (2.0, PI, -0.7)])
# lambdas for the wide step: real > 0 and < 0, complex, |s d| < 1e-6, and
# Im(s d) of 709.2 on the first piece (cmath's formula past 708, finite
# there, overflowing on the next piece) and of 800 (a cmath overflow)
WIDE_CASES = [3.7, 412.9, 2.5e4, -0.3, -150.0, 25 + 4j, (40.3 + 0.2j) ** 2,
              -3 - 7j, 1e-14, 1e-13j, (1 + 886.5j) ** 2, (1 + 1000j) ** 2,
              (3 + 400j) ** 2]


def _state_hex(trail, m):
    """Member m's states at the breaks, as hex, signs of zeros included."""
    return [tuple(v.hex() for y in ys[m] for v in (y.real, y.imag))
            for ys in trail]


@pytest.mark.parametrize("name", ["zero and complex heights", "real step"])
def test_wide_step_keeps_the_scalar_steps_bits(name, monkeypatch):
    pot = {"zero and complex heights": ZERO_COMPLEX_STEP,
           "real step": TWO_BOUND_STEP}[name]
    wide_steps, wide_step = [], oracle._wide_step

    def counted(*args):
        wide_steps.append(1)
        return wide_step(*args)

    monkeypatch.setattr(oracle, "_wide_step", counted)
    rng = np.random.default_rng(23)
    for width in (oracle._WIDE_STEP - 1, oracle._WIDE_STEP, 300):
        fill = width - len(WIDE_CASES)
        lams = np.array(WIDE_CASES + (rng.uniform(-50, 3e4, fill)
                                      + 1j * rng.normal(0, 20, fill)).tolist())
        lams = lams[rng.permutation(width)]
        for init in (None, (0.0, 1.0)):
            del wide_steps[:]
            trail, errors, _ = oracle._walk(pot.piecewise, lams,
                                            oracle._COUNT_STEP_SCALE, init)
            assert bool(wide_steps) == (width >= oracle._WIDE_STEP)
            for m, lam in enumerate(lams.tolist()):
                alone, err, _ = oracle._walk(pot.piecewise, lam,
                                             oracle._COUNT_STEP_SCALE, init)
                assert _state_hex(trail, m) == _state_hex(alone, 0), lam
                assert (repr(errors[m]), getattr(errors[m], "location", None)
                        ) == (repr(err[0]), getattr(err[0], "location", None))
            # the overflowing members fail at the same break as alone
            failed = {lam for lam, err in zip(lams.tolist(), errors) if err}
            assert {(1 + 886.5j) ** 2, (1 + 1000j) ** 2} <= failed


def test_winding_number_follows_np_unwrap():
    def unwrapped(vals):
        phases = np.unwrap(np.angle(np.append(vals, vals[0])))
        return int(round((phases[-1] - phases[0]) / (2 * PI)))

    rng = np.random.default_rng(7)
    ring = 0.2 * oracle._WINDING_RING
    for k in range(3000):
        if k % 3 == 0:      # up to three zeros near the circle
            zeros = rng.normal(0, 0.3, 3) + 1j * rng.normal(0, 0.3, 3)
            vals = np.prod([ring - z for z in zeros], axis=0)
        elif k % 3 == 1:    # phase steps of exactly +-pi among others
            vals = np.exp(1j * np.cumsum(rng.choice(
                [-PI, PI, PI / 2, -PI / 2, 0.0, 3.0], 16)))
        else:               # antipodal pairs, where np.angle and libm differ
            vals = (np.round(rng.normal(size=16), 1)
                    + 1j * np.round(rng.normal(size=16), 1))
        if np.any(vals == 0):
            continue
        assert oracle._winding_number(vals) == unwrapped(vals), k
    assert oracle._winding_number(np.array([1.0, 0.0, 1j])) == 1


def _spy_reads(monkeypatch):
    """Record every walk, as ("walk", members, step scale), and every call
    of the count reader, as ("contour", members, the step scales of the
    meshes it read)."""
    reads, meshes = [], []
    walk, mesh, values = oracle._walk, oracle._mesh, oracle._contour_values

    def walked(pe, lam, step_scale, *args, **kwargs):
        reads.append(("walk", np.size(lam), step_scale))
        return walk(pe, lam, step_scale, *args, **kwargs)

    def meshed(u, i, step_scale):
        meshes.append(step_scale)
        return mesh(u, i, step_scale)

    def counted(pe, lams):
        del meshes[:]
        out = values(pe, lams)
        reads.append(("contour", len(lams), set(meshes)))
        return out

    for name, spy in (("_walk", walked), ("_mesh", meshed),
                      ("_contour_values", counted)):
        monkeypatch.setattr(oracle, name, spy)
    return reads


def test_secant_iterations_count_every_contour_value(trig_pot, monkeypatch):
    reads = _spy_reads(monkeypatch)
    res = solve_eigenvalue(trig_pot, 5)
    # the lockstep rounds walk the default mesh; the contour comes last,
    # its 16 points read by the count reader on the count mesh
    assert [kind for kind, _, _ in reads] == (["walk"] * (len(reads) - 1)
                                              + ["contour"])
    assert reads[-1][1:] == (16, {oracle._COUNT_STEP_SCALE})
    assert {scale for _, _, scale in reads[:-1]} == {
        oracle._DEFAULT_STEP_SCALE}
    assert res.iterations == sum(size for _, size, _ in reads)


def test_secant_iterations_pinned(trig_pot):
    # a scalar lambda counts one, the contour batch its length: 16 of these
    assert solve_eigenvalue(trig_pot, 3).iterations == 22
    assert solve_eigenvalue(trig_pot, 7).iterations == 21


# The complex 3-piece step of CI: n = 1 and 2 drift from their seeds
CI_CSTEP = PotentialSpec.step([(0.0, 1.0, 0.5 + 1.0j), (1.0, 2.2, -1.0 - 0.5j),
                               (2.2, PI, 2.0)])


@pytest.mark.parametrize("name", ["constant pieces", "smooth"])
def test_contours_walk_after_the_last_round(name, trig_pot, monkeypatch):
    pot, ns = {"constant pieces": (CI_CSTEP, range(1, 41)),
               "smooth": (trig_pot, range(1, 9))}[name]
    reads = _spy_reads(monkeypatch)
    points = asymptotics._predictions(pot, ns)
    out = oracle._solve_block(pot, list(ns),
                              [p.sqrt_lambda_asym for p in points])
    first = [kind for kind, _, _ in reads].index("contour")
    # every round of the block walks the default mesh, then the count
    # reader reads every contour: _walk walks none
    assert {kind for kind, _, _ in reads[:first]} == {"walk"}
    assert {scale for _, _, scale in reads[:first]} == {
        oracle._DEFAULT_STEP_SCALE}
    assert {kind for kind, _, _ in reads[first:]} == {"contour"}
    contours = [size for _, size, _ in reads[first:]]
    solved = sum(isinstance(r, oracle.SecularResult) for r in out)
    assert sum(contours) >= oracle._WINDING_POINTS * solved > 0
    if name == "smooth":        # one contour per walk, on the count mesh
        assert set(contours) == {oracle._WINDING_POINTS}
        assert all(scales == {oracle._COUNT_STEP_SCALE}
                   for _, _, scales in reads[first:])
    else:                       # the block's contours in one walk
        assert len(contours) == 1
        assert contours[0] % oracle._WINDING_POINTS == 0
        assert contours[0] > oracle._WINDING_POINTS


# A complex 2-piece quadratic whose indices 1..20 all solve by the secant
COMPLEX_POLY = PotentialSpec.poly([(0.0, 1.3, [0.5j, 0.4, -0.2 + 0.3j]),
                                   (1.3, PI, [0.2 - 0.5j, 0.1j])])


@pytest.mark.parametrize("name", ["trig", "poly"])
def test_contour_on_the_count_mesh_keeps_the_rouche_margin(name, trig_pot):
    # Rouche: the count mesh counts the zeros of the default mesh inside the
    # circle while it moves F by less than min |F| there; demand 1e-3 of it
    pot = {"trig": trig_pot, "poly": COMPLEX_POLY}[name]

    def coarse(s):
        return char_reduced(pot, s * s, step_scale=oracle._COUNT_STEP_SCALE)

    for n in range(1, 21):
        root = solve_eigenvalue(pot, n).sqrt_lambda
        s = _contour(root)
        fine = char_reduced(pot, s * s)
        assert np.abs(coarse(s) - fine).max() < 1e-3 * np.abs(fine).min(), n
        assert winding(coarse, root) == 1, n


# A complex poly with constant and smooth pieces
COMPLEX_MIXED_POLY = PotentialSpec.poly([(0.0, 1.0, [0.5 + 1.0j]),
                                         (1.0, 2.2, [0.3j, -0.4, 0.2 + 0.1j]),
                                         (2.2, PI, [-1.0 + 0.2j])])
# the exact walk's contour values and the count reader's differ by at most
# 9.5e-16 relative on the cases below (array against scalar rounding)
_CONTOUR_RTOL = 1e-14


def _exact_contour(pot, lams):
    """y2(pi) from (0, 1) on the count mesh and the failures, by _walk."""
    trail, errors, _ = oracle._walk(pot.piecewise, lams,
                                    oracle._COUNT_STEP_SCALE, (0.0, 1.0))
    return np.array([y2 for _, y2 in trail[-1]]), errors


def _failures(errors):
    return [(type(e).__name__, str(e), e.location) if e else None
            for e in errors]


@pytest.mark.parametrize("name, n_max", [
    ("ci step", 200), ("zero and complex heights", 40), ("+-3i step", 40),
    ("trig", 20), ("complex poly", 20), ("mixed poly", 20)])
def test_count_reader_keeps_the_exact_walks_winding_numbers(name, n_max,
                                                            trig_pot,
                                                            monkeypatch):
    pot = {"ci step": CI_CSTEP, "zero and complex heights": ZERO_COMPLEX_STEP,
           "+-3i step": PotentialSpec.step([(0.0, 1.0, 3j), (1.0, PI, -3j)]),
           "trig": trig_pot, "complex poly": COMPLEX_POLY,
           "mixed poly": COMPLEX_MIXED_POLY}[name]
    contours, read = [], oracle._contours

    def kept(p, requests):
        contours.extend(requests)
        return read(p, requests)

    monkeypatch.setattr(oracle, "_contours", kept)
    solve_spectrum(pot, range(1, n_max + 1))
    assert len(contours) >= n_max - 3
    for lams in contours:
        vals, errors = oracle._contour_values(pot.piecewise, lams)
        exact, exact_errors = _exact_contour(pot, lams)
        assert _failures(errors) == _failures(exact_errors)
        assert oracle._winding_number(vals) == oracle._winding_number(exact)
        assert np.abs(vals - exact).max() <= _CONTOUR_RTOL * np.abs(exact).min()


@pytest.mark.parametrize("name", ["zero and complex heights", "mixed poly"])
def test_count_reader_fails_where_the_exact_walk_does(name):
    pot = {"zero and complex heights": ZERO_COMPLEX_STEP,
           "mixed poly": COMPLEX_MIXED_POLY}[name]
    lams = np.array(WIDE_CASES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, errors = oracle._contour_values(pot.piecewise, lams)
    exact, exact_errors = _exact_contour(pot, lams)
    # each overflowing member at the same break, the others finite
    assert _failures(errors) == _failures(exact_errors)
    failed = {lam for lam, err in zip(WIDE_CASES, errors) if err}
    assert {(1 + 886.5j) ** 2, (1 + 1000j) ** 2} <= failed
    ok = [err is None for err in errors]
    assert np.isfinite(vals[ok]).all() and (vals[~np.array(ok)] == 0).all()
    for m in np.flatnonzero(ok):
        assert abs(vals[m] - exact[m]) <= _CONTOUR_RTOL * abs(exact[m]), m
    # lambda = 0 is singular for both
    with pytest.raises(SingularArgumentError):
        oracle._contour_values(pot.piecewise, np.array([4.0, 0.0]))
    with pytest.raises(SingularArgumentError):
        _exact_contour(pot, np.array([4.0, 0.0]))


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
    assert res1.lam.real < 0       # the angle finds the bound state
    assert res1.residual < 1e-9


def test_prufer_phase_agrees_at_solved_root(step_pot, const_pot):
    # the Prufer ODE is independent of the root search: at the n-th root
    # y2(pi) = 0, so theta(pi) = pi (n - 1/2) up to the ODE's RK4 error;
    # one Newton step on that condition moves the root by less than 1e-6
    # (relative on the strong trig)
    for pot, n, rel in ((step_pot, 4, False), (const_pot, 6, False),
                        (MISBRACKETED["trig"], 3, True)):
        res = solve_eigenvalue(pot, n)

        def theta(lam):
            return integrate_prufer(pot, lam, np.asarray([PI])).theta[0].real

        h = 1e-4 * res.lam
        slope = (theta(res.lam + h) - theta(res.lam - h)) / (2 * h)
        step = (theta(res.lam) - PI * (n - 0.5)) / slope
        assert abs(step) < 1e-6 * (abs(res.lam) if rel else 1.0), (n, step)


def test_prufer_reference_resolves_a_strong_potential():
    # sup|u| = 10.6 against |s| = 2.9 at the strong trig's n = 3 root
    # (lam = 8.54): the reference's RK4 step bounds u h and u^2 h / |s| as
    # well as the phase advance s h, so theta(pi) meets pi (n - 1/2)
    pot = MISBRACKETED["trig"]
    res = solve_eigenvalue(pot, 3)
    assert abs(res.lam - 8.54) < 5e-3
    theta = integrate_prufer(pot, res.lam, np.asarray([PI])).theta[0]
    assert abs(theta - 2.5 * PI) < 1e-7


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
            <= 2.0 * remainder_gauge(pot, point.m * point.m).value ** 2


def test_characteristic_vs_transfer_matrix_roots(step_pot):
    # the library's exact constant steps and the RK4 reference of conftest
    # (rk4_end from (0, 1)) share roots to 1e-9
    for n in range(2, 51, 7):
        res = solve_eigenvalue(step_pot, n)       # exact propagator route
        lam0 = res.lam.real
        f = lambda lam: rk4_end(step_pot, lam, init=(0.0, 1.0)).real
        lo, hi = lam0 - 0.4 * math.sqrt(abs(lam0)), lam0 + 0.4 * math.sqrt(abs(lam0))
        root = brentq(f, lo, hi, xtol=1e-11)
        assert abs(root - lam0) < 1e-9 * max(1.0, abs(lam0)), n


def test_solve_spectrum_flags_instead_of_raising(step_pot, monkeypatch):
    import slspec.oracle as om

    real_search = om._index_search

    def flaky(pot, n, *args):      # index 3 fails inside its block
        if n == 3:
            raise om.NonconvergenceError("synthetic failure", best=None)
        return (yield from real_search(pot, n, *args))

    monkeypatch.setattr(om, "_index_search", flaky)
    pts = om.solve_spectrum(step_pot, range(2, 6))
    flags = {p.n: p.flag for p in pts}
    assert "degraded" in flags[3]
    assert flags[2] == "" and flags[4] == ""


def _sabotage_index(monkeypatch, k, fake_char):
    """Inside solve_spectrum, index k reads fake_char(lam) as its secular
    function, in its search and in its contour; its angle readings and
    every other index read the real ones."""
    search = oracle._index_search

    def sabotaged(pot, n, *args):
        inner = search(pot, n, *args)
        if n != k:
            return (yield from inner)
        value = None
        while True:
            try:
                lam = inner.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield lam
            if not isinstance(lam, list):   # a list asks for angles
                value = fake_char(lam)

    monkeypatch.setattr(oracle, "_index_search", sabotaged)


def _flags(points) -> dict:
    assert all(p.sqrt_lambda_numeric is not None or p.flag for p in points)
    return {p.n: p.flag for p in points if p.flag}


def test_secant_out_of_iterations_flags_its_index(trig_pot, monkeypatch):
    # s^2 - 1e4 has its root 100 away: clamped steps of 0.25 cannot reach it
    _sabotage_index(monkeypatch, 3, lambda lam: lam - 1e4)
    flags = _flags(solve_spectrum(trig_pot, range(1, 6)))
    assert list(flags) == [3]
    assert flags[3] == (f"degraded: no convergence for index 3 within "
                        f"{oracle._MAX_SECANT_ITER} iterations")


def test_argument_principle_count_below_one_flags_its_index(trig_pot,
                                                            monkeypatch):
    # a zero at the seed and a pole 0.01 from it inside the winding
    # circle: the secant stops on the zero, the winding number is 0
    r = complex(eigenvalue_asym(trig_pot, 3).sqrt_lambda_asym)
    _sabotage_index(monkeypatch, 3,
                    lambda lam: (lam - r * r) / (lam - (r + 0.01) ** 2))
    flags = _flags(solve_spectrum(trig_pot, range(1, 6)))
    assert list(flags) == [3]
    assert flags[3].startswith("degraded: argument-principle count 0 around")


def test_contour_value_exactly_zero_counts_one_root(trig_pot, monkeypatch):
    # the secular function vanishes exactly on the whole winding circle:
    # its phase is undefined there, and the root counts once
    r = complex(eigenvalue_asym(trig_pot, 3).sqrt_lambda_asym)

    def fake(lam):
        return np.where(np.abs(lam - r * r) < 0.2 * abs(r), lam - r * r, 0.0)

    _sabotage_index(monkeypatch, 3, fake)
    points = solve_spectrum(trig_pot, range(1, 6))
    assert _flags(points) == {}
    assert points[2].sqrt_lambda_numeric == r and points[2].residual == 0.0
    ring = np.exp(2j * PI * np.arange(oracle._WINDING_POINTS)
                  / oracle._WINDING_POINTS)
    assert np.all(fake((r + oracle._WINDING_RADIUS * ring) ** 2) == 0)


def test_walk_cell_without_sign_change_flags_its_index(step_pot, monkeypatch):
    # the angle still brackets index 2, but the secular function read
    # there never changes sign
    _sabotage_index(monkeypatch, 2, lambda lam: 1.0)
    flags = _flags(solve_spectrum(step_pot, range(1, 5)))
    assert list(flags) == [2]
    assert flags[2].startswith("degraded: no sign change of the secular "
                               "function on [")
    assert flags[2].endswith("where the angle puts index 2")


def _sabotage_angle(monkeypatch, k, shift=0.0, step_out=False):
    """Index k reads its Prufer angles moved by shift, as a count mesh that
    misplaces Theta would give; with step_out, an angle reading after its
    first characteristic value overflows, as a walk far below the spectrum
    would.  Its characteristic and every other index read the real ones.
    Returns the list of index k's angle readings."""
    search = oracle._index_search
    readings = []

    def sabotaged(pot, n, *args):
        inner = search(pot, n, *args)
        if n != k:
            return (yield from inner)
        value, error, brent = None, None, False
        while True:
            try:
                lam = (inner.send(value) if error is None
                       else inner.throw(error))
            except StopIteration as stop:
                return stop.value
            value = error = None
            if not isinstance(lam, list):
                brent = True
                value = yield lam
                continue
            readings.append(lam)
            if step_out and brent:
                error = IntegrationBlowupError("overflow", location=0.0)
                continue
            value = [theta + shift for theta in (yield lam)]

    monkeypatch.setattr(oracle, "_index_search", sabotaged)
    return readings


def _wrong_side_seed(pot, n, side):
    """A seed whose bracket end lies 0.004 short of index n's root, on the
    side -side of it, and the root."""
    true = solve_eigenvalue(pot, n)
    return math.sqrt(true.lam) - side * (0.35 + 0.004), true


@pytest.mark.parametrize("side", [-1, 1])
def test_an_end_on_the_wrong_side_of_the_root_steps_out(step_pot, side,
                                                        monkeypatch):
    # Theta moved by 0.05 rad toward the target: the seed bracket's end
    # 0.004 short of the root passes for an end beyond it, and the
    # characteristic changes no sign on the bracket; that end steps out
    # by one more reading, and Brent finds the root
    n = 3
    seed, true = _wrong_side_seed(step_pot, n, side)
    assert oracle._solve_block(step_pot, [n], [seed])[0].method == "angle"
    _sabotage_angle(monkeypatch, n, 0.05 * side)
    (res,) = oracle._solve_block(step_pot, [n], [seed])
    assert isinstance(res, oracle.SecularResult), res
    assert res.method == "angle" and res.sturm_counts == 3
    assert abs(res.lam - true.lam) <= 1e-12 * true.lam
    assert res.residual is not None and res.residual < 1e-9


@pytest.mark.parametrize("side", [-1, 1])
def test_a_step_out_whose_walk_overflows_flags_its_index(step_pot, side,
                                                         monkeypatch):
    n = 3
    seed, _ = _wrong_side_seed(step_pot, n, side)
    readings = _sabotage_angle(monkeypatch, n, 0.05 * side, step_out=True)
    (res,) = oracle._solve_block(step_pot, [n], [seed])
    assert isinstance(res, NonconvergenceError), res
    assert str(res).startswith("no sign change of the secular function")
    assert len(readings) == 2       # the seed bracket and the step-out


@pytest.mark.parametrize("value, step_outs", [(1.0, 1), (math.nan, 0)])
def test_only_a_missing_sign_change_steps_out(step_pot, value, step_outs,
                                              monkeypatch):
    # the characteristic reads one value everywhere: a constant steps one
    # end out before the flag, a NaN flags at once
    n = 2
    seed = math.sqrt(solve_eigenvalue(step_pot, n).lam)
    assert oracle._solve_block(step_pot, [n], [seed])[0].method == "bracket"
    readings = _sabotage_angle(monkeypatch, n)
    _sabotage_index(monkeypatch, n, lambda lam: value)
    (flag,) = oracle._solve_block(step_pot, [n], [seed])
    assert isinstance(flag, NonconvergenceError), flag
    assert str(flag).endswith(f"where the angle puts index {n}")
    assert len(readings) == 1 + step_outs   # the seed bracket, one round


# u = -30 x^2: indices 1 and 2 are seeded far below the spectrum, where the
# propagator overflows, and the angle search restarts from s = 0; index 3's
# seed bracket lies below the spectrum too
DEEP_WELL = PotentialSpec.poly([(0.0, PI, [0.0, 0.0, -30.0])])


def _solve_outcome(res):
    """Everything a solve returns, as bytes: a result's numbers, route and
    counters, or an error's type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    lam, s = complex(res.lam), complex(res.sqrt_lambda)
    return (lam.real.hex(), lam.imag.hex(), s.real.hex(), s.imag.hex(),
            res.residual.hex(), res.iterations, res.char_evals,
            res.sturm_counts, res.method, res.multiplicity_hint)


@pytest.mark.parametrize("name", ["step", "poly", "trig", "well", "cstep"])
def test_block_solve_equals_one_at_a_time(name, poly_pot, trig_pot):
    pot, ns = {"step": (TWO_BOUND_STEP, range(1, 13)),
               "poly": (poly_pot, range(1, 13)),
               "trig": (trig_pot, range(1, 13)),
               "well": (DEEP_WELL, range(1, 4)),
               "cstep": (CI_CSTEP, range(1, 13))}[name]
    points = asymptotics._predictions(pot, ns)
    alone = []
    for p in points:
        try:
            alone.append(solve_eigenvalue(pot, p.n, seed=p))
        except oracle.INDEX_FAILURES as exc:
            alone.append(exc)
    # in order and reversed: each round walks other members beside each one
    for order in (points, points[::-1]):
        block = oracle._solve_block(pot, [p.n for p in order],
                                    [p.sqrt_lambda_asym for p in order])
        if order is not points:
            block = block[::-1]
        assert ([_solve_outcome(r) for r in block]
                == [_solve_outcome(r) for r in alone])
    methods = [getattr(r, "method", None) for r in alone]
    if name == "poly":      # u(pi) > 0: index 1 searches the angle
        assert methods[0] == "angle" and "bracket" in methods
    if name == "trig":
        assert set(methods) == {"secant"}
    if name == "well":
        assert methods == ["angle"] * 3
        assert [r.lam for r in alone] == sorted(r.lam for r in alone)
    if name == "cstep":     # n = 1, 2 drift; ten contours read as one batch
        assert all(isinstance(r, IndexingError) and "drifted" in str(r)
                   for r in alone[:2])
        assert set(methods[2:]) == {"secant"}


def test_flagged_indices_leave_no_reference_cycles(step_pot, monkeypatch):
    # a block keeps each failure; one that held its frames would keep the
    # block alive until the cyclic collector ran
    import gc
    for pot, flagged in ((PotentialSpec.constant(220.0), [1]), (step_pot, [2])):
        if pot is step_pot:     # index 2 fails in its ValueError handler
            _sabotage_index(monkeypatch, 2, lambda lam: 1.0)
        solve_spectrum(pot, range(1, 4))
        gc.collect()
        gc.disable()
        try:
            points = solve_spectrum(pot, range(1, 4))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert list(_flags(points)) == flagged


def test_work_counters_split_iterations(step_pot, poly_pot, trig_pot):
    for pot in (step_pot, poly_pot, trig_pot):
        for n in range(1, 9):
            res = solve_eigenvalue(pot, n)
            assert res.char_evals + res.sturm_counts == res.iterations
            if res.method == "secant":
                assert res.sturm_counts == 0, n
            else:   # the angle at the seed ends, more where they miss
                assert (res.sturm_counts > 2) == (res.method == "angle"), n
    assert solve_eigenvalue(poly_pot, 1).method == "angle"


def test_grid_ending_inside_a_smooth_piece(poly_pot):
    # the last node, 2.0, lies inside the second piece (1.3, pi)
    short = np.linspace(0.0, 2.0, 41)
    whole = np.append(short, PI)
    for lam in (-2.0, 90.0, 400.0 + 3.0j):
        tr = integrate_quasi_system(poly_pot, lam, short)
        to_pi = integrate_quasi_system(poly_pot, lam, whole)
        assert np.array_equal(tr.y1, to_pi.y1[:-1]), lam
        assert np.array_equal(tr.y2, to_pi.y2[:-1]), lam
        ref1, ref2 = rk4_states(poly_pot, lam, short, step_scale=0.002)
        scale = max(np.abs(ref1).max(), np.abs(ref2).max())
        assert np.abs(tr.y1 - ref1).max() <= 1e-9 * scale, lam
        assert np.abs(tr.y2 - ref2).max() <= 1e-9 * scale, lam


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
    # the RK4 reference of conftest converges at 4th order
    pot = PotentialSpec.trig([(0.0, PI, [1.0])])
    lam = 90.0
    vals = [rk4_end(pot, lam, step_scale=0.08 * k)
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
    """Reference: lam moved by one Newton step on conftest's rk4_end at
    step scale 0.002, from (0, 1)."""
    f = lambda l: rk4_end(pot, l, step_scale=0.002, init=(0.0, 1.0)).real
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


@pytest.mark.parametrize("name", ["poly", "real trig"])
def test_cell_root_matches_rk4_at_large_index(name, poly_pot):
    # a default cell spans about 4 radians of phase at n = 1000; the cell
    # error still does not grow with lambda.  conftest's rk4_end takes
    # about 785000 RK4 steps at the default step scale, in chunked products
    pot = poly_pot if name == "poly" else PotentialSpec.trig([(0.0, PI, [1.0])])
    lam = solve_eigenvalue(pot, 1000).lam.real
    h = 1e-6 * lam
    f = [rk4_end(pot, v, init=(0.0, 1.0)).real
         for v in (lam, lam + h, lam - h)]
    ref = lam - f[0] * 2 * h / (f[1] - f[2])
    assert abs(math.sqrt(lam) - math.sqrt(ref)) <= 1e-10 * math.sqrt(ref)


def test_cell_characteristic_matches_fine_rk4_complex(trig_pot):
    # |s| <= 50: above that conftest's RK4 at 0.002 is itself no better
    # than 1e-10
    for s in (3.5 + 0.4j, 10.5 + 0.3j, 50.3 - 0.2j):
        ref = rk4_end(trig_pot, s * s, step_scale=0.002)
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
        ref1, ref2 = rk4_states(pot, lam, grid, step_scale=0.002)
        scale = max(np.abs(ref1).max(), np.abs(ref2).max())
        assert np.abs(tr.y1 - ref1).max() <= 1e-9 * scale, lam
        assert np.abs(tr.y2 - ref2).max() <= 1e-9 * scale, lam
        # the last node comes from the prefix states, Delta from one
        # product over the cells of each smooth piece
        assert abs(tr.y2[-1] - characteristic(pot, lam)) <= 1e-13 * scale, lam


# -- the Prufer angle and its route ------------------------------------------------

def _reduced_g(pot):
    """The real secular function solve_eigenvalue brackets, as a closure."""
    def g(lam):
        if lam == 0.0:
            lam = 1e-24
        return float(char_reduced(pot, lam).real)
    return g


def _linear_scan_root(pot, n, g, s_seed):
    """Reference: a linear lambda-grid scan for the n-th sign change."""
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


# -- Brent root finder: bit for bit the reference brentq ----------------------

_LIBRARY_TOLS = {"xtol": 1e-13, "rtol": 8.9e-16, "maxiter": 200}

_ANALYTIC = {
    "cubic": lambda x: x ** 3 - 2 * x - 5,
    "sin": math.sin,
    "exp": lambda x: math.exp(x) - 3.0,
    "atan": lambda x: math.atan(x - 0.3),
    "fifth power": lambda x: (x - 1.1) ** 5,
    "cos": lambda x: math.cos(3 * x) - x,
    "steep tanh": lambda x: math.tanh(50 * (x - 0.7)),
}


def _brent_outcome(solver, f, a, b):
    """(root bits or "ValueError", the points f was evaluated at)."""
    seen = []

    def counted(x):
        seen.append(x.hex())
        return f(x)
    try:
        root = solver(counted, a, b, **_LIBRARY_TOLS)
    except ValueError:
        return "ValueError", seen
    return root.hex(), seen


def _assert_same_as_reference(f, a, b):
    outcome = _brent_outcome(brent_root, f, a, b)
    assert outcome == _brent_outcome(brentq, f, a, b)
    return outcome[0]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_ANALYTIC)), a=st.floats(-5.0, 5.0),
       b=st.floats(-5.0, 5.0))
def test_brent_matches_reference_on_analytic_brackets(name, a, b):
    _assert_same_as_reference(_ANALYTIC[name], a, b)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["step", "poly", "trig"]), n=st.integers(1, 12),
       below=st.floats(0.05, 0.6), above=st.floats(0.05, 0.6))
def test_brent_matches_reference_on_the_secular_function(kind, n, below, above,
                                                         step_pot, poly_pot):
    # the conftest trig is complex; its real counterpart is the literal one
    pot = {"step": step_pot, "poly": poly_pot,
           "trig": MISBRACKETED["trig"]}[kind]
    lo, hi = n - 0.5 - below, n - 0.5 + above
    _assert_same_as_reference(_reduced_g(pot), lo * abs(lo), hi * abs(hi))


def test_brent_edge_cases_match_reference():
    for end in (1.0, 3.0):                                     # a zero end
        root = _assert_same_as_reference(lambda x: x - end, 1.0, 3.0)
        assert root == end.hex()
    for f, a, b in ((lambda x: x * x + 1.0, -1.0, 2.0),        # same sign
                    (lambda x: -x * x - 1.0, -1.0, 2.0),
                    (lambda x: math.nan, 0.0, 1.0),            # NaN at an end
                    (lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                     0.0, 1.0)):                               # NaN inside
        assert _assert_same_as_reference(f, a, b) == "ValueError"


def test_brent_exhaustion_is_a_nonconvergence_error():
    f = _ANALYTIC["cubic"]
    last, info = brentq(f, 2.0, 3.0, xtol=1e-13, rtol=8.9e-16, maxiter=2,
                        full_output=True, disp=False)
    assert not info.converged
    with pytest.raises(NonconvergenceError) as exc:
        brent_root(f, 2.0, 3.0, 1e-13, 8.9e-16, 2)
    assert exc.value.best == last


def test_brent_exhaustion_flags_the_index(step_pot, monkeypatch):
    # an exhausted Brent search degrades its index; the run goes on
    brent = oracle._brent_steps
    monkeypatch.setattr(oracle, "_brent_steps", lambda a, b, xtol, rtol, maxiter:
                        brent(a, b, xtol, rtol, 1))
    flags = [p.flag for p in solve_spectrum(step_pot, range(1, 4))]
    flags += [r.flag for r in validation.remainder_sweep(step_pot, 3).records]
    assert len(flags) == 6
    assert all(f.startswith("degraded: Brent's method did not converge")
               for f in flags)


def test_sturm_count_free_spectrum(free_pot):
    # eigenvalues (n - 1/2)^2, so floor(s + 1/2) of them lie below s^2;
    # y1 = sin(s x) has floor(s) interior zeros
    for lam, zeros, below in ((-3.0, 0, 0), (0.2, 0, 0), (0.3, 0, 1),
                              (2.0, 1, 1), (2.3, 1, 2), (30.0, 5, 5),
                              (31.0, 5, 6)):
        assert zero_count(free_pot, lam) == (zeros, below), lam


# Real 6-piece steps of the validate-step bench workload (seeds 2, 3, 7 and
# 11; seed 1 is TWO_BOUND_STEP), a strong constant, and a poly whose
# degree-0 pieces sit beside a smooth piece, with a lambda below each
# spectrum.
ZERO_COUNT_POTS = {
    "step-2": (PotentialSpec.step([
        (0.0, 0.7463070068109916, 1.1826418121900915),
        (0.7463070068109916, 0.9551667359098953, -0.5326460030731741),
        (0.9551667359098953, 2.0671140270302497, -1.7930943624784343),
        (2.0671140270302497, 2.528148697149172, 0.4152177060550555),
        (2.528148697149172, 2.706194018834139, -0.9712785542426157),
        (2.706194018834139, PI, 1.6982095745473815)]), -30.0),
    "step-3": (PotentialSpec.step([
        (0.0, 0.8125675337506885, -0.4834019086429726),
        (0.8125675337506885, 1.241071569559486, 0.9119210712271077),
        (1.241071569559486, 1.8361778249305245, -0.9411477833459136),
        (1.8361778249305245, 2.156292839213866, -1.5436833025900216),
        (2.156292839213866, 2.7716933009747287, 1.548386391296399),
        (2.7716933009747287, PI, 0.07673056155253466)]), -30.0),
    "step-7": (PotentialSpec.step([
        (0.0, 0.9555693186745379, 0.11438808340462403),
        (0.9555693186745379, 1.30075637149404, 1.6757112277512975),
        (1.30075637149404, 1.7401990999388663, -0.022738927114721363),
        (1.7401990999388663, 2.0597460036034088, -1.1969417218928218),
        (2.0597460036034088, 2.825899855127577, 1.3031135844563257),
        (2.825899855127577, PI, -1.5596941609385526)]), -30.0),
    "step-11": (PotentialSpec.step([
        (0.0, 0.8339447776697531, -1.7584853789997912),
        (0.8339447776697531, 1.1950154116658658, -0.5847759344391243),
        (1.1950154116658658, 1.728794771514223, 1.8366794079719986),
        (1.728794771514223, 2.6443969921508335, 0.7702232540951828),
        (2.6443969921508335, 2.843499160636056, 0.08734842109911423),
        (2.843499160636056, PI, -0.6856980613724388)]), -30.0),
    "two-bound step": (TWO_BOUND_STEP, -30.0),
    "constant 120": (PotentialSpec.constant(120.0), -14500.0),
    "mixed poly": (PotentialSpec.poly([
        (0.0, 1.1, [0.7]), (1.1, 2.2, [0.5, -0.3, 0.4]),
        (2.2, PI, [-1.5])]), -30.0),
}


def _dense_zero_count(pot, lam):
    """Sign changes of y1 from (0, 1) on 40001 nodes of [0, pi]."""
    grid = np.linspace(0.0, PI, 40001)
    y1 = integrate_quasi_system(pot, lam, grid, init=(0.0, 1.0)).y1.real[1:]
    signs = np.sign(y1[y1 != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("name", list(ZERO_COUNT_POTS))
def test_closed_form_zero_count_matches_a_dense_count(name):
    pot, floor = ZERO_COUNT_POTS[name]
    assert zero_count(pot, floor) == (0, 0)
    # the first piece is constant, so y1 = sin(s x)/s there and s = k pi/b
    # puts a zero of y1 on its right end b
    b = pot.breaks[1]
    on_break = [(k * PI / b) ** 2 for k in (1, 2, 3)]
    for lam in [floor, floor / 2, -3.0, -0.3, -1e-10, 1e-10, 0.5, 3.0, 30.0,
                412.9, 3000.0, 2e4] + on_break:
        assert zero_count(pot, lam)[0] == _dense_zero_count(
            pot, lam), lam


@pytest.mark.parametrize("name", list(ZERO_COUNT_POTS) + ["poly", "trig"])
def test_step_count_reads_the_characteristics_break_states(name, poly_pot,
                                                           trig_pot,
                                                           monkeypatch):
    pot, floor = ZERO_COUNT_POTS.get(name) or (
        {"poly": poly_pot, "trig": trig_pot}[name], -30.0)
    b = pot.breaks[1]
    lams = [floor, -0.3, 1e-10, 3.0, 412.9, 2e4, (PI / b) ** 2]
    # the states of the characteristic's walk at the breaks are, bit for
    # bit, those of the node reader with the breaks as nodes
    for lam in lams:
        trail, _, _ = oracle._walk(pot.piecewise, lam,
                                   oracle._COUNT_STEP_SCALE, (0.0, 1.0))
        tr = integrate_quasi_system(pot, lam, pot.breaks,
                                    step_scale=oracle._COUNT_STEP_SCALE,
                                    init=(0.0, 1.0))
        assert [ys[0] for ys in trail] == list(zip(tr.y1.tolist(),
                                                   tr.y2.tolist())), lam
        assert char_reduced(pot, lam, step_scale=oracle._COUNT_STEP_SCALE
                             ) == trail[-1][0][1], lam
    if not pot.is_real:
        return
    thetas = oracle._sturm_count(pot, lams)
    asked = []
    walk = oracle._walk

    def recorded(pe, lam, *args, **kwargs):
        asked.append((np.shape(lam), args, kwargs))
        return walk(pe, lam, *args, **kwargs)

    # the angle reads one walk of the batch on the count mesh, cell by
    # cell, and asks for no node at all; each member reads as alone
    monkeypatch.setattr(oracle, "_walk", recorded)
    assert oracle._sturm_count(pot, lams) == thetas
    assert asked == [((len(lams),), (oracle._COUNT_STEP_SCALE, (0.0, 1.0)),
                      {"zeros": True})]
    assert [oracle._sturm_count(pot, [lam])[0] for lam in lams] == [
        [theta] for theta in thetas[0]]


def _well(a):
    """u = -a x^2, whose q = u' = -2 a x is a linear well of depth 2 a pi."""
    return PotentialSpec.poly([(0.0, PI, [0.0, 0.0, -a])])


# the rows a count sampled at a rate set by |sqrt(lam)| alone undersampled:
# (36, 36), (21, 21) and (63, 63) against the dense counts
@pytest.mark.parametrize("a, lam, dense", [
    (1000.0, 0.5, 52), (3000.0, 0.5, 91), (3000.0, 10.0, 91),
    *((300.0, float(lam), None) for lam in np.linspace(-500.0, 1000.0, 9))])
def test_cell_count_of_a_deep_well_matches_a_dense_count(a, lam, dense):
    pot = _well(a)
    if dense is not None:
        assert _dense_zero_count(pot, lam) == dense
    else:
        dense = _dense_zero_count(pot, lam)
    assert zero_count(pot, lam)[0] == dense


@pytest.mark.parametrize("name", ["step", "poly", "trig", "well"])
def test_prufer_angle_is_nondecreasing_in_lambda(name, step_pot, poly_pot):
    pot = {"step": step_pot, "poly": poly_pot, "trig": MISBRACKETED["trig"],
           "well": DEEP_WELL}[name]
    lams = np.linspace(-250.0, 400.0, 1300).tolist()     # misses 0
    thetas, errors = oracle._sturm_count(pot, lams)
    assert errors == [None] * len(lams)
    assert all(b >= a for a, b in zip(thetas, thetas[1:]))
    # each solved root sits on its own angle (n - 1/2) pi, up to the error
    # of the count mesh, which the small y1(pi) of a bound state magnifies
    for n in (1, 2, 5):
        lam = solve_eigenvalue(pot, n).lam
        theta = oracle._sturm_count(pot, [lam])[0][0]
        assert abs(theta - (n - 0.5) * PI) < 1e-2, (name, n)


def test_deep_well_seeded_below_the_spectrum_restarts_from_zero():
    # the seeds of n = 1 and 2 lie near -12830 and -801, where the walk
    # overflows: the angle search restarts from s = 0
    for n, lam in ((1, -152.8639), (2, -126.0455)):
        s0 = eigenvalue_asym(DEEP_WELL, n).sqrt_lambda_asym.real
        with pytest.raises(IntegrationBlowupError):
            char_reduced(DEEP_WELL, s0 * abs(s0))
        res = solve_eigenvalue(DEEP_WELL, n)
        assert res.method == "angle"
        assert abs(res.lam - lam) < 1e-4
        assert _dense_zero_count(DEEP_WELL, res.lam) == n - 1


@pytest.mark.parametrize("n", [39, 46])
def test_deep_well_index_solves_with_its_zero_count(n):
    # u = -1000 x^2 used to flag these indices with IndexingError
    pot = _well(1000.0)
    res = solve_eigenvalue(pot, n)
    assert _dense_zero_count(pot, res.lam) == n - 1


def test_negative_second_eigenvalue_is_indexed():
    pts = solve_spectrum(TWO_BOUND_STEP, range(1, 4))
    assert [p.flag for p in pts] == ["", "", ""]
    lams = [solve_eigenvalue(TWO_BOUND_STEP, n).lam for n in (1, 2, 3)]
    assert lams[0] < lams[1] < 0 < lams[2]
    assert abs(lams[1] + 0.348164529) < 1e-8


@pytest.mark.parametrize("kind", sorted(MISBRACKETED) + sorted(FUZZ_SCANNED))
def test_zero_count_decides_the_index(kind):
    pot, n_max = FUZZ_SCANNED.get(kind, (MISBRACKETED.get(kind), 12))
    res = [solve_eigenvalue(pot, n) for n in range(1, n_max + 1)]
    for n, r in enumerate(res, 1):
        assert zero_count(pot, r.lam)[0] == n - 1, n
    lams = [r.lam for r in res]
    assert lams == sorted(lams) and len(set(lams)) == len(lams)
    assert {r.method for r in res} == {"bracket", "angle"}
    if kind == "step":      # the row n = 2 of validate-step at seed 29
        assert res[1].method == "angle"
        assert abs(res[1].lam - 0.954149668) < 1e-9


@pytest.mark.parametrize("case", ["poly-1", "step-1", "step-2"])
def test_count_bisection_matches_linear_scan(case, poly_pot):
    kind, n = case.split("-")
    pot, n = (poly_pot if kind == "poly" else TWO_BOUND_STEP), int(n)
    res = solve_eigenvalue(pot, n)
    assert res.method == "angle"
    assert res.iterations <= 30            # g and angle readings together
    s_seed = eigenvalue_asym(pot, n).sqrt_lambda_asym.real
    ref = _linear_scan_root(pot, n, _reduced_g(pot), s_seed)
    # the angle's bracket is not the grid cell, so only Brent's tolerance holds
    assert abs(res.lam - ref) <= 2 * (1e-13 + 8.9e-16 * abs(ref))


def test_deep_bound_state_indexed_by_the_scan_cell_counts():
    res = [solve_eigenvalue(DEEP_BOUND_STEP, n) for n in (1, 2, 3)]
    assert res[0].method == "angle"
    assert abs(res[0].lam + 53.65030889754281) < 1e-9
    assert abs(res[1].lam + 2.5124318015266556) < 1e-9
    assert abs(res[2].lam - 3.0753004683262386) < 1e-9


def test_scan_cell_holding_two_indices_raises():
    # the angle jumps from 0 to 2 pi at lambda = 1: no bracket parts the two
    # indices there, and the search stops at its budget of readings
    for n in (1, 2):
        search = oracle._real_search(PotentialSpec.zero(), n, float(n))
        lams, readings = next(search), 0
        with pytest.raises(IndexingError, match=f"holds index {n} alone"):
            while True:
                readings += len(lams)
                lams = search.send([0.0 if lam < 1.0 else 2 * PI
                                    for lam in lams])
        assert readings == oracle._ANGLE_EVALS


def _robin_beta(c):
    """beta = c tanh(beta pi) by bisection: u = c > 1/pi has lam_1 = -beta^2."""
    lo, hi = 0.5 * c, 1.5 * c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (lo - c * math.tanh(lo * PI)) * (mid - c * math.tanh(mid * PI)) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_scan_floor_lowered_past_undersampled_sup(monkeypatch):
    # u = 3 has a Robin bound state lam_1 = -beta^2, beta = 3 tanh(beta pi),
    # below the floor -4 that a sampled sup|u| of 0 would give; the angle
    # search needs no floor
    pot = PotentialSpec.constant(3.0)
    seed = eigenvalue_asym(pot, 1)
    monkeypatch.setattr(PotentialSpec, "eval_u",
                        lambda self, x: np.zeros_like(np.asarray(x, float)))
    assert zero_count(pot, -4.0)[1] == 1
    res = solve_eigenvalue(pot, 1, seed=seed)
    beta = _robin_beta(3.0)
    assert res.method == "angle"
    assert abs(res.lam + beta * beta) < 1e-9


def _robin_root(c, k):
    """s in (k, k + 1/2) with c sin(s pi) = s cos(s pi): u = c at lam = s^2."""
    lo, hi = float(k), k + 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_lo = c * math.sin(lo * PI) - lo * math.cos(lo * PI)
        if f_lo * (c * math.sin(mid * PI) - mid * math.cos(mid * PI)) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("c", [60.0, 120.0, 150.0])
def test_strong_constant_bound_state_reached_by_the_walk(c):
    # the angle search reaches lam_1 = -beta^2 ~ -c^2 from a seed near 0,
    # and every reading on the way stays finite (RuntimeWarnings are
    # errors here)
    pot = PotentialSpec.constant(c)
    res = [solve_eigenvalue(pot, n) for n in (1, 2, 3)]
    beta = _robin_beta(c)
    assert abs(res[0].lam + beta * beta) <= 1e-9 * beta * beta
    for r, k in zip(res[1:], (1, 2)):
        s = _robin_root(c, k)
        assert abs(r.lam - s * s) <= 1e-9 * s * s


@pytest.mark.parametrize("c", [220.0, 300.0])
def test_constant_too_strong_for_the_exact_step_flags_its_bound_state(c):
    # cosh(sqrt|lam| pi) overflows on the way to lam_1 ~ -c^2; only that
    # index is flagged, with the end of the piece as the location
    pts = solve_spectrum(PotentialSpec.constant(c), range(1, 4))
    assert pts[0].flag == f"degraded: non-finite state at x = {PI}"
    assert pts[0].sqrt_lambda_numeric is None
    for p, k in zip(pts[1:], (1, 2)):
        assert p.flag == ""
        assert abs(p.sqrt_lambda_numeric - _robin_root(c, k)) <= 1e-9
    with pytest.raises(IntegrationBlowupError) as exc:
        solve_eigenvalue(PotentialSpec.constant(c), 1)
    assert exc.value.location == PI


MIXED_POLY = ZERO_COUNT_POTS["mixed poly"][0]


@pytest.mark.parametrize("name", ["step", "mixed poly", "poly"])
def test_batch_raises_the_failure_at_the_earliest_break(name, step_pot,
                                                        poly_pot):
    # alone, "late" fails at a later break than "early"; a batch raises the
    # error of the earliest break where any member fails, in any order,
    # and lets no numpy warning out
    pot = {"step": step_pot, "mixed poly": MIXED_POLY, "poly": poly_pot}[name]
    good, early = 4.0, -1e6
    late = (1 + 300j) ** 2 if name == "step" else (1 + 500j) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (characteristic, char_reduced):
            where = {}
            for lam in (late, early):
                with pytest.raises(IntegrationBlowupError) as exc:
                    f(pot, lam)
                where[lam] = exc.value.location
            assert where[early] < where[late]
            for batch in ([good, late, early], [early, good, late],
                          [late, good], [good, late, early, late]):
                with pytest.raises(IntegrationBlowupError) as exc:
                    f(pot, np.array(batch))
                x = min(where[lam] for lam in batch if lam != good)
                assert exc.value.location == x
                assert str(exc.value) == f"non-finite state at x = {x}"
    if name == "mixed poly":
        with pytest.raises(IntegrationBlowupError,
                           match=r"non-finite state at x = 1\.1$"):
            char_reduced(pot, np.array([4, (1 + 500j) ** 2, -1e6]))


def test_state_grown_on_a_smooth_piece_overflows_quietly():
    # at lam = -1e5 the state leaves the smooth piece (1.1, 2.2) finite
    # near 1e302 and overflows on the constant piece after it; with nodes
    # inside the smooth piece its end state comes from the prefix scan
    grid = np.linspace(0.0, PI, 65)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (-9e4, -1e5):
            with pytest.raises(IntegrationBlowupError) as exc:
                integrate_quasi_system(MIXED_POLY, lam, grid)
            assert exc.value.location == PI


def test_exact_step_overflow_is_a_blowup_error():
    # cmath.cos(sqrt(-1e5) pi) overflows: a SpectralError, not OverflowError
    with pytest.raises(IntegrationBlowupError) as exc:
        char_reduced(PotentialSpec.zero(), -1e5)
    assert exc.value.location == PI


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
    assert abs(simpson(np.abs(tab.values) ** 2, x=tab.grid) - 1.0) < 1e-8


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
    return oracle._node_states(pot, lam, np.asarray([PI]),
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
    h, (delta, gamma), *_ = oracle._mesh(poly_pot.piecewise, 0,
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


def test_trajectory_nodes_just_outside_take_the_end_states(step_pot,
                                                           poly_pot):
    # a trajectory grid may start 1e-12 below 0 and end 1e-9 past pi; those
    # nodes take the states at 0 and at pi
    for pot in (step_pot, poly_pot):
        inner = integrate_quasi_system(pot, 4.0, np.array([0.0, 1.0, PI]))
        outer = integrate_quasi_system(pot, 4.0,
                                       np.array([-1e-13, 1.0, PI + 5e-10]))
        assert _bytes(outer.y1) == _bytes(inner.y1)
        assert _bytes(outer.y2) == _bytes(inner.y2)


def test_numeric_grid_past_pi_rejected(step_pot):
    # a table takes a last node within 1e-9 of pi; the trajectory stops at pi
    grid = default_grid(65)
    grid[-1] = PI + 5e-10
    lam = solve_eigenvalue(step_pot, 3).lam
    with pytest.raises(DomainError):
        eigenfunction_numeric(step_pot, lam, grid)


def test_norm_overflow_is_typed(free_pot):
    # Im sqrt(lam) pi = 377: y1 stays finite (about 1e163), |y1|^2 does not;
    # the overflow is the typed error alone, no numpy warning
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
            few = oracle._node_states(pot, lam, grid, step_scale=0.004,
                                      norm=norm)
            many = oracle._node_states(pot, lam, nodes, step_scale=0.004,
                                       norm=norm)
            assert np.array_equal(few[0], many[0][at]), (n, norm)
            assert np.array_equal(few[1], many[1][at]), (n, norm)
        # an unsorted grid with a repeated node maps back node by node
        order = np.random.default_rng(n).permutation(len(grid))
        idx = np.append(order, order[3])
        vals = oracle._unit_trajectory(pot, lam, grid)
        assert np.array_equal(oracle._unit_trajectory(pot, lam, grid[idx]),
                              vals[idx])


# -- the node walk by block ---------------------------------------------------

# The closed-form norm of |y1|^2 at lam = 412.9 and 900 - 40j as float.hex,
# on the nodes [pi] and on default_grid(513) alike: the bits the cell sums
# give with numpy 2.4 on x86-64 (pairwise summation along the cells, each
# constant piece one cell); a change in how the norm is summed shows here,
# and a change in the rounding of the node states shows in STATE_PINS.
NORM_PINS = {
    "step": ("0x1.a045ae9e1e5d4p+0", "0x1.8c1b3221c5cb7p+3"),
    "two-bound step": ("0x1.9afd0f1e220e4p+0", "0x1.97e116aa17ed5p+3"),
    "poly": ("0x1.9083f568684edp+0", "0x1.8c0e44eec6034p+3"),
    "real trig": ("0x1.9379bb9327adep+0", "0x1.8d3c36155ad7bp+3"),
    "complex trig": ("0x1.9002642865a2ep+0", "0x1.91dedcc965780p+3"),
    "complex step": ("0x1.97bb935171e65p+0", "0x1.93dd8df904aa8p+3"),
}


# The first 16 hex digits of the sha256 of y1 and y2 on default_grid(513)
# at the same two lambdas, as raw bytes: every node state of the walk.
STATE_PINS = {
    "step": "02f6c5e9f3589620",
    "two-bound step": "ea1767829b88a3d8",
    "poly": "3fd3c8214c888af3",
    "real trig": "8955d42ba18ccf6c",
    "complex trig": "07d9ce341416ac75",
    "complex step": "80facd1b94179fbe",
}


def _walk_pot(name, step_pot, poly_pot, trig_pot):
    return {"step": step_pot, "two-bound step": TWO_BOUND_STEP,
            "poly": poly_pot, "real trig": MISBRACKETED["trig"],
            "complex trig": trig_pot, "complex step": COMPLEX_STEP}[name]


def _bytes(a) -> bytes:
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


def _node_sets(pot) -> dict:
    return {
        "grid": default_grid(513),
        "stops before pi": np.linspace(0.0, 2.9, 400),
        "node on a break": np.union1d(np.linspace(0.0, PI, 9), pot.breaks),
        "one node inside a piece": np.array([1.7]),
    }


def _block_lambdas(seed: int) -> np.ndarray:
    """32 lambdas: PIN_LAMBDAS, 13 real ones from -5 to 3000, 14 complex."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 50.0, 14) + 1j * rng.uniform(-1.0, 1.0, 14)
    return np.concatenate((PIN_LAMBDAS, rng.uniform(-5.0, 3000.0, 13),
                           s * s)).astype(complex)


@pytest.mark.parametrize("cells", [oracle._WALK_CELLS, 10 ** 6])
@pytest.mark.parametrize("name", sorted(NORM_PINS))
def test_batched_node_walk_keeps_each_members_bits(name, cells, step_pot,
                                                   poly_pot, trig_pot,
                                                   monkeypatch):
    # the default budget splits a block of 32 on a smooth potential into
    # sub-blocks of a few members; a wide budget walks all 32 at once
    monkeypatch.setattr(oracle, "_WALK_CELLS", cells)
    pot = _walk_pot(name, step_pot, poly_pot, trig_pot)
    lams = _block_lambdas(len(name))
    rng = np.random.default_rng(7)
    for label, nodes in _node_sets(pot).items():
        for norm in (False, True) if nodes[-1] == PI else (False,):
            alone = [oracle._node_states(pot, lam, nodes, step_scale=0.004,
                                         norm=norm) for lam in lams.tolist()]
            order = rng.permutation(len(lams))
            # blocks of 1 and 3 from the shuffled order, and all 32 shuffled
            blocks = [order[:1], order[1:2], order[2:5], order[5:8], order]
            for block in blocks:
                *got, errors = oracle._node_states(
                    pot, lams[block], nodes, step_scale=0.004, norm=norm)
                assert errors == [None] * len(block)
                for row, k in enumerate(block):
                    for part, single in zip(got, alone[k]):
                        assert _bytes(part[row]) == _bytes(single), (
                            label, norm, len(block), k)


@pytest.mark.parametrize("name", sorted(NORM_PINS))
def test_node_walk_keeps_its_bits(name, step_pot, poly_pot, trig_pot):
    pot = _walk_pot(name, step_pot, poly_pot, trig_pot)
    digest = hashlib.sha256()
    for lam, pin in zip((412.9, 900 - 40j), NORM_PINS[name]):
        for nodes in (np.asarray([PI]), default_grid(513)):
            nrm2 = oracle._node_states(pot, lam, nodes, step_scale=0.004,
                                       norm=True)[2]
            assert nrm2.hex() == pin, lam
        y1, y2 = oracle._node_states(pot, lam, default_grid(513),
                                     step_scale=0.004)
        digest.update(_bytes(y1) + _bytes(y2))
    assert digest.hexdigest()[:16] == STATE_PINS[name]


@pytest.mark.parametrize("name", sorted(NORM_PINS))
def test_batched_unit_trajectory_keeps_each_members_bits(name, step_pot,
                                                         poly_pot, trig_pot):
    pot = _walk_pot(name, step_pot, poly_pot, trig_pot)
    lams = np.array([solve_eigenvalue(pot, n).lam for n in (3, 4, 9, 40)])
    grid = default_grid(513)
    # an unsorted grid with a repeated node maps back node by node too
    shuffled = grid[np.append(np.random.default_rng(3).permutation(513), 5)]
    for g in (grid, shuffled):
        for block in ([2], [3, 0, 1], [1, 3, 2, 0, 0]):
            rows, errors = oracle._unit_trajectory(pot, lams[block], g)
            assert errors == [None] * len(block)
            for row, k in zip(rows, block):
                assert _bytes(row) == _bytes(
                    oracle._unit_trajectory(pot, lams[k].item(), g))


@pytest.mark.parametrize("name", ["free", "poly", "step"])
def test_failing_member_keeps_its_failure_to_itself(name, free_pot, poly_pot,
                                                    step_pot):
    pot = {"free": free_pot, "poly": poly_pot, "step": step_pot}[name]
    # (1 + 120j)^2: y1 stays finite but |y1|^2 overflows; (1 + 300j)^2 and
    # (1 + 500j)^2: the state itself overflows (on the step, at pi/2)
    good = [solve_eigenvalue(pot, n).lam for n in (1, 2, 3)]
    bad = [(1 + 120j) ** 2, (1 + 300j) ** 2, (1 + 500j) ** 2]
    lams = np.array([good[0], bad[0], good[1], bad[1], bad[2], good[2]])
    grid = default_grid(513)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, errors = oracle._unit_trajectory(pot, lams, grid)
        for row, err, lam in zip(rows, errors, lams.tolist()):
            if lam in bad:
                with pytest.raises(IntegrationBlowupError) as alone:
                    oracle._unit_trajectory(pot, lam, grid)
                assert type(err) is IntegrationBlowupError
                assert str(err) == str(alone.value)
                assert err.location == alone.value.location
            else:
                assert err is None
                assert _bytes(row) == _bytes(
                    oracle._unit_trajectory(pot, lam, grid))
    assert str(errors[1]) == "|y1|^2 overflows on [0, pi]"
    assert str(errors[3]).startswith("non-finite state at x = ")


def test_sweep_flags_only_the_member_whose_walk_fails(step_pot, monkeypatch):
    clean = validation.remainder_sweep(step_pot, 8, grid_size=129)
    walk = oracle._node_states

    def one_member_overflows(pot, lam, nodes, **kw):
        # the block's eigenfunction walk takes the roots of n = 1..8 in
        # order; index 3's is replaced by a lambda whose state overflows
        # at pi/2
        assert lam.shape == (8,) and kw["norm"]
        lam = lam.astype(complex)
        lam[2] = (1 + 500j) ** 2
        return walk(pot, lam, nodes, **kw)

    monkeypatch.setattr(oracle, "_node_states", one_member_overflows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = validation.remainder_sweep(step_pot, 8, grid_size=129)
    assert rep.degraded == [3]
    assert rep.records[2].flag == ("degraded: non-finite state at x = "
                                   f"{PI / 2}")
    for r, c in zip(rep.records, clean.records):
        if r.n != 3:
            assert r == c


# -- real cells in float64 ----------------------------------------------------

# The seed-7 validate-smooth bench potential and the deep well u = -30 x^2,
# as literals.
SMOOTH_POLY_7 = PotentialSpec.poly([
    (0.0, 1.9533546081185296,
     [0.2055351366199076, -0.13153790927596964, 0.10625250475800369]),
    (1.9533546081185296, PI,
     [0.14251366389676398, 0.004375522878521763, 0.1361493501628234])])
DEEP_WELL = PotentialSpec.poly([(0.0, PI, [0.0, 0.0, -30.0])])
REAL_CELL_LAMBDAS = (-1e3, -37.5, -1.0, 1e-24, 0.3, 412.9, 1e4, 2.5e5)


@pytest.mark.parametrize("name", ["poly", "real trig", "well", "smooth poly"])
def test_real_cells_are_the_complex_cells_bit_for_bit(name, poly_pot):
    pot = {"poly": poly_pot, "real trig": MISBRACKETED["trig"],
           "well": DEEP_WELL, "smooth poly": SMOOTH_POLY_7}[name]
    pe = pot.piecewise
    seen = dict.fromkeys(("z^2 < 0", "mixed signs", "|z| < 1e-6"), False)
    for i, const in enumerate(pe._constant_heights):
        if const is not None:
            continue
        h, parts, *_ = oracle._mesh(pe, i, oracle._DEFAULT_STEP_SCALE)
        # the trig's parts carry rounding in their imaginary parts: both
        # paths take their real parts
        delta, gamma = (p.real.copy() for p in parts)
        # a lambda at the average of q over one cell puts it at a turning
        # point, and a node 1e-9 past a cell start a partial cell of that
        # length: both take the series for sin(z)/z
        lams = np.array(REAL_CELL_LAMBDAS + (gamma[len(gamma) // 2] / h,))
        span = pe.breaks[i + 1] - pe.breaks[i]
        x = np.append(np.linspace(0.0, span, 101), h * np.arange(1, 6) + 1e-9)
        cell = np.minimum(np.floor(x / h), len(gamma) - 1)
        d = x - cell * h
        node = (p.real.copy() for p in oracle._magnus_parts(
            pe._derivative(), i, cell * h, d))
        for (dl, gm), length, whole in (((delta, gamma), h, True),
                                        (tuple(node), d, False)):
            real = oracle._magnus_matrices(dl, gm, length, lams)
            cplx = oracle._magnus_matrices(dl.astype(complex),
                                           gm.astype(complex), length,
                                           lams.astype(complex))
            assert real.dtype == np.float64
            for f in ((lambda m: m, oracle._chain, oracle._prefix) if whole
                      else (lambda m: m,)):
                r, c = f(real), f(cplx)
                assert not c.imag.any()
                assert _bytes(r) == _bytes(c.real)
            z2 = -(dl * dl + length * (gm - lams[:, None] * length))
            seen["z^2 < 0"] |= bool((z2 < 0).any())
            seen["mixed signs"] |= bool(((z2 < 0).any(axis=1)
                                         & (z2 > 0).any(axis=1)).any())
            seen["|z| < 1e-6"] |= bool((np.abs(z2) < 1e-12).any())
    assert all(seen.values()), seen


def test_a_real_walk_builds_float64_cells(poly_pot, monkeypatch):
    dtypes = []
    kernel = oracle._magnus_matrices

    def spy(*args):
        out = kernel(*args)
        dtypes.append(str(out.dtype))
        return out

    monkeypatch.setattr(oracle, "_magnus_matrices", spy)
    char_reduced(poly_pot, 412.9)
    characteristic(poly_pot, np.array([0.3, 412.9]))
    zero_count(poly_pot, 412.9)
    oracle._node_states(poly_pot, 412.9, default_grid(513), step_scale=0.004,
                        norm=True)
    solve_eigenvalue(poly_pot, 5)
    assert dtypes and set(dtypes) == {"float64"}
    # a mixed batch walks its real and its complex members apart; complex
    # lambda, or parts with rounding in their imaginary parts, stay complex
    for pot, lam, want in (
            (poly_pot, np.array([412.9, 25 + 4j]), ["complex128", "float64"]),
            (poly_pot, 25 + 4j, ["complex128"]),
            (MISBRACKETED["trig"], 412.9, ["complex128"])):
        dtypes.clear()
        char_reduced(pot, lam)
        assert sorted(set(dtypes)) == want


@pytest.mark.parametrize("name", ["poly", "real trig"])
def test_mixed_batch_end_states_keep_each_members_bits(name, poly_pot):
    pot = {"poly": poly_pot, "real trig": MISBRACKETED["trig"]}[name]
    lams = _block_lambdas(len(name))
    assert 0 < np.count_nonzero(lams.imag) < len(lams)
    order = np.random.default_rng(11).permutation(len(lams))
    # blocks of 1 and 3 from the shuffled order, and all 32 shuffled
    blocks = [order[:1], order[1:2], order[2:5], order[5:8], order]
    for step_scale in (oracle._DEFAULT_STEP_SCALE, oracle._COUNT_STEP_SCALE):
        for init in (None, (0.0, 1.0)):
            alone = [(oracle._end_value(pot, lam, step_scale, init),
                      oracle._walk(pot.piecewise, lam, step_scale, init)[0])
                     for lam in lams.tolist()]
            for block in blocks:
                ends = oracle._end_value(pot, lams[block], step_scale, init)
                trail, errors, _ = oracle._walk(pot.piecewise, lams[block],
                                                step_scale, init)
                assert errors == [None] * len(block)
                for row, k in enumerate(block):
                    end, walk = alone[k]
                    assert _bytes(ends[row:row + 1]) == _bytes(np.array([end]))
                    assert _bytes(np.array([ys[row] for ys in trail])) == (
                        _bytes(np.array([ys[0] for ys in walk]))), (
                            step_scale, init, len(block), k)
