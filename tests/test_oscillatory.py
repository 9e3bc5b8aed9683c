"""Correction-function and remainder-gauge checks against brute force."""

import cmath
import math

import numpy as np
import pytest
from slspec import (PotentialSpec, SingularArgumentError, SpectralDomain,
                    correction_terms, remainder_gauge)
from conftest import RAW_PIECES, piecewise_quad

PI = math.pi


def brute_force_terms(raw, x, lam):
    """The four correction terms by adaptive quadrature (double term nested)."""
    s = np.sqrt(complex(lam))
    t1 = piecewise_quad(raw, lambda u, t: u * np.sin(2 * s * t), 0.0, x)
    t2 = piecewise_quad(raw, lambda u, t: u * u, 0.0, x) / (2 * s)

    def inner(t):
        return piecewise_quad(raw, lambda u, w: u * np.sin(2 * s * w), 0.0, t,
                              epsabs=1e-11, epsrel=1e-11, limit=200)

    t3 = 2 * piecewise_quad(raw, lambda u, t: u * np.cos(2 * s * t) * inner(t),
                            0.0, x, epsabs=1e-10, epsrel=1e-10, limit=120)
    t4 = -piecewise_quad(raw, lambda u, t: u * u * np.cos(2 * s * t), 0.0, x) \
        / (2 * s)
    return t1, t2, t3, t4


def test_zero_potential_all_terms_vanish(free_pot):
    t = correction_terms(free_pot, 1.7, 25.0)
    assert t.term_single_sin == 0 and t.term_l2 == 0
    assert t.term_double == 0 and t.term_u2_cos == 0
    assert t.total == 0


def test_constant_potential_closed_forms():
    a = 1.0
    for n in (2, 7, 21):
        m = n - 0.5
        t = correction_terms(PotentialSpec.constant(a), PI, m * m)
        assert abs(t.term_single_sin - a / m) < 1e-12
        assert abs(t.term_l2 - a * a * PI / (2 * m)) < 1e-12
        assert abs(t.term_double + a * a * PI / (2 * m)) < 1e-12
        assert abs(t.term_u2_cos) < 1e-12
        assert abs(t.total - a / m) < 1e-12


def test_step_potential_closed_form(step_pot):
    a = 2.0
    for n in (4, 11):
        m = n - 0.5
        total = correction_terms(step_pot, PI, m * m).total
        expect = a / (2 * m) + a * a * np.sin(m * PI) / (4 * m * m)
        assert abs(total - expect) < 1e-12


@pytest.mark.parametrize("name,lam,x", [
    ("trig", 2.1, PI), ("trig", 147.0, 2.2), ("poly", 31.0, PI),
    ("step", 88.5, 2.9), ("const", 401.0, 1.1), ("poly", 907.0, PI),
])
def test_terms_match_brute_force(all_pots, name, lam, x):
    got = correction_terms(all_pots[name], x, lam)
    t1, t2, t3, t4 = brute_force_terms(RAW_PIECES[name], x, lam)
    assert abs(got.term_single_sin - t1) < 1e-9
    assert abs(got.term_l2 - t2) < 1e-9
    assert abs(got.term_double - t3) < 1e-8
    assert abs(got.term_u2_cos - t4) < 1e-9
    assert abs(got.total - (t1 + t2 + t3 + t4)) < 1e-8


def test_terms_match_brute_force_complex_lambda(all_pots):
    lam = complex(110.0, 9.0)
    got = correction_terms(all_pots["trig"], 2.4, lam)
    t1, t2, t3, t4 = brute_force_terms(RAW_PIECES["trig"], 2.4, lam)
    assert abs(got.total - (t1 + t2 + t3 + t4)) < 1e-8


def test_gauge_finite_at_complex_lambda(trig_pot):
    lam = complex(90.0, 4.0)
    g = remainder_gauge(trig_pot, lam)
    assert np.isfinite(g.value) and g.value > 0
    assert g.tail == pytest.approx(trig_pot.l2_norm_sq / abs(lam) ** 0.5)


def test_total_equals_sum_of_terms(step_pot):
    t = correction_terms(step_pot, 1.2, 55.0)
    assert t.total == (t.term_single_sin + t.term_l2
                       + t.term_double + t.term_u2_cos)


def test_continuity_in_x_near_breakpoints(step_pot, poly_pot):
    for pot in (step_pot, poly_pot):
        for b in pot.breaks[1:-1]:
            for h in (1e-6, -1e-6):
                d = abs(correction_terms(pot, b + h, 70.0).total
                        - correction_terms(pot, b, 70.0).total)
                assert d < 1e-4


def test_lambda_zero_rejected(step_pot):
    with pytest.raises(SingularArgumentError):
        correction_terms(step_pot, 1.0, 0.0)
    with pytest.raises(SingularArgumentError):
        remainder_gauge(step_pot, 0.0)


def test_gauge_zero_potential(free_pot):
    g = remainder_gauge(free_pot, 25.0)
    assert g.value == 0.0 and g.tail == 0.0


def test_gauge_value_dominates_tail(all_pots):
    for name, pot in all_pots.items():
        g = remainder_gauge(pot, 9.5 ** 2)
        assert g.value >= g.tail >= 0.0
        assert g.upper_estimate >= g.value


def test_gauge_against_dense_brute_force(const_pot):
    # u = 1 at n = 10: closed-form profiles on a 10x denser grid
    m = 9.5
    lam = m * m
    g = remainder_gauge(const_pot, lam, sup_grid=256)
    xs = np.linspace(0.0, PI, 2561)
    f_sin = (1 - np.cos(2 * m * xs)) / (2 * m)
    f_cos = np.sin(2 * m * xs) / (2 * m)
    # double term: int_0^x cos(2mt) (1 - cos(2mt)) / (2m) dt
    f_dbl = (np.sin(2 * m * xs) / (2 * m) - xs / 2
             - np.sin(4 * m * xs) / (8 * m)) / (2 * m)
    f_sqc = np.sin(2 * m * xs) / (2 * m) / m
    bracket = (np.abs(f_sin) + np.abs(f_cos) + 2 * np.abs(f_dbl)
               + 0.5 * np.abs(f_sqc))
    ref = bracket.max() + PI / m
    assert g.value == pytest.approx(ref, rel=2e-3)
    assert m * g.value == pytest.approx(m * ref, rel=2e-3)
    assert 3.0 < m * g.value < 9.0          # O(1/m) scale


def test_gauge_stable_under_grid_doubling(all_pots):
    for name, pot in all_pots.items():
        lam = 14.5 ** 2
        g1 = remainder_gauge(pot, lam, sup_grid=256).value
        g2 = remainder_gauge(pot, lam, sup_grid=512).value
        assert abs(g2 - g1) <= 2e-3 * max(g1, 1e-12), name


def test_gauge_decays_along_spectrum(step_pot):
    vals = [remainder_gauge(step_pot, (n - 0.5) ** 2).value
            for n in (25, 50, 100, 200)]
    assert vals[0] > vals[1] > vals[2] > vals[3]


def test_gauge_squares_summable(all_pots):
    # Cauchy increments of the partial sums of gamma^2 at lam = m^2
    for name, pot in all_pots.items():
        if name == "free":
            continue
        gs = np.array([remainder_gauge(pot, (n - 0.5) ** 2, sup_grid=128).value
                       for n in range(1, 201)])
        sums = np.cumsum(gs ** 2)
        assert sums[199] - sums[99] <= 0.01 * sums[99], name


def test_principal_sqrt_on_both_sides_of_the_real_axis():
    from slspec.oscillatory import principal_sqrt

    # the negative real axis gives Im > 0 whatever the sign of the zero
    for lam in (complex(-4.0, 0.0), complex(-4.0, -0.0), -4.0):
        s = principal_sqrt(lam)
        assert s == 2j and math.copysign(1.0, s.real) == 1.0, lam
    # the positive axis keeps cmath's root, signed zero included
    for lam in (complex(4.0, 0.0), complex(4.0, -0.0), 4.0):
        s = principal_sqrt(lam)
        assert s == 2 and repr(s) == repr(cmath.sqrt(lam)), lam


def test_spectral_domain_validation():
    assert SpectralDomain().alpha == 2.0
    with pytest.raises(ValueError):
        SpectralDomain(alpha=0.0)


def _gauge_resampling_whole_grid(prof, k, sup_grid=256):
    """Member k's gauge with every refinement pass sampling its whole grid again."""
    from slspec.oscillatory import GaugeValue

    s = prof.sqrt_lam[k]
    comp = (prof.single_sin, prof.single_cos, prof.double, prof.square_cos)

    def sample(xs):
        ss, sc, dbl, sqc = (c.eval(xs)[k] for c in comp)
        return (np.abs(ss) + np.abs(sc) + 2 * np.abs(dbl)
                + 0.5 * np.abs(sqc / s))

    xs = np.union1d(np.linspace(0.0, PI, max(int(sup_grid), 16)),
                    np.asarray(prof.pot.breaks))
    vals = sample(xs)
    for _ in range(2):
        order = np.argsort(vals)[-3:]
        extra = [np.linspace(xs[max(int(i) - 1, 0)],
                             xs[min(int(i) + 1, len(xs) - 1)], 15)
                 for i in order]
        xs = np.union1d(xs, np.concatenate(extra))
        vals = sample(xs)
    tail = float(prof.pot.l2_norm_sq / abs(complex(prof.lam[k])) ** 0.5)
    best = float(vals.max())
    gaps = np.diff(xs)
    slopes = np.abs(np.diff(vals)) / np.maximum(gaps, 1e-300)
    upper = best + float(slopes.max() * gaps.max() / 2)
    return GaugeValue(value=best + tail, tail=tail,
                      upper_estimate=upper + tail, sup_grid=int(sup_grid))


@pytest.mark.parametrize("name", ["step", "poly", "trig", "cstep"])
def test_gauge_refinement_equals_whole_grid_sampling(all_pots, name):
    # one block of six lambdas: each member refines around its own maxima
    from slspec.oscillatory import _CorrectionProfile

    pot = all_pots.get(name) or PotentialSpec.step(
        [(0.0, 1.0, 0.5 + 1.0j), (1.0, 2.2, -1.0 - 0.5j), (2.2, PI, 2.0)])
    lams = (0.81, 30.25, 4.0e4, 12.0 + 5.0j, 900.0 - 40.0j, -3.0)
    prof = _CorrectionProfile(pot, lams)
    for sup_grid in (16, 256):
        gauges = prof.gauge(sup_grid)
        for k in range(len(lams)):
            assert gauges[k] == _gauge_resampling_whole_grid(prof, k, sup_grid)


# The validate-step potential of the benchmark at seed 7; at its solved
# roots n = 1..32, member n = 8 ties its third and fourth largest values
# in the second refinement pass.
SEED7_STEP = PotentialSpec.step([
    (0.0, 0.9555693186745379, 0.11438808340462403),
    (0.9555693186745379, 1.30075637149404, 1.6757112277512975),
    (1.30075637149404, 1.7401990999388663, -0.022738927114721363),
    (1.7401990999388663, 2.0597460036034088, -1.1969417218928218),
    (2.0597460036034088, 2.825899855127577, 1.3031135844563257),
    (2.825899855127577, PI, -1.5596941609385526)])


def _gauges_and_tied_rows(monkeypatch, prof):
    """prof.gauge() and the lengths of the rows whose top three tied.

    The block refinement takes np.argsort of a member's own row only where
    the third and fourth largest values tie.
    """
    from slspec import oscillatory

    tied, real = [], np.argsort

    def spy(a, *args, **kwargs):
        if np.ndim(a) == 1:
            tied.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(oscillatory.np, "argsort", spy)
    gauges = prof.gauge()
    monkeypatch.undo()
    return gauges, tied


def test_block_gauge_equals_whole_grid_sampling_on_a_tied_head_block(
        monkeypatch):
    from slspec import asymptotics, oracle
    from slspec.oscillatory import _CorrectionProfile

    ns = range(1, 33)
    points = asymptotics._predictions(SEED7_STEP, ns)
    roots = [res.lam for res in oracle._solve_points(SEED7_STEP, points)]
    prof = _CorrectionProfile(SEED7_STEP, roots)
    gauges, tied = _gauges_and_tied_rows(monkeypatch, prof)
    assert tied
    for k in range(len(roots)):
        assert gauges[k] == _gauge_resampling_whole_grid(prof, k), k


def test_block_gauge_equals_whole_grid_sampling_where_every_row_ties(
        free_pot, monkeypatch):
    from slspec.oscillatory import _CorrectionProfile

    lams = (0.81, 30.25, 4.0e4, 12.0 + 5.0j, 900.0 - 40.0j, -3.0)
    prof = _CorrectionProfile(free_pot, lams)
    gauges, tied = _gauges_and_tied_rows(monkeypatch, prof)
    assert len(tied) == 2 * len(lams)       # both passes, every member
    for k in range(len(lams)):
        assert gauges[k] == _gauge_resampling_whole_grid(prof, k)
        assert gauges[k].value == 0.0


def test_gauge_refinement_is_whole_array_work(monkeypatch):
    # no per-member insert or set difference, and one evaluation per term
    # and sample whatever the width of the block (one piece, so that each
    # evaluation is one _eval_block call)
    from slspec import moments
    from slspec.oscillatory import _CorrectionProfile

    pot = PotentialSpec.trig([(0.0, PI, [1.0, 0.5, -0.3])])
    pot.l2_norm_sq                          # the tail's integral, once
    profs = {}
    for width in (1, 8, 40):
        profs[width] = _CorrectionProfile(
            pot, [(n - 0.5) ** 2 + 0.1 for n in range(1, width + 1)])
        profs[width].single_cos

    def banned(*args, **kwargs):
        raise AssertionError("a per-member numpy call in the gauge")

    calls, real = [], moments._eval_block

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "insert", banned)
    monkeypatch.setattr(np, "setdiff1d", banned)
    monkeypatch.setattr(moments, "_eval_block", spy)
    counts = {}
    for width, prof in profs.items():
        calls.clear()
        assert len(prof.gauge()) == width
        counts[width] = len(calls)
    # four terms at the first sample and at each of the two passes
    assert counts == {1: 12, 8: 12, 40: 12}
