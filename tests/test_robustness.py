"""A standing robustness suite: drawn potentials through solve_spectrum.

Hypothesis draws real step, poly and trig potentials with up to 5 pieces
and amplitudes up to 15, and complex step and trig potentials with up to 5
pieces and each part of a height up to 6, derandomized so that the
examples are the same on every run.  Each failure it finds becomes a
literal regression test below its property.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slspec import PotentialSpec, errors, integrate_quasi_system, oracle
from slspec import solve_spectrum

PI = math.pi
N_MAX = 20


def _breaks(draw):
    """0, up to 4 inner breaks at least 0.05 apart, pi."""
    inner = draw(st.lists(st.floats(0.05, PI - 0.05), max_size=4,
                          unique=True))
    breaks = [0.0] + sorted(inner) + [PI]
    assume(min(np.diff(breaks)) > 0.05)
    return breaks


@st.composite
def real_potentials(draw):
    kind = draw(st.sampled_from(["step", "poly", "trig"]))
    breaks = _breaks(draw)
    amp = draw(st.floats(0.0, 15.0))
    unit = st.floats(-1.0, 1.0)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        if kind == "step":
            pieces.append((a, b, amp * draw(unit)))
        elif kind == "poly":        # |u| <= amp on [0, pi]
            c = draw(st.lists(unit, min_size=1, max_size=3))
            pieces.append((a, b, [amp * v / (len(c) * PI ** k)
                                  for k, v in enumerate(c)]))
        else:
            c = draw(st.lists(unit, min_size=1, max_size=3))
            pieces.append((a, b, [amp * v / len(c) for v in c]))
    return getattr(PotentialSpec, kind)(pieces)


def _dense_zeros(pot, lam, nodes=8001):
    """Sign changes of y1 from (0, 1) on a uniform grid of [0, pi]."""
    grid = np.linspace(0.0, PI, nodes)
    y1 = integrate_quasi_system(pot, lam, grid, init=(0.0, 1.0)).y1.real[1:]
    signs = np.sign(y1[y1 != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@st.composite
def complex_potentials(draw):
    kind = draw(st.sampled_from(["step", "trig"]))
    breaks = _breaks(draw)
    part = st.floats(-6.0, 6.0)
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        if kind == "step":
            pieces.append((a, b, complex(draw(part), draw(part))))
        else:               # each part of u at most 6 in size
            k = draw(st.integers(1, 3))
            pieces.append((a, b, [complex(draw(part), draw(part)) / k
                                  for _ in range(k)]))
    pot = getattr(PotentialSpec, kind)(pieces)
    assume(not pot.is_real)
    return pot


def _solve(pot, shared=False):
    """solve_spectrum(1..N_MAX) without a RuntimeWarning: the points, each
    flagged with an INDEX_FAILURES error or solved; with shared, a solved
    point may carry the flag of a root shared with another index."""
    results = []
    solve_points = oracle._solve_points

    def kept(pot, points, **kwargs):
        results.extend(solve_points(pot, points, **kwargs))
        return results[-len(points):]

    oracle._solve_points = kept
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            points = solve_spectrum(pot, range(1, N_MAX + 1))
    finally:
        oracle._solve_points = solve_points
    assert [p.n for p in points] == list(range(1, N_MAX + 1))
    for p, res in zip(points, results):
        if isinstance(res, oracle.SecularResult):
            assert p.flag == "" or (
                shared and p.flag.startswith("degraded: shared root")), p.flag
        else:
            assert isinstance(res, errors.INDEX_FAILURES), repr(res)
            assert p.flag == f"degraded: {res}"
    return points


def _check_spectrum(pot):
    """solve_spectrum(1..N_MAX): finite, distinct roots increasing in n, each
    with n - 1 zeros; every failure an INDEX_FAILURES error; no warning."""
    points = _solve(pot)
    solved = [(p.n, complex(p.sqrt_lambda_numeric) ** 2) for p in points
              if not p.flag]
    lams = [lam.real for _, lam in solved]
    assert all(lam.imag == 0 and math.isfinite(lam.real) for _, lam in solved)
    assert all(a < b for a, b in zip(lams, lams[1:]))
    for n, lam in solved:
        assert _dense_zeros(pot, lam.real) == n - 1, n
    return points


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pot=real_potentials())
def test_real_spectrum_is_indexed_by_its_zero_counts(pot):
    _check_spectrum(pot)


@pytest.mark.parametrize("pot", [
    # u = -30 x^2 seeds n = 1 and 2 far below the spectrum
    PotentialSpec.poly([(0.0, PI, [0.0, 0.0, -30.0])]),
    # a strong constant: its bound state n = 1 overflows the exact step
    PotentialSpec.constant(220.0),
])
def test_real_spectrum_regressions(pot):
    _check_spectrum(pot)


def _check_complex_spectrum(pot):
    """solve_spectrum(1..N_MAX): finite roots, every failure an
    INDEX_FAILURES error, no warning; the count-mesh walk of each solved
    index's contour does not fail and winds at least once."""
    points = _solve(pot, shared=True)
    roots = [complex(p.sqrt_lambda_numeric) for p in points if not p.flag]
    assert all(cmath.isfinite(s) for s in roots)
    for root in roots:
        s = root + oracle._WINDING_RADIUS * oracle._WINDING_RING
        (vals,), (err,) = oracle._contours(pot, [s * s])
        assert err is None, root
        assert oracle._winding_number(vals) >= 1, root


@settings(derandomize=True, max_examples=50, deadline=None)
@given(pot=complex_potentials())
def test_complex_spectrum_keeps_its_winding_numbers(pot):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check_complex_spectrum(pot)
