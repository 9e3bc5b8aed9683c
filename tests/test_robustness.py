"""A standing robustness suite: drawn real potentials through solve_spectrum.

Hypothesis draws real step, poly and trig potentials with up to 5 pieces
and amplitudes up to 15, derandomized so that the examples are the same on
every run.  Each failure it finds becomes a literal regression test below
the property.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slspec import PotentialSpec, errors, integrate_quasi_system, oracle
from slspec import solve_spectrum

PI = math.pi
N_MAX = 20


@st.composite
def real_potentials(draw):
    kind = draw(st.sampled_from(["step", "poly", "trig"]))
    inner = draw(st.lists(st.floats(0.05, PI - 0.05), max_size=4,
                          unique=True))
    breaks = [0.0] + sorted(inner) + [PI]
    assume(min(np.diff(breaks)) > 0.05)
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


def _check_spectrum(pot):
    """solve_spectrum(1..N_MAX): finite, distinct roots increasing in n, each
    with n - 1 zeros; every failure an INDEX_FAILURES error; no warning."""
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
            assert p.flag == ""
        else:
            assert isinstance(res, errors.INDEX_FAILURES), repr(res)
            assert p.flag == f"degraded: {res}"
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
