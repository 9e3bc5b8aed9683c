"""Shared test potentials plus raw closures for independent oracles.

The closures deliberately do not go through PotentialSpec: brute-force
quadrature checks must not share code with the exact path they verify.
Each closure is integrated piece by piece so that breakpoint values never
leak across pieces.
"""

import math

import pytest
from scipy.integrate import quad

from slspec import PotentialSpec, asymptotics

PI = math.pi


@pytest.fixture(autouse=True)
def _fresh_asymptotic_caches():
    # PotentialSpec compares by value, so a profile or bracket weights
    # another test left in a process-wide cache would be read by a fresh
    # copy of its potential
    asymptotics._m2_profile.cache_clear()
    asymptotics._bracket_weights.cache_clear()


@pytest.fixture(scope="session")
def free_pot():
    return PotentialSpec.zero()


@pytest.fixture(scope="session")
def const_pot():
    return PotentialSpec.constant(1.0)


@pytest.fixture(scope="session")
def step_pot():
    return PotentialSpec.step([(0.0, PI / 2, 0.0), (PI / 2, PI, 2.0)])


@pytest.fixture(scope="session")
def trig_pot():
    return PotentialSpec.trig([(0.0, PI, [1 + 1j])])


@pytest.fixture(scope="session")
def poly_pot():
    return PotentialSpec.poly([(0.0, 1.3, [-1.0, 0.0, 1.0]),
                               (1.3, PI, [0.5, 0.2])])


@pytest.fixture(scope="session")
def shared_root_trig():
    # literal complex 2-mode trig on which the secant sends indices 1 and 2
    # to one root
    return PotentialSpec.trig([(0.0, PI, [
        -0.9016119370042602 + 0.723816463551145j,
        -0.18491425128013936 + 0.7930903869151645j])])


@pytest.fixture(scope="session")
def all_pots(free_pot, const_pot, step_pot, trig_pot, poly_pot):
    return {"free": free_pot, "const": const_pot, "step": step_pot,
            "trig": trig_pot, "poly": poly_pot}


# Raw definitions: list of (a, b, u_closure) per potential, matching fixtures.
RAW_PIECES = {
    "free": [(0.0, PI, lambda t: 0.0 + 0.0j)],
    "const": [(0.0, PI, lambda t: 1.0 + 0.0j)],
    "step": [(0.0, PI / 2, lambda t: 0.0 + 0.0j),
             (PI / 2, PI, lambda t: 2.0 + 0.0j)],
    "trig": [(0.0, PI, lambda t: (1 + 1j) * math.sin(t))],
    "poly": [(0.0, 1.3, lambda t: t * t - 1.0),
             (1.3, PI, lambda t: 0.5 + 0.2 * t)],
}


def complex_quad(f, a, b, **kw):
    kw.setdefault("limit", 400)
    kw.setdefault("epsabs", 1e-12)
    kw.setdefault("epsrel", 1e-12)
    re = quad(lambda t: f(t).real, a, b, **kw)[0]
    im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


def piecewise_quad(pieces, f_of_u_t, a=0.0, b=PI, **kw):
    """Integrate f(u(t), t) over [a, b] splitting at the raw piece ends."""
    total = 0j
    for lo, hi, u in pieces:
        lo2, hi2 = max(lo, a), min(hi, b)
        if hi2 <= lo2:
            continue
        total += complex_quad(lambda t, u=u: f_of_u_t(complex(u(t)), t),
                              lo2, hi2, **kw)
    return total


def raw_u_eval(pieces, t):
    """Right-continuous evaluation of a raw piece list."""
    for lo, hi, u in pieces:
        if lo <= t < hi:
            return complex(u(t))
    return complex(pieces[-1][2](t))
