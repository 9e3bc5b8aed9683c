"""Shared test potentials plus independent oracles.

The raw closures deliberately do not go through PotentialSpec: brute-force
quadrature checks must not share code with the exact path they verify.
Each closure is integrated piece by piece so that breakpoint values never
leak across pieces.

rk4_states is the suite's one fixed-step RK4 propagator for the quasi
system, the reference the library's exact constant steps and Magnus cells
are checked against; it shares only the pairwise product of slspec.oracle.
exact_step_end walks a step potential by the exact constant step in
scalar complex arithmetic, the reference for the array walk on many
pieces.
integrate_prufer integrates the Prufer phase and log-modulus equations
themselves by RK4, the reference for the library's Prufer reading.

char_reduced, brent_root, winding and zero_count are thin drivers of the
library's kernels that only the tests call: the reduced characteristic
of any lambda, the Brent generator driven by one function, the winding
count of one contour and the integer counts of the Prufer angle.

atom_antiderivative, series_poly, antiderivative_by_atom and
integral_by_atom are the closed-form layer one atom at a time: the
reference whose bits the library's stacked primitives must keep.
sinc_defect_both_branches forms both branches of the closed-form norm's
sinc and defect on every element and picks one: the reference whose bits
the library's one-branch-per-element form must keep.
"""

import bisect
import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from slspec import (IntegrationBlowupError, PotentialSpec, asymptotics,
                    moments, oracle)
from slspec.oscillatory import _require_regular

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


# -- fixed-step RK4 reference -------------------------------------------------

RK4_CHUNK = 1 << 16     # steps per block of an end-state product


def _rk4_matrices(u0, um, u1, lam, h):
    """One-step RK4 propagators of Y' = A(x) Y, shape (2, 2, steps).

    A(u) = [[u, 1], [-lam - u^2, -u]].  u0, um, u1 (u at the left end, the
    middle and the right end of each step) have one entry per step and h
    one per step or one for all.  The 2x2 products are written out
    component by component.
    """
    lam = complex(lam)
    h = np.asarray(h, dtype=float)
    h2 = h / 2

    def times_a(u, x):
        # A(u) @ X with the first row of A equal to (u, 1)
        c = -lam - u * u
        return (u * x[0] + x[2], u * x[1] + x[3],
                c * x[0] - u * x[2], c * x[1] - u * x[3])

    c0 = -lam - u0 * u0
    k2 = times_a(um, (1.0 + h2 * u0, h2, h2 * c0, 1.0 - h2 * u0))
    k3 = times_a(um, (1.0 + h2 * k2[0], h2 * k2[1], h2 * k2[2],
                      1.0 + h2 * k2[3]))
    k4 = times_a(u1, (1.0 + h * k3[0], h * k3[1], h * k3[2], 1.0 + h * k3[3]))
    h6 = h / 6
    out = np.empty((2, 2, len(u0)), dtype=complex)
    out[0, 0] = 1.0 + h6 * (u0 + 2 * k2[0] + 2 * k3[0] + k4[0])
    out[0, 1] = h6 * (1.0 + 2 * k2[1] + 2 * k3[1] + k4[1])
    out[1, 0] = h6 * (c0 + 2 * k2[2] + 2 * k3[2] + k4[2])
    out[1, 1] = 1.0 + h6 * (-u0 + 2 * k2[3] + 2 * k3[3] + k4[3])
    return out


def rk4_states(pot, lam, nodes, *, step_scale=0.004, init=None):
    """(y1, y2) at sorted nodes in [0, pi] by fixed-step classical RK4.

    Steps (y1, y2)' = A(u) (y1, y2) from (0, sqrt(lam)), or from init, on
    every piece, constant ones too.  Each gap between the stops of a piece
    (its nodes and its end) is cut into equal steps that advance
    |sqrt(lam)| h <= step_scale in phase and are at most oracle._H_MAX
    long.  A piece whose one stop is its end multiplies its steps pairwise,
    RK4_CHUNK at a time, and the chunk products in turn (oracle._chain), so
    no table of more than RK4_CHUNK steps is held; any other piece runs the
    step recurrence and records the states at its nodes.
    """
    s = complex(oracle.principal_sqrt(lam))
    pe = pot.piecewise
    nodes = np.asarray(nodes, dtype=float)
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

        def mats(lo=0, hi=count):
            x, h = lefts[lo:hi], hs[lo:hi]
            return _rk4_matrices(pe._local(i, x - a),
                                 pe._local(i, x + h / 2 - a),
                                 pe._local(i, x + h - a), lam, h)

        if len(stops) == 1:
            blocks = [oracle._chain(mats(lo, lo + RK4_CHUNK))
                      for lo in range(0, count, RK4_CHUNK)]
            (p00, p01), (p10, p11) = oracle._chain(
                np.stack(blocks, axis=-1)).tolist()
            y = (p00 * y[0] + p01 * y[1], p10 * y[0] + p11 * y[1])
            y1[pos:j1], y2[pos:j1] = y
        else:
            marks = {e - 1: k for k, e in enumerate(bnd) if record[k]}
            a1, a2 = y
            for j, (m00, m01, m10, m11) in enumerate(
                    mats().reshape(4, -1).T.tolist()):
                a1, a2 = m00 * a1 + m01 * a2, m10 * a1 + m11 * a2
                k = marks.get(j)
                if k is not None:
                    y1[pos + k], y2[pos + k] = a1, a2
            y = (a1, a2)
        pos = j1
    return y1, y2


def rk4_end(pot, lam, *, step_scale=0.004, init=None):
    """y2(pi) of rk4_states: Delta(lam), or the reduced one from (0, 1)."""
    return complex(rk4_states(pot, lam, np.asarray([0.0, PI]),
                              step_scale=step_scale, init=init)[1][-1])


def exact_step_end(pot, lam, *, init=None):
    """y2(pi) of a step potential by the exact step in scalar arithmetic.

    Each piece of height c and length d advances (y1, y2) by
    exp(A d) = cos(s d) I + (sin(s d)/s) A, A = [[c, 1], [-lam - c^2, -c]],
    in CPython complex numbers, one piece at a time, from (0, sqrt(lam))
    or from init: the reference the library's array walk is checked
    against on many pieces.
    """
    s = oracle.principal_sqrt(lam)
    y1, y2 = (0j, s) if init is None else (complex(init[0]), complex(init[1]))
    for a, b, (c,) in zip(pot.breaks, pot.breaks[1:], pot.coeffs):
        d = b - a
        w1, w2 = c * y1 + y2, (-lam - c * c) * y1 - c * y2
        z = s * d
        if abs(z) < 1e-6:
            cd, sd = cmath.cos(z), d * (1 - z * z / 6)
        else:
            cd, sd = cmath.cos(z), cmath.sin(z) / s
        y1, y2 = cd * y1 + sd * w1, sd * w2 + cd * y2
    return y2


# -- RK4 on the Prufer phase and log-modulus ----------------------------------

_PRUFER_STEP_SCALE = 0.02


def integrate_prufer(pot, lam, grid):
    """Phase and log-modulus trajectories with theta(0) = 0, log r(0) = 0.

    Integrates theta' = s + u^2 sin^2(theta)/s + u sin(2 theta) and
    (log r)' = -(u cos(2 theta) + u^2 sin(2 theta)/(2 s)) with fixed RK4
    steps, each at most _PRUFER_STEP_SCALE over the largest of 1, |s|,
    |u| and |u|^2/|s| (sup|u| sampled on the node interval); the
    log-modulus rather than r itself is integrated so complex lam cannot
    overflow.  It is the independent reference for the library's reading
    of the phase off the quasi-derivative trajectory
    (oracle._prufer_from_quasi).  It cannot integrate at real lam < 0,
    where the phase equation blows up.
    """
    s = _require_regular(lam)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    nodes = np.union1d(np.union1d(grid, np.asarray([0.0])),
                       np.asarray([b for b in pot.breaks if b < grid.max()]))
    pe = pot.piecewise
    sc = complex(s)
    th, lr = 0j, 0j
    i = 0           # the piece of the current node interval
    rec = {0.0: (0j, 0j)}

    def rhs(u, theta):
        u2 = u * u
        c2 = cmath.cos(2 * theta)
        s2 = cmath.sin(2 * theta)
        return (sc + (u2 / sc) * (1 - c2) / 2 + u * s2,
                -(u * c2 + (u2 / (2 * sc)) * s2))

    for x0, x1 in zip(nodes, nodes[1:]):
        # every break below the last grid point is a node
        while i + 2 < len(pot.breaks) and x0 >= pot.breaks[i + 1]:
            i += 1
        # theta' is at most |s| + |u| + |u|^2/|s|: the step bounds both
        # the phase advance and u times the step
        u_sup = float(np.abs(pe._local(
            i, np.linspace(x0, x1, 9) - pot.breaks[i])).max())
        rate = max(1.0, abs(s), u_sup, u_sup * u_sup / abs(s))
        need = max((x1 - x0) * rate / _PRUFER_STEP_SCALE,
                   (x1 - x0) / oracle._H_MAX)
        nsub = max(1, math.ceil(need - 1e-12))
        h = (x1 - x0) / nsub
        offs = (x0 - pot.breaks[i]) + (h / 2) * np.arange(2 * nsub + 1)
        uu = list(pe._local(i, offs))
        h2, h6 = h / 2, h / 6
        try:
            for j in range(nsub):
                u0, um, u1 = uu[2 * j], uu[2 * j + 1], uu[2 * j + 2]
                k1t, k1l = rhs(u0, th)
                k2t, k2l = rhs(um, th + h2 * k1t)
                k3t, k3l = rhs(um, th + h2 * k2t)
                k4t, k4l = rhs(u1, th + h * k3t)
                th = th + h6 * (k1t + 2 * k2t + 2 * k3t + k4t)
                lr = lr + h6 * (k1l + 2 * k2l + 2 * k3l + k4l)
        except OverflowError:
            # the substitution degenerates where y1^2 + y2^2/lam hits a
            # complex zero; the phase equation then runs away
            raise IntegrationBlowupError(
                f"Prufer phase blow-up inside ({x0}, {x1})", location=float(x1))
        if not (math.isfinite(th.real) and math.isfinite(th.imag)
                and math.isfinite(lr.real) and math.isfinite(lr.imag)):
            raise IntegrationBlowupError(f"non-finite Prufer state at x = {x1}",
                                         location=float(x1))
        rec[float(x1)] = (th, lr)
    theta = np.array([rec[float(t)][0] for t in grid], dtype=complex)
    log_r = np.array([rec[float(t)][1] for t in grid], dtype=complex)
    return oracle.PruferTrajectory(x=grid.copy(), theta=theta, log_r=log_r,
                                   sqrt_lambda=s)


# -- thin drivers of the library's kernels ------------------------------------


def char_reduced(pot, lam, *, step_scale=oracle._DEFAULT_STEP_SCALE):
    """The characteristic function for initial slope one instead of sqrt(lam).

    Same zeros, but real-valued for real potentials at every real lam
    including lam <= 0.  A 1-D batch of lam gives an array, in one call.
    """
    return oracle._end_value(pot, lam, step_scale, (0.0, 1.0))


def brent_root(f, xa, xb, xtol, rtol, maxiter):
    """Root of f on [xa, xb]: the solver's Brent generator driven by f alone,
    with its bits and failures."""
    steps = oracle._brent_steps(xa, xb, xtol, rtol, maxiter)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def winding(F, center):
    """Zero count of F inside the solver's winding circle around center; F
    takes the whole contour at once."""
    return oracle._winding_number(
        F(center + oracle._WINDING_RADIUS * oracle._WINDING_RING))


def zero_count(pot, lam):
    """(interior zeros of y1 from (0, 1), eigenvalues below lam) for real u
    and lam: the walk's cell count less a zero on pi, and the eigenvalues
    n whose angle (n - 1/2) pi lies below Theta(lam) (oracle._sturm_count)."""
    trail, errors, (zeros,) = oracle._walk(
        pot.piecewise, lam, oracle._COUNT_STEP_SCALE, (0.0, 1.0), zeros=True)
    (theta,), (err,) = oracle._sturm_count(pot, [lam])
    if err is not None:
        raise err
    return int(zeros[0]) - int(trail[-1, 0, 0] == 0), int(theta / PI + 0.5)


def sinc_defect_both_branches(w):
    """sin(w)/w and (1 - sin(w)/w)/w^2, both branches formed everywhere.

    The series of oracle._DEFECT_SERIES below |w| = 1, the closed forms
    from there on, picked elementwise with np.where.
    """
    small = np.abs(w) < 1.0
    w2 = np.where(small, w * w, 0.0)
    series = np.zeros_like(w2)
    for c in reversed(oracle._DEFECT_SERIES):
        series = series * w2 + c
    big = np.where(small, 1.0, w)
    sinc = np.where(small, 1 - w2 * series, np.sin(big) / big)
    return sinc, np.where(small, series, (1 - sinc) / (big * big))


# -- the closed-form primitives, one atom at a time ---------------------------


def series_poly(coeffs, z, h):
    """integral_0^s p(t) exp(z t) dt as one polynomial, by the power series.

    integral_0^s t^j e^{zt} dt = sum_k z^k s^{j+k+1} / (k! (j+k+1)), summed
    until a term falls below 1e-20 of the atom's scale on [0, h].
    """
    d = len(coeffs) - 1
    out = [0j] * (d + moments._SERIES_MAX_TERMS + 2)
    scale = max(abs(c) for c in coeffs) * max(h, 1e-300)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        zk = complex(c)
        hp = h ** (j + 1)
        for k in range(moments._SERIES_MAX_TERMS):
            out[j + k + 1] += zk / (j + k + 1)
            if abs(zk) * hp < 1e-20 * scale:
                break
            zk = zk * z / (k + 1)
            hp *= h
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _polyint(coeffs):
    return (np.zeros_like(coeffs[0]),) + tuple(c / (j + 1)
                                               for j, c in enumerate(coeffs))


def atom_antiderivative(key, coeffs, h, omega):
    """Atoms of A(s) = integral_0^s p(t) exp(i nu t) dt on a piece of length h.

    nu is the key's frequency; A(0) = 0 exactly.  A member takes nu = 0,
    the series or the recursion from its own frequency and its own
    trimmed degree.  The series runs one member at a time on Python
    scalars, and its polynomial is scattered into the frequency-free
    atom, whose other members hold the recursion's constant -q_0.
    """
    zero_key = moments._ZERO_KEY
    width = len(coeffs[0])
    top = len(coeffs) - 1
    if key == zero_key:
        return [(zero_key, _polyint(coeffs))]
    nu = np.broadcast_to(moments._frequency(key, omega), (width,))
    z = 1j * nu
    table = np.array(coeffs)
    nonzero = table != 0
    live = nonzero.any(axis=0)
    degree = top - np.argmax(nonzero[::-1], axis=0)
    zero = nu == 0
    series = ~zero & live & (np.abs(z) * h
                             <= moments._series_threshold(degree))
    rec = ~zero & ~series
    atoms = []
    const = [np.zeros(width, complex)]
    if rec.any():
        every = bool(rec.all())
        zr = z if every else np.where(rec, z, 1)
        q = [None] * (top + 1)
        q[top] = coeffs[top] / zr
        for j in range(top - 1, -1, -1):
            q[j] = (coeffs[j] - (j + 1) * q[j + 1]) / zr
        if not every:
            q = [np.where(rec, c, 0) for c in q]
        atoms.append((key, tuple(q)))
        const = [-q[0]]
    if zero.any():
        prim = _polyint(coeffs)
        const += [np.zeros(width, complex)] * (len(prim) - len(const))
        const = [np.where(zero, p, c) for p, c in zip(prim, const)]
    polys = {k: series_poly(tuple(complex(c) for c in table[:d + 1, k]),
                            complex(z[k]), h)
             for k, d in zip(np.flatnonzero(series), degree[series])}
    if polys:
        rows = max(len(const), *(len(p) for p in polys.values()))
        block = np.zeros((rows, width), complex)
        block[:len(const)] = const
        for k, poly in polys.items():
            block[:, k] = 0
            block[:len(poly), k] = poly
        const = list(block)
    atoms.append((zero_key, tuple(const)))
    return atoms


def _piece_value(f, atoms, s):
    return moments._eval_block(atoms, f.omega, f.width, np.array([s]))[:, 0]


def antiderivative_by_atom(f):
    """The pieces of f.antiderivative(), each atom integrated alone."""
    pieces = []
    offset = np.zeros(f.width, complex)
    for i, pc in enumerate(f.pieces):
        h = f.breaks[i + 1] - f.breaks[i]
        atoms = []
        for key, coeffs in pc:
            atoms.extend(atom_antiderivative(key, coeffs, h, f.omega))
        atoms.append((moments._ZERO_KEY, (offset,)))
        merged = moments._merge_atoms(atoms)
        pieces.append(merged)
        offset = _piece_value(f, merged, h)
    return tuple(pieces)


def integral_by_atom(f, lo, hi):
    """f.integral(lo, hi), lo <= hi inside the domain, one atom at a time."""
    last = len(f.pieces) - 1
    first = min(max(bisect.bisect_right(f.breaks, lo) - 1, 0), last)
    stop = min(max(bisect.bisect_left(f.breaks, hi) - 1, first), last)
    total = np.zeros(f.width, complex)
    for i in range(first, stop + 1):
        a_i = f.breaks[i]
        h = f.breaks[i + 1] - a_i
        s0 = lo - a_i if i == first else 0.0
        s1 = hi - a_i if i == stop else h
        if s1 == s0:
            continue
        for key, coeffs in f.pieces[i]:
            prim = atom_antiderivative(key, coeffs, h, f.omega)
            total = total + _piece_value(f, prim, s1)
            if s0 != 0:
                total = total - _piece_value(f, prim, s0)
    return total
