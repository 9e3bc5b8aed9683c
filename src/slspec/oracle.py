"""Independent ground truth for the spectral problem.

Nothing in this module evaluates the asymptotic expansions except for root
seeds; eigenfunction phases are aligned to a table the caller supplies.
Every number comes from one propagator for the first-order quasi-derivative
system in (y, y' - u y): the exact constant-coefficient exponential inside
constant pieces and 4th-order Magnus cells inside smooth ones.  The pair
stays continuous across the point interactions of q = u' (the jumps of a
step u), so piecewise-constant u is solved exactly with no jump rule.  The
phase and log-modulus of the modified Prufer substitution
y = r sin(theta), y' - u y = sqrt(lam) r cos(theta) are read off its
trajectory (_prufer_from_quasi).  integrate_prufer integrates the
phase/log-modulus equations themselves by RK4; the library does not call
it, it is the test suite's independent reference for that reading.

Eigenvalues solve Delta(lam) = (y' - u y)(pi) = 0 for the solution vanishing
at 0.  The classical Neumann condition y'(pi) = 0 is ill-defined for
distributional q; the quasi-derivative condition is the correct reading, and
it makes a constant shift of u act as a Robin parameter (documented in the
potential module).

Inside a smooth piece q = u' is an ordinary function, so the classical pair
(y, y') is carried across the cells of a uniform mesh, at most step_scale
long, that depends neither on lambda nor on the nodes; the pair is turned
into (y, y' - u y) and back at the ends of the piece.  Each cell is one
exponential of its 4th-order Magnus exponent with two Gauss points (Iserles
& Norsett 1999), in closed form because the exponent is a traceless 2x2
matrix, like the exact constant cell.  The commutator of two classical
system matrices, (q1 - q2) diag(1, -1), holds no lambda, so the error of a
cell does not grow with lambda; the commutator of the quasi-derivative
matrices carries 2 lambda (a - b), and cells built from those lose accuracy
as lambda grows.  The characteristic needs only the end state and takes
its own walk (_end_states), which keeps the state at the current break and
nothing else: the exact step of each constant piece in scalar arithmetic,
and for each smooth piece the cell matrices multiplied pairwise and the
product applied once.  It takes a scalar or a 1-D batch of lambda (the
argument-principle check evaluates its 16-point contour that way); a batch
forms its cell products at once and steps every member like a lambda
evaluated alone.  States at nodes (eigenfunctions, Sturm counts) come from
the node walk for one lambda (_dense_states): inside a smooth piece a
prefix scan of the cells and one partial Magnus step per node.  A Sturm
count takes nodes inside smooth pieces only and counts the zeros on each
constant piece in closed form (_sturm_count).

The walk never lets a numpy warning out: an overflowing state reaches the
finiteness check at the end of its piece and raises IntegrationBlowupError.
Deterministic meshes keep cross-method and step-halving comparisons exact;
the test suite holds the fixed-step RK4 reference the cells are checked
against.
"""

from __future__ import annotations

import cmath
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import (INDEX_FAILURES, DomainError, IndexingError,
                     IntegrationBlowupError, InternalError,
                     NonconvergenceError)
from .oscillatory import SpectralDomain, _require_regular, principal_sqrt
from .potential import PI, PotentialSpec

_DEFAULT_STEP_SCALE = 0.004     # longest Magnus cell of a smooth piece
_PRUFER_STEP_SCALE = 0.02
_COUNT_STEP_SCALE = 0.02        # Magnus cell length of a zero count: the
                                # Sturm count and the winding contour
_H_MAX = 0.05                   # longest step whatever the phase advance
_MAX_SECANT_ITER = 80
_SHARED_ROOT_RTOL = 1e-6        # sqrt(lam) of two indices this close: one root
_WALK_COUNTS = 64               # Sturm counts one count walk may spend
_WINDING_RADIUS = 0.2           # circle around a complex root, sqrt(lam) plane
_WINDING_POINTS = 16
_GAUSS_LO = 0.5 - math.sqrt(3) / 6     # Gauss points of a cell, as fractions
_GAUSS_HI = 0.5 + math.sqrt(3) / 6
_MAGNUS_C = math.sqrt(3) / 12           # weight of the Magnus commutator term


@dataclass
class QuasiTrajectory:
    x: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    sqrt_lambda: complex


@dataclass
class PruferTrajectory:
    x: np.ndarray
    theta: np.ndarray
    log_r: np.ndarray
    sqrt_lambda: complex

    @property
    def y1(self) -> np.ndarray:
        return np.exp(self.log_r) * np.sin(self.theta)

    @property
    def y2(self) -> np.ndarray:
        return self.sqrt_lambda * np.exp(self.log_r) * np.cos(self.theta)


@dataclass
class SecularResult:
    n: int
    lam: complex
    sqrt_lambda: complex
    residual: float
    multiplicity_hint: int
    iterations: int
    method: str


def _cos_sinc(s, d):
    """cos(s d) and sin(s d)/s, the latter stable for small |s d|.

    s is the scalar sqrt(lam).  A float d (the end state of a piece) takes
    scalar cmath arithmetic; an array d (the nodes inside a piece) numpy.
    """
    if isinstance(d, float):
        z = s * d
        if abs(z) < 1e-6:
            return cmath.cos(z), d * (1 - z * z / 6)
        return cmath.cos(z), cmath.sin(z) / s
    d = np.asarray(d, dtype=complex)
    z = s * d
    small = np.abs(z) < 1e-6
    return np.cos(z), np.where(small, d * (1 - z * z / 6),
                               np.sin(np.where(small, 1.0, z)) / s)


def _const_advance(y, const, lamc, s, d):
    """Exact propagation over distance d in a piece where u == const.

    The system matrix A = [[c, 1], [-lam - c^2, -c]] satisfies A^2 = -lam I,
    so exp(A d) = cos(s d) I + (sin(s d)/s) A.  d is a float or an array;
    lamc and s are the scalars lam and sqrt(lam).
    """
    cd, sd = _cos_sinc(s, d)
    y1 = cd * y[0] + sd * (const * y[0] + y[1])
    y2 = sd * ((-lamc - const * const) * y[0] - const * y[1]) + cd * y[1]
    return y1, y2


def _matmul(a, b):
    """a @ b for stacks of 2x2 matrices with the matrix axes in front."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _chain(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[..., -1] @ ... @ mats[..., 0], shape (2, 2, ...).

    mats has shape (2, 2, ..., steps): the matrix axes lead, so one pass
    of the pairwise reduction along the step axis forms every entry as
    a[i, 0] b[0, j] + a[i, 1] b[1, j] in three array operations.  Middle
    axes (a batch of lambda) ride along.
    """
    cur = mats
    while cur.shape[-1] > 1:
        k = cur.shape[-1] // 2
        prod = _matmul(cur[..., 1:2 * k:2], cur[..., 0:2 * k:2])
        if cur.shape[-1] % 2:
            prod = np.concatenate((prod, cur[..., -1:]), axis=-1)
        cur = prod
    return cur[..., 0]


def _apply(p, y):
    """p @ y for a 2x2 product matrix p, in scalar complex arithmetic.

    numpy's array products of complex numbers can fuse multiply and add
    (SIMD loops on FMA hardware) where its scalar products do not; the
    scalar form keeps a member of a batch equal to the same lambda
    evaluated alone.
    """
    (p00, p01), (p10, p11) = p.tolist()
    return p00 * y[0] + p01 * y[1], p10 * y[0] + p11 * y[1]


def _magnus_parts(q, i, lefts, h):
    """The lambda-free parts (delta, gamma) of each cell's Magnus exponent.

    Inside a smooth piece q = u' is an ordinary function and the classical
    pair (y, y') solves Y' = A(q) Y with A(q) = [[0, 1], [q - lam, 0]].
    Cell k is [lefts[k], lefts[k] + h] (h a scalar or one per cell) in the
    local coordinate of piece i of q, which is sampled at the two Gauss
    points of the cell, q1 and q2.  The 4th-order exponent
    Omega = h/2 (A(q1) + A(q2)) + (sqrt(3)/12) h^2 [A(q2), A(q1)]
    has [A(q2), A(q1)] = (q1 - q2) diag(1, -1), free of lambda, so
    Omega = [[delta, h], [gamma - lam h, -delta]].
    """
    q1 = q._local(i, lefts + _GAUSS_LO * h)
    q2 = q._local(i, lefts + _GAUSS_HI * h)
    return _MAGNUS_C * h * h * (q1 - q2), (h / 2) * (q1 + q2)


@functools.lru_cache(maxsize=64)
def _mesh(u, i: int, step_scale: float):
    """The lambda-free data of the uniform cell mesh of smooth piece i of u.

    Returns (h, parts, q, u_a, u_b): the cell length (at most step_scale
    and _H_MAX), the Magnus parts of every cell, q = u' and u at both
    ends of the piece.  The mesh depends on neither lambda nor the nodes,
    so it is built once per piece and step scale; its arrays are
    read-only because callers share them.
    """
    span = u.breaks[i + 1] - u.breaks[i]
    ncell = int(_n_sub(span, 1.0, step_scale))
    h = span / ncell
    q = u._derivative()
    parts = _magnus_parts(q, i, h * np.arange(ncell), h)
    for p in parts:
        p.setflags(write=False)
    u_a, u_b = u._local(i, np.array([0.0, span])).tolist()
    return h, parts, q, u_a, u_b


def _magnus_matrices(delta, gamma, h, lam):
    """exp(Omega) of each cell, shape (2, 2) + lam.shape + (cells,).

    Omega = [[delta, h], [gamma - lam h, -delta]] is traceless, so
    Omega^2 = -z^2 I with z^2 = -(delta^2 + h (gamma - lam h)), and
    exp(Omega) = cos(z) I + (sin(z)/z) Omega; both are even in z, so the
    branch of the square root does not matter, and an imaginary z (a
    cell below its potential) gives cosh and sinh.  lam is a scalar or a
    1-D batch (the middle axis of the result).
    """
    lam = np.asarray(lam, dtype=complex)[..., None]
    o10 = gamma - lam * h
    z2 = -(delta * delta + h * o10)
    z = np.sqrt(z2)
    small = np.abs(z) < 1e-6
    if small.any():
        sz = np.where(small, 1 - z2 / 6, np.sin(z) / np.where(small, 1.0, z))
    else:
        sz = np.sin(z) / z
    cz = np.cos(z)
    out = np.empty((2, 2) + o10.shape, dtype=complex)
    sd = sz * delta
    out[0, 0] = cz + sd
    out[0, 1] = sz * h
    out[1, 0] = sz * o10
    out[1, 1] = cz - sd
    return out


# Taylor coefficients in w^2 of (1 - sin(w)/w)/w^2 = 1/3! - w^2/5! + ...
_DEFECT_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _sinc_defect(w):
    """sin(w)/w and the defect (1 - sin(w)/w)/w^2 of a complex array w.

    Below |w| = 1 the defect is its Taylor series (nine terms, truncation
    below one ulp); above, the closed forms, whose cancellation then costs
    a few ulps at most.  Each branch is evaluated on masked arguments only.
    """
    small = np.abs(w) < 1.0
    w2 = np.where(small, w * w, 0.0)
    series = np.zeros_like(w2)
    for c in reversed(_DEFECT_SERIES):
        series = series * w2 + c
    big = np.where(small, 1.0, w)
    sinc = np.where(small, 1 - w2 * series, np.sin(big) / big)
    return sinc, np.where(small, series, (1 - sinc) / (big * big))


def _cell_norms(y0, slope, z):
    """Integral over tau in [0, 1] of |y0 cos(z tau) + slope sin(z tau)/z|^2.

    This is |y1|^2 over a cell of unit length on which (y1, y2) follows
    exp(tau Omega) with Omega traceless: y0 is y1 at the start of the cell,
    slope the first entry of Omega applied to the start state, and
    z^2 = det Omega.  Elementwise over arrays.  With z = p + iq,
    sigma = z + conj(z) = 2p and delta = z - conj(z) = 2iq, the three
    integrals of the products of cos(z tau) and sin(z tau)/z are
        |cos|^2:            (sinc sigma + sinc delta) / 2,
        |sin/z|^2:          2 (p^2 D(sigma) + q^2 D(delta)) / |z|^2,
        cos conj(sin/z):    (p^2 K(sigma) + q^2 K(delta)
                             + i p q (K(sigma) - K(delta))) / |z|^2,
    with D the sinc defect and K(w) = (1 - cos w)/w^2 = sinc(w/2)^2 / 2.
    The weights p^2/|z|^2 and q^2/|z|^2 lie in [0, 1] (z = 0 takes p^2
    alone), D(sigma), D(delta) >= 0, and the sincs of an imaginary
    argument are sinh ratios, so no term cancels another.
    """
    p, q = z.real, z.imag
    sinc, defect = _sinc_defect(np.stack((2 * p, 2j * q, p, 1j * q)))
    r2 = p * p + q * q
    zero = r2 == 0
    r2 = np.where(zero, 1.0, r2)
    wp = np.where(zero, 1.0, p * p / r2)
    wq, wpq = q * q / r2, p * q / r2
    k_sig, k_dlt = sinc[2].real ** 2 / 2, sinc[3].real ** 2 / 2
    i_cc = (sinc[0].real + sinc[1].real) / 2
    i_ss = 2 * (wp * defect[0].real + wq * defect[1].real)
    i_cs = wp * k_sig + wq * k_dlt + 1j * wpq * (k_sig - k_dlt)
    return (np.abs(y0) ** 2 * i_cc + np.abs(slope) ** 2 * i_ss
            + 2 * (y0 * np.conj(slope) * i_cs).real)


def _prefix(mats: np.ndarray) -> np.ndarray:
    """mats[..., k] @ ... @ mats[..., 0] for every k, shape (2, 2, cells).

    An inclusive scan in log2(cells) passes: each pass multiplies every
    entry by the one d places before it, d doubling.  The matrix axes lead,
    as in _chain.
    """
    cur = mats
    d = 1
    while d < cur.shape[-1]:
        prod = _matmul(cur[..., d:], cur[..., :-d])
        cur = np.concatenate((cur[..., :d], prod), axis=-1)
        d *= 2
    return cur


def _n_sub(span, s_mag, step_scale):
    """Steps per span: phase advance s_mag h <= step_scale, h <= _H_MAX.

    With s_mag = 1 it gives the cells of a smooth piece, which are at most
    step_scale long whatever lambda; integrate_prufer passes |sqrt(lam)|.
    """
    need = np.maximum(span * max(1.0, s_mag) / step_scale, span / _H_MAX)
    return np.maximum(1, np.ceil(need - 1e-12)).astype(np.int64)


def _blowup(x) -> IntegrationBlowupError:
    return IntegrationBlowupError(f"non-finite state at x = {x}",
                                  location=float(x))


def _end_states(pe, lam, step_scale: float, init):
    """y1(pi), y2(pi) and sqrt(lam); for a 1-D batch two lists and an array.

    The characteristic's walk over the pieces of pe, keeping the state at
    the current break only.  A constant piece takes the exact step in
    scalar arithmetic (_const_advance), member by member; a smooth piece
    takes one product of its Magnus cells (_mesh, _magnus_matrices,
    _chain), formed for the whole batch at once and applied member by
    member (_apply).  A member of a batch is therefore the same lambda
    evaluated alone, bit for bit.  A state that overflows raises
    IntegrationBlowupError at the end of its piece, without a numpy
    warning.
    """
    batch = isinstance(lam, np.ndarray) and lam.ndim > 0
    lams = [complex(v) for v in lam.tolist()] if batch else [complex(lam)]
    roots = [_require_regular(v) for v in lams]
    if init is None:
        ys = [(0j, s) for s in roots]
    else:
        ys = [(complex(init[0]), complex(init[1]))] * len(roots)
    breaks = pe.breaks
    for i, const in enumerate(pe._constant_heights):
        b = breaks[i + 1]
        if const is not None:
            d = b - breaks[i]
            try:
                ys = [_const_advance(y, const, lc, s, d)
                      for y, lc, s in zip(ys, lams, roots)]
            except OverflowError:   # cmath's cos and sin past |Im(s d)| ~ 710
                raise _blowup(b)
        else:
            # the cells carry the classical pair (y, y') = (y1, y2 + u y)
            with np.errstate(over="ignore", invalid="ignore"):
                h, parts, _, u_a, u_b = _mesh(pe, i, step_scale)
                p = _chain(_magnus_matrices(*parts, h, lam))
            ends = [_apply(p[..., k] if batch else p, (y1, y2 + u_a * y1))
                    for k, (y1, y2) in enumerate(ys)]
            ys = [(e1, e2 - u_b * e1) for e1, e2 in ends]
        for y1, y2 in ys:
            if not (cmath.isfinite(y1) and cmath.isfinite(y2)):
                raise _blowup(b)
    if batch:
        return [y[0] for y in ys], [y[1] for y in ys], np.array(roots)
    return ys[0][0], ys[0][1], roots[0]


@np.errstate(over="ignore", invalid="ignore")
def _dense_states(pot: PotentialSpec, lam, nodes, *, step_scale, init=None,
                  norm=False):
    """(y1, y2) at every node of a sorted unique array in [0, pi], one lam.

    A constant piece propagates exactly (_const_advance).  A smooth piece
    is cut into the cells of a uniform mesh, at most step_scale long, that
    depends on neither lambda nor the nodes (_mesh); each cell propagates
    by the exponential of its 4th-order Magnus exponent
    (_magnus_matrices).  Where a piece holds no node before its end, its
    cells are multiplied pairwise in one product (_chain); a node inside a
    piece takes the state at the start of its cell (_prefix) and one
    partial Magnus step over the rest.  numpy's overflow and invalid
    warnings are off for the walk: a state that overflows is caught by the
    finiteness check at the end of its piece (IntegrationBlowupError), and
    an overflowing norm comes back non-finite for the caller to reject.

    With norm and nodes that end at pi, the result gains a third entry:
    the integral of |y1|^2 over [0, pi], summed in closed form over the
    cells of the walk (_cell_norms), each constant piece one cell.  Every
    smooth piece then takes the prefix states of its cells, so the states
    at the nodes do not depend on the other nodes.
    """
    s = _require_regular(lam)
    lamc = complex(lam)
    pe = pot.piecewise
    nodes = np.asarray(nodes, dtype=float)
    if norm and nodes[-1] != PI:
        raise ValueError("norm takes a last node at pi")
    cell_terms = []     # (y1 at the cell starts, slopes, z, lengths) per piece
    maxnode = float(nodes[-1])
    y1 = np.empty(len(nodes), dtype=complex)
    y2 = np.empty_like(y1)
    y = (0j, s) if init is None else (complex(init[0]), complex(init[1]))
    pos = 0
    while pos < len(nodes) and nodes[pos] <= 1e-15:
        y1[pos], y2[pos] = y
        pos += 1
    piece_ends = [min(b, maxnode) for b in pe.breaks[1:]]
    cuts = np.searchsorted(nodes, np.asarray(piece_ends) + 1e-15).tolist()
    for i, (a, b, end, j1, const) in enumerate(zip(
            pe.breaks, pe.breaks[1:], piece_ends, cuts, pe._constant_heights)):
        if pos >= len(nodes) or a >= maxnode - 1e-15:
            break
        # nodes[pos:k] lie inside the piece, nodes[k:j1] on its end
        k = j1 - 1 if j1 > pos and nodes[j1 - 1] == end else j1
        if const is not None:
            try:
                y_end = _const_advance(y, const, lamc, s, end - a)
            except OverflowError:   # cmath's cos and sin past |Im(s d)| ~ 710
                raise _blowup(end)
            if norm:
                d = end - a
                cell_terms.append(([y[0]], [d * (const * y[0] + y[1])],
                                   [s * d], [d]))
            if k > pos:
                y1[pos:k], y2[pos:k] = _const_advance(y, const, lamc, s,
                                                      nodes[pos:k] - a)
        else:
            # the cells carry the classical pair (y, y') = (y1, y2 + u y)
            h, parts, q, u_a, u_b = _mesh(pe, i, step_scale)
            cells = _magnus_matrices(*parts, h, lamc)
            yc = (y[0], y[1] + u_a * y[0])
            if k == pos and end == b and not norm:
                # only the end state is needed: one product of the cells
                e1, e2 = _apply(_chain(cells), yc)
                y_end = (e1, e2 - u_b * e1)
            else:
                if end < b:
                    k = j1      # the last node stops inside the piece
                # classical states at the cell starts and the end, then
                # one partial cell per node
                (p00, p01), (p10, p11) = _prefix(cells)
                c1 = np.concatenate(([yc[0]], p00 * yc[0] + p01 * yc[1]))
                c2 = np.concatenate(([yc[1]], p10 * yc[0] + p11 * yc[1]))
                if norm:
                    delta, gamma = parts
                    z = np.sqrt(-(delta * delta + h * (gamma - lamc * h)))
                    cell_terms.append((c1[:-1], delta * c1[:-1] + h * c2[:-1],
                                       z, np.full(len(z), h)))
                x = nodes[pos:k] - a
                cell = np.minimum(np.floor(x / h), len(p00) - 1)
                d = x - cell * h
                part = _magnus_matrices(*_magnus_parts(q, i, cell * h, d), d,
                                        lamc)
                # named operands: numpy multiplies a large temporary in
                # place (temporary elision), which rounds complex products
                # differently, and a node's state must not depend on how
                # many nodes there are
                cell = cell.astype(np.int64)
                g1, g2 = c1[cell], c2[cell]
                y1[pos:k] = part[0, 0] * g1 + part[0, 1] * g2
                y2[pos:k] = (part[1, 0] * g1 + part[1, 1] * g2
                             - pe._local(i, x) * y1[pos:k])
                y_end = (c1[-1], c2[-1] - u_b * c1[-1])
        y1[k:j1], y2[k:j1] = y_end
        y = y_end
        if not (cmath.isfinite(y[0]) and cmath.isfinite(y[1])):
            raise _blowup(end)
        pos = j1
    if not norm:
        return y1, y2
    y0, slope, z, length = (np.concatenate(c) for c in zip(*cell_terms))
    return y1, y2, float(np.sum(length * _cell_norms(y0, slope, z)))


def integrate_quasi_system(pot: PotentialSpec, lam, grid, *,
                           step_scale: float = _DEFAULT_STEP_SCALE,
                           init=None) -> QuasiTrajectory:
    """Trajectory of (y1, y2) = (y, y' - u y) from (0, sqrt(lam)) at x = 0.

    Constant pieces propagate with the exact matrix exponential (the free
    evolution conjugated by the u-shear); smooth pieces by 4th-order
    Magnus cells at most step_scale long, on a mesh that does not depend
    on lambda or on the grid.  The grid [pi] alone (the characteristic)
    takes the end-state walk of _end_states, and lam may then be a 1-D
    batch: y1 and y2 have shape (1, batch).  Any other grid takes one
    lambda and the node walk of _dense_states.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.shape == (1,) and grid[0] == PI:
        y1, y2, s = _end_states(pot.piecewise, lam, step_scale, init)
        return QuasiTrajectory(x=grid.copy(), y1=np.array([y1]),
                               y2=np.array([y2]), sqrt_lambda=s)
    if np.ndim(lam):
        raise ValueError("a batch of lambda is integrated to pi only")
    s = _require_regular(lam)
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be strictly increasing")
    if not (grid.size and grid[0] >= -1e-12 and grid[-1] <= PI + 1e-9):
        raise ValueError("grid must be a nonempty subset of [0, pi]")
    c = int(grid.searchsorted(0.0))     # the initial state is a node too
    nodes = grid if c < grid.size and grid[c] == 0.0 else np.concatenate(
        (grid[:c], [0.0], grid[c:]))
    y1n, y2n = _dense_states(pot, lam, nodes, step_scale=step_scale,
                             init=init)
    idx = np.searchsorted(nodes, grid)
    return QuasiTrajectory(x=grid.copy(), y1=y1n[idx], y2=y2n[idx], sqrt_lambda=s)


def characteristic(pot: PotentialSpec, lam, *,
                   step_scale: float = _DEFAULT_STEP_SCALE):
    """Delta(lam) = y2(pi) for the solution with (y1, y2)(0) = (0, sqrt(lam)).

    Zeros of Delta are exactly the eigenvalues of the Dirichlet/regularized
    Neumann problem.  Only the end state is formed (_end_states): one
    product of the Magnus cells of each smooth piece, the exact exponential
    of each constant piece.  A 1-D batch of lam gives an array, in one
    call, whose members equal the same lambdas evaluated alone.
    """
    traj = integrate_quasi_system(pot, lam, np.asarray([PI]),
                                  step_scale=step_scale)
    return _end_value(traj)


def _char_reduced(pot: PotentialSpec, lam, *, step_scale=_DEFAULT_STEP_SCALE):
    """The characteristic function for initial slope one instead of sqrt(lam).

    Same zeros, but real-valued for real potentials at every real lam
    including lam <= 0, which makes it the right object for sign brackets.
    A 1-D batch of lam gives an array, in one call.
    """
    traj = integrate_quasi_system(pot, lam, np.asarray([PI]),
                                  step_scale=step_scale, init=(0.0, 1.0))
    return _end_value(traj)


def _end_value(traj: QuasiTrajectory):
    """y2(pi) of a trajectory on [pi]: a complex, or an array over a batch."""
    end = traj.y2[0]
    return end if end.ndim else complex(end)


def integrate_prufer(pot: PotentialSpec, lam, grid) -> PruferTrajectory:
    """Phase and log-modulus trajectories with theta(0) = 0, log r(0) = 0.

    Integrates theta' = s + u^2 sin^2(theta)/s + u sin(2 theta) and
    (log r)' = -(u cos(2 theta) + u^2 sin(2 theta)/(2 s)) with fixed RK4
    steps, phase advance at most _PRUFER_STEP_SCALE per step; the
    log-modulus rather than r itself is integrated so complex lam cannot
    overflow.  The library does not call it (see _prufer_from_quasi).  It
    cannot integrate at real lam < 0, where the phase equation blows up.
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
        nsub = int(_n_sub(x1 - x0, abs(s), _PRUFER_STEP_SCALE))
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
    return PruferTrajectory(x=grid.copy(), theta=theta, log_r=log_r, sqrt_lambda=s)


def _prufer_from_quasi(traj: QuasiTrajectory) -> PruferTrajectory:
    """Phase and log-modulus of a trajectory from (0, sqrt(lam)) at x = 0.

    With y1 = r sin(theta) and y2 = sqrt(lam) r cos(theta), the numbers
    w+- = y2/sqrt(lam) +- i y1 equal r exp(+-i theta).  Their logarithms
    L+- = log|w+-| + i arg(w+-), the argument unwrapped along the grid
    from 0 at x = 0, give theta = (L+ - L-)/(2i) and
    log r = (L+ + L-)/2.  Where |w+-| is 0 or not finite, or one argument
    step exceeds pi/2, the substitution degenerates (the Prufer equations
    blow up there too) and IntegrationBlowupError names the first such
    node.  The grid must start at x = 0.
    """
    s = traj.sqrt_lambda
    w = np.stack((traj.y2 / s + 1j * traj.y1, traj.y2 / s - 1j * traj.y1))
    mod = np.abs(w)
    bad = ~(np.isfinite(mod) & (mod > 0)).all(axis=0)
    if not bad.any():
        arg = np.unwrap(np.angle(w), axis=1)
        bad[1:] = (np.abs(np.diff(arg, axis=1)) > PI / 2).any(axis=0)
    if bad.any():
        x = float(traj.x[bad.argmax()])
        raise IntegrationBlowupError(
            f"Prufer substitution degenerates at x = {x}", location=x)
    lp, lm = np.log(mod) + 1j * arg
    return PruferTrajectory(x=traj.x.copy(), theta=(lp - lm) / 2j,
                            log_r=(lp + lm) / 2, sqrt_lambda=s)


# -- eigenvalue location ------------------------------------------------------


def _band(theta: float, odd: bool) -> int:
    """k of the band [k pi, (k + 1) pi) of parity odd nearest to theta.

    floor(theta / pi) where theta lies well inside a band; at a multiple of
    pi, where rounding can put theta on either side, the parity of the
    computed state decides.
    """
    return odd + 2 * round((theta / PI - 0.5 - odd) / 2)


def _sturm_count(pot: PotentialSpec, lam) -> tuple[int, int]:
    """(interior zeros of y1, eigenvalues below lam) for real lam and u.

    Integrates from (y1, y2)(0) = (0, 1), which stays real for lam < 0, to
    the breaks and, inside smooth pieces only, to a grid of about 16 nodes
    per half-wave.  The Prufer angle theta of (y1, y') rises through every
    multiple of pi; a state lies in the band [k pi, (k + 1) pi) of parity
    "y1 < 0" (at a zero of y1, "y' < 0").  Inside a smooth piece a zero
    lies where the parity flips between nodes.  On a constant piece the
    count is closed form (piecewise-constant Prufer counting, Pryce 1993,
    SLEDGE): for lam = s^2 > 0, y1 = R sin(s t + phi) with
    phi = atan2(y1, y'/s) at the left end, so (a, b] holds
    floor((s d + phi)/pi) - floor(phi/pi) zeros, each floor taken at the
    parity of the computed state (_band) so that a zero on a break counts
    once; for lam <= 0 it holds at most one, where the parity flips.  An
    eigenvalue (y2(pi) = 0, angle pi/2 mod pi) lies below lam exactly once
    more when the end angle is past it, that is when y1(pi) and y2(pi)
    differ in sign (far below, their product overflows).
    """
    s = abs(principal_sqrt(lam))
    pe = pot.piecewise
    breaks = np.asarray(pot.breaks, dtype=float)
    heights = pe._constant_heights
    smooth = np.array([c is None for c in heights])
    if smooth.any():
        grid = np.linspace(0.0, PI, int(16 * (s + 2)) + 9)
        piece = np.minimum(np.searchsorted(breaks, grid, side="right") - 1,
                           len(heights) - 1)
        nodes = np.union1d(grid[smooth[piece]], breaks)
    else:
        nodes = breaks      # sorted and unique: what the union would give
    tr = integrate_quasi_system(pot, lam, nodes, step_scale=_COUNT_STEP_SCALE,
                                init=(0.0, 1.0))
    y1, y2 = tr.y1.real, tr.y2.real
    odd = np.where(y1 != 0, y1 < 0, y2 < 0)     # parity of each node's band
    flips = np.concatenate(([0], np.cumsum(odd[1:] != odd[:-1]))).tolist()
    y1, y2, odd = y1.tolist(), y2.tolist(), odd.tolist()
    at = np.searchsorted(nodes, breaks).tolist()
    zeros = 0
    for c, ja, jb, a, b in zip(heights, at, at[1:], pot.breaks, pot.breaks[1:]):
        if c is None or lam <= 0:
            zeros += flips[jb] - flips[ja]
            continue
        phi = math.atan2(y1[ja], (y2[ja] + c.real * y1[ja]) / s)
        zeros += _band(phi + s * (b - a), odd[jb]) - _band(phi, odd[ja])
    zeros -= int(y1[-1] == 0)       # a zero at pi is not interior
    return zeros, zeros + int(np.sign(y1[-1]) * np.sign(y2[-1]) < 0)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A statement-by-statement port of SciPy's C brentq
    (optimize/Zeros/brentq.c): its iterates, evaluations and result bits
    are those of SciPy's optimize.brentq with the same xtol, rtol and
    maxiter, which the test suite checks.  It stops when half the bracket
    is under (xtol + rtol |x|) / 2 or f(x) == 0; a zero value at an end
    returns that end.  Ends whose values have the same sign bit, and a NaN
    value, raise ValueError.  After maxiter iterations without convergence
    it raises NonconvergenceError whose ``best`` is the last iterate.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed den to inf or nan, and bisects
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NonconvergenceError(
        f"Brent's method did not converge in {maxiter} iterations", best=xcur)


def _count_walk(n: int, g, below, s0: float) -> float:
    """n-th root of g, located by below(lam), the eigenvalues under lam.

    The ends of the seed bracket s0 -+ 0.35 move in the signed root s
    (lam = s |s|), so bound states are reached like any other root: the
    lower end steps down while below reads n or more there, the upper end
    up while it reads less, by steps from 0.7 that double.  Bisection in s
    then leaves a cell whose counts n - 1 and n prove that it holds index
    n alone, and Brent finds the root there.  IndexingError: no such cell
    after _WALK_COUNTS counts.
    """
    budget = iter(range(_WALK_COUNTS))

    def count(s):
        if next(budget, None) is None:
            raise IndexingError(f"after {_WALK_COUNTS} counts the cell holds "
                                f"eigenvalues {n_lo + 1} to {n_hi}, not "
                                f"index {n} alone")
        return below(s * abs(s))

    lo, hi, step = s0 - 0.35, s0 + 0.35, 0.7
    n_lo = n_hi = count(lo)
    while n_lo >= n:
        hi, n_hi = lo, n_lo
        lo, step = lo - step, 2 * step
        n_lo = count(lo)
    if n_hi < n:
        n_hi = count(hi)
    while n_hi < n:
        lo, n_lo = hi, n_hi
        hi, step = hi + step, 2 * step
        n_hi = count(hi)
    while (n_lo, n_hi) != (n - 1, n):
        mid = 0.5 * (lo + hi)
        c = count(mid)
        if c >= n:
            hi, n_hi = mid, c
        else:
            lo, n_lo = mid, c
    lam_lo, lam_hi = lo * abs(lo), hi * abs(hi)
    try:
        return _brentq(g, lam_lo, lam_hi, xtol=1e-13, rtol=8.9e-16,
                       maxiter=200)
    except ValueError:
        raise NonconvergenceError(
            f"no sign change of the secular function on [{lam_lo:.6g}, "
            f"{lam_hi:.6g}], where the count puts index {n}", best=None)


def solve_eigenvalue(pot: PotentialSpec, n: int, seed=None, *,
                     domain: SpectralDomain | None = None,
                     tol_root: float = 1e-12) -> SecularResult:
    """Locate the n-th eigenvalue starting from the asymptotic seed.

    Real potentials: one Brent call on the seed bracket sqrt(lam) =
    s0 -+ 0.35 of the reduced secular function ("bracket").  The count of
    interior zeros of y1 from (0, 1) at that root decides: n - 1 zeros
    accept it.  A bracket whose ends share a sign, or a root with another
    count, goes to the "scan" route: the count walk of _count_walk from the
    same bracket, whose Sturm counts n - 1 and n at the ends of its cell
    prove the index.  ``iterations`` counts the secular-function
    evaluations and Sturm counts of the search, not the zero count at the
    bracket root.  Every characteristic evaluation runs at the default
    step scale _DEFAULT_STEP_SCALE.

    Complex potentials: damped secant iteration in the sqrt(lam) variable
    seeded at the asymptotic prediction, steps clamped to 0.25 and iterates
    clamped to the parabolic domain; verified by an argument-principle
    winding count over 16 points of a small circle, evaluated as one batch
    (_winding).  The contour runs on the count mesh (_COUNT_STEP_SCALE),
    like the Sturm count: its only output is an integer, and by Rouche's
    theorem the coarser mesh counts as many zeros inside the circle
    whenever it moves F by less than |F| on the circle (it moved F by at
    most 2e-6 of min |F| on the test, benchmark and random complex trig
    and poly potentials, and no count changed).  The secant, its
    start derivative and the residual stay on the default mesh, so the
    root does not depend on the contour's mesh.  ``iterations`` counts
    every lambda evaluated, the 16 contour points included.

    Without a seed the call builds its own m^2 profile for the prediction;
    for many indices use ``solve_spectrum``, which batches 32 at a time.
    """
    domain = domain or SpectralDomain()
    point = seed if seed is not None else asymptotics.eigenvalue_asym(pot, n)
    s0 = complex(point.sqrt_lambda_asym)
    calls = [0]

    if pot.is_real and abs(s0.imag) < 1e-9:
        def counted(f):
            def at(lam):            # lam = 0 is singular for the propagator
                calls[0] += 1
                return f(1e-24 if lam == 0.0 else lam)
            return at
        g = counted(lambda lam: float(_char_reduced(pot, lam).real))
        below = counted(lambda lam: _sturm_count(pot, lam)[1])
        s0r = s0.real
        lo_s, hi_s = s0r - 0.35, s0r + 0.35
        how = "bracket"
        try:
            root = _brentq(g, lo_s * abs(lo_s), hi_s * abs(hi_s), xtol=1e-13,
                           rtol=8.9e-16, maxiter=200)
        except ValueError:      # the seed bracket does not change sign
            root = None
        if root is None or _sturm_count(pot, root)[0] != n - 1:
            root = _count_walk(n, g, below, s0r)
            how = "scan"
        lam_root = float(root)
        s_root = principal_sqrt(lam_root)
        residual = abs(characteristic(pot, lam_root))
        return SecularResult(n=n, lam=lam_root, sqrt_lambda=s_root,
                             residual=float(residual), multiplicity_hint=1,
                             iterations=calls[0], method=how)

    # complex potential: damped secant in the sqrt(lam) plane
    def F(s, step_scale=_DEFAULT_STEP_SCALE):
        calls[0] += np.size(s)
        return _char_reduced(pot, s * s, step_scale=step_scale)

    def clamp(s):
        im = min(max(s.imag, -domain.alpha + 1e-9), domain.alpha - 1e-9)
        return complex(s.real, im)

    s_cur = clamp(s0)
    f_cur = F(s_cur)
    fd = 1e-6 * max(1.0, abs(s_cur))
    deriv = (F(s_cur + fd) - F(s_cur - fd)) / (2 * fd)
    best = (abs(f_cur), s_cur)
    converged = False
    for _ in range(_MAX_SECANT_ITER):
        if deriv == 0:
            break
        step = -f_cur / deriv
        if abs(step) > 0.25:
            step *= 0.25 / abs(step)
        s_new = clamp(s_cur + step)
        f_new = F(s_new)
        if abs(f_new) < best[0]:
            best = (abs(f_new), s_new)
        done = abs(s_new - s_cur) <= tol_root * max(1.0, abs(s_new))
        if f_new != f_cur and s_new != s_cur:
            deriv = (f_new - f_cur) / (s_new - s_cur)
        s_cur, f_cur = s_new, f_new
        if done:
            converged = True
            break
    if not converged:
        raise NonconvergenceError(
            f"no convergence for index {n} within {_MAX_SECANT_ITER} iterations",
            best=best[1] ** 2, residual=best[0])
    s_root = s_cur
    lam_root = s_root * s_root
    residual = abs(s_root * f_cur)
    if abs(s_root - s0) > 0.5:
        raise IndexingError(
            f"converged sqrt(lambda) {s_root:.6g} drifted from seed {s0:.6g}")
    mult = _winding(functools.partial(F, step_scale=_COUNT_STEP_SCALE), s_root)
    if mult < 1:
        raise IndexingError(
            f"argument-principle count {mult} around lambda = {lam_root:.6g}")
    return SecularResult(n=n, lam=complex(lam_root), sqrt_lambda=complex(s_root),
                         residual=float(residual), multiplicity_hint=int(mult),
                         iterations=calls[0], method="secant")


def _winding(F, center: complex) -> int:
    """Zero count of F inside a circle via a trapezoid winding number.

    The circle has radius _WINDING_RADIUS around center.  F takes the whole
    contour at once: its _WINDING_POINTS distinct points go to the kernel
    as one batch, and the phase is closed by the first value again.
    solve_eigenvalue hands it the characteristic on the count mesh
    (_COUNT_STEP_SCALE), a fifth of the cells of the default mesh on a
    smooth piece: only the integer is read, and by Rouche's theorem it is
    the count of the finer mesh's F whenever the two differ by less than
    |F| on the circle.
    """
    ring = np.exp(2j * PI * np.arange(_WINDING_POINTS) / _WINDING_POINTS)
    vals = np.asarray(F(center + _WINDING_RADIUS * ring))
    if np.any(vals == 0):
        return 1
    phases = np.unwrap(np.angle(np.append(vals, vals[0])))
    return int(round((phases[-1] - phases[0]) / (2 * PI)))


def _flag_shared_roots(points) -> list:
    """Flag the solved points that share a root; return them.

    Two indices whose sqrt(lam) agree to _SHARED_ROOT_RTOL have converged to
    one root; both lose it (root and residual cleared) and are flagged.
    """
    solved = [p for p in points if p.sqrt_lambda_numeric is not None]
    roots = np.array([complex(p.sqrt_lambda_numeric) for p in solved])
    mag = np.maximum(1.0, np.abs(roots))
    close = (np.abs(roots[:, None] - roots[None, :])
             <= _SHARED_ROOT_RTOL * np.maximum(mag[:, None], mag[None, :]))
    np.fill_diagonal(close, False)
    flagged = []
    for p, row in zip(solved, close):
        if row.any():
            p.flag = f"degraded: shared root with index {solved[row.argmax()].n}"
            p.sqrt_lambda_numeric = p.residual = None
            flagged.append(p)
    return flagged


def _pmap_chunks(fn, items: list, jobs: int, *args) -> list:
    """fn(chunk, *args) over strided chunks of items, results in item order.

    fn returns one result per item of its chunk, in chunk order.  With
    jobs > 1 and at least 4 items, chunk i holds items i, i + jobs, ... and
    the chunks run in a process pool; a pool that cannot start falls back
    to one call in this process, which is also the jobs == 1 path.
    Per-item determinism makes the result independent of jobs.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) < 4:
        return fn(items, *args)
    chunks = [c for c in (items[i::jobs] for i in range(jobs)) if c]
    try:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(fn, chunk, *args) for chunk in chunks]
            parts = [f.result() for f in futures]
    except (OSError, RuntimeError):
        return fn(items, *args)
    merged = [None] * len(items)
    for i, part in enumerate(parts):
        merged[i::jobs] = part
    return merged


def _spectrum_chunk(ns, pot: PotentialSpec, kwargs: dict) -> list:
    points = asymptotics._predictions(pot, ns)
    for point in points:
        try:
            res = solve_eigenvalue(pot, point.n, seed=point, **kwargs)
            point.sqrt_lambda_numeric = res.sqrt_lambda
            point.residual = res.residual
        except INDEX_FAILURES as exc:
            point.flag = f"degraded: {exc}"
    return points


def solve_spectrum(pot: PotentialSpec, n_values, *, jobs: int = 1,
                   **kwargs) -> list:
    """solve_eigenvalue over a range, collecting failures as flagged points.

    jobs > 1 solves strided chunks of the indices in worker processes
    (_pmap_chunks); the points are the same for any jobs.  Indices that
    converged to one shared root are flagged as well, once, over the
    merged list, so a pair split across chunks is found.
    """
    points = _pmap_chunks(_spectrum_chunk, list(n_values), jobs, pot, kwargs)
    _flag_shared_roots(points)
    return points


# -- numeric eigenfunctions ---------------------------------------------------


def _unit_trajectory(pot: PotentialSpec, lam, grid) -> np.ndarray:
    """y1 at each grid point (any order, repeats allowed), unit L2 norm.

    The states are taken at the distinct grid points and pi only; the norm
    integrates |y1|^2 over [0, pi] in closed form cell by cell during the
    same walk (_dense_states with norm).
    """
    if grid.max() > PI:
        raise DomainError("eigenfunction grid reaches past pi")
    nodes, back = np.unique(np.append(grid, PI), return_inverse=True)
    y1n, _, nrm2 = _dense_states(pot, lam, nodes,
                                 step_scale=_DEFAULT_STEP_SCALE, norm=True)
    if not math.isfinite(nrm2):
        raise IntegrationBlowupError("|y1|^2 overflows on [0, pi]",
                                     location=PI)
    if not nrm2 > 0:
        raise InternalError("zero-norm trajectory cannot be an eigenfunction")
    return y1n[back[:-1]] / math.sqrt(nrm2)


def eigenfunction_numeric(pot: PotentialSpec, lam, grid, *,
                          align_to: asymptotics.EigenfunctionTable | None = None):
    """Normalized y1 trajectory at a converged eigenvalue.

    The trajectory runs on Magnus cells of the default length
    _DEFAULT_STEP_SCALE, as in the root search, and is evaluated at the
    grid only.  On each constant piece and each Magnus cell the computed
    y1 is a cos + b sin, and |y1|^2 is integrated in closed form
    (_unit_trajectory), so tables on different grids share one
    normalization.  It is exact on constant pieces; inside a Magnus cell
    exp(tau Omega) differs from the partial steps that give the node
    states by the cell's local error, about 1e-10 of the norm at n = 200
    on the test suite's quadratic.  When the caller passes a table on the
    same grid as align_to, the sign (unimodular phase in the complex case)
    is aligned to it and the result takes its index; this module never
    builds such a table itself.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if align_to is not None and not np.array_equal(align_to.grid, grid):
        raise ValueError("align_to table lives on a different grid")
    vals = _unit_trajectory(pot, lam, grid)
    note = "unit L2 norm (closed form per cell)"
    if align_to is not None:
        z = complex(np.sum(align_to.values * np.conj(vals)))
        if abs(z) > 0:
            phase = z / abs(z)
            if pot.is_real and abs(phase.imag) < 1e-6:
                phase = math.copysign(1.0, phase.real)
            vals = vals * phase
        note += f"; aligned to {align_to.kind} table"
    return asymptotics.EigenfunctionTable(
        index=align_to.index if align_to is not None else 0, grid=grid,
        values=vals, kind="oracle", normalization=note)
