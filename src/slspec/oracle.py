"""Independent ground truth for the spectral problem.

Nothing in this module evaluates the asymptotic expansions except for root
seeds; eigenfunction phases are aligned to a table the caller supplies.
Two routes are provided and cross-checked against each other in the test
suite:

* one propagator for the first-order quasi-derivative system in
  (y, y' - u y): the exact constant-coefficient exponential inside constant
  pieces and 4th-order Magnus cells inside smooth ones.  The pair stays
  continuous across the point interactions of q = u' (the jumps of a step
  u), so piecewise-constant u is solved exactly with no jump rule;
* the phase/log-modulus equations obtained from the modified Prufer
  substitution y = r sin(theta), y' - u y = sqrt(lam) r cos(theta).

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
as lambda grows.  The characteristic needs only the end state: the cell
matrices of each smooth piece are multiplied pairwise and the product is
applied once, for a scalar or a 1-D batch of lambda (the
argument-principle check evaluates its 16-point contour that way).  States
at nodes inside a piece (eigenfunctions, Sturm counts) come from a prefix
scan of the cells and one partial Magnus step per node.

force_rk4 swaps every piece, constant ones too, for fixed-step classical
RK4 on the quasi system with phase advance at most step_scale per step,
the independent route the test suite checks the cells against.
Deterministic meshes and steps keep cross-method and step-halving
comparisons exact.
"""

from __future__ import annotations

import cmath
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from . import asymptotics, moments
from .errors import (DomainError, IndexingError, IntegrationBlowupError,
                     InternalError, NonconvergenceError)
from .oscillatory import SpectralDomain, _require_regular, principal_sqrt
from .potential import PI, PotentialSpec

_DEFAULT_STEP_SCALE = 0.004     # Magnus cell length; RK4 phase advance per step
_PRUFER_STEP_SCALE = 0.02
_H_MAX = 0.05                   # longest step whatever the phase advance
_MAX_SECANT_ITER = 80
_SHARED_ROOT_RTOL = 1e-6        # sqrt(lam) of two indices this close: one root
_WINDING_RADIUS = 0.2           # circle around a complex root, sqrt(lam) plane
_WINDING_POINTS = 16
_GAUSS_LO = 0.5 - math.sqrt(3) / 6     # Gauss points of a cell, as fractions
_GAUSS_HI = 0.5 + math.sqrt(3) / 6
_MAGNUS_C = math.sqrt(3) / 12           # weight of the Magnus commutator term


@dataclass(frozen=True)
class QuasiDerivState:
    y1: complex
    y2: complex

    @property
    def trivial(self) -> bool:
        return self.y1 == 0 and self.y2 == 0


@dataclass(frozen=True)
class PruferState:
    theta: complex
    log_r: complex


@dataclass
class QuasiTrajectory:
    x: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    sqrt_lambda: complex

    def state(self, i: int) -> QuasiDerivState:
        return QuasiDerivState(complex(self.y1[i]), complex(self.y2[i]))


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

    def state(self, i: int) -> PruferState:
        return PruferState(complex(self.theta[i]), complex(self.log_r[i]))


@dataclass
class SecularResult:
    n: int
    lam: complex
    sqrt_lambda: complex
    residual: float
    multiplicity_hint: int
    iterations: int
    method: str


def _piece_constant(pe: moments.PiecewiseExp, i: int):
    """Height of piece i if it is a constant, else None."""
    atoms = pe.pieces[i]
    if len(atoms) == 0:
        return 0j
    if len(atoms) == 1 and atoms[0][0] == 0 and len(atoms[0][1]) == 1:
        return complex(atoms[0][1][0])
    return None


def _cos_sinc(s, d):
    """cos(s d) and sin(s d)/s, the latter stable for small |s d|.

    A scalar s with a float d (the end state of a piece) takes scalar cmath
    arithmetic; an array d (the nodes inside a piece) or an array s (a
    batch of lambda) takes numpy.
    """
    if isinstance(d, float) and not isinstance(s, np.ndarray):
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
    lamc and s are scalars or arrays over a batch of lambda.
    """
    cd, sd = _cos_sinc(s, d)
    y1 = cd * y[0] + sd * (const * y[0] + y[1])
    y2 = sd * ((-lamc - const * const) * y[0] - const * y[1]) + cd * y[1]
    return y1, y2


def _rk4_matrices(u0, um, u1, lam, h):
    """Batched RK4 one-step propagators for Y' = A(x) Y.

    A(u) = [[u, 1], [-lam - u^2, -u]].  u0, um, u1 (u at the left end, the
    middle and the right end of each step) have one entry per step and h
    one per step or one for all.  lam is a scalar or a 1-D batch: the
    result has shape (2, 2) + lam.shape + (steps,).  The 2x2 products are
    written out component by component.
    """
    lam = np.asarray(lam, dtype=complex)[..., None]
    h = np.asarray(h, dtype=float)
    h2 = h / 2

    def times_a(u, x):
        # A(u) @ X with the first row of A equal to (u, 1)
        c = -lam - u * u
        return (u * x[0] + x[2], u * x[1] + x[3],
                c * x[0] - u * x[2], c * x[1] - u * x[3])

    c0 = -lam - u0 * u0
    k2 = times_a(um, (1.0 + h2 * u0, h2, h2 * c0, 1.0 - h2 * u0))
    k3 = times_a(um, (1.0 + h2 * k2[0], h2 * k2[1], h2 * k2[2], 1.0 + h2 * k2[3]))
    k4 = times_a(u1, (1.0 + h * k3[0], h * k3[1], h * k3[2], 1.0 + h * k3[3]))
    h6 = h / 6
    out = np.empty((2, 2) + lam.shape[:-1] + (len(u0),), dtype=complex)
    out[0, 0] = 1.0 + h6 * (u0 + 2 * k2[0] + 2 * k3[0] + k4[0])
    out[0, 1] = h6 * (1.0 + 2 * k2[1] + 2 * k3[1] + k4[1])
    out[1, 0] = h6 * (c0 + 2 * k2[2] + 2 * k3[2] + k4[2])
    out[1, 1] = 1.0 + h6 * (-u0 + 2 * k2[3] + 2 * k3[3] + k4[3])
    return out


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
    """p @ y for a product matrix p, (2, 2) or (2, 2, batch).

    Applied in scalar complex arithmetic, one lambda at a time: numpy's
    array products of complex numbers can fuse multiply and add (SIMD loops
    on FMA hardware) where its scalar products do not, and the scalar form
    keeps a member of a batch equal to the same lambda evaluated alone.
    """
    if p.ndim == 2:
        (p00, p01), (p10, p11) = p.tolist()
        return p00 * y[0] + p01 * y[1], p10 * y[0] + p11 * y[1]
    n = p.shape[-1]
    rows = zip(*(x.tolist() for x in p.reshape(4, n)),
               np.broadcast_to(y[0], n).tolist(),
               np.broadcast_to(y[1], n).tolist())
    out = np.array([(p00 * a + p01 * b, p10 * a + p11 * b)
                    for p00, p01, p10, p11, a, b in rows])
    return out[:, 0], out[:, 1]


def _magnus_parts(q_atoms, lefts, h):
    """The lambda-free parts (delta, gamma) of each cell's Magnus exponent.

    Inside a smooth piece q = u' is an ordinary function and the classical
    pair (y, y') solves Y' = A(q) Y with A(q) = [[0, 1], [q - lam, 0]].
    Cell k is [lefts[k], lefts[k] + h] (h a scalar or one per cell) in the
    local coordinate of the piece, q_atoms are the atoms of q, and q is
    sampled at the two Gauss points of the cell, q1 and q2.  The 4th-order
    exponent Omega = h/2 (A(q1) + A(q2)) + (sqrt(3)/12) h^2 [A(q2), A(q1)]
    has [A(q2), A(q1)] = (q1 - q2) diag(1, -1), free of lambda, so
    Omega = [[delta, h], [gamma - lam h, -delta]].
    """
    q1 = moments._eval_atoms(q_atoms, lefts + _GAUSS_LO * h)
    q2 = moments._eval_atoms(q_atoms, lefts + _GAUSS_HI * h)
    return _MAGNUS_C * h * h * (q1 - q2), (h / 2) * (q1 + q2)


@functools.lru_cache(maxsize=64)
def _mesh(atoms, span: float, step_scale: float):
    """The lambda-free data of the uniform cell mesh of one smooth piece.

    Returns (h, parts, q_atoms, u_a, u_b): the cell length (at most
    step_scale and _H_MAX), the Magnus parts of every cell, the atoms of
    q = u' and u at both ends of the piece.  The mesh depends on neither
    lambda nor the nodes, so it is built once per piece and step scale;
    its arrays are read-only because callers share them.
    """
    ncell = int(_n_sub(span, 1.0, step_scale))
    h = span / ncell
    q_atoms = moments._derivative_atoms(atoms)
    parts = _magnus_parts(q_atoms, h * np.arange(ncell), h)
    for p in parts:
        p.setflags(write=False)
    u_a, u_b = moments._eval_atoms(atoms, np.array([0.0, span])).tolist()
    return h, parts, q_atoms, u_a, u_b


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
    """RK4 steps per span (scalar or array): phase advance and length capped.

    With s_mag = 1 it gives the cells of a smooth piece, which are at most
    step_scale long whatever lambda.
    """
    need = np.maximum(span * max(1.0, s_mag) / step_scale, span / _H_MAX)
    return np.maximum(1, np.ceil(need - 1e-12)).astype(np.int64)


def _regular_root(lam):
    """sqrt(lam) away from 0, of a scalar or of each member of a 1-D array."""
    if isinstance(lam, np.ndarray) and lam.ndim:
        return np.array([_require_regular(v) for v in lam])
    return _require_regular(lam)


def _dense_states(pot: PotentialSpec, lam, nodes, *, step_scale,
                  force_rk4=False, init=None, norm=False):
    """(y1, y2) at every node of a sorted unique array in [0, pi].

    lam is a scalar or a 1-D batch.  A batch gives arrays of shape
    (nodes, batch) and takes states only at 0, at piece ends and at the
    last node.  A constant piece propagates exactly (_const_advance).  A
    smooth piece is cut into the cells of a uniform mesh, at most
    step_scale long, that depends on neither lambda nor the nodes (_mesh);
    each cell propagates by the exponential of its 4th-order Magnus
    exponent (_magnus_matrices).  Where only the end state of a piece is
    needed, its cells are multiplied pairwise in one product (_chain); a
    node inside a piece takes the state at the start of its cell (_prefix)
    and one partial Magnus step over the rest.

    With force_rk4 every piece, constant ones too, is stepped by RK4
    instead: each piece cuts one step table for the largest |sqrt(lam)| of
    the batch, so every member advances at most step_scale in phase per
    step; a piece with no stop inside multiplies its step matrices
    pairwise, one with stops inside runs the step recurrence and records
    the states at the stops.

    With norm, a scalar lambda and nodes that end at pi, the result gains a
    third entry: the integral of |y1|^2 over [0, pi], summed in closed form
    over the cells of the walk (_cell_norms), each constant piece one cell.
    Every smooth piece then takes the prefix states of its cells, so the
    states at the nodes do not depend on the other nodes.
    """
    s = _regular_root(lam)
    batch = isinstance(s, np.ndarray)
    lamc = np.asarray(lam, dtype=complex) if batch else complex(lam)
    pe = pot.piecewise
    nodes = np.asarray(nodes, dtype=float)
    if norm and (batch or force_rk4 or nodes[-1] != PI):
        raise ValueError("norm takes one lambda, no force_rk4 and a last "
                         "node at pi")
    cell_terms = []     # (y1 at the cell starts, slopes, z, lengths) per piece
    maxnode = float(nodes[-1])
    if batch and not np.isin(nodes[nodes > 1e-15], pe.breaks + (maxnode,)).all():
        raise ValueError("a batch of lambda is integrated to piece ends only")
    y1 = np.empty((len(nodes),) + (s.shape if batch else ()), dtype=complex)
    y2 = np.empty_like(y1)
    y = (0j, s) if init is None else (complex(init[0]), complex(init[1]))
    pos = 0
    while pos < len(nodes) and nodes[pos] <= 1e-15:
        y1[pos], y2[pos] = y
        pos += 1
    piece_ends = [min(b, maxnode) for b in pe.breaks[1:]]
    cuts = np.searchsorted(nodes, np.asarray(piece_ends) + 1e-15).tolist()
    for i, (a, b, end, j1) in enumerate(zip(pe.breaks, pe.breaks[1:],
                                            piece_ends, cuts)):
        if pos >= len(nodes) or a >= maxnode - 1e-15:
            break
        # nodes[pos:k] lie inside the piece, nodes[k:j1] on its end
        k = j1 - 1 if j1 > pos and nodes[j1 - 1] == end else j1
        const = None if force_rk4 else _piece_constant(pe, i)
        magnus = const is None and not force_rk4
        if magnus:
            # the cells carry the classical pair (y, y') = (y1, y2 + u y)
            h, parts, q_atoms, u_a, u_b = _mesh(pe.pieces[i], b - a,
                                                step_scale)
            cells = _magnus_matrices(*parts, h, lamc)
            yc = (y[0], y[1] + u_a * y[0])
        if magnus and k == pos and end == b and not norm:
            # only the end state is needed: one product of the cells
            e1, e2 = _apply(_chain(cells), yc)
            y_end = (e1, e2 - u_b * e1)
        elif const is not None:
            y_end = _const_advance(y, const, lamc, s, end - a)
            if norm:
                d = end - a
                cell_terms.append(([y[0]], [d * (const * y[0] + y[1])],
                                   [s * d], [d]))
            if k > pos:
                y1[pos:k], y2[pos:k] = _const_advance(y, const, lamc, s,
                                                      nodes[pos:k] - a)
        elif magnus:
            if end < b:
                k = j1          # the last node stops inside the piece
            # classical states at the cell starts and the end, then one
            # partial cell per node
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
            part = _magnus_matrices(*_magnus_parts(q_atoms, cell * h, d), d,
                                    lamc)
            # named operands: numpy multiplies a large temporary in place
            # (temporary elision), which rounds complex products
            # differently, and a node's state must not depend on how many
            # nodes there are
            cell = cell.astype(np.int64)
            g1, g2 = c1[cell], c2[cell]
            y1[pos:k] = part[0, 0] * g1 + part[0, 1] * g2
            y2[pos:k] = (part[1, 0] * g1 + part[1, 1] * g2
                         - moments._eval_atoms(pe.pieces[i], x) * y1[pos:k])
            y_end = (c1[-1], c2[-1] - u_b * c1[-1])
        else:
            # RK4 step table: each gap between stops is cut into nsub equal
            # steps; the states at the recorded stops are kept
            s_mag = float(np.abs(s).max()) if batch else abs(s)
            sel = nodes[pos:j1]
            stops = sel
            if not len(sel) or end - sel[-1] > 1e-15:
                stops = np.append(sel, end)
            prevs = np.concatenate(([a], stops[:-1]))
            spans = stops - prevs
            nsub = _n_sub(spans, s_mag, step_scale)
            h = spans / nsub
            ends = np.cumsum(nsub)
            local_k = np.arange(ends[-1]) - np.repeat(ends - nsub, nsub)
            hs = np.repeat(h, nsub)
            lefts = np.repeat(prevs, nsub) + hs * local_k
            mats = _rk4_matrices(
                moments._eval_atoms(pe.pieces[i], lefts - a),
                moments._eval_atoms(pe.pieces[i], lefts + hs / 2 - a),
                moments._eval_atoms(pe.pieces[i], lefts + hs - a), lamc, hs)
            if len(stops) == 1:
                y_end = _apply(_chain(mats), y)
                k = pos
            else:
                flat = mats.reshape(4, -1).T.tolist()
                marks = iter((ends[:len(sel)] - 1).tolist() + [-1])
                mark, n = next(marks), pos
                a1, a2 = y
                for j, (m00, m01, m10, m11) in enumerate(flat):
                    a1, a2 = m00 * a1 + m01 * a2, m10 * a1 + m11 * a2
                    if j == mark:
                        y1[n], y2[n] = a1, a2
                        mark, n = next(marks), n + 1
                y_end = (a1, a2)
        y1[k:j1], y2[k:j1] = y_end
        y = y_end
        if not (np.isfinite(y).all() if batch
                else cmath.isfinite(y[0]) and cmath.isfinite(y[1])):
            raise IntegrationBlowupError(f"non-finite state at x = {end}",
                                         location=float(end))
        pos = j1
    if not norm:
        return y1, y2
    y0, slope, z, length = (np.concatenate(c) for c in zip(*cell_terms))
    return y1, y2, float(np.sum(length * _cell_norms(y0, slope, z)))


def integrate_quasi_system(pot: PotentialSpec, lam, grid, *,
                           step_scale: float = _DEFAULT_STEP_SCALE,
                           force_rk4: bool = False,
                           init=None) -> QuasiTrajectory:
    """Trajectory of (y1, y2) = (y, y' - u y) from (0, sqrt(lam)) at x = 0.

    Constant pieces propagate with the exact matrix exponential (the free
    evolution conjugated by the u-shear); smooth pieces by 4th-order
    Magnus cells at most step_scale long, on a mesh that does not depend
    on lambda or on the grid.  force_rk4 steps every piece by fixed-step
    RK4 with phase advance <= step_scale per step instead.  lam may be a
    1-D batch when the grid holds only piece ends (the characteristic's
    [pi]); y1 and y2 then have shape (grid, batch).
    """
    s = _regular_root(lam)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be strictly increasing")
    if not (grid.size and grid[0] >= -1e-12 and grid[-1] <= PI + 1e-9):
        raise ValueError("grid must be a nonempty subset of [0, pi]")
    c = int(grid.searchsorted(0.0))     # the initial state is a node too
    nodes = grid if c < grid.size and grid[c] == 0.0 else np.concatenate(
        (grid[:c], [0.0], grid[c:]))
    y1n, y2n = _dense_states(pot, lam, nodes, step_scale=step_scale,
                             force_rk4=force_rk4, init=init)
    idx = np.searchsorted(nodes, grid)
    return QuasiTrajectory(x=grid.copy(), y1=y1n[idx], y2=y2n[idx], sqrt_lambda=s)


def characteristic(pot: PotentialSpec, lam, *,
                   step_scale: float = _DEFAULT_STEP_SCALE,
                   force_rk4: bool = False):
    """Delta(lam) = y2(pi) for the solution with (y1, y2)(0) = (0, sqrt(lam)).

    Zeros of Delta are exactly the eigenvalues of the Dirichlet/regularized
    Neumann problem.  Only the end state is formed: one product of the
    Magnus cells of each smooth piece, the exact
    exponential of each constant piece (the RK4 steps under force_rk4).  A
    1-D batch of lam gives an array, in one call.
    """
    traj = integrate_quasi_system(pot, lam, np.asarray([PI]),
                                  step_scale=step_scale, force_rk4=force_rk4)
    return _end_value(traj)


def _char_reduced(pot: PotentialSpec, lam, *, step_scale=_DEFAULT_STEP_SCALE,
                  force_rk4=False):
    """The characteristic function for initial slope one instead of sqrt(lam).

    Same zeros, but real-valued for real potentials at every real lam
    including lam <= 0, which makes it the right object for sign brackets.
    A 1-D batch of lam gives an array, in one call.
    """
    traj = integrate_quasi_system(pot, lam, np.asarray([PI]),
                                  step_scale=step_scale, force_rk4=force_rk4,
                                  init=(0.0, 1.0))
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
    overflow.
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
    rec = {0.0: (0j, 0j)}

    def rhs(u, theta):
        u2 = u * u
        c2 = cmath.cos(2 * theta)
        s2 = cmath.sin(2 * theta)
        return (sc + (u2 / sc) * (1 - c2) / 2 + u * s2,
                -(u * c2 + (u2 / (2 * sc)) * s2))

    for x0, x1 in zip(nodes, nodes[1:]):
        i = int(pe._piece_index(0.5 * (x0 + x1)))
        nsub = int(_n_sub(x1 - x0, abs(s), _PRUFER_STEP_SCALE))
        h = (x1 - x0) / nsub
        offs = (x0 - pe.breaks[i]) + (h / 2) * np.arange(2 * nsub + 1)
        uu = list(moments._eval_atoms(pe.pieces[i], offs))
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


# -- eigenvalue location ------------------------------------------------------


def _sturm_count(pot: PotentialSpec, lam, *,
                 step_scale=_DEFAULT_STEP_SCALE) -> tuple[int, int]:
    """(interior zeros of y1, eigenvalues below lam) for real lam and u.

    Integrates from (y1, y2)(0) = (0, 1), which stays real for lam < 0.  The
    Prufer angle of (y1, y2) rises through every multiple of pi, so the
    sign changes of y1 on a grid of about 16 nodes per half-wave count its
    interior zeros; an eigenvalue (y2(pi) = 0, angle pi/2 mod pi) lies
    below lam exactly once more when the end angle is past it, that is when
    y1(pi) y2(pi) < 0.
    """
    s = abs(principal_sqrt(lam))
    grid = np.union1d(np.linspace(0.0, PI, int(16 * (s + 2)) + 9),
                      np.asarray(pot.breaks))
    tr = integrate_quasi_system(pot, lam, grid, step_scale=max(step_scale, 0.02),
                                init=(0.0, 1.0))
    vals = tr.y1.real[1:]
    signs = np.sign(vals[vals != 0])
    zeros = int(np.count_nonzero(signs[1:] * signs[:-1] < 0))
    return zeros, zeros + int(tr.y1[-1].real * tr.y2[-1].real < 0)


def _verified_floor(below, lam_lo: float) -> float:
    """lam_lo, doubled until below(lam_lo) == 0 shows nothing lies under it."""
    for _ in range(16):
        if below(lam_lo) == 0:
            return lam_lo
        lam_lo *= 2.0
    raise NonconvergenceError(
        f"eigenvalues remain below lambda = {lam_lo / 2:.4g}", best=None)


def _scan_real_root(pot: PotentialSpec, n: int, g, below, s_seed: float) -> float:
    """n-th root of the reduced secular function counted from the bottom.

    Fallback for low indices where the asymptotic seed is useless.  The
    lambda grid runs from below the spectrum (Robin-type bound states
    included: a crude sup|u| bound, doubled until below() reports no
    eigenvalue under it) to safely above the expected n-th root.  Bisection
    over grid indices on below(lam), the number of eigenvalues under lam,
    finds the first grid cell that holds the n-th one; Brent then refines
    the sign change of g on that cell, the cell a linear scan of g over the
    grid would stop in.
    """
    sup_u = float(np.abs(pot.eval_u(np.linspace(0.0, PI, 513))).max())
    lam_lo = _verified_floor(below, -4.0 * (1.0 + sup_u) ** 2)
    lam_hi = max((abs(s_seed) + 1.5) ** 2, (n + 1.0) ** 2)
    neg = np.linspace(lam_lo, 0.0, max(64, int(abs(lam_lo) / 0.05)))
    pos = np.linspace(0.05, math.sqrt(lam_hi), int(math.sqrt(lam_hi) / 0.05)) ** 2
    lams = np.concatenate([neg, pos])
    lo, hi = 0, len(lams) - 1
    top = below(float(lams[hi]))
    if top < n:
        raise NonconvergenceError(
            f"scan found only {top} roots below lambda = {lam_hi:.4g}, "
            f"needed {n}", best=None)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(float(lams[mid])) >= n:
            hi = mid
        else:
            lo = mid
    try:
        return brentq(g, float(lams[lo]), float(lams[hi]), xtol=1e-13,
                      rtol=8.9e-16, maxiter=200)
    except ValueError:
        raise NonconvergenceError(
            f"no sign change of the secular function on [{lams[lo]:.6g}, "
            f"{lams[hi]:.6g}], where the count puts index {n}", best=None)


def solve_eigenvalue(pot: PotentialSpec, n: int, seed=None, *,
                     domain: SpectralDomain | None = None,
                     tol_root: float = 1e-12,
                     method: str = "auto") -> SecularResult:
    """Locate the n-th eigenvalue starting from the asymptotic seed.

    Real potentials: a sign bracket of the reduced secular function around
    the seed plus Brent refinement ("bracket").  Where no bracket around the
    seed changes sign (low indices, bound states) the "scan" route bisects
    a lambda grid on the Sturm count of eigenvalues below lambda and runs
    Brent on the one grid cell that holds the n-th root.
    ``method="phase"`` instead brackets and bisects
    g(lam) = theta(pi, lam) - pi (n - 1/2) on the Prufer phase, which
    follows the oscillation count directly but costs more.  The converged
    root is verified by counting interior zeros of y1 from (0, 1).
    ``iterations`` counts the secular-function evaluations and Sturm counts
    of the search, not the verifying count.  Every characteristic
    evaluation runs at the default step scale _DEFAULT_STEP_SCALE.

    Complex potentials: damped secant iteration in the sqrt(lam) variable
    seeded at the asymptotic prediction, steps clamped to 0.25 and iterates
    clamped to the parabolic domain; verified by an argument-principle
    winding count over 16 points of a small circle, evaluated as one batch
    (_winding).  ``iterations`` counts every lambda evaluated, the 16
    contour points included.
    """
    domain = domain or SpectralDomain()
    point = seed if seed is not None else asymptotics.eigenvalue_asym(pot, n)
    s0 = complex(point.sqrt_lambda_asym)
    m = n - 0.5
    calls = [0]

    if pot.is_real and abs(s0.imag) < 1e-9:
        if method == "phase":
            def g(lam):
                calls[0] += 1
                th = integrate_prufer(pot, lam, np.asarray([PI])).theta[0]
                return float(th.real) - PI * m
        else:
            def g(lam):
                calls[0] += 1
                if lam == 0.0:
                    lam = 1e-24
                return float(_char_reduced(pot, lam).real)
        def below(lam):
            calls[0] += 1
            if lam == 0.0:
                lam = 1e-24
            return _sturm_count(pot, lam)[1]
        s0r = s0.real
        root = None
        for w in (0.35, 0.45, 0.49):
            lo_s, hi_s = s0r - w, s0r + w
            lo, hi = lo_s * abs(lo_s), hi_s * abs(hi_s)
            f_lo, f_hi = g(lo), g(hi)
            if f_lo == 0.0:
                root = lo
                break
            if f_hi == 0.0:
                root = hi
                break
            if f_lo * f_hi < 0:
                root = brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16,
                              maxiter=200)
                break
        how = "phase" if method == "phase" else "bracket"
        if root is None and method != "phase":
            root = _scan_real_root(pot, n, g, below, s0r)
            how = "scan"
        if root is None:
            raise NonconvergenceError(
                f"no sign bracket for index {n} near sqrt(lambda) = {s0r:.6g}",
                best=s0r * s0r)
        lam_root = float(root)
        s_root = principal_sqrt(lam_root)
        residual = abs(characteristic(pot, lam_root))
        k, _ = _sturm_count(pot, lam_root)
        if k != n - 1:
            raise IndexingError(
                f"root at lambda = {lam_root:.9g} has {k} interior zeros, "
                f"expected {n - 1}")
        return SecularResult(n=n, lam=lam_root, sqrt_lambda=s_root,
                             residual=float(residual), multiplicity_hint=1,
                             iterations=calls[0], method=how)

    # complex potential: damped secant in the sqrt(lam) plane
    def F(s):
        calls[0] += np.size(s)
        return _char_reduced(pot, s * s)

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
    mult = _winding(F, s_root)
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
    points = []
    for n in ns:
        point = asymptotics.eigenvalue_asym(pot, n)
        try:
            res = solve_eigenvalue(pot, n, seed=point, **kwargs)
            point.sqrt_lambda_numeric = res.sqrt_lambda
            point.residual = res.residual
        except (NonconvergenceError, IndexingError, IntegrationBlowupError) as exc:
            point.flag = f"degraded: {exc}"
        points.append(point)
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


def table_norm_sq(table) -> float:
    """Composite Simpson norm of a table on its own grid (diagnostic)."""
    return float(simpson(np.abs(table.values) ** 2, x=table.grid))
