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
trajectory (_prufer_from_quasi); the test suite integrates the
phase/log-modulus equations themselves by RK4, as an independent
reference for that reading.

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
as lambda grows.

Every reading comes from one walk over the pieces (_walk), whose state
is a (2, members) complex array of (y1, y2) for its whole life.  For each
piece it advances every member at once: a constant piece by one exact
cell, cos(s d) I + (sin(s d)/s) A, formed for the whole batch
(_const_cells), and a smooth piece by one product of its cells or,
where a reader needs states inside it, their prefix states.  It applies
the u-shear at a smooth piece's ends, turns an overflowing state into
that member's IntegrationBlowupError and records the state at the break.
lambda is a scalar or a 1-D batch, and each member equals its lambda
walked alone, bit for bit.  Thin readers take what they need: the
characteristic, scalar or batch, reads the end state and forms no node
array (_end_value); node states (integrate_quasi_system, numeric
eigenfunctions) take one exact cell inside a constant piece and one
partial Magnus step inside a cell (_node_states); the norm of an
eigenfunction sums closed-form integrals over the cells of the same walk;
the Prufer angle at pi counts the zeros of y1 from the same cells, each
in closed form (_cell_zeros), and reads the end state (_sturm_count).
The root finders solve a block of indices in lockstep (_solve_block):
each round walks the reduced characteristic at the pending lambdas of
Brent and of the secant, and the angle at those of the real searches'
brackets, over all the active indices.  After its last round the
block's winding contours, whose only output is an integer, are walked
on the count mesh (_contours).

Where the Magnus parts of a smooth piece are real (a real polynomial
piece), a member at real lambda forms the piece's cells, their product
and their prefix states in float64, at about half the cost of
complex128, bit for bit the real parts of the complex cells
(_magnus_matrices); the states stay complex.  The choice is each
member's own (_walk).

The walk never lets a numpy warning out: an overflowing state stays
non-finite to the end of the walk, whose one finiteness check gives the
member the IntegrationBlowupError of its first non-finite break, and a
reader raises it (a batch characteristic, the earliest break's).
Deterministic meshes keep cross-method and step-halving comparisons exact;
the test suite holds the fixed-step RK4 reference the cells are checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import (INDEX_FAILURES, DomainError, IndexingError,
                     IntegrationBlowupError, InternalError,
                     NonconvergenceError, SingularArgumentError)
from .oscillatory import (_EVAL_CELLS, SpectralDomain, _require_regular,
                          principal_sqrt)
from .potential import PI, PotentialSpec

_DEFAULT_STEP_SCALE = 0.004     # longest Magnus cell of a smooth piece
_COUNT_STEP_SCALE = 0.02        # Magnus cell length of the readings whose
                                # output is a count: the Prufer angle of a
                                # real bracket and the winding contour
_H_MAX = 0.05                   # longest step whatever the phase advance
_MAX_SECANT_ITER = 80
_SHARED_ROOT_RTOL = 1e-6        # sqrt(lam) of two indices this close: one root
_ANGLE_EVALS = 64               # angle readings one real search may spend
# one array budget, _EVAL_CELLS values, as in the closed-form layer: a walk
# with prefix states, the norm or the zeros takes few enough members that
# its 2x2 prefix stack and the norm's four-row stack fit (_walk_rows), and
# a node walk few enough that its node arrays fit too
_WINDING_RADIUS = 0.2           # circle around a complex root, sqrt(lam) plane
_WINDING_POINTS = 16
# the contour's points around its center, the same for every contour
_WINDING_RING = np.exp(2j * PI * np.arange(_WINDING_POINTS) / _WINDING_POINTS)
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
    char_evals: int         # the search's characteristic evaluations and
    sturm_counts: int       # Prufer angle readings; their sum is iterations


def _exact_cell(s, d, near):
    """(cos(s d), sin(s d)/s) of the exact cell of a piece where u == const.

    Its system matrix A = [[c, 1], [-lam - c^2, -c]] satisfies
    A^2 = -lam I, so exp(A d) = cos(s d) I + (sin(s d)/s) A with
    s = sqrt(lam); s and d meet elementwise, as arrays of equal rank.
    Where near (the caller's bound: some |s d| may lie below 1e-6),
    sin(s d)/s takes its series at |s d| < 1e-6; elsewhere both forms
    give each element the same bits.
    """
    z = s * d
    sd = np.sin(z) / s
    if near:
        # a named factor: numpy would multiply a large temporary right
        # operand in place with the operands swapped (temporary elision),
        # which rounds complex products differently, and a member's bits
        # must not depend on the size of its block
        series = 1 - z * z / 6
        sd = np.where(np.abs(z) < 1e-6, d * series, sd)
    return np.cos(z), sd


def _const_cells(lam, s, least, d, c):
    """exp(A d) of constant pieces of lengths d and heights c (lists) for
    each member, shape (2, 2, pieces, members) (_exact_cell)."""
    near = least * min(d) < 2e-6
    d, c = np.array(d)[:, None], np.array(c)[:, None]
    cd, sd = _exact_cell(s[None], d, near)
    csd = c * sd
    out = np.empty((2, 2) + sd.shape, dtype=complex)
    np.add(cd, csd, out=out[0, 0])
    out[0, 1] = sd
    np.multiply(-lam[None] - c * c, sd, out=out[1, 0])
    np.subtract(cd, csd, out=out[1, 1])
    return out


def _regular_roots(lam):
    """(the principal sqrt(lam) of each member of a 1-D complex array, the
    least |sqrt(lam)|): Re >= 0, and Im >= 0 on the negative real axis, as
    principal_sqrt, with the singular check of _require_regular."""
    s = np.sqrt(lam)
    if s.real.min() == 0:
        flip = (s.real == 0) & (s.imag < 0)
        s[flip] = s[flip].conj()
    least = np.abs(s).min()
    if least < 1e-12:
        raise SingularArgumentError("lambda = 0 is a singular argument")
    return s, least


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


def _mesh(u, i: int, step_scale: float):
    """The lambda-free data of the uniform cell mesh of smooth piece i of u.

    Returns (h, parts, real, q, u_a, u_b): the cell length (at most
    step_scale and _H_MAX), the Magnus parts of every cell, their real
    parts where every imaginary part is zero (else None), q = u' and u
    at both ends of the piece.  The mesh depends on neither lambda nor the
    nodes, so it is built once per piece and step scale and held on u
    (PiecewiseExp._meshes), with which it dies; its arrays are read-only
    because callers share them.
    """
    key = (i, step_scale)
    if key in u._meshes:
        return u._meshes[key]
    span = u.breaks[i + 1] - u.breaks[i]
    ncell = int(_n_sub(span, step_scale))
    h = span / ncell
    q = u._derivative()
    parts = _magnus_parts(q, i, h * np.arange(ncell), h)
    real = _real_parts(parts)
    for p in parts + (real or ()):
        p.setflags(write=False)
    u_a, u_b = u._local(i, np.array([0.0, span])).tolist()
    u._meshes[key] = h, parts, real, q, u_a, u_b
    return u._meshes[key]


def _real_parts(parts):
    """The real parts (views) of complex Magnus parts, if they are real."""
    if any(p.imag.any() for p in parts):
        return None
    return tuple(p.real for p in parts)


def _magnus_matrices(delta, gamma, h, lam):
    """exp(Omega) of each cell, shape (2, 2) + lam.shape + (cells,).

    Omega = [[delta, h], [gamma - lam h, -delta]] is traceless, so
    Omega^2 = -z^2 I with z^2 = -(delta^2 + h (gamma - lam h)), and
    exp(Omega) = cos(z) I + (sin(z)/z) Omega; both are even in z, so the
    branch of the square root does not matter, and an imaginary z (a
    cell below its potential) gives cosh and sinh.  lam is a 1-D array of
    members (the middle axis of the result).

    Real lam, delta and gamma give float64 cells, bit for bit the real
    parts of the complex ones, whose imaginary parts are zero: numpy's
    complex product with zero imaginary parts rounds like the real one,
    and its complex division multiplies by the divisor's reciprocal, so
    sin(z)/z is sin(z) * (1 / z) and z^2 / 6 is z^2 * (1 / 6).  float64
    cos and sin agree with the complex ones at real z; cosh and sinh (SIMD
    loops) do not, so cells with z^2 < 0 take the complex functions at
    z = i |z|.
    """
    lam = np.asarray(lam)[:, None]
    # the cell data as rows of the member axis: numpy rounds a complex
    # product differently where an operand of lower rank meets a
    # one-element result
    delta, gamma = delta[None], gamma[None]
    if isinstance(h, np.ndarray):       # a length per cell
        h = h[None]
    # each entry is formed in its place in out, with the operands in the
    # order of the formulas, and no product writes over one of its
    # operands (numpy rounds a one-element complex product in place
    # differently); besides out, a block of members holds z, sin(z)/z
    # and, briefly, z^2 as (members, cells) arrays
    real = lam.dtype == delta.dtype == float
    out = np.empty((2, 2, lam.shape[0], delta.shape[1]),
                   dtype=float if real else complex)
    o10 = np.subtract(gamma, lam * h, out=out[1, 1])    # until sd replaces it
    z2 = -(delta * delta + h * o10)
    if not real:
        z = np.sqrt(z2)
        small = np.abs(z) < 1e-6
        if small.any():
            sz = np.where(small, 1 - z2 / 6,
                          np.sin(z) / np.where(small, 1.0, z))
        else:
            sz = np.sin(z) / z
        del z2
        cz = np.cos(z, out=z)
    else:
        r = np.sqrt(np.abs(z2))                         # |z|
        small = r < 1e-6
        big = np.where(small, 1.0, r) if small.any() else r
        sz = np.sin(big) * (1 / big)
        cz = np.cos(r)
        neg = z2 < 0
        if neg.any():
            cz[neg] = np.cos(1j * r[neg]).real
            w = 1j * big[neg]
            sz[neg] = (np.sin(w) / w).real
        if small.any():
            sz = np.where(small, 1 - z2 * (1 / 6), sz)
    np.multiply(sz, h, out=out[0, 1])
    np.multiply(sz, o10, out=out[1, 0])
    sd = np.multiply(sz, delta, out=out[1, 1])
    np.add(cz, sd, out=out[0, 0])
    np.subtract(cz, sd, out=out[1, 1])
    return out


# Taylor coefficients in w^2 of (1 - sin(w)/w)/w^2 = 1/3! - w^2/5! + ...
_DEFECT_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))


def _sinc_defect(w):
    """sin(w)/w and the defect (1 - sin(w)/w)/w^2 of a complex array w.

    Below |w| = 1 the defect is its Taylor series (nine terms, truncation
    below one ulp) and sin(w)/w = 1 - w^2 times it; from |w| = 1 on, the
    closed forms, whose cancellation then costs a few ulps at most.  Each
    branch is formed on its own elements only, and where every |w| < 1,
    as on a walk's Magnus cells, only the series is formed.
    """
    small = np.abs(w) < 1.0
    if small.all():
        return _defect_series(w)
    sinc, defect = np.empty_like(w), np.empty_like(w)
    sinc[small], defect[small] = _defect_series(w[small])
    big = w[~small]
    closed = np.sin(big) / big
    sinc[~small], defect[~small] = closed, (1 - closed) / (big * big)
    return sinc, defect


def _defect_series(w):
    """The series branch of _sinc_defect: (1 - w^2 series, series)."""
    w2 = w * w
    series = np.zeros_like(w2)
    for c in reversed(_DEFECT_SERIES):
        series = series * w2 + c
    return 1 - w2 * series, series


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
    # a named conjugate: numpy would multiply a large temporary right
    # operand in place with the operands swapped (temporary elision),
    # which rounds complex products differently
    cs = np.conj(slope)
    return (np.abs(y0) ** 2 * i_cc + np.abs(slope) ** 2 * i_ss
            + 2 * (y0 * cs * i_cs).real)


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


def _n_sub(span, step_scale):
    """Cells of a smooth piece: at most step_scale and _H_MAX long."""
    need = np.maximum(span / step_scale, span / _H_MAX)
    return np.maximum(1, np.ceil(need - 1e-12)).astype(np.int64)


def _walk_rows(pe, step_scale) -> int:
    """Members per walk of pe with prefix states, the norm or the zeros.

    Such a walk's largest arrays, the 2x2 prefix stack of a smooth piece
    and the norm's four-row stack (_cell_norms), hold 4 values per member
    and cell, each constant piece one cell, on the mesh of step_scale;
    this many members keep them within _EVAL_CELLS values.
    """
    cells = sum(1 if c is not None else int(_n_sub(b - a, step_scale))
                for a, b, c in zip(pe.breaks, pe.breaks[1:],
                                   pe._constant_heights))
    return max(1, _EVAL_CELLS // (4 * cells))


def _blowup(x) -> IntegrationBlowupError:
    return IntegrationBlowupError(f"non-finite state at x = {x}",
                                  location=float(x))


def _first(errors):
    """The failure at the earliest break among the members, or None."""
    return min((err for err in errors if err), key=lambda err: err.location,
               default=None)


def _raise_first(errors) -> None:
    """Raise the failure at the earliest break among the members, if any."""
    err = _first(errors)
    if err is not None:
        raise err


def _walk(pe, lam, step_scale: float, init=None, nodes=None, norm=False,
          zeros=False):
    """The one walk over the pieces of pe behind every reading.

    lam is a scalar (one member) or a 1-D batch, and each member starts
    from (0, sqrt(lam)), or from init.  The state is a (2, members) complex
    array of (y1, y2) for the whole walk, and each piece advances it once
    for all members.  A constant piece is one exact 2x2 cell, formed for
    the whole batch with the cells of the constant pieces after it, as
    many as keep their stack within _EVAL_CELLS values (_const_cells), and
    a node inside it takes the exact cell over its own length
    (_exact_cell).  A smooth piece is cut into the cells of
    a uniform mesh, at most step_scale long, that depends on neither
    lambda nor the nodes (_mesh); each cell propagates by the exponential
    of its 4th-order Magnus exponent (_magnus_matrices), formed for the
    whole batch at once, in float64 where the mesh and every lambda are
    real, and the cells carry the classical pair, sheared from and back to
    (y1, y2) at the ends of the piece.  Where the piece holds no node and
    there is neither norm nor zeros, its cells are multiplied pairwise in
    one product (_chain) applied to the state; otherwise it takes the
    prefix states of its cells (_prefix), and a node inside it one partial
    Magnus step over the rest of its cell, whose lambda-free parts serve
    every member.  On a potential with a smooth piece, a batch that mixes
    real and non-real lambdas walks as two batches, merged in member
    order, so that each member's cells take its own arithmetic.  The walk
    takes its batch whole; its readers size it to the one array budget,
    _EVAL_CELLS values per array (_walk_rows for prefix states, the norm
    and the zeros).

    Each member equals its lambda walked alone, bit for bit, in any block:
    every operation is elementwise along the member axis, and numpy's
    complex product rounds alike at every position of a flat array, and
    where a (members,) row or a (members, 1) column meets (2, members) or
    (members, cells) operands.  numpy takes a loop of its own, which
    rounds like CPython, for a (1, 1) by (1,) broadcast, so a row never
    meets a column: a walk of one member has the operand shapes of a wide
    one.

    A member whose state at a break is not finite gets the
    IntegrationBlowupError of the first such break, and its states from
    there on are zero, as if it walked on from a zero state.  A state
    that is not finite stays so, since every product and sum with an
    infinite or NaN entry is one, so the batch is tested once, at its end
    states, and only failed members are visited one by one.  The walk's
    overflow and invalid warnings are off.

    Returns (trail, errors, out): trail, shape (breaks, 2, members), holds
    the members' (y1, y2) at each break, and errors their failures (None
    or the first error).  out is empty without nodes; with nodes, a sorted
    array, it holds y1 and y2 at the nodes as (members, nodes) arrays, a
    node on a break taking the state of the trail and a node before 0 or
    past pi the state there.  With norm, out gains the integral of |y1|^2
    over [0, pi] per member, summed in closed form over the cells of the
    walk (_cell_norms), each constant piece one cell; with zeros (real
    lambda and u), it ends with the zeros of y1 in (0, pi] per member,
    counted in closed form over the same cells (_cell_zeros).  Either
    takes the prefix states of a smooth piece.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    members = len(lam)
    if None in pe._constant_heights:
        on_axis = lam.imag == 0
        if 0 < on_axis.sum() < members:
            rows = [np.flatnonzero(on_axis), np.flatnonzero(~on_axis)]
            (t1, e1, o1), (t2, e2, o2) = (
                _walk(pe, lam[r], step_scale, init, nodes, norm, zeros)
                for r in rows)
            back = np.argsort(np.concatenate(rows))
            errors = e1 + e2
            return (np.concatenate((t1, t2), axis=-1)[..., back],
                    [errors[k] for k in back.tolist()],
                    tuple(np.concatenate(v)[back] for v in zip(o1, o2)))
    s, least = _regular_roots(lam)
    trail = np.empty((len(pe.breaks), 2, members), dtype=complex)
    trail[0, 0], trail[0, 1] = (0, s) if init is None else init
    errors, cell_terms = [None] * members, []
    # the exact cells of the constant pieces, formed a run of them at a
    # time, as many as keep the stack within _EVAL_CELLS values
    heights = pe._constant_heights
    consts = [i for i, c in enumerate(heights) if c is not None]
    run = max(1, _EVAL_CELLS // (4 * members))
    runs, exact = iter(range(0, len(consts), run)), {}
    # nodes[left[j]:right[j]] lie on break j, nodes[right[i]:left[i + 1]]
    # inside piece i
    left = right = [0] * len(pe.breaks)
    if nodes is not None:
        left = np.searchsorted(nodes, pe.breaks).tolist()
        right = np.searchsorted(nodes, pe.breaks, side="right").tolist()
        left[0], right[-1] = 0, len(nodes)  # the ends take nodes beyond
        y1 = np.empty((members, len(nodes)), dtype=complex)
        y2 = np.empty_like(y1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (a, b, const, lo, hi) in enumerate(zip(
                pe.breaks, pe.breaks[1:], heights, right, left[1:])):
            y, end = trail[i], trail[i + 1]
            if const is not None:
                if i not in exact:
                    k = next(runs)
                    ahead = consts[k:k + run]
                    mats = _const_cells(
                        lam, s, least,
                        [pe.breaks[j + 1] - pe.breaks[j] for j in ahead],
                        [heights[j] for j in ahead])
                    exact = {j: mats[:, :, n] for n, j in enumerate(ahead)}
                cell = exact[i]
                np.multiply(cell[:, 0], y[0], out=end)
                end += cell[:, 1] * y[1]
                if norm or zeros or hi > lo:
                    d = b - a
                    mix = (const * y[0] + y[1],     # A y
                           (-lam - const * const) * y[0] - const * y[1])
                if norm or zeros:
                    cell_terms.append((y[0][:, None], d * mix[0][:, None],
                                       (s * d)[:, None], [d]))
                if hi > lo:
                    x = nodes[None, lo:hi] - a
                    cd, sd = _exact_cell(s[:, None], x,
                                         least * x[0, 0] < 2e-6)
                    y1[:, lo:hi] = cd * y[0][:, None] + sd * mix[0][:, None]
                    y2[:, lo:hi] = cd * y[1][:, None] + sd * mix[1][:, None]
                continue
            # the cells carry the classical pair (y, y') = (y1, y2 + u y)
            h, parts, real, q, u_a, u_b = _mesh(pe, i, step_scale)
            cell_parts, lam_row = parts, lam
            if real is not None and not lam.imag.any():
                cell_parts, lam_row = real, lam.real.copy()
            cells = _magnus_matrices(*cell_parts, h, lam_row)
            yc1, yc2 = y[0], y[1] + u_a * y[0]
            if hi == lo and not (norm or zeros):
                prod = _chain(cells)
                np.multiply(prod[:, 0], yc1, out=end)
                end += prod[:, 1] * yc2
            else:
                # classical states at the cell starts and the end
                (p00, p01), (p10, p11) = _prefix(cells)
                yc1, yc2 = yc1[:, None], yc2[:, None]
                c1 = np.concatenate((yc1, p00 * yc1 + p01 * yc2), axis=1)
                c2 = np.concatenate((yc2, p10 * yc1 + p11 * yc2), axis=1)
                end[0], end[1] = c1[:, -1], c2[:, -1]
                if norm or zeros:
                    delta, gamma = (v[None] for v in parts)
                    o10 = gamma - (lam * h)[:, None]
                    z = np.sqrt(-(delta * delta + h * o10))
                    cell_terms.append((c1[:, :-1],
                                       delta * c1[:, :-1] + h * c2[:, :-1],
                                       z, np.full(delta.shape[1], h)))
                if hi > lo:     # one partial cell per node
                    x = nodes[lo:hi] - a
                    cell = np.minimum(np.floor(x / h), p00.shape[-1] - 1)
                    d = x - cell * h
                    node_parts = _magnus_parts(q, i, cell * h, d)
                    if cell_parts is real:
                        node_parts = _real_parts(node_parts) or node_parts
                    part = _magnus_matrices(*node_parts, d, lam_row)
                    # named operands: numpy multiplies a large temporary
                    # in place (temporary elision), which rounds complex
                    # products differently, and a node's state must not
                    # depend on how many nodes or members there are
                    cell = cell.astype(np.int64)
                    g1, g2 = c1[:, cell], c2[:, cell]
                    y1[:, lo:hi] = part[0, 0] * g1 + part[0, 1] * g2
                    y2[:, lo:hi] = (part[1, 0] * g1 + part[1, 1] * g2
                                    - pe._local(i, x)[None] * y1[:, lo:hi])
            end[1] -= u_b * end[0]
        out = ()
        if nodes is not None:
            for j, (lo, hi) in enumerate(zip(left, right)):
                if hi > lo:
                    y1[:, lo:hi], y2[:, lo:hi] = trail[j][..., None]
            out = (y1, y2)
        if norm or zeros:
            y0, slope, z, length = (np.concatenate(c, axis=-1)
                                    for c in zip(*cell_terms))
            if norm:
                out += (np.sum(length * _cell_norms(y0, slope, z), axis=-1),)
            if zeros:
                out += (_cell_zeros(y0, slope, z, trail[-1]),)
    # a member that failed has a non-finite end state
    if not np.isfinite(trail[-1]).all():
        bad = np.flatnonzero(~np.isfinite(trail[-1]).all(axis=0))
        first = np.isfinite(trail[:, :, bad]).all(axis=1).argmin(axis=0)
        for m, j in zip(bad.tolist(), first.tolist()):
            errors[m] = _blowup(pe.breaks[j])
            trail[j:, :, m] = 0
    return trail, errors, out


def _node_states(pot: PotentialSpec, lam, nodes, *, step_scale, init=None,
                 norm=False):
    """(y1, y2) at every node of a sorted array: the walk's node reader.

    lam is a scalar or a 1-D batch, walked once with the nodes (_walk).
    A batch gives (members, nodes) arrays and a trailing list of
    per-member failures, None or the IntegrationBlowupError of its walk,
    and a failed member's rows are zero; a scalar gives 1-D rows and
    raises its failure.  With norm the result gains, before that list,
    the integral of |y1|^2 over [0, pi] per member (a float for a
    scalar), non-finite where it overflows, for the caller to reject.  A
    batch walks in sub-blocks whose prefix and norm stacks (_walk_rows)
    and node arrays each hold at most _EVAL_CELLS values.
    """
    pe = pot.piecewise
    batch = np.ndim(lam) > 0
    if batch:
        rows = min(_walk_rows(pe, step_scale),
                   max(1, _EVAL_CELLS // max(len(nodes), 1)))
        if rows < len(lam):
            *arrays, errors = zip(*(
                _node_states(pot, lam[r:r + rows], nodes,
                             step_scale=step_scale, init=init, norm=norm)
                for r in range(0, len(lam), rows)))
            return (*(np.concatenate(a) for a in arrays),
                    [err for errs in errors for err in errs])
    _, errors, (y1, y2, *nrm2) = _walk(pe, lam, step_scale, init, nodes,
                                       norm)
    for m, err in enumerate(errors):
        if err is not None:
            y1[m] = y2[m] = 0   # no overflowing values reach the caller
    if batch:
        return y1, y2, *nrm2, errors
    _raise_first(errors)
    return y1[0], y2[0], *(float(v[0]) for v in nrm2)


def integrate_quasi_system(pot: PotentialSpec, lam, grid, *,
                           step_scale: float = _DEFAULT_STEP_SCALE,
                           init=None) -> QuasiTrajectory:
    """Trajectory of (y1, y2) = (y, y' - u y) from (0, sqrt(lam)) at x = 0.

    One lambda on a strictly increasing grid in [0, pi]; init replaces
    the start state.  The states come from the node reader of the walk
    (_node_states): constant pieces propagate with the exact matrix
    exponential (the free evolution conjugated by the u-shear), smooth
    pieces by 4th-order Magnus cells at most step_scale long, on a mesh
    that depends on neither lambda nor the grid, and a node inside a cell
    by one partial Magnus step.
    """
    if np.ndim(lam):
        raise ValueError("integrate_quasi_system takes one lambda")
    s = _require_regular(lam)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be strictly increasing")
    if not (grid.size and grid[0] >= -1e-12 and grid[-1] <= PI + 1e-9):
        raise ValueError("grid must be a nonempty subset of [0, pi]")
    y1, y2 = _node_states(pot, lam, grid, step_scale=step_scale, init=init)
    return QuasiTrajectory(x=grid.copy(), y1=y1, y2=y2, sqrt_lambda=s)


def characteristic(pot: PotentialSpec, lam, *,
                   step_scale: float = _DEFAULT_STEP_SCALE):
    """Delta(lam) = y2(pi) for the solution with (y1, y2)(0) = (0, sqrt(lam)).

    Zeros of Delta are exactly the eigenvalues of the Dirichlet/regularized
    Neumann problem.  It reads the end state of the walk (_end_value).  A
    1-D batch of lam gives an array, in one call, whose members equal the
    same lambdas evaluated alone.
    """
    return _end_value(pot, lam, step_scale, None)


def _end_value(pot: PotentialSpec, lam, step_scale, init):
    """y2(pi) of the walk: a complex, or an array over a 1-D batch.

    The walk takes no nodes: it forms the state at each break only, with
    one product of the Magnus cells of each smooth piece, and a batch is
    not split.  A batch raises the IntegrationBlowupError of the earliest
    break where any member fails (_raise_first).  The lockstep root finder
    (_solve_block) reads the same end states off the walk itself, with
    each member's own failure, so that a failure ends its index only.
    """
    trail, errors, _ = _walk(pot.piecewise, lam, step_scale, init)
    _raise_first(errors)
    ends = trail[-1, 1]
    return ends if np.ndim(lam) else complex(ends[0])


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


def _band(theta, odd):
    """k of the band [k pi, (k + 1) pi) of parity odd nearest to theta.

    floor(theta / pi) where theta lies well inside a band; at a multiple of
    pi, where rounding can put theta on either side, the parity of the
    computed state decides.  Elementwise over arrays.
    """
    return odd + 2 * np.round((theta / PI - 0.5 - odd) / 2)


def _cell_zeros(y0, slope, z, ends):
    """The zeros of y1 in (0, pi] per member, counted cell by cell.

    y0, slope and z are the (members, cells) triples of the walk's cells in
    order (the norm's, _cell_norms), each constant piece one cell, and ends
    the members' end states, (2, members); lambda and u are real.  Inside a
    cell y1(tau) = y0 cos(z tau) + slope sin(z tau)/z, tau in (0, 1], which
    passes through the computed states at both ends.  A state lies in the
    band [k pi, (k + 1) pi) of the Prufer angle of parity "y1 < 0" (at a
    zero of y1, "y1' < 0"; slope has the sign of y1' there).  Where
    z^2 > 0, y1 = R sin(z tau + phi) with phi = atan2(y0, slope/z), and the
    cell holds floor((z + phi)/pi) - floor(phi/pi) zeros, each floor taken
    at the parity of the computed state (_band) so that a zero on a cell
    end counts once (piecewise-constant Prufer counting, Pryce 1993,
    SLEDGE).  Where z^2 <= 0 the cell holds at most one zero, where the
    parity flips.  The cells need no sampling, so no well is too deep.
    """
    y0, slope = y0.real, slope.real
    odd = np.where(y0 != 0, y0 < 0, slope < 0)
    e1, e2 = ends
    last = np.where(e1 != 0, e1.real < 0, e2.real < 0)
    odd_end = np.concatenate((odd[:, 1:], last[:, None]), axis=1)
    wave = z.real > 0                       # z^2 > 0: z is real
    zr = np.where(wave, z.real, 1.0)
    phi = np.arctan2(y0, slope / zr)
    return np.where(wave, _band(phi + zr, odd_end) - _band(phi, odd),
                    odd_end != odd).sum(axis=1)


def _sturm_count(pot: PotentialSpec, lams) -> tuple:
    """(the Prufer angle Theta(lam) at pi of each lambda, its failure).

    For real u and real lam: the walk from (y1, y2)(0) = (0, 1) on the
    count mesh (_COUNT_STEP_SCALE) counts the zeros Z of y1 in (0, pi]
    cell by cell (_cell_zeros), and Theta = Z pi + atan2(y1(pi), y2(pi))
    taken in [0, pi] (the signs of both turned where Z is odd).  Theta is
    continuous and increasing in lam (Pryce 1993, ch. 2), and an
    eigenvalue, y2(pi) = 0, has Theta = (n - 1/2) pi with n - 1 interior
    zeros: Theta indexes the spectrum.  lams is a list, walked in batches
    whose prefix stacks and zero triples hold at most _EVAL_CELLS values
    (_walk_rows); a failure is the member's IntegrationBlowupError.
    """
    pe = pot.piecewise
    rows = _walk_rows(pe, _COUNT_STEP_SCALE)
    thetas, errors = [], []
    for i in range(0, len(lams), rows):
        trail, errs, (zeros,) = _walk(pe, np.array(lams[i:i + rows]),
                                      _COUNT_STEP_SCALE, (0.0, 1.0),
                                      zeros=True)
        for (y1, y2), k in zip(trail[-1].T.tolist(), zeros.tolist()):
            sign = -1.0 if k % 2 else 1.0
            thetas.append(k * PI + math.atan2(sign * y1.real, sign * y2.real))
        errors += errs
    return thetas, errors


def _brent_steps(xa: float, xb: float, xtol: float, rtol: float,
                 maxiter: int):
    """Brent's method (Brent 1973, ch. 4) as a generator of its iterates.

    It yields each x at which it needs f, is sent f(x) and returns the
    root, so a caller can drive many searches in lockstep (_solve_block).
    A statement-by-statement port of SciPy's C brentq
    (optimize/Zeros/brentq.c): its iterates, evaluations
    and result bits are those of SciPy's optimize.brentq with the same
    xtol, rtol and maxiter, which the test suite checks.  It stops when
    half the bracket is under (xtol + rtol |x|) / 2 or f(x) == 0; a zero
    value at an end returns that end.  Ends whose values have the same sign
    bit, and a NaN value, raise ValueError.  After maxiter iterations
    without convergence it raises NonconvergenceError whose ``best`` is the
    last iterate.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _brent_value(xpre, (yield xpre))
    fcur = _brent_value(xcur, (yield xcur))
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
        fcur = _brent_value(xcur, (yield xcur))
    raise NonconvergenceError(
        f"Brent's method did not converge in {maxiter} iterations", best=xcur)


def _brent_value(x: float, fx) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def _real_search(pot: PotentialSpec, n: int, s0: float):
    """The search for index n of a real potential, as a block member.

    A generator in the protocol of _solve_block.  It reads the Prufer
    angle Theta (_sturm_count) in the signed root s = sign(lam) sqrt|lam|,
    asking for a list of lambdas at a time, until it holds ends lo < hi with
    (n - 3/2) pi < Theta(lo) < (n - 1/2) pi < Theta(hi) < (n + 1/2) pi:
    Theta is increasing, so [lo, hi] holds index n and no other root.
    The seed bracket s0 -+ 0.35 is read first ("bracket" where it holds);
    otherwise ("angle") an end missing below or above steps out by 0.7,
    doubling, and a bracket too wide is cut by the secant of Theta aimed at
    -pi/2 or +pi/2 from the target, kept inside the middle three quarters
    (a bisection when the secant falls outside).  A seed end whose walk
    overflows (a seed far below the spectrum) restarts the search from
    s = 0.  Brent then solves the reduced characteristic over [lo, hi].
    Where it finds no sign change there, the end nearer the target steps
    out by one more reading and Brent runs again; a second failure, a
    step-out whose walk overflows and a NaN value are a
    NonconvergenceError.  IndexingError: no such bracket within
    _ANGLE_EVALS readings.  Returns
    the SecularResult without its residual, which _solve_block reads for
    the whole block at once.
    """
    target = (n - 0.5) * PI
    lo = hi = None          # (s, Theta - target) below and above the target
    angles, step = 0, 0.7
    probes = [s0 - 0.35, s0 + 0.35]
    while lo is None or hi is None or lo[1] <= -PI or hi[1] >= PI:
        if angles >= _ANGLE_EVALS:
            raise IndexingError(f"after {_ANGLE_EVALS} angle readings no "
                                f"bracket holds index {n} alone")
        angles += len(probes)
        try:                # lam = 0 is singular for the propagator
            thetas = yield [s * abs(s) or 1e-24 for s in probes]
        except IntegrationBlowupError:
            if angles > 2:
                raise
            probes = [0.0]
            continue
        for s, theta in zip(probes, thetas):
            g = theta - target
            if g < 0 and (lo is None or s > lo[0]):
                lo = (s, g)
            elif g >= 0 and (hi is None or s < hi[0]):
                hi = (s, g)
        if lo is None:
            probes, step = [hi[0] - step], 2 * step
        elif hi is None:
            probes, step = [lo[0] + step], 2 * step
        else:
            aim = -PI / 2 if lo[1] <= -PI else PI / 2
            w = hi[0] - lo[0]
            s = lo[0] + (aim - lo[1]) * w / (hi[1] - lo[1])
            if not lo[0] + w / 8 <= s <= hi[0] - w / 8:
                s = lo[0] + w / 2
            probes = [s]
    evals, stepped = 0, False
    while True:
        lam_lo, lam_hi = lo[0] * abs(lo[0]), hi[0] * abs(hi[0])
        steps = _brent_steps(lam_lo, lam_hi, xtol=1e-13, rtol=8.9e-16,
                             maxiter=200)
        value = root = None
        while True:
            try:
                lam = steps.send(value)
            except StopIteration as stop:
                root = float(stop.value)
                break
            except ValueError:      # no sign change, or a NaN value
                break
            evals += 1
            value = (yield 1e-24 if lam == 0.0 else lam).real
        if root is not None:
            break
        if not stepped and not math.isnan(value):
            # Theta (count mesh) and the characteristic (default mesh) can
            # put the root on opposite sides of the end nearer the target:
            # that end steps out once, by the secant of Theta aimed at
            # -+pi/2, at most one bracket width
            stepped = True
            w, near_lo = hi[0] - lo[0], -lo[1] < hi[1]
            aim = -PI / 2 if near_lo else PI / 2
            s = lo[0] + (aim - lo[1]) * w / (hi[1] - lo[1])
            s = max(s, lo[0] - w) if near_lo else min(s, hi[0] + w)
            angles += 1
            try:
                (theta,) = yield [s * abs(s) or 1e-24]
            except IntegrationBlowupError:
                theta = math.nan    # no end there: the index flags
            g = theta - target
            if near_lo and -PI < g < 0:
                lo = (s, g)
                continue
            if not near_lo and 0 <= g < PI:
                hi = (s, g)
                continue
        raise NonconvergenceError(
            f"no sign change of the secular function on [{lam_lo:.6g}, "
            f"{lam_hi:.6g}], where the angle puts index {n}", best=None)
    how = "bracket" if angles == 2 else "angle"
    return SecularResult(n=n, lam=root, sqrt_lambda=principal_sqrt(root),
                         residual=None, multiplicity_hint=1,
                         iterations=evals + angles, method=how,
                         char_evals=evals, sturm_counts=angles)


def _secant_search(pot: PotentialSpec, n: int, s0: complex,
                   domain: SpectralDomain, tol_root: float):
    """The search for index n of a complex potential, as a block member.

    A generator in the protocol of _solve_block, whose lambdas are s^2:
    the damped secant in the sqrt(lam) plane from the start value and its
    +-fd difference quotient, then the drift check and the winding count
    (_winding_number) of its 16-point contour, yielded as one array of
    lambdas and sent back as one array of values, which the walk forms
    with the block's other contours (_contours).
    """
    def clamp(s):
        im = min(max(s.imag, -domain.alpha + 1e-9), domain.alpha - 1e-9)
        return complex(s.real, im)

    s_cur = clamp(s0)
    f_cur = yield s_cur * s_cur
    fd = 1e-6 * max(1.0, abs(s_cur))
    s_up, s_down = s_cur + fd, s_cur - fd
    deriv = ((yield s_up * s_up) - (yield s_down * s_down)) / (2 * fd)
    evals = 3
    best = (abs(f_cur), s_cur)
    converged = False
    for _ in range(_MAX_SECANT_ITER):
        if deriv == 0:
            break
        step = -f_cur / deriv
        if abs(step) > 0.25:
            step *= 0.25 / abs(step)
        s_new = clamp(s_cur + step)
        f_new = yield s_new * s_new
        evals += 1
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
    s = s_root + _WINDING_RADIUS * _WINDING_RING
    mult = _winding_number((yield s * s))
    evals += _WINDING_POINTS
    if mult < 1:
        raise IndexingError(
            f"argument-principle count {mult} around lambda = {lam_root:.6g}")
    return SecularResult(n=n, lam=complex(lam_root), sqrt_lambda=complex(s_root),
                         residual=float(residual), multiplicity_hint=int(mult),
                         iterations=evals, method="secant", char_evals=evals,
                         sturm_counts=0)


def _index_search(pot: PotentialSpec, n: int, s0: complex,
                  domain: SpectralDomain, tol_root: float):
    """The search generator of index n: real route or complex secant."""
    if pot.is_real and abs(s0.imag) < 1e-9:
        return _real_search(pot, n, s0.real)
    return _secant_search(pot, n, s0, domain, tol_root)


def _solve_block(pot: PotentialSpec, ns, seeds, *,
                 domain: SpectralDomain | None = None,
                 tol_root: float = 1e-12) -> list:
    """Indices ns from the seeds sqrt(lam), in lockstep, one walk per round.

    Each index runs as a generator (_index_search) and yields what it
    reads next: a scalar lambda, for the reduced characteristic from
    (0, 1) on the default mesh; a list of lambdas, for the Prufer angle on
    the count mesh (_angles); or an array, its winding contour.  Each
    round walks the pending scalars of all active members at once (_walk)
    and their lists as one more batch, and sends every member its own
    values, or throws in its own IntegrationBlowupError (of a list or a
    contour, the one at its earliest break).  Contours are held until
    nothing else is pending, then read together (_contours).  Each
    member sees the values its lambdas give alone, so its result equals
    the index solved alone, bit for bit; the residuals |Delta| of the real
    roots come from one characteristic walk after the last round.  A
    characteristic walk takes at most asymptotics._BLOCK members (_ends)
    and an angle walk at most _EVAL_CELLS values per array (_walk_rows),
    so the cell arrays of a round do not grow with the block.  Returns, in
    order, each index's SecularResult or the INDEX_FAILURES error that
    ended it alone; any other error ends the block.
    """
    domain = domain or SpectralDomain()
    searches = [_index_search(pot, n, complex(s0), domain, tol_root)
                for n, s0 in zip(ns, seeds)]
    out, pending = [None] * len(searches), {}

    def advance(m, value=None, error=None):
        try:
            pending[m] = (searches[m].send(value) if error is None
                          else searches[m].throw(error))
        except StopIteration as stop:
            out[m] = stop.value
        except INDEX_FAILURES as exc:
            # without its traceback, whose frames would hold the block in a
            # reference cycle
            out[m] = exc.with_traceback(None)

    for m in range(len(searches)):
        advance(m)
    while pending:
        groups = {}
        for m, req in pending.items():
            reader = (_contours if isinstance(req, np.ndarray) else
                      _angles if isinstance(req, list) else _ends)
            groups.setdefault(reader, []).append(m)
        if len(groups) > 1:     # contours wait while another read is pending
            groups.pop(_contours, None)
        reads = [(members, reader(pot, [pending.pop(m) for m in members]))
                 for reader, members in groups.items()]
        for members, read in reads:
            for m, value, error in zip(members, *read):
                advance(m, value, error)
    real = [m for m, res in enumerate(out)
            if isinstance(res, SecularResult) and res.residual is None]
    for m, value, error in zip(real, *_ends(pot, [out[m].lam for m in real],
                                             None)):
        if error is None:
            out[m].residual = float(abs(value))
        else:
            out[m] = error
    return out


def _ends(pot: PotentialSpec, lams, init=(0.0, 1.0)) -> tuple:
    """(y2(pi) of each lambda, the failure of each) on the default mesh,
    in walks of at most asymptotics._BLOCK members; from (0, 1), the
    reduced characteristic."""
    values, errors, step = [], [], asymptotics._BLOCK
    for i in range(0, len(lams), step):
        batch = np.array(lams[i:i + step], dtype=complex)
        trail, errs, _ = _walk(pot.piecewise, batch, _DEFAULT_STEP_SCALE, init)
        values += trail[-1, 1].tolist()
        errors += errs
    return values, errors


def _angles(pot: PotentialSpec, requests) -> tuple:
    """(the angle Theta at each lambda of each list, the failure at the
    earliest break of each): the lists of a round walk together."""
    thetas, errors = _sturm_count(pot, [lam for req in requests
                                        for lam in req])
    cuts = np.cumsum([0] + [len(req) for req in requests]).tolist()
    return ([thetas[a:b] for a, b in zip(cuts, cuts[1:])],
            [_first(errors[a:b]) for a, b in zip(cuts, cuts[1:])])


def _contours(pot: PotentialSpec, contours) -> tuple:
    """(the reduced characteristic on each contour, the failure of each
    at its earliest break), walked from (0, 1) on the count mesh (_walk):
    in one walk where all pieces are constant, else one walk a contour,
    as a smooth piece's cells cost the same per member in any batch."""
    k, lams = _WINDING_POINTS, np.concatenate(contours)
    step = k if None in pot.piecewise._constant_heights else len(lams)
    values, errors = [], []
    for i in range(0, len(lams), step):
        trail, errs, _ = _walk(pot.piecewise, lams[i:i + step],
                               _COUNT_STEP_SCALE, (0.0, 1.0))
        values.append(trail[-1, 1])
        errors += errs
    values = np.concatenate(values)
    return ([values[i:i + k] for i in range(0, len(values), k)],
            [_first(errors[i:i + k]) for i in range(0, len(errors), k)])


def solve_eigenvalue(pot: PotentialSpec, n: int, seed=None, *,
                     domain: SpectralDomain | None = None,
                     tol_root: float = 1e-12) -> SecularResult:
    """Locate the n-th eigenvalue starting from the asymptotic seed.

    This is the lockstep solver (_solve_block) on a block of one, so an
    index gets the same bits here as inside any block.

    Real potentials: the root is bracketed on the Prufer angle Theta(lam)
    at pi of the solution from (y1, y2)(0) = (0, 1): pi times the zeros of
    y1, each Magnus cell's counted in closed form, plus the end angle
    (_sturm_count, on the count mesh _COUNT_STEP_SCALE).  Theta increases
    with lam and equals (n - 1/2) pi at the n-th eigenvalue, so ends with
    (n - 3/2) pi < Theta(lo) < (n - 1/2) pi < Theta(hi) < (n + 1/2) pi hold
    index n and no other root.  Where the seed bracket sqrt(lam) =
    s0 -+ 0.35 satisfies this, Brent solves the reduced characteristic over
    it ("bracket"); otherwise a safeguarded secant and bisection on Theta
    in the signed root moves the ends until they do, from s = 0 where the
    seed lies so far below the spectrum that its walk overflows, and Brent
    solves over them ("angle") (_real_search).  ``char_evals`` counts the
    characteristic evaluations and ``sturm_counts`` the angle readings, two
    on the bracket route; ``iterations`` is their sum.  Every
    characteristic evaluation runs at the default step scale
    _DEFAULT_STEP_SCALE; the count mesh can misplace Theta by its own
    error, so an end that close to the root can leave the characteristic
    without a sign change.  That end then steps out by one more reading,
    and only a second bracket without a sign change is a
    NonconvergenceError.

    Complex potentials: damped secant iteration in the sqrt(lam) variable
    seeded at the asymptotic prediction, steps clamped to 0.25 and iterates
    clamped to the parabolic domain; verified by an argument-principle
    winding count over 16 points of a small circle (_winding_number),
    whose values the walk forms after the block's last secant round
    (_contours; one walk for the block where every piece is constant).
    The contour runs on the count mesh (_COUNT_STEP_SCALE), like the
    angle: its only output is an integer, and by Rouche's theorem the coarser mesh counts as many zeros
    inside the circle whenever it moves F by less than |F| on the circle
    (it moved F by at most 2e-6 of min |F| on the test, benchmark and
    random complex trig and poly potentials, and no count changed).  The
    secant, its start derivative and the residual stay on the default
    mesh, so the root does not depend on the contour's mesh.
    ``iterations`` and ``char_evals`` count every lambda evaluated, the 16
    contour points included; ``sturm_counts`` is 0.

    Without a seed the call builds its own m^2 profile for the prediction;
    for many indices use ``solve_spectrum``, which predicts and solves a
    request by the blocks of the closed-form layer (asymptotics._blocks).
    """
    point = seed if seed is not None else asymptotics.eigenvalue_asym(pot, n)
    res, = _solve_block(pot, [n], [point.sqrt_lambda_asym], domain=domain,
                        tol_root=tol_root)
    if not isinstance(res, SecularResult):
        raise res
    return res


def _winding_number(vals) -> int:
    """The winding number of the closed polygon through vals about 0.

    The phase is closed by the first value again and unwrapped in the
    formulas of np.unwrap: each step dd of np.angle is corrected to
    mod(dd + pi, 2 pi) - pi, a step of exactly -pi whose dd is positive to
    +pi, and no correction where |dd| < pi; the corrections add up in
    sequence.  A zero value anywhere counts one root.
    """
    vals = np.asarray(vals)
    if np.any(vals == 0):
        return 1
    # numpy's arctan2 and libm's differ by an ulp on some values, which
    # can move a step of exactly pi across the rule
    phases = np.angle(vals).tolist()
    phases.append(phases[0])
    turn = 0.0
    for a, b in zip(phases, phases[1:]):
        dd = b - a
        fix = (dd + PI) % (2 * PI) - PI
        if fix == -PI and dd > 0:
            fix = PI
        if abs(dd) >= PI:
            turn += fix - dd
    return int(round((phases[0] + turn - phases[0]) / (2 * PI)))


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
    # imported here: the pool module pulls in multiprocessing, which no
    # in-process call needs
    from concurrent.futures import ProcessPoolExecutor
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


def _solve_points(pot: PotentialSpec, points: list, **kwargs) -> list:
    """Solve a block of predictions in lockstep (_solve_block).

    Each point takes its root and residual, or the flag of its failure;
    returns the results, a SecularResult or an error per point.
    """
    results = _solve_block(pot, [p.n for p in points],
                           [p.sqrt_lambda_asym for p in points], **kwargs)
    for point, res in zip(points, results):
        if isinstance(res, SecularResult):
            point.sqrt_lambda_numeric = res.sqrt_lambda
            point.residual = res.residual
        else:
            point.flag = f"degraded: {res}"
    return results


def _spectrum_chunk(ns, pot: PotentialSpec, kwargs: dict) -> list:
    points = []
    for block in asymptotics._blocks(ns):
        points += asymptotics._predictions(pot, block)
        _solve_points(pot, points[-len(block):], **kwargs)
    return points


def solve_spectrum(pot: PotentialSpec, n_values, *, jobs: int = 1,
                   **kwargs) -> list:
    """solve_eigenvalue over a range, collecting failures as flagged points.

    The indices are predicted and solved in the blocks of the closed-form
    layer (asymptotics._blocks), each block in lockstep (_solve_block): one
    characteristic walk per round for its active indices, at most
    asymptotics._BLOCK of them per walk.  A root does
    not depend on its block, so the points equal those of solve_eigenvalue
    index by index.  jobs > 1 solves strided chunks of the indices in
    worker processes (_pmap_chunks); the points are the same for any jobs.
    Indices that converged to one shared root are flagged as well, once,
    over the merged list, so a pair split across chunks is found.
    """
    points = _pmap_chunks(_spectrum_chunk, list(n_values), jobs, pot, kwargs)
    _flag_shared_roots(points)
    return points


# -- numeric eigenfunctions ---------------------------------------------------


def _unit_trajectory(pot: PotentialSpec, lam, grid):
    """y1 at each grid point (any order, repeats allowed), unit L2 norm.

    The states are taken at the distinct grid points only; the norm
    integrates |y1|^2 over [0, pi] in closed form cell by cell during the
    same walk (_node_states with norm).  A scalar lam gives one row and
    raises a member's failure.  A 1-D batch gives (rows, errors): rows of
    shape (members, grid points) in one walk, and per member None or the
    exception its lambda alone would raise (a non-finite state or norm,
    a zero norm); a failed member's row holds no values.  No numpy
    warning escapes.
    """
    if grid.max() > PI:
        raise DomainError("eigenfunction grid reaches past pi")
    nodes, back = np.unique(grid, return_inverse=True)
    y1, _, nrm2, errors = _node_states(
        pot, np.atleast_1d(lam), nodes, step_scale=_DEFAULT_STEP_SCALE,
        norm=True)
    scale = []
    for m, v in enumerate(nrm2.tolist()):
        if errors[m] is None and not math.isfinite(v):
            errors[m] = IntegrationBlowupError("|y1|^2 overflows on [0, pi]",
                                               location=PI)
        elif errors[m] is None and not v > 0:
            errors[m] = InternalError(
                "zero-norm trajectory cannot be an eigenfunction")
        scale.append(1.0 if errors[m] else math.sqrt(v))
    rows = np.take(y1, back, axis=1) / np.array(scale)[:, None]
    if np.ndim(lam):
        return rows, errors
    if errors[0] is not None:
        raise errors[0]
    return rows[0]


def _align(pot: PotentialSpec, ref: np.ndarray, vals: np.ndarray):
    """vals times the unimodular phase of sum(ref conj(vals)).

    On a real potential a phase within 1e-6 of the real axis snaps to its
    sign.  A zero sum leaves vals as they are.
    """
    z = complex(np.sum(ref * np.conj(vals)))
    if abs(z) > 0:
        phase = z / abs(z)
        if pot.is_real and abs(phase.imag) < 1e-6:
            phase = math.copysign(1.0, phase.real)
        vals = vals * phase
    return vals


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
    is aligned to it (_align) and the result takes its index; this module
    never builds such a table itself.  This is a block of one of the
    walk's node reader; the validation sweep calls _unit_trajectory with a
    block of solved roots and aligns row by row.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if align_to is not None and not np.array_equal(align_to.grid, grid):
        raise ValueError("align_to table lives on a different grid")
    vals = _unit_trajectory(pot, lam, grid)
    note = "unit L2 norm (closed form per cell)"
    if align_to is not None:
        vals = _align(pot, align_to.values, vals)
        note += f"; aligned to {align_to.kind} table"
    return asymptotics.EigenfunctionTable(
        index=align_to.index if align_to is not None else 0, grid=grid,
        values=vals, kind="oracle", normalization=note)
