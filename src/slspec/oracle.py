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

Every reading comes from one walk over the pieces (_walk).  For each
piece it advances every member once: the exact step of a constant piece
in scalar arithmetic (for a wide batch, float64 arrays that round like
it), and for a smooth piece one product of its cells or, where a reader
needs states inside it, the prefix states of its cells.
It applies the u-shear at a smooth piece's ends, turns an overflowing
state into that member's IntegrationBlowupError and records the state at
the break.  lambda is a scalar or a 1-D batch, and each member equals its
lambda walked alone, bit for bit.  Thin readers take what they need:
the characteristic, scalar or batch, reads the end state and forms no
node array (_end_value); node states (integrate_quasi_system, numeric
eigenfunctions) take one array step inside a constant piece and one
partial Magnus step inside a cell (_node_states); the norm of an
eigenfunction sums closed-form integrals over the cells of the same walk;
a Sturm count reads the break states, takes nodes inside smooth pieces
only, and counts the zeros on each constant piece in closed form
(_sturm_count).  The root finders solve a block of indices in lockstep
(_solve_block): each round of Brent or of the secant, over all the
active indices, is one walk of the reduced characteristic, and the
block's winding contours walk together after its last round.

Where the Magnus parts of a smooth piece are real (a real polynomial
piece), a member at real lambda forms the piece's cells, their product
and their prefix states in float64, at about half the cost of
complex128, bit for bit the real parts of the complex cells
(_magnus_matrices); the states stay complex.  The choice is each
member's own (_walk).

The walk never lets a numpy warning out: an overflowing state reaches the
finiteness check at the end of its piece, and a reader raises the member's
IntegrationBlowupError (a batch characteristic, the earliest break's).
Deterministic meshes keep cross-method and step-halving comparisons exact;
the test suite holds the fixed-step RK4 reference the cells are checked
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics
from .errors import (INDEX_FAILURES, DomainError, IndexingError,
                     IntegrationBlowupError, InternalError,
                     NonconvergenceError)
from .oscillatory import (_EVAL_CELLS, SpectralDomain, _require_regular,
                          principal_sqrt)
from .potential import PI, PotentialSpec

_DEFAULT_STEP_SCALE = 0.004     # longest Magnus cell of a smooth piece
_COUNT_STEP_SCALE = 0.02        # Magnus cell length of a zero count: the
                                # Sturm count and the winding contour
_H_MAX = 0.05                   # longest step whatever the phase advance
_MAX_SECANT_ITER = 80
_SHARED_ROOT_RTOL = 1e-6        # sqrt(lam) of two indices this close: one root
_WALK_COUNTS = 64               # Sturm counts one count walk may spend
_WALK_CELLS = 2048              # smooth-piece cells times members of one
                                # walk with prefix states or the norm; a
                                # real member's cells are float64, bit for
                                # bit the complex cells (_magnus_matrices)
_WIDE_STEP = 144                # members from which a walk steps its
                                # constant pieces as arrays (_wide_step)
_WINDING_RADIUS = 0.2           # circle around a complex root, sqrt(lam) plane
_WINDING_POINTS = 16
_CONTOUR_WALK = 256             # contour points of one walk, all pieces
                                # constant (_contours)
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
    sturm_counts: int       # Sturm counts; their sum is iterations


def _const_advance(y, mix, s, d):
    """Exact propagation to the nodes d of a piece where u == const.

    The system matrix A = [[c, 1], [-lam - c^2, -c]] satisfies A^2 = -lam I,
    so exp(A d) = cos(s d) I + (sin(s d)/s) A, sin(s d)/s by its series
    for small |s d|; mix is A y.  The (members, 1) columns of y, mix and
    s = sqrt(lam) meet (members, nodes) arrays.
    """
    d = np.asarray(d, dtype=complex)
    z = s * d
    small = np.abs(z) < 1e-6
    # a named factor: numpy would multiply a large temporary right operand
    # in place with the operands swapped (temporary elision), which rounds
    # complex products differently, and a member's bits must not depend
    # on the size of its block
    series = 1 - z * z / 6
    cd = np.cos(z)
    sd = np.where(small, d * series, np.sin(np.where(small, 1.0, z)) / s)
    return cd * y[0] + sd * mix[0], sd * mix[1] + cd * y[1]


def _wide_parts(lams, roots):
    """A wide walk's per-member data: the parts of lambda and s, and the
    branch, ratio and denominator of a division by s (_Py_c_quot)."""
    lam, s = np.array(lams), np.array(roots)
    sr, si = s.real.copy(), s.imag.copy()
    by_re = np.abs(sr) >= np.abs(si)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_re, si / sr, sr / si)
    denom = np.where(by_re, sr + si * ratio, sr * ratio + si)
    return lam.real.copy(), lam.imag.copy(), sr, si, by_re, ratio, denom, roots


def _wide_step(state, parts, const, d):
    """The exact step over d on u == const, as float64 arrays.

    state holds the real and imaginary parts of the members' (y1, y2) as
    two (2, members) arrays.  Every operation is CPython's in the scalar
    step of _walk: products and quotients in the formulas of _Py_c_prod
    and _Py_c_quot, a float as the complex (d, 0.0), and for z = x + iy
    cmath.cos(z) = (cos x cosh(-y), sin x sinh(-y)) and cmath.sin(z) =
    (sin x cosh(-y), -(cos x sinh(-y))), with numpy's cos and sin, which
    round like libm's, and math's cosh and sinh, since numpy's do not.
    Members with |z| < 1e-6 (the series) or |y| > 708 (cmath's other
    formula, and its overflow) take cmath itself.  So each member keeps
    the bits of its scalar step, signs of zeros included.
    """
    yr, yi = state
    lr, li, sr, si, by_re, ratio, denom, roots = parts
    kr, ki = const.real, const.imag
    kk = const * const
    tr, ti = -lr - kk.real, -li - kk.imag
    cyr, cyi = kr * yr - ki * yi, kr * yi + ki * yr        # c y
    # A y = (c y1 + y2, (-lam - c^2) y1 - c y2)
    mr = np.stack((cyr[0] + yr[1], tr * yr[0] - ti * yi[0] - cyr[1]))
    mi = np.stack((cyi[0] + yi[1], tr * yi[0] + ti * yr[0] - cyi[1]))
    zr, zi = sr * d - si * 0.0, sr * 0.0 + si * d
    far = np.abs(zi) > 708.0
    odd = np.flatnonzero(far | (np.hypot(zr, zi) < 2e-6)).tolist()
    ch, sh = 1.0, -zi
    if zi.any():
        v = np.where(far, 0.0, sh).tolist()
        ch = np.fromiter(map(math.cosh, v), float, len(v))
        sh = np.fromiter(map(math.sinh, v), float, len(v))
    cx, sx = np.cos(zr), np.sin(zr)
    cdr, cdi, snr, sni = cx * ch, sx * sh, sx * ch, -(cx * sh)
    sdr = np.where(by_re, snr + sni * ratio, snr * ratio + sni) / denom
    sdi = np.where(by_re, sni - snr * ratio, sni * ratio - snr) / denom
    for m in odd:
        z = roots[m] * d
        if abs(z) < 1e-6:
            cd, sd = cmath.cos(z), d * (1 - z * z / 6)
        else:
            try:
                cd, sd = cmath.cos(z), cmath.sin(z) / roots[m]
            except OverflowError:       # past |Im(s d)| ~ 710
                cd = sd = complex(cmath.nan, cmath.nan)
        cdr[m], cdi[m], sdr[m], sdi[m] = cd.real, cd.imag, sd.real, sd.imag
    # cos(s d) y + (sin(s d)/s) A y
    return (cdr * yr - cdi * yi + (sdr * mr - sdi * mi),
            cdr * yi + cdi * yr + (sdr * mi + sdi * mr))


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


def _columns(pairs):
    """Two (members, 1) complex columns from a list of scalar pairs."""
    arr = np.array(pairs, dtype=complex)
    return arr[:, :1], arr[:, 1:]


def _walk(pe, lam, step_scale: float, init=None, nodes=None, norm=False):
    """The one walk over the pieces of pe; every reading comes from it.

    lam is a scalar (one member) or a 1-D batch, and each member starts
    from (0, sqrt(lam)), or from init.  Each piece is walked once for all
    members.  A constant piece takes the exact step in CPython scalar
    arithmetic, member by member; from _WIDE_STEP members on, a walk
    without nodes or norm takes it as float64 arrays that round the same
    (_wide_step).  A smooth piece is cut into the cells of
    a uniform mesh, at most step_scale long, that depends on neither
    lambda nor the nodes (_mesh); each cell propagates by the exponential
    of its 4th-order Magnus exponent (_magnus_matrices), formed for the
    whole batch at once, in float64 where the mesh and every lambda are
    real, and the cells carry the classical pair, sheared from and back
    to (y1, y2) at the ends of the piece.  Where the piece holds no node
    and there is no norm, its cells are multiplied pairwise in one
    product (_chain) applied member by member (_apply); otherwise it
    takes the prefix states of its cells (_prefix), and a node inside it
    one partial Magnus step over the rest of its cell, whose lambda-free
    parts serve every member.  The coefficients that mix a member's start
    state are CPython scalars and enter the array work as (members, 1)
    columns, so each member equals its lambda walked alone, bit for bit,
    in any block.  On a potential with a smooth piece, a batch that mixes
    real and non-real lambdas walks as two batches, merged in member
    order, so that each member's cells take its own arithmetic.

    A member whose state at the end of a piece is not finite (an
    overflow of cmath comes back as NaN) gets the
    IntegrationBlowupError of that break and walks on from a zero state.
    The states at the breaks are CPython complex numbers, so only the
    array work can overflow in numpy, and its overflow and invalid
    warnings are off.

    Returns (trail, errors, out): trail[j] lists the members' (y1, y2) at
    break j and errors their failures (None or the first error).  out is
    empty without nodes; with nodes, a sorted array, it holds y1 and y2 at
    the nodes as (members, nodes) arrays, a node on a break taking the
    state of the trail and a node before 0 or past pi the state there.
    With norm, out ends with the integral of |y1|^2 over [0, pi] per
    member, summed in closed form over the cells of the walk
    (_cell_norms), each constant piece one cell.
    """
    lams = ([complex(v) for v in lam.tolist()] if getattr(lam, "ndim", 0)
            else [complex(lam)])
    roots = [_require_regular(v) for v in lams]
    members = len(lams)
    on_axis = ([v.imag == 0 for v in lams] if None in pe._constant_heights
               else ())
    if 0 < sum(on_axis) < members:
        rows = [[m for m, r in enumerate(on_axis) if r is k]
                for k in (True, False)]
        (t1, e1, o1), (t2, e2, o2) = (
            _walk(pe, lam[r], step_scale, init, nodes, norm) for r in rows)
        back = np.argsort(rows[0] + rows[1]).tolist()
        *trail, errors = ([v[k] for k in back] for v in
                          [a + b for a, b in zip(t1, t2)] + [e1 + e2])
        return trail, errors, tuple(np.concatenate(v)[back]
                                    for v in zip(o1, o2))
    if init is None:
        ys = [(0j, s) for s in roots]
    else:
        ys = [(complex(init[0]), complex(init[1]))] * members
    trail, errors, cell_terms = [ys], [None] * members, []
    # the wide step's per-member data, and its state while current
    wide = state = None
    if (members >= _WIDE_STEP and nodes is None and not norm
            and pe._constant_heights.count(None) < len(pe._constant_heights)):
        wide = _wide_parts(lams, roots)
    # nodes[left[j]:right[j]] lie on break j, nodes[right[i]:left[i + 1]]
    # inside piece i
    left = right = [0] * len(pe.breaks)
    if nodes is not None:
        left = np.searchsorted(nodes, pe.breaks).tolist()
        right = np.searchsorted(nodes, pe.breaks, side="right").tolist()
        left[0], right[-1] = 0, len(nodes)  # the ends take nodes beyond
        y1 = np.empty((members, len(nodes)), dtype=complex)
        y2 = np.empty_like(y1)
        s_col = np.array(roots)[:, None]
    for i, (a, b, const, lo, hi) in enumerate(zip(
            pe.breaks, pe.breaks[1:], pe._constant_heights, right, left[1:])):
        if const is not None and wide is not None:
            if state is None:       # (y1, y2) as (2, members) rows
                arr = np.broadcast_to(np.array(
                    ys[:1] if ys is trail[0] and init is not None else ys,
                    dtype=complex).T, (2, members))
                state = arr.real.copy(), arr.imag.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                state = _wide_step(state, wide, const, b - a)
            bad = ~(np.isfinite(state[0]) & np.isfinite(state[1])).all(0)
            for m in np.flatnonzero(bad).tolist():
                errors[m] = errors[m] or _blowup(b)
                state[0][:, m] = state[1][:, m] = 0.0
            ends = np.empty((2, members), dtype=complex)
            ends.real, ends.imag = state
            ys = list(zip(*ends.tolist()))
            trail.append(ys)
            continue
        if const is not None:
            # the exact step in CPython scalar arithmetic: exp(A d) =
            # cos(s d) I + (sin(s d)/s) A with A = [[c, 1], [-lam - c^2, -c]]
            # (A^2 = -lam I), and A y mixes the start state
            d = b - a
            mix, ends, cc = [], [], const * const
            keep = norm or hi > lo
            for m, ((v1, v2), lc, s) in enumerate(zip(ys, lams, roots)):
                w1, w2 = const * v1 + v2, (-lc - cc) * v1 - const * v2
                if keep:
                    mix.append((w1, w2))
                z = s * d
                if abs(z) < 1e-6:
                    cd, sd = cmath.cos(z), d * (1 - z * z / 6)
                else:
                    try:
                        cd, sd = cmath.cos(z), cmath.sin(z) / s
                    except OverflowError:   # past |Im(s d)| ~ 710
                        cd = sd = cmath.nan
                e1, e2 = cd * v1 + sd * w1, sd * w2 + cd * v2
                if not (cmath.isfinite(e1) and cmath.isfinite(e2)):
                    errors[m] = errors[m] or _blowup(b)
                    e1 = e2 = 0j
                ends.append((e1, e2))
            if norm:
                y0, slope = _columns([(y[0], d * mx[0])
                                      for y, mx in zip(ys, mix)])
                z = np.array([s * d for s in roots])[:, None]
                cell_terms.append((y0, slope, z, [d]))
            if hi > lo:
                with np.errstate(over="ignore", invalid="ignore"):
                    y1[:, lo:hi], y2[:, lo:hi] = _const_advance(
                        _columns(ys), _columns(mix), s_col,
                        nodes[None, lo:hi] - a)
        else:   # the cells carry the classical pair (y, y') = (y1, y2 + u y)
            with np.errstate(over="ignore", invalid="ignore"):
                h, parts, real, q, u_a, u_b = _mesh(pe, i, step_scale)
                lam_row = np.array(lams)
                cell_parts = parts
                if real is not None and not lam_row.imag.any():
                    cell_parts, lam_row = real, lam_row.real.copy()
                cells = _magnus_matrices(*cell_parts, h, lam_row)
                ycs = [(y[0], y[1] + u_a * y[0]) for y in ys]
                if hi == lo and not norm:
                    prod = _chain(cells)
                    ends = [_apply(prod[..., m], yc)
                            for m, yc in enumerate(ycs)]
                else:
                    # classical states at the cell starts and the end
                    (p00, p01), (p10, p11) = _prefix(cells)
                    yc1, yc2 = _columns(ycs)
                    c1 = np.concatenate((yc1, p00 * yc1 + p01 * yc2), axis=1)
                    c2 = np.concatenate((yc2, p10 * yc1 + p11 * yc2), axis=1)
                    ends = list(zip(c1[:, -1].tolist(), c2[:, -1].tolist()))
                    if norm:
                        delta, gamma = (v[None] for v in parts)
                        o10 = gamma - np.array([lc * h
                                                for lc in lams])[:, None]
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
                ends = [(e1, e2 - u_b * e1) for e1, e2 in ends]
            for m, (e1, e2) in enumerate(ends):
                if not (cmath.isfinite(e1) and cmath.isfinite(e2)):
                    errors[m] = errors[m] or _blowup(b)
                    ends[m] = (0j, 0j)
            state = None
        ys = ends
        trail.append(ys)
    out = ()
    if nodes is not None:
        for j, ys in enumerate(trail):
            if right[j] > left[j]:
                y1[:, left[j]:right[j]], y2[:, left[j]:right[j]] = _columns(ys)
        out = (y1, y2)
    if norm:
        y0, slope, z, length = (np.concatenate(c, axis=-1)
                                for c in zip(*cell_terms))
        with np.errstate(over="ignore", invalid="ignore"):
            out += (np.sum(length * _cell_norms(y0, slope, z), axis=-1),)
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
    batch walks in sub-blocks of at most _WALK_CELLS smooth-piece cells
    and at most _EVAL_CELLS node values over all its members.
    """
    pe = pot.piecewise
    batch = np.ndim(lam) > 0
    if batch:
        cells = sum(int(_n_sub(b - a, step_scale)) for a, b, c in zip(
            pe.breaks, pe.breaks[1:], pe._constant_heights) if c is None)
        rows = max(1, min(_WALK_CELLS // max(cells, 1),
                          _EVAL_CELLS // max(len(nodes), 1)))
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


def _char_reduced(pot: PotentialSpec, lam, *, step_scale=_DEFAULT_STEP_SCALE):
    """The characteristic function for initial slope one instead of sqrt(lam).

    Same zeros, but real-valued for real potentials at every real lam
    including lam <= 0, which makes it the right object for sign brackets.
    A 1-D batch of lam gives an array, in one call.
    """
    return _end_value(pot, lam, step_scale, (0.0, 1.0))


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
    ends = [y2 for _, y2 in trail[-1]]
    return np.array(ends) if getattr(lam, "ndim", 0) else complex(ends[0])


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

    Reads the walk from (y1, y2)(0) = (0, 1), which stays real for
    lam < 0, on the count mesh (_COUNT_STEP_SCALE): the states at the
    breaks on every potential, and inside smooth pieces only, the states
    at a grid of about 16 nodes per half-wave.  The Prufer angle theta of
    (y1, y') rises through every multiple of pi; a state lies in the band
    [k pi, (k + 1) pi) of parity "y1 < 0" (at a zero of y1, "y' < 0").
    Inside a smooth piece a zero lies where the parity flips between
    nodes.  On a constant piece the count is closed form
    (piecewise-constant Prufer counting, Pryce 1993, SLEDGE): for
    lam = s^2 > 0, y1 = R sin(s t + phi) with phi = atan2(y1, y'/s) at the
    left end, so (a, b] holds floor((s d + phi)/pi) - floor(phi/pi) zeros,
    each floor taken at the parity of the computed state (_band) so that a
    zero on a break counts once; for lam <= 0 it holds at most one, where
    the parity flips.  An eigenvalue (y2(pi) = 0, angle pi/2 mod pi) lies
    below lam exactly once more when the end angle is past it, that is
    when y1(pi) and y2(pi) differ in sign (far below, their product
    overflows).
    """
    s = abs(principal_sqrt(lam))
    pe = pot.piecewise
    heights, breaks = pe._constant_heights, pe.breaks
    nodes = None
    if None in heights:     # the grid nodes strictly inside smooth pieces
        grid = np.linspace(0.0, PI, int(16 * (s + 2)) + 9)
        piece = np.searchsorted(breaks, grid, side="right") - 1
        smooth = np.array([c is None for c in heights] + [False])
        nodes = grid[smooth[piece] & (grid > np.take(breaks, piece))]
    trail, errors, states = _walk(pe, lam, _COUNT_STEP_SCALE, (0.0, 1.0),
                                  nodes)
    _raise_first(errors)
    y1 = [ys[0][0].real for ys in trail]
    y2 = [ys[0][1].real for ys in trail]
    # the parity of each state's band
    odd = [v < 0 if v != 0 else w < 0 for v, w in zip(y1, y2)]
    if nodes is not None:
        y1n, y2n = (v[0].real for v in states)
        odd_n = np.where(y1n != 0, y1n < 0, y2n < 0)
        at = np.searchsorted(nodes, breaks).tolist()
    zeros = 0
    for j, (c, a, b) in enumerate(zip(heights, breaks, breaks[1:])):
        if c is None:
            seq = np.concatenate(([odd[j]], odd_n[at[j]:at[j + 1]],
                                  [odd[j + 1]]))
            zeros += int(np.count_nonzero(seq[1:] != seq[:-1]))
        elif lam <= 0:
            zeros += odd[j + 1] != odd[j]
        else:
            phi = math.atan2(y1[j], (y2[j] + c.real * y1[j]) / s)
            zeros += _band(phi + s * (b - a), odd[j + 1]) - _band(phi, odd[j])
    zeros -= int(y1[-1] == 0)       # a zero at pi is not interior
    # past the eigenvalue's end angle: y1(pi) and y2(pi) of opposite signs
    return zeros, zeros + int(y1[-1] < 0 < y2[-1] or y2[-1] < 0 < y1[-1])


def _brent_steps(xa: float, xb: float, xtol: float, rtol: float,
                 maxiter: int):
    """Brent's method (Brent 1973, ch. 4) as a generator of its iterates.

    It yields each x at which it needs f, is sent f(x) and returns the
    root, so a caller can drive many searches in lockstep (_solve_block);
    _brentq drives it with one function.  A statement-by-statement port of
    SciPy's C brentq (optimize/Zeros/brentq.c): its iterates, evaluations
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


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> float:
    """Root of f on [xa, xb]: the generator _brent_steps driven by f alone.

    The scalar form of the solver's Brent search, with its bits and
    failures; the solver itself drives the generator, a block of indices
    in lockstep.
    """
    steps = _brent_steps(xa, xb, xtol, rtol, maxiter)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def _count_walk(n: int, below, s0: float) -> tuple[float, float]:
    """The lambda cell (lo, hi) that holds index n alone, by Sturm counts.

    below(lam) counts the eigenvalues under lam.  The ends of the seed
    bracket s0 -+ 0.35 move in the signed root s (lam = s |s|), so bound
    states are reached like any other root: the lower end steps down while
    below reads n or more there, the upper end up while it reads less, by
    steps from 0.7 that double.  Bisection in s then leaves a cell whose
    counts n - 1 and n prove that it holds index n alone; the search finds
    the root there by Brent.  IndexingError: no such cell after
    _WALK_COUNTS counts.
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
    return lo * abs(lo), hi * abs(hi)


def _real_search(pot: PotentialSpec, n: int, s0: float):
    """The search for index n of a real potential, as a block member.

    A generator in the protocol of _solve_block.  Brent on the real part
    of the reduced characteristic over the seed bracket, then the zero
    count at its root; the count walk and Brent on its cell where the
    count disagrees (solve_eigenvalue).  Returns the SecularResult without
    its residual, which _solve_block reads for the whole block at once.
    """
    evals = counts = 0

    def below(lam):                 # lam = 0 is singular for the propagator
        nonlocal counts
        counts += 1
        return _sturm_count(pot, 1e-24 if lam == 0.0 else lam)[1]

    def root_on(lam_a, lam_b):
        nonlocal evals
        steps = _brent_steps(lam_a, lam_b, xtol=1e-13, rtol=8.9e-16,
                             maxiter=200)
        value = None
        while True:
            try:
                lam = steps.send(value)
            except StopIteration as stop:
                return stop.value
            evals += 1
            value = (yield 1e-24 if lam == 0.0 else lam).real

    lo_s, hi_s = s0 - 0.35, s0 + 0.35
    how = "bracket"
    try:
        root = yield from root_on(lo_s * abs(lo_s), hi_s * abs(hi_s))
    except ValueError:          # the seed bracket does not change sign
        root = None
    if root is None or _sturm_count(pot, root)[0] != n - 1:
        lam_lo, lam_hi = _count_walk(n, below, s0)
        how = "scan"
        try:
            root = yield from root_on(lam_lo, lam_hi)
        except ValueError:
            raise NonconvergenceError(
                f"no sign change of the secular function on [{lam_lo:.6g}, "
                f"{lam_hi:.6g}], where the count puts index {n}", best=None)
    lam_root = float(root)
    return SecularResult(n=n, lam=lam_root, sqrt_lambda=principal_sqrt(lam_root),
                         residual=None, multiplicity_hint=1,
                         iterations=evals + counts, method=how,
                         char_evals=evals, sturm_counts=counts)


def _secant_search(pot: PotentialSpec, n: int, s0: complex,
                   domain: SpectralDomain, tol_root: float):
    """The search for index n of a complex potential, as a block member.

    A generator in the protocol of _solve_block, whose lambdas are s^2:
    the damped secant in the sqrt(lam) plane from the start value and its
    +-fd difference quotient, then the drift check and the winding count
    (_winding_number) of its 16-point contour, yielded as one array of
    lambdas and sent back as one array of values (solve_eigenvalue).
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

    Each index runs as a generator (_index_search): it yields the next
    lambda at which it reads the reduced characteristic, from (0, 1) on
    the default mesh, and is sent the value.  Each round walks the pending
    lambdas of all active members at once (_walk) and sends every member
    its own value, or throws in its own IntegrationBlowupError.  A winding
    contour, an array of lambdas on the count mesh, is held until no
    member has a scalar pending; then all held contours are walked
    (_contours) and each member is sent its values or the failure at its
    contour's earliest break.  A member's Sturm counts run inside it.
    Each member sees the values its lambdas give alone, so its result
    equals the index solved alone, bit for bit; the residuals |Delta| of
    the real roots come from one characteristic walk after the last round.
    A round's walk takes at most asymptotics._BLOCK members (_ends), so
    the cell arrays of a round do not grow with the block.  Returns, in
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
        # a contour (an array of lambdas) waits while a scalar is pending
        rounds = [m for m, lam in pending.items()
                  if not isinstance(lam, np.ndarray)]
        members = rounds or list(pending)
        lams = [pending.pop(m) for m in members]
        read = _ends(pot, lams, (0.0, 1.0)) if rounds else _contours(pot, lams)
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


def _ends(pot: PotentialSpec, lams, init, step_scale=_DEFAULT_STEP_SCALE,
          step=asymptotics._BLOCK) -> tuple:
    """(y2(pi) of each lambda, the failure of each) on the mesh of
    step_scale, in walks of at most step members."""
    values, errors = [], []
    for i in range(0, len(lams), step):
        batch = np.array(lams[i:i + step], dtype=complex)
        trail, errs, _ = _walk(pot.piecewise, batch, step_scale, init)
        values += [y2 for _, y2 in trail[-1]]
        errors += errs
    return values, errors


def _contours(pot: PotentialSpec, contours) -> tuple:
    """(the reduced characteristic on each contour, the failure of each).

    A contour is an array of lambdas, walked from (0, 1) on the count mesh;
    its failure is the one at its earliest break (_first).  On constant
    pieces only, the contours walk together, at most _CONTOUR_WALK points
    a walk, so that the walks step as arrays (_wide_step); a smooth
    piece's cells cost the same per member in any batch, and there each
    contour walks alone.
    """
    k = _WINDING_POINTS
    step = (k if None in pot.piecewise._constant_heights
            else _CONTOUR_WALK // k * k)
    values, errors = _ends(pot, np.concatenate(contours), (0.0, 1.0),
                           _COUNT_STEP_SCALE, step)
    return ([np.array(values[i:i + k]) for i in range(0, len(values), k)],
            [_first(errors[i:i + k]) for i in range(0, len(errors), k)])


def solve_eigenvalue(pot: PotentialSpec, n: int, seed=None, *,
                     domain: SpectralDomain | None = None,
                     tol_root: float = 1e-12) -> SecularResult:
    """Locate the n-th eigenvalue starting from the asymptotic seed.

    This is the lockstep solver (_solve_block) on a block of one, so an
    index gets the same bits here as inside any block.

    Real potentials: one Brent search on the seed bracket sqrt(lam) =
    s0 -+ 0.35 of the reduced secular function ("bracket").  The count of
    interior zeros of y1 from (0, 1) at that root decides: n - 1 zeros
    accept it.  A bracket whose ends share a sign, or a root with another
    count, goes to the "scan" route: the count walk of _count_walk from the
    same bracket, whose Sturm counts n - 1 and n at the ends of its cell
    prove the index, and a Brent search on that cell.  ``char_evals``
    counts the secular-function evaluations and ``sturm_counts`` the Sturm
    counts of the search, not the zero count at the bracket root;
    ``iterations`` is their sum.  Every characteristic evaluation runs at
    the default step scale _DEFAULT_STEP_SCALE.

    Complex potentials: damped secant iteration in the sqrt(lam) variable
    seeded at the asymptotic prediction, steps clamped to 0.25 and iterates
    clamped to the parabolic domain; verified by an argument-principle
    winding count over 16 points of a small circle, evaluated as one batch
    (_winding_number); a block walks the contours of its indices together
    after its last secant round.  The contour runs on the count mesh
    (_COUNT_STEP_SCALE), like the Sturm count: its only output is an
    integer, and by Rouche's theorem the coarser mesh counts as many zeros
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


def _winding(F, center: complex) -> int:
    """Zero count of F inside a circle via a trapezoid winding number.

    The circle has radius _WINDING_RADIUS around center.  F takes the whole
    contour at once: its _WINDING_POINTS distinct points go to the kernel
    as one batch (_winding_number counts).  The solver's searches yield
    the lambdas of their contours to the lockstep driver instead
    (_secant_search, _solve_block), which walks them on the count mesh.
    """
    return _winding_number(F(center + _WINDING_RADIUS * _WINDING_RING))


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
