"""Independent ground truth for the spectral problem.

Nothing in this module evaluates the asymptotic expansions except for root
seeds; eigenfunction phases are aligned to a table the caller supplies.
Two routes are provided and cross-checked against each other in the test
suite:

* one propagator for the first-order quasi-derivative system in
  (y, y' - u y): the exact constant-coefficient exponential inside constant
  pieces and fixed-step 4th-order RK4 inside smooth ones.  The pair stays
  continuous across the point interactions of q = u' (the jumps of a step
  u), so piecewise-constant u is solved exactly with no jump rule;
* the phase/log-modulus equations obtained from the modified Prufer
  substitution y = r sin(theta), y' - u y = sqrt(lam) r cos(theta).

Eigenvalues solve Delta(lam) = (y' - u y)(pi) = 0 for the solution vanishing
at 0.  The classical Neumann condition y'(pi) = 0 is ill-defined for
distributional q; the quasi-derivative condition is the correct reading, and
it makes a constant shift of u act as a Robin parameter (documented in the
potential module).

Fixed deterministic steps are used on purpose: the trajectories are
oscillatory, and deterministic grids keep cross-method and step-halving
comparisons exact.

The characteristic needs only the end state.  There a smooth piece is not
stepped state by state: its RK4 step matrices are multiplied pairwise, in
chunks of _FOLD_CHUNK steps, and the product is applied once.  The same
kernel takes a 1-D batch of lambda in one call; each smooth piece then cuts
its step table for the largest |sqrt(lambda)| of the batch, and the
argument-principle check evaluates its 16-point contour that way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from . import asymptotics, moments
from .errors import (IndexingError, IntegrationBlowupError, InternalError,
                     NonconvergenceError)
from .oscillatory import SpectralDomain, _require_regular, principal_sqrt
from .potential import PI, PotentialSpec

_DEFAULT_STEP_SCALE = 0.004     # phase advance |sqrt(lam)| * h per RK4 step
_PRUFER_STEP_SCALE = 0.02
_H_MAX = 0.05                   # longest step whatever the phase advance
_MAX_SECANT_ITER = 80
_NORM_INTERVALS = 32768         # Simpson intervals of the eigenfunction norm
_SHARED_ROOT_RTOL = 1e-6        # sqrt(lam) of two indices this close: one root
_FOLD_CHUNK = 512               # RK4 steps per chunk of an end-state fold


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


def _mul(a, b):
    """a @ b for 2x2 matrices given as (m00, m01, m10, m11) components."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _rk4_matrices(u0, um, u1, lam, h):
    """Batched RK4 one-step propagators for Y' = A(x) Y.

    A(u) = [[u, 1], [-lam - u^2, -u]].  u0, um, u1 (u at the left end, the
    middle and the right end of each step) have one entry per step and h
    one per step or one for all.  lam is a scalar or a 1-D batch, which
    leads the result: shape lam.shape + (steps, 2, 2).  The 2x2 products
    are written out component by component.
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
    out = np.empty(lam.shape[:-1] + (len(u0), 2, 2), dtype=complex)
    out[..., 0, 0] = 1.0 + h6 * (u0 + 2 * k2[0] + 2 * k3[0] + k4[0])
    out[..., 0, 1] = h6 * (1.0 + 2 * k2[1] + 2 * k3[1] + k4[1])
    out[..., 1, 0] = h6 * (c0 + 2 * k2[2] + 2 * k3[2] + k4[2])
    out[..., 1, 1] = 1.0 + h6 * (-u0 + 2 * k2[3] + 2 * k3[3] + k4[3])
    return out


def _chain(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[..., -1, :, :] @ ... @ mats[..., 0, :, :].

    Pairwise reduction along the step axis, each 2x2 product written out
    component by component; leading axes (a batch of lambda) ride along.
    """
    cur = [mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1]]
    while cur[0].shape[-1] > 1:
        k = cur[0].shape[-1] // 2
        prod = _mul([x[..., 1:2 * k:2] for x in cur],
                    [x[..., 0:2 * k:2] for x in cur])
        if cur[0].shape[-1] % 2:
            prod = [np.concatenate((p, x[..., -1:]), axis=-1)
                    for p, x in zip(prod, cur)]
        cur = prod
    out = np.empty(mats.shape[:-3] + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = (
        x[..., 0] for x in cur)
    return out


def _fold(u_lo, u_mid, u_hi, lam, hs, y):
    """y carried across a smooth piece by the product of its RK4 steps.

    The step matrices are built and multiplied pairwise (_chain) in chunks
    of _FOLD_CHUNK steps counted from the start of the piece, and the chunk
    products are then multiplied pairwise in turn.  Because the chunk is a
    power of two this is the pairwise tree of one _chain over the whole
    table, bit for bit, without holding the whole table at once.  The
    product is applied to y in scalar complex arithmetic, one lambda at a
    time: numpy's array products of complex numbers can fuse multiply and
    add (SIMD loops on FMA hardware) where its scalar products do not, and
    the scalar form keeps a member of a batch equal to the same lambda
    evaluated alone.
    """
    p = _chain(np.stack([
        _chain(_rk4_matrices(u_lo[c:c + _FOLD_CHUNK], u_mid[c:c + _FOLD_CHUNK],
                             u_hi[c:c + _FOLD_CHUNK], lam, hs[c:c + _FOLD_CHUNK]))
        for c in range(0, len(hs), _FOLD_CHUNK)], axis=-3))
    if p.ndim == 2:
        (p00, p01), (p10, p11) = p.tolist()
        return p00 * y[0] + p01 * y[1], p10 * y[0] + p11 * y[1]
    rows = zip(p.tolist(), np.broadcast_to(y[0], len(p)).tolist(),
               np.broadcast_to(y[1], len(p)).tolist())
    out = np.array([(p00 * a + p01 * b, p10 * a + p11 * b)
                    for ((p00, p01), (p10, p11)), a, b in rows])
    return out[:, 0], out[:, 1]


def _n_sub(span, s_mag, step_scale):
    """RK4 steps per span (scalar or array): phase advance and length capped."""
    need = np.maximum(span * max(1.0, s_mag) / step_scale, span / _H_MAX)
    return np.maximum(1, np.ceil(need - 1e-12)).astype(np.int64)


def _regular_root(lam):
    """sqrt(lam) away from 0, of a scalar or of each member of a 1-D array."""
    if isinstance(lam, np.ndarray) and lam.ndim:
        return np.array([_require_regular(v) for v in lam])
    return _require_regular(lam)


def _dense_states(pot: PotentialSpec, lam, nodes, *, step_scale,
                  force_rk4=False, init=None):
    """(y1, y2) at every node of a sorted unique array in [0, pi].

    lam is a scalar or a 1-D batch.  A batch gives arrays of shape
    (nodes, batch) and takes states only at 0, at piece ends and at the
    last node; each smooth piece cuts one step table for the largest
    |sqrt(lam)| of the batch, so every member advances at most step_scale
    in phase per step, and samples u once.  A smooth piece whose only
    recorded stop is its own end is folded (_fold); one with stops inside
    runs the step recurrence and records the states at the stops.
    """
    s = _regular_root(lam)
    batch = isinstance(s, np.ndarray)
    lamc = np.asarray(lam, dtype=complex) if batch else complex(lam)
    s_mag = float(np.abs(s).max()) if batch else abs(s)
    pe = pot.piecewise
    nodes = np.asarray(nodes, dtype=float)
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
    for i, (a, end, j1) in enumerate(zip(pe.breaks, piece_ends, cuts)):
        if pos >= len(nodes) or a >= maxnode - 1e-15:
            break
        const = None if force_rk4 else _piece_constant(pe, i)
        if const is not None:
            y_end = _const_advance(y, const, lamc, s, end - a)
            # a node at the end of the piece takes the end state
            k = j1 - 1 if j1 > pos and nodes[j1 - 1] == end else j1
            if k > pos:
                y1[pos:k], y2[pos:k] = _const_advance(y, const, lamc, s,
                                                      nodes[pos:k] - a)
            y1[k:j1], y2[k:j1] = y_end
            y = y_end
        else:
            # RK4 step table: each gap between stops is cut into nsub equal
            # steps; the states at the recorded stops are kept
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
            u_lo = moments._eval_atoms(pe.pieces[i], lefts - a)
            u_mid = moments._eval_atoms(pe.pieces[i], lefts + hs / 2 - a)
            u_hi = moments._eval_atoms(pe.pieces[i], lefts + hs - a)
            if len(stops) == 1:
                y = _fold(u_lo, u_mid, u_hi, lamc, hs, y)
                y1[pos:j1], y2[pos:j1] = y
            else:
                mats = _rk4_matrices(u_lo, u_mid, u_hi, lamc, hs)
                flat = mats.reshape(len(mats), 4).tolist()
                marks = iter((ends[:len(sel)] - 1).tolist() + [-1])
                mark, k = next(marks), pos
                a1, a2 = y
                for j, (m00, m01, m10, m11) in enumerate(flat):
                    a1, a2 = m00 * a1 + m01 * a2, m10 * a1 + m11 * a2
                    if j == mark:
                        y1[k], y2[k] = a1, a2
                        mark, k = next(marks), k + 1
                y = (a1, a2)
        if not (np.isfinite(y).all() if batch
                else cmath.isfinite(y[0]) and cmath.isfinite(y[1])):
            raise IntegrationBlowupError(f"non-finite state at x = {end}",
                                         location=float(end))
        pos = j1
    return y1, y2


def _node_set(grid: np.ndarray, breaks) -> np.ndarray:
    """grid, 0 and the breaks below grid[-1], sorted and without repeats.

    The few breaks are merged into the sorted grid: each run of breaks that
    falls between two grid points goes in as one block, and a break equal
    to a grid point is dropped.
    """
    last = float(grid[-1])
    extra = sorted({0.0, *[b for b in breaks if b < last]})
    parts, prev = [], 0
    for c, b in zip(grid.searchsorted(extra).tolist(), extra):
        if c < grid.size and grid[c] == b:
            continue
        if not parts or c != prev:
            parts += [grid[prev:c], []]
            prev = c
        parts[-1].append(b)
    if not parts:
        return grid
    parts.append(grid[prev:])
    return np.concatenate(parts)


def integrate_quasi_system(pot: PotentialSpec, lam, grid, *,
                           step_scale: float = _DEFAULT_STEP_SCALE,
                           force_rk4: bool = False,
                           init=None) -> QuasiTrajectory:
    """Trajectory of (y1, y2) = (y, y' - u y) from (0, sqrt(lam)) at x = 0.

    Constant pieces propagate with the exact matrix exponential (the free
    evolution conjugated by the u-shear) unless force_rk4 is set; smooth
    pieces use fixed-step RK4 with phase advance <= step_scale per step.
    lam may be a 1-D batch when the grid holds only piece ends (the
    characteristic's [pi]); y1 and y2 then have shape (grid, batch).
    """
    s = _regular_root(lam)
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("grid must be strictly increasing")
    if not (grid.size and grid[0] >= -1e-12 and grid[-1] <= PI + 1e-9):
        raise ValueError("grid must be a nonempty subset of [0, pi]")
    nodes = _node_set(grid, pot.breaks)
    y1n, y2n = _dense_states(pot, lam, nodes, step_scale=step_scale,
                             force_rk4=force_rk4, init=init)
    idx = np.searchsorted(nodes, grid)
    return QuasiTrajectory(x=grid.copy(), y1=y1n[idx], y2=y2n[idx], sqrt_lambda=s)


def characteristic(pot: PotentialSpec, lam, *,
                   step_scale: float = _DEFAULT_STEP_SCALE,
                   force_rk4: bool = False):
    """Delta(lam) = y2(pi) for the solution with (y1, y2)(0) = (0, sqrt(lam)).

    Zeros of Delta are exactly the eigenvalues of the Dirichlet/regularized
    Neumann problem.  A 1-D batch of lam gives an array, in one call.
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


def integrate_prufer(pot: PotentialSpec, lam, grid, *,
                     step_scale: float = _PRUFER_STEP_SCALE) -> PruferTrajectory:
    """Phase and log-modulus trajectories with theta(0) = 0, log r(0) = 0.

    Integrates theta' = s + u^2 sin^2(theta)/s + u sin(2 theta) and
    (log r)' = -(u cos(2 theta) + u^2 sin(2 theta)/(2 s)) with fixed RK4
    steps; the log-modulus rather than r itself is integrated so complex
    lam cannot overflow.
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
        nsub = int(_n_sub(x1 - x0, abs(s), step_scale))
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


def _sturm_count(pot: PotentialSpec, lam, *, step_scale) -> tuple[int, int]:
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
                     method: str = "auto",
                     step_scale: float = _DEFAULT_STEP_SCALE) -> SecularResult:
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
    of the search, not the verifying count.

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
                return float(_char_reduced(pot, lam, step_scale=step_scale).real)
        def below(lam):
            calls[0] += 1
            if lam == 0.0:
                lam = 1e-24
            return _sturm_count(pot, lam, step_scale=step_scale)[1]
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
        residual = abs(characteristic(pot, lam_root, step_scale=step_scale))
        k, _ = _sturm_count(pot, lam_root, step_scale=step_scale)
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
    mult = _winding(F, s_root, radius=0.2)
    if mult < 1:
        raise IndexingError(
            f"argument-principle count {mult} around lambda = {lam_root:.6g}")
    return SecularResult(n=n, lam=complex(lam_root), sqrt_lambda=complex(s_root),
                         residual=float(residual), multiplicity_hint=int(mult),
                         iterations=calls[0], method="secant")


def _winding(F, center: complex, radius: float = 0.2, points: int = 16) -> int:
    """Zero count of F inside the circle via a trapezoid winding number.

    F takes the whole contour at once: the points distinct points on the
    circle go to the kernel as one batch, and the phase is closed by the
    first value again.
    """
    vals = np.asarray(F(center + radius * np.exp(2j * PI * np.arange(points)
                                                 / points)))
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


def solve_spectrum(pot: PotentialSpec, n_values, **kwargs) -> list:
    """solve_eigenvalue over a range, collecting failures as flagged points.

    Indices that converged to one shared root are flagged as well.
    """
    points = []
    for n in n_values:
        point = asymptotics.eigenvalue_asym(pot, n)
        try:
            res = solve_eigenvalue(pot, n, seed=point, **kwargs)
            point.sqrt_lambda_numeric = res.sqrt_lambda
            point.residual = res.residual
        except (NonconvergenceError, IndexingError, IntegrationBlowupError) as exc:
            point.flag = f"degraded: {exc}"
        points.append(point)
    _flag_shared_roots(points)
    return points


# -- numeric eigenfunctions ---------------------------------------------------


def eigenfunction_numeric(pot: PotentialSpec, lam, grid, *,
                          align_to: asymptotics.EigenfunctionTable | None = None,
                          step_scale: float = _DEFAULT_STEP_SCALE):
    """Normalized y1 trajectory at a converged eigenvalue.

    The norm is a composite Simpson integral of |y|^2 on a dense uniform
    grid of _NORM_INTERVALS intervals, so tables on different grids share
    one normalization.  When the caller passes a table on the same grid as
    align_to, the sign (unimodular phase in the complex case) is aligned to
    it and the result takes its index; this module never builds such a
    table itself.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if align_to is not None and not np.array_equal(align_to.grid, grid):
        raise ValueError("align_to table lives on a different grid")
    dense = np.linspace(0.0, PI, _NORM_INTERVALS + 1)
    nodes = np.union1d(np.union1d(dense, grid), np.asarray(pot.breaks))
    y1n, _ = _dense_states(pot, lam, nodes, step_scale=step_scale)
    dense_vals = y1n[np.searchsorted(nodes, dense)]
    nrm2 = float(simpson(np.abs(dense_vals) ** 2, x=dense))
    if not nrm2 > 0:
        raise InternalError("zero-norm trajectory cannot be an eigenfunction")
    vals = y1n[np.searchsorted(nodes, grid)] / math.sqrt(nrm2)
    note = f"unit L2 norm (Simpson, {_NORM_INTERVALS} intervals)"
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
