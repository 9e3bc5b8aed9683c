"""The oscillatory correction function and the remainder gauge.

All asymptotic formulas in this package are driven by one correction
function of four additive terms,

    v(x, lam) =   int_0^x u(t) sin(2 s t) dt
                + (1/(2s)) int_0^x u(t)^2 dt
                + 2 int_0^x int_0^t u(t) u(s') cos(2 s t) sin(2 s s') ds' dt
                - (1/(2s)) int_0^x u(t)^2 cos(2 s t) dt,       s = sqrt(lam),

and by a supremum-type gauge gamma(lam) whose square bounds every remainder
empirically.  Both are evaluated exactly per piece: the double integral is
never treated as a 2-D quadrature, its inner antiderivative is itself a
closed-form piecewise object, so the cost stays quadratic in the number of
pieces.

The principal branch Re sqrt(lam) >= 0 is used throughout; lam = 0 is
rejected because the formulas are large-lambda statements.

The profile behind v and gamma takes a block of lambdas at once: its
objects are moments blocks on the kernel frequency vector s = sqrt(lam),
and its gauge refines each member around that member's own maxima.  The
gauge works a chunk of members at a time: their grids are the rows of
one padded array, each refinement pass is whole-array work on it, and
the four terms it samples at the same points share their exponentials.
A member's numbers are those of its lambda alone; the public functions
here evaluate one lambda as a block of one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import moments
from .errors import SingularArgumentError
from .potential import PI, PotentialSpec


# Values per evaluation of a block of closed-form objects: wider blocks
# are evaluated in chunks, so a temporary holds at most _EVAL_CELLS complex
# values (256 KB).
_EVAL_CELLS = 1 << 14


def principal_sqrt(lam) -> complex:
    """sqrt(lam) with Re >= 0 (and Im >= 0 on the negative real axis).

    cmath.sqrt already gives Re >= 0, but on the negative real axis it
    follows the sign of a zero imaginary part: sqrt(-4 - 0j) is -2j.
    """
    s = cmath.sqrt(complex(lam))
    if s.real == 0 and s.imag < 0:
        s = complex(0.0, -s.imag)
    return s


def _require_regular(lam) -> complex:
    s = principal_sqrt(lam)
    if abs(s) < 1e-12:
        raise SingularArgumentError("lambda = 0 is a singular argument")
    return s


@dataclass(frozen=True)
class SpectralDomain:
    """Parabolic region |Im sqrt(lam)| < alpha."""

    alpha: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class CorrectionTerms:
    """The four additive terms of the correction function and their sum."""

    term_single_sin: complex
    term_l2: complex
    term_double: complex
    term_u2_cos: complex

    @property
    def total(self) -> complex:
        return (self.term_single_sin + self.term_l2
                + self.term_double + self.term_u2_cos)


@dataclass(frozen=True)
class GaugeValue:
    """Sampled value of the remainder gauge at one lambda.

    ``value`` is the sampled supremum of the four-term bracket plus the
    exact tail |lam|^{-1/2} ||u||^2, hence a certified lower bound of the
    true gauge; ``upper_estimate`` adds a modulus-of-continuity allowance
    for the sampling grid.
    """

    value: float
    tail: float
    upper_estimate: float
    sup_grid: int


class _CorrectionProfile:
    """Closed-form x-profiles of every integral entering v and gamma.

    One profile serves a block of lambdas, one member each: its objects
    are moments blocks whose kernel frequency vector is s = sqrt(lam), and
    member k's numbers are those of lams[k] alone.
    """

    def __init__(self, pot: PotentialSpec, lams):
        self.pot = pot
        self.lam = np.array([complex(lam) for lam in lams])
        self.sqrt_lam = np.array([_require_regular(lam) for lam in lams])
        u = pot.piecewise
        # sin(2 s x) and cos(2 s x); the brackets at m^2 read them as well
        self.sin_k, self.cos_k = moments.harmonic_kernels(self.sqrt_lam, 2,
                                                           u.breaks)
        self.single_sin = (u * self.sin_k).antiderivative()
        self.square_plain = pot.square_antiderivative
        self.square_cos = (pot.piecewise_sq * self.cos_k).antiderivative()
        # inner antiderivative S(t) composed per piece, then the outer moment
        self._u_cos = u * self.cos_k
        self.double = (self._u_cos * self.single_sin).antiderivative()

    @cached_property
    def single_cos(self):
        """int_0^x u cos(2 s t) dt; predictions never read it."""
        return self._u_cos.antiderivative()

    @cached_property
    def square_sin(self):
        """int_0^x u^2 sin(2 s t) dt: the leading modulus and the brackets."""
        return (self.pot.piecewise_sq * self.sin_k).antiderivative()

    def terms(self, x) -> CorrectionTerms:
        """The four terms at x, shape (members,) + shape of x.

        A 2-D x holds one row of points per member (see PiecewiseExp.eval).
        """
        single_sin = self.single_sin.eval(x)
        s = self.sqrt_lam.reshape((-1,) + (1,) * (single_sin.ndim - 1))
        return CorrectionTerms(
            term_single_sin=single_sin,
            term_l2=self.square_plain.eval(x) / (2 * s),
            term_double=2 * self.double.eval(x),
            term_u2_cos=-self.square_cos.eval(x) / (2 * s),
        )

    def v(self, x):
        t = self.terms(x)
        return t.term_single_sin + t.term_l2 + t.term_double + t.term_u2_cos

    def gauge(self, sup_grid: int = 256, members=None) -> list:
        """Sampled remainder gauge of each member (see ``remainder_gauge``).

        members (positions in the block) limits the sampling to those
        members; a member's value does not depend on the others.  The
        members go in chunks whose grids, refined twice, stay within
        _EVAL_CELLS values (_gauge_chunk); a chunk's first sample takes
        chunks of points when one member's grid alone exceeds them.
        """
        objects = (self.single_sin, self.single_cos, self.double,
                   self.square_cos)
        positions = (np.arange(len(self.lam)) if members is None
                     else np.asarray(members, int))
        grid = np.union1d(np.linspace(0.0, PI, max(int(sup_grid), 16)),
                          np.asarray(self.pot.breaks))
        cap = max(1, _EVAL_CELLS // (len(grid) + 2 * _PASS_POINTS))
        parts = -(-len(positions) // cap)
        bounds = [len(positions) * i // parts for i in range(parts + 1)]
        out = []
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = positions[lo:hi]
            comp = (objects if members is None and parts == 1
                    else tuple(c.take(chunk) for c in objects))
            out += self._gauge_chunk(comp, chunk, grid, sup_grid)
        return out

    def _gauge_chunk(self, comp, chunk, grid, sup_grid) -> list:
        """The gauges of the members at positions chunk, objects comp.

        Every member's grid is one row, padded on the right (points inf,
        values 0) to the longest one, and each refinement pass is
        whole-array work on the chunk (_refine).  The four objects of a
        sample share their phases (PiecewiseExp.eval).
        """
        s = self.sqrt_lam[chunk][:, None]

        def sample(xs):
            # |int u sin| + |int u cos| + 2 |double| + (1/2)|int u^2 cos / s|,
            # summed in this order with one evaluation alive at a time
            ss, sc, dbl, sqc = comp
            phases = {}
            total = np.abs(ss.eval(xs, phases))
            total += np.abs(sc.eval(xs, phases))
            # the double reads a copy: the phases only it has (4 s) die
            # with its evaluation
            total += 2 * np.abs(dbl.eval(
                xs, {piece: dict(keys) for piece, keys in phases.items()}))
            total += 0.5 * np.abs(sqc.eval(xs, phases) / s)
            return total

        vals = np.empty((len(chunk), len(grid)))
        step = max(1, _EVAL_CELLS // len(chunk))
        for i in range(0, len(grid), step):
            vals[:, i:i + step] = sample(grid[i:i + step])
        xs = np.broadcast_to(grid, vals.shape)
        count = np.full(len(chunk), len(grid))
        for _ in range(2):
            xs, vals, count = _refine(xs, vals, count, sample)
        return self._gauge_values(xs, vals, count, self.lam[chunk], sup_grid)

    def _gauge_values(self, xs, vals, count, lams, sup_grid) -> list:
        """GaugeValue of each row of a chunk's padded grids and values.

        The sup, the gaps and the slopes are those of the member's own
        points; the padding takes no part.  The tail is a Python scalar
        per member: numpy's complex abs may differ from Python's by an ulp.
        """
        inner = np.arange(xs.shape[1] - 1) < (count - 1)[:, None]
        gaps = np.subtract(xs[:, 1:], xs[:, :-1], out=np.zeros(inner.shape),
                           where=inner)
        rise = np.subtract(vals[:, 1:], vals[:, :-1],
                           out=np.zeros(inner.shape), where=inner)
        slopes = np.abs(rise) / np.maximum(gaps, 1e-300)
        best = vals.max(axis=1)
        upper = best + slopes.max(axis=1) * gaps.max(axis=1) / 2
        out = []
        for top, up, lam in zip(best.tolist(), upper.tolist(), lams):
            tail = float(self.pot.l2_norm_sq / abs(complex(lam)) ** 0.5)
            out.append(GaugeValue(value=top + tail, tail=tail,
                                  upper_estimate=up + tail,
                                  sup_grid=int(sup_grid)))
        return out


# A refinement pass adds at most this many points to a member's grid:
# three windows of 15 points whose ends are grid points already.
_PASS_POINTS = 3 * 13


def _refine(xs, vals, count, sample):
    """One refinement pass of a chunk of members; new (xs, vals, count).

    Row k holds member k's sorted grid and its values in its first
    count[k] columns.  Around each of the member's three largest values,
    at grid position i, the pass samples np.linspace(x[i-1], x[i+1], 15)
    (ends clamped to the grid), keeps the points its grid lacks, and
    merges them in.  The three positions are those of
    np.argsort(row)[-3:]: the same set whenever the third and fourth
    largest values differ, and otherwise taken from that argsort.
    """
    width = len(vals)
    rows = np.arange(width)[:, None]
    top = np.argpartition(vals, -4, axis=1)[:, -4:]
    ranked = np.take_along_axis(vals, top, axis=1)
    top = top[:, 1:]
    for k in np.flatnonzero(~(ranked[:, 1:].min(axis=1) > ranked[:, 0])):
        top[k] = np.argsort(vals[k, :count[k]])[-3:]
    lo = xs[rows, np.maximum(top - 1, 0)]
    at = xs[rows, top]
    hi = xs[rows, np.minimum(top + 1, count[:, None] - 1)]
    lo, at, hi = (v[..., None] for v in (lo, at, hi))
    # np.linspace(lo, hi, 15) of each window, in its arithmetic
    cand = np.arange(15.0) * ((hi - lo) / 14) + lo
    cand[..., -1:] = hi
    # the grid is sorted, so a window's point can equal only the window's
    # own three grid points; the others go last as inf, and so do the
    # repeats where windows overlap
    fresh = (cand != lo) & (cand != at) & (cand != hi)
    new = np.sort(np.where(fresh, cand, np.inf).reshape(width, -1), axis=1)
    new[:, 1:][new[:, 1:] == new[:, :-1]] = np.inf
    new = np.sort(new, axis=1)
    added = np.isfinite(new).sum(axis=1)
    if not added.any():
        return xs, vals, count
    new = new[:, :added.max()]
    # each member's new points in its own row, padded with pi
    got = sample(np.minimum(new, PI))
    got[np.isinf(new)] = 0.0
    merged = np.concatenate([xs, new], axis=1)
    order = np.argsort(merged, axis=1)
    xs = np.take_along_axis(merged, order, axis=1)
    vals = np.take_along_axis(np.concatenate([vals, got], axis=1), order,
                              axis=1)
    count = count + added
    return xs[:, :count.max()], vals[:, :count.max()], count


def _member(values, shape):
    """The one member of a block of one, evaluated at x.reshape(-1).

    A single-lambda call flattens x because the block reads a 2-D x as one
    row of points per member; the values get the shape of x back, and a
    scalar x gives a complex.
    """
    first = values[0].reshape(shape)
    return complex(first) if first.ndim == 0 else first


def correction_terms(pot: PotentialSpec, x, lam) -> CorrectionTerms:
    """Evaluate the four correction terms at coordinate x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    t = _CorrectionProfile(pot, [lam]).terms(x.reshape(-1))
    return CorrectionTerms(*(_member(getattr(t, f.name), x.shape)
                             for f in fields(t)))


def remainder_gauge(pot: PotentialSpec, lam, sup_grid: int = 256) -> GaugeValue:
    """Sample the remainder gauge at lam.

    The supremum over [0, pi] is taken over the breakpoints, a uniform grid
    of sup_grid points and two local refinement passes around the observed
    maxima.  The reported value is a lower bound of the true supremum plus
    the exact tail; upper_estimate adds max-slope * gap / 2.
    """
    return _CorrectionProfile(pot, [lam]).gauge(sup_grid)[0]
