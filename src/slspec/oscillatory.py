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
and its gauge refines each member around that member's own maxima.  A
member's numbers are those of its lambda alone; the public functions here
evaluate one lambda as a block of one.
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
        members; a member's value does not depend on the others.  The first
        sample, on a grid common to all members, takes chunks of points of
        at most _EVAL_CELLS values.
        """
        comp = (self.single_sin, self.single_cos, self.double, self.square_cos)
        s, lams = self.sqrt_lam, self.lam
        if members is not None:
            comp = tuple(c.take(members) for c in comp)
            s, lams = s[members], lams[members]
        s = s[:, None]

        def sample(xs):
            # |int u sin| + |int u cos| + 2 |double| + (1/2)|int u^2 cos / s|,
            # summed in this order with one evaluation alive at a time
            ss, sc, dbl, sqc = comp
            total = np.abs(ss.eval(xs))
            total += np.abs(sc.eval(xs))
            total += 2 * np.abs(dbl.eval(xs))
            total += 0.5 * np.abs(sqc.eval(xs) / s)
            return total

        grid = np.union1d(np.linspace(0.0, PI, max(int(sup_grid), 16)),
                          np.asarray(self.pot.breaks))
        xs = [grid] * len(lams)
        step = max(1, _EVAL_CELLS // len(lams))
        vals = [np.empty(len(grid)) for _ in lams]
        for i in range(0, len(grid), step):
            for row, part in zip(vals, sample(grid[i:i + step])):
                row[i:i + step] = part
        for _ in range(2):
            new = []
            for x, val in zip(xs, vals):
                extra = []
                for i in np.argsort(val)[-3:]:
                    lo = x[max(int(i) - 1, 0)]
                    hi = x[min(int(i) + 1, len(x) - 1)]
                    extra.append(np.linspace(lo, hi, 15))
                new.append(np.setdiff1d(np.concatenate(extra), x))
            # sampling is pointwise: evaluate the new points only, each
            # member's in its own row (padded with pi), and merge them into
            # the member's sorted grid
            rows = _rows(new)
            got = sample(rows) if rows.size else rows
            for k, p in enumerate(new):
                at = np.searchsorted(xs[k], p)
                vals[k] = np.insert(vals[k], at, got[k, :len(p)])
                xs[k] = np.insert(xs[k], at, p)
        return [self._gauge_value(x, val, lam, sup_grid)
                for x, val, lam in zip(xs, vals, lams)]

    def _gauge_value(self, xs, vals, lam, sup_grid) -> GaugeValue:
        tail = float(self.pot.l2_norm_sq / abs(complex(lam)) ** 0.5)
        best = float(vals.max())
        gaps = np.diff(xs)
        slopes = np.abs(np.diff(vals)) / np.maximum(gaps, 1e-300)
        upper = best + float(slopes.max() * gaps.max() / 2) if len(xs) > 1 else best
        return GaugeValue(value=best + tail, tail=tail,
                          upper_estimate=upper + tail, sup_grid=int(sup_grid))


def _rows(points) -> np.ndarray:
    """Points of varying number, one row per member, padded with pi."""
    rows = np.full((len(points), max(len(p) for p in points)), PI)
    for row, p in zip(rows, points):
        row[:len(p)] = p
    return rows


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
