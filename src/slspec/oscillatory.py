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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import SingularArgumentError
from .potential import PI, PotentialSpec


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
    """Closed-form x-profiles of every integral entering v and gamma at fixed lam."""

    def __init__(self, pot: PotentialSpec, lam):
        self.pot, self.lam = pot, lam
        self.sqrt_lam = _require_regular(lam)
        s2 = 2 * self.sqrt_lam
        u = pot.piecewise
        u2 = pot.piecewise_sq
        sin_k = moments.sin_kernel(s2, u.breaks)
        cos_k = moments.cos_kernel(s2, u.breaks)
        self.single_sin = (u * sin_k).antiderivative()
        self.single_cos = (u * cos_k).antiderivative()
        self.square_plain = u2.antiderivative()
        self.square_cos = (u2 * cos_k).antiderivative()
        # inner antiderivative S(t) composed per piece, then the outer moment
        self.double = (u * cos_k * self.single_sin).antiderivative()

    def terms(self, x) -> CorrectionTerms:
        s = self.sqrt_lam
        return CorrectionTerms(
            term_single_sin=self.single_sin.eval(x),
            term_l2=self.square_plain.eval(x) / (2 * s),
            term_double=2 * self.double.eval(x),
            term_u2_cos=-self.square_cos.eval(x) / (2 * s),
        )

    def v(self, x):
        t = self.terms(x)
        return t.term_single_sin + t.term_l2 + t.term_double + t.term_u2_cos

    def gauge(self, sup_grid: int = 256) -> GaugeValue:
        """Sampled remainder gauge at this lambda (see ``remainder_gauge``)."""
        s = self.sqrt_lam
        comp = (self.single_sin, self.single_cos, self.double, self.square_cos)
        pot = self.pot

        def sample(xs):
            ss, sc, dbl, sqc = (c.eval(xs) for c in comp)
            # |int u sin| + |int u cos| + 2 |double| + (1/2)|int u^2 cos / s|
            return (np.abs(ss) + np.abs(sc) + 2 * np.abs(dbl)
                    + 0.5 * np.abs(sqc / s))

        xs = np.union1d(np.linspace(0.0, PI, max(int(sup_grid), 16)),
                        np.asarray(pot.breaks))
        vals = sample(xs)
        for _ in range(2):
            order = np.argsort(vals)[-3:]
            extra = []
            for i in order:
                lo = xs[max(int(i) - 1, 0)]
                hi = xs[min(int(i) + 1, len(xs) - 1)]
                extra.append(np.linspace(lo, hi, 15))
            # sampling is pointwise: evaluate the new points only and merge
            # them into the sorted grid
            new = np.setdiff1d(np.concatenate(extra), xs)
            at = np.searchsorted(xs, new)
            vals = np.insert(vals, at, sample(new))
            xs = np.insert(xs, at, new)
        tail = float(pot.l2_norm_sq / abs(complex(self.lam)) ** 0.5)
        best = float(vals.max())
        gaps = np.diff(xs)
        slopes = np.abs(np.diff(vals)) / np.maximum(gaps, 1e-300)
        upper = best + float(slopes.max() * gaps.max() / 2) if len(xs) > 1 else best
        return GaugeValue(value=best + tail, tail=tail,
                          upper_estimate=upper + tail, sup_grid=int(sup_grid))


def correction_terms(pot: PotentialSpec, x, lam) -> CorrectionTerms:
    """Evaluate the four correction terms at coordinate x (scalar or array)."""
    return _CorrectionProfile(pot, lam).terms(x)


def remainder_gauge(pot: PotentialSpec, lam, sup_grid: int = 256) -> GaugeValue:
    """Sample the remainder gauge at lam.

    The supremum over [0, pi] is taken over the breakpoints, a uniform grid
    of sup_grid points and two local refinement passes around the observed
    maxima.  The reported value is a lower bound of the true supremum plus
    the exact tail; upper_estimate adds max-slope * gap / 2.
    """
    return _CorrectionProfile(pot, lam).gauge(sup_grid)
