"""Exact integration of piecewise polynomial-exponential functions.

Everything the library integrates in closed form reduces to sums of atoms
p(s) * exp(i*nu*s) on a piece, where s is the coordinate relative to the left
end of the piece and p is a polynomial with complex coefficients.  The class
of such sums is closed under addition, multiplication, conjugation and
antidifferentiation, which is what makes the oscillatory integrals of the
asymptotic formulas exactly computable piece by piece.

Antiderivatives of an atom are computed by the usual descending recursion in
the polynomial degree when |nu| * h is large enough for it to be stable, and
by a truncated power series in (i*nu) otherwise.  The crossover threshold
grows with the degree so that neither branch loses more than a few ulps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Atom below this |nu|*h (scaled with degree) integrates via the power series.
_SERIES_BASE = 2.0
_SERIES_SLOPE = 0.55
_SERIES_MAX_TERMS = 90


def _series_threshold(degree: int) -> float:
    return max(_SERIES_BASE, _SERIES_SLOPE * degree + 0.5)


def _trim(coeffs):
    """Drop trailing (high-degree) zero coefficients; keep at least one."""
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _polyval(coeffs, s):
    """Horner evaluation, ascending coefficients; s scalar or ndarray."""
    acc = np.zeros_like(s, dtype=complex) if isinstance(s, np.ndarray) else 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _polyint(coeffs):
    return (0j,) + tuple(c / (j + 1) for j, c in enumerate(coeffs))


def _polyadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] += c
    return _trim(out)


def _polymul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _polyshift(coeffs, delta):
    """Coefficients of p(s + delta) from those of p(s)."""
    out = [0j] * len(coeffs)
    for c in reversed(coeffs):
        # multiply accumulated polynomial by (s + delta), add constant c
        carry = 0j
        for j in range(len(out)):
            out[j], carry = carry + delta * out[j], out[j]
        out[0] += c
        # carry holds the former leading coefficient shifted one degree up
        # (degree never exceeds len(coeffs) - 1, so carry lands inside out)
    return _trim(out)


def _mode_antiderivative(nu, coeffs, h):
    """Atoms of A(s) = integral_0^s p(t) exp(i nu t) dt on a piece of length h.

    Returns a list of (nu', coeffs') atoms with A(0) = 0 exactly.
    """
    coeffs = _trim(coeffs)
    d = len(coeffs) - 1
    if nu == 0:
        return [(0j, _polyint(coeffs))]
    z = 1j * nu
    if abs(z) * h <= _series_threshold(d):
        # integral_0^s t^j e^{zt} dt = sum_k z^k s^{j+k+1} / (k! (j+k+1))
        out = [0j] * (d + _SERIES_MAX_TERMS + 2)
        scale = max(abs(c) for c in coeffs) * max(h, 1e-300)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            zk = complex(c)
            hp = h ** (j + 1)
            for k in range(_SERIES_MAX_TERMS):
                out[j + k + 1] += zk / (j + k + 1)
                if abs(zk) * hp < 1e-20 * scale:
                    break
                zk = zk * z / (k + 1)
                hp *= h
        return [(0j, _trim(out))]
    # descending recursion: q_d = p_d / z, q_j = (p_j - (j+1) q_{j+1}) / z
    q = [0j] * (d + 1)
    q[d] = coeffs[d] / z
    for j in range(d - 1, -1, -1):
        q[j] = (coeffs[j] - (j + 1) * q[j + 1]) / z
    return [(nu, tuple(q)), (0j, (-q[0],))]


def _merge_atoms(atoms):
    """Combine atoms sharing a frequency, drop vanishing ones."""
    acc: dict[complex, tuple] = {}
    for nu, coeffs in atoms:
        coeffs = _trim(coeffs)
        if len(coeffs) == 1 and coeffs[0] == 0:
            continue
        key = complex(nu)
        if key in acc:
            acc[key] = _polyadd(acc[key], coeffs)
        else:
            acc[key] = coeffs
    out = []
    for nu in sorted(acc, key=lambda w: (w.real, w.imag)):
        coeffs = acc[nu]            # trimmed already, by _trim or _polyadd
        if len(coeffs) == 1 and coeffs[0] == 0:
            continue
        out.append((nu, coeffs))
    return tuple(out)


def _derivative_atoms(atoms) -> tuple:
    """Atoms of the derivative: (p' + i nu p) exp(i nu s) for each atom."""
    out = []
    for nu, coeffs in atoms:
        d = [1j * nu * c for c in coeffs]
        for j in range(1, len(coeffs)):
            d[j - 1] += j * coeffs[j]
        out.append((nu, _trim(d)))
    return tuple(out)


def _eval_atoms(atoms, s):
    scalar = not isinstance(s, np.ndarray)
    val = np.zeros_like(s, dtype=complex) if not scalar else 0j
    for nu, coeffs in atoms:
        term = _polyval(coeffs, s)
        if nu != 0:
            term = term * np.exp(1j * nu * s)
        val = val + term
    return val


@dataclass(frozen=True)
class PiecewiseExp:
    """A piecewise sum of polynomial-exponential atoms on [breaks[0], breaks[-1]].

    pieces[i] is a tuple of (nu, coeffs) atoms in the local coordinate
    s = x - breaks[i]; no other module reads them.  Evaluation is
    right-continuous at interior breaks.  Sums and products take two
    objects on the same breaks.
    """

    breaks: tuple
    pieces: tuple

    @property
    def lo(self):
        return self.breaks[0]

    @property
    def hi(self):
        return self.breaks[-1]

    def _piece_index(self, x):
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def eval(self, x):
        """Evaluate at scalar or array x (right-continuous at breaks)."""
        if np.isscalar(x) or isinstance(x, (int, float, complex)):
            i = int(self._piece_index(float(x)))
            return complex(self._local(i, float(x) - self.breaks[i]))
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        idx = self._piece_index(x)
        for i in range(len(self.pieces)):
            mask = idx == i
            if not mask.any():
                continue
            out[mask] = self._local(i, x[mask] - self.breaks[i])
        return out

    # -- piece access (the oracle's propagators read u through these) ------

    def _local(self, i, s):
        """Piece i at the local coordinate s = x - breaks[i], scalar or array."""
        return _eval_atoms(self.pieces[i], s)

    def _constant_height(self, i):
        """Height of piece i if it is a constant, else None."""
        atoms = self.pieces[i]
        if len(atoms) == 0:
            return 0j
        if len(atoms) == 1 and atoms[0][0] == 0 and len(atoms[0][1]) == 1:
            return complex(atoms[0][1][0])
        return None

    def _derivative(self):
        """The derivative inside every piece (jumps at the breaks dropped)."""
        return PiecewiseExp(self.breaks,
                            tuple(_derivative_atoms(pc) for pc in self.pieces))

    # -- algebra: both operands live on the same breaks ----------------------

    def _same_breaks(self, other):
        if self.breaks != other.breaks:
            raise ValueError(f"operands live on different breaks: "
                             f"{self.breaks} and {other.breaks}")

    def __add__(self, other):
        self._same_breaks(other)
        pieces = tuple(
            _merge_atoms(pa + pb) for pa, pb in zip(self.pieces, other.pieces)
        )
        return PiecewiseExp(self.breaks, pieces)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._same_breaks(other)
        pieces = []
        for pa, pb in zip(self.pieces, other.pieces):
            atoms = []
            for nu1, c1 in pa:
                for nu2, c2 in pb:
                    atoms.append((nu1 + nu2, _polymul(c1, c2)))
            pieces.append(_merge_atoms(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces))

    def scale(self, c):
        # scaling keeps frequencies apart, so atoms need trimming, not merging
        c = complex(c)
        pieces = []
        for pc in self.pieces:
            atoms = []
            for nu, coeffs in pc:
                coeffs = _trim([c * x for x in coeffs])
                if len(coeffs) > 1 or coeffs[0] != 0:
                    atoms.append((nu, coeffs))
            pieces.append(tuple(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces))

    def conj(self):
        pieces = tuple(
            _merge_atoms(
                [(-np.conj(nu), tuple(np.conj(x) for x in coeffs)) for nu, coeffs in pc]
            )
            for pc in self.pieces
        )
        return PiecewiseExp(self.breaks, pieces)

    # -- calculus --------------------------------------------------------

    def antiderivative(self):
        """F with F' = self and F(breaks[0]) = 0, continuous across breaks."""
        pieces = []
        offset = 0j
        for i, pc in enumerate(self.pieces):
            h = self.breaks[i + 1] - self.breaks[i]
            atoms = []
            for nu, coeffs in pc:
                atoms.extend(_mode_antiderivative(nu, coeffs, h))
            atoms.append((0j, (offset,)))
            merged = _merge_atoms(atoms)
            pieces.append(merged)
            offset = complex(_eval_atoms(merged, h))
        return PiecewiseExp(self.breaks, tuple(pieces))

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (defaults to the full domain).

        Sums the definite integrals of the atoms over each piece that
        [a, b] meets; no antiderivative object is built.
        """
        lo = self.lo if a is None else float(a)
        hi = self.hi if b is None else float(b)
        if lo < self.lo - 1e-12 or hi > self.hi + 1e-12:
            raise DomainError(f"integration interval [{lo}, {hi}] leaves "
                              f"[{self.lo}, {self.hi}]")
        if hi < lo:
            return -self.integral(hi, lo)
        last = len(self.pieces) - 1
        first = min(max(bisect.bisect_right(self.breaks, lo) - 1, 0), last)
        stop = min(max(bisect.bisect_left(self.breaks, hi) - 1, first), last)
        total = 0j
        for i in range(first, stop + 1):
            a_i = self.breaks[i]
            h = self.breaks[i + 1] - a_i
            s0 = lo - a_i if i == first else 0.0
            s1 = hi - a_i if i == stop else h
            if s1 == s0:
                continue
            for nu, coeffs in self.pieces[i]:
                prim = _mode_antiderivative(nu, coeffs, h)
                total += _eval_atoms(prim, s1)
                if s0 != 0:
                    total -= _eval_atoms(prim, s0)
        return complex(total)


def step(heights, breaks):
    """Piecewise constant: heights[i] on piece i."""
    pieces = tuple(((0j, (complex(h),)),) for h in heights)
    return PiecewiseExp(tuple(breaks), pieces)


def constant(value, breaks):
    return step([value] * (len(breaks) - 1), breaks)


def poly_global(coeffs_per_piece, breaks):
    """Piecewise polynomial given by ascending global-coordinate coefficients."""
    breaks = tuple(breaks)
    pieces = []
    for i, coeffs in enumerate(coeffs_per_piece):
        coeffs = tuple(complex(c) for c in coeffs)
        shifted = _polyshift(coeffs, breaks[i])  # p(a + s)
        pieces.append(_merge_atoms([(0j, shifted)]))
    return PiecewiseExp(breaks, tuple(pieces))


def trig_global(triples_per_piece, breaks):
    """Piecewise finite Fourier blocks in the global coordinate x.

    Piece i is sum over its (k, a, b) triples of a cos(kx) + b sin(kx),
    with integer k >= 0; k = 0 contributes the constant a alone.
    """
    breaks = tuple(breaks)
    pieces = []
    for a, triples in zip(breaks, triples_per_piece):
        atoms = []
        for k, ac, bc in triples:
            if k == 0:
                atoms.append((0j, (complex(ac),)))
                continue
            up = np.exp(1j * k * a)
            dn = np.exp(-1j * k * a)
            # a cos(kx) + b sin(kx) in the piece-local coordinate
            atoms.append((complex(k), ((ac / 2 - 1j * bc / 2) * up,)))
            atoms.append((complex(-k), ((ac / 2 + 1j * bc / 2) * dn,)))
        pieces.append(_merge_atoms(atoms))
    return PiecewiseExp(breaks, tuple(pieces))


def _osc_kernel(freq, breaks, sin_part):
    """sin(freq*x) or cos(freq*x) as a PiecewiseExp on the given breaks."""
    freq = complex(freq)
    breaks = tuple(breaks)
    pieces = []
    for a in breaks[:-1]:
        up = np.exp(1j * freq * a)
        dn = np.exp(-1j * freq * a)
        if sin_part:
            atoms = [(freq, (up / 2j,)), (-freq, (-dn / 2j,))]
        else:
            atoms = [(freq, (up / 2,)), (-freq, (dn / 2,))]
        pieces.append(_merge_atoms(atoms))
    return PiecewiseExp(breaks, tuple(pieces))


def sin_kernel(freq, breaks):
    return _osc_kernel(freq, breaks, sin_part=True)


def cos_kernel(freq, breaks):
    return _osc_kernel(freq, breaks, sin_part=False)


def linear(breaks, slope=1.0, intercept=0.0):
    """The global polynomial intercept + slope*x on the given breaks."""
    n = len(breaks) - 1
    return poly_global([(complex(intercept), complex(slope))] * n, breaks)
