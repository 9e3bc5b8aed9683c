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

The index axis.  The asymptotic layer evaluates the same closed forms for
many indices.  A block object serves a block of K indices (its members) at
once: every coefficient of an atom is a numpy vector over the members, so
one Python-level operation does the work of K.  A frequency is kept
symbolically as nu = a + b*omega, where a is a constant (it comes from the
potential), b an integer and omega the block's kernel frequency vector, one
entry per member (``harmonic_kernels``).  An atom is ((a, b), coeffs);
atoms merge and sort by that key, never by numeric equality of
frequencies, and each member takes its own branch of the antiderivative.
So a member's numbers do not depend on which other members share its
block, and a block of one gives them too.  Block arithmetic is numpy's,
which rounds complex products and quotients differently from CPython's.

Scalar objects, the potential's own among them, keep Python scalars, b = 0
and the arithmetic they always had.  A sum or product of a scalar object
and a block is a block.
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

_ZERO_KEY = (0j, 0)             # the frequency-free atom: a = 0, b = 0
_NARROW = 8                     # coefficients every block member evaluates


def _series_threshold(degree: int) -> float:
    return max(_SERIES_BASE, _SERIES_SLOPE * degree + 0.5)


def _vanishes(c) -> bool:
    """c == 0: a scalar coefficient, or a block one for every member."""
    if isinstance(c, np.ndarray):
        return not np.count_nonzero(c)      # a third of the time of c.any()
    return c == 0


def _trim(coeffs):
    """Drop trailing (high-degree) zero coefficients; keep at least one."""
    n = len(coeffs)
    while n > 1 and _vanishes(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


def _polyval(coeffs, s):
    """Horner evaluation, ascending coefficients; s scalar or ndarray."""
    acc = np.zeros_like(s, dtype=complex) if isinstance(s, np.ndarray) else 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def _polyint(coeffs, zero=0j):
    return (zero,) + tuple(c / (j + 1) for j, c in enumerate(coeffs))


# Sums below are written out[j] = out[j] + c, never out[j] += c: a block
# coefficient is an array that other atoms may share.

def _polyadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] = out[j] + c
    return _trim(out)


def _polymul(a, b, zero=0j):
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if _vanishes(ca):
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
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


def _series_poly(coeffs, z, h):
    """integral_0^s p(t) exp(z t) dt as one polynomial, by the power series.

    integral_0^s t^j e^{zt} dt = sum_k z^k s^{j+k+1} / (k! (j+k+1)), summed
    until a term falls below 1e-20 of the atom's scale on [0, h].
    """
    d = len(coeffs) - 1
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
    return _trim(out)


def _mode_antiderivative(nu, coeffs, h):
    """Atoms of A(s) = integral_0^s p(t) exp(i nu t) dt on a piece of length h.

    nu is a number (a scalar atom).  Returns a list of (key, coeffs') atoms
    with A(0) = 0 exactly.
    """
    coeffs = _trim(coeffs)
    d = len(coeffs) - 1
    if nu == 0:
        return [(_ZERO_KEY, _polyint(coeffs))]
    z = 1j * nu
    if abs(z) * h <= _series_threshold(d):
        return [(_ZERO_KEY, _series_poly(coeffs, z, h))]
    # descending recursion: q_d = p_d / z, q_j = (p_j - (j+1) q_{j+1}) / z
    q = [0j] * (d + 1)
    q[d] = coeffs[d] / z
    for j in range(d - 1, -1, -1):
        q[j] = (coeffs[j] - (j + 1) * q[j + 1]) / z
    return [((complex(nu), 0), tuple(q)), (_ZERO_KEY, (-q[0],))]


def _frequency(key, omega):
    """a + b*omega: one number when b = 0, else one per member."""
    a, b = key
    return a + b * omega if b else a


def _block_antiderivative(key, coeffs, h, omega):
    """_mode_antiderivative for a block atom, each member on its own branch.

    A member takes nu = 0, the series or the recursion from its own
    frequency and its own trimmed degree, as it would alone.  The
    recursion and the nu = 0 rule run on the whole block; the series runs
    one member at a time on Python scalars, and its polynomial is
    scattered into the frequency-free atom, whose other members hold the
    recursion's constant -q_0.  The recursion divides by z of its own
    members only (1 elsewhere) and its rows are zero outside them.
    """
    width = len(coeffs[0])
    top = len(coeffs) - 1
    if key == _ZERO_KEY:
        return [(_ZERO_KEY, _polyint(coeffs, np.zeros(width, complex)))]
    nu = np.broadcast_to(_frequency(key, omega), (width,))
    z = 1j * nu
    table = np.array(coeffs)
    nonzero = table != 0
    live = nonzero.any(axis=0)
    degree = top - np.argmax(nonzero[::-1], axis=0)
    zero = nu == 0
    series = (~zero & live
              & (np.abs(z) * h <= np.maximum(_SERIES_BASE,
                                             _SERIES_SLOPE * degree + 0.5)))
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
        prim = _polyint(coeffs, np.zeros(width, complex))
        const += [np.zeros(width, complex)] * (len(prim) - len(const))
        const = [np.where(zero, p, c) for p, c in zip(prim, const)]
    polys = {k: _series_poly(tuple(complex(c) for c in table[:d + 1, k]),
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
    atoms.append((_ZERO_KEY, tuple(const)))
    return atoms


def _merge_atoms(atoms):
    """Combine atoms sharing a key, drop vanishing ones, sort by key."""
    acc: dict[tuple, tuple] = {}
    for key, coeffs in atoms:
        coeffs = _trim(coeffs)
        if len(coeffs) == 1 and _vanishes(coeffs[0]):
            continue
        if key in acc:
            acc[key] = _polyadd(acc[key], coeffs)
        else:
            acc[key] = coeffs
    out = []
    for key in sorted(acc, key=lambda k: (k[0].real, k[0].imag, k[1])):
        coeffs = acc[key]            # trimmed already, by _trim or _polyadd
        if len(coeffs) == 1 and _vanishes(coeffs[0]):
            continue
        out.append((key, coeffs))
    return tuple(out)


def _derivative_atoms(atoms) -> tuple:
    """Atoms of the derivative: (p' + i nu p) exp(i nu s) per scalar atom."""
    out = []
    for key, coeffs in atoms:
        nu = key[0]
        d = [1j * nu * c for c in coeffs]
        for j in range(1, len(coeffs)):
            d[j - 1] += j * coeffs[j]
        out.append((key, _trim(d)))
    return tuple(out)


def _eval_atoms(atoms, s):
    """Scalar atoms at the local coordinate s, scalar or ndarray."""
    scalar = not isinstance(s, np.ndarray)
    val = np.zeros_like(s, dtype=complex) if not scalar else 0j
    for (nu, _), coeffs in atoms:
        term = _polyval(coeffs, s)
        if nu != 0:
            term = term * np.exp(1j * nu * s)
        val = val + term
    return val


def _eval_block(atoms, omega, width, s, rows=None):
    """Block atoms at the local coordinates s, a 1-D array.

    With rows None every member is evaluated at every s, shape
    (width, len(s)); otherwise member rows[p] at s[p], shape (len(s),).
    Each value is computed from its own member's numbers only.
    """
    if rows is None:
        def pick(v):
            return v[:, None] if np.ndim(v) else v
        val = np.zeros((width, len(s)), complex)
    else:
        def pick(v):
            return v[rows] if np.ndim(v) else v
        val = np.zeros(len(s), complex)
    for key, coeffs in atoms:
        term = 0j
        if rows is None and len(coeffs) > _NARROW:
            # a series polynomial of one member widens the atom for all:
            # only the members with a nonzero coefficient above _NARROW run
            # the top of Horner's rule, the others start below it at zero,
            # where their padded rows would have left them
            wide = np.array(coeffs[_NARROW:]).any(axis=0)
            if not wide.all():
                top = 0j
                for c in reversed(coeffs[_NARROW:]):
                    top = top * s + c[wide][:, None]
                term = np.zeros((width, len(s)), complex)
                term[wide] = top
                coeffs = coeffs[:_NARROW]
        for c in reversed(coeffs):
            term = term * s + pick(c)
        if key != _ZERO_KEY:
            # named, so that numpy cannot reuse the large temporary and
            # multiply in the swapped order, which rounds differently
            phase = np.exp(pick(1j * _frequency(key, omega)) * s)
            term = term * phase
        val = val + term
    return val


@dataclass(frozen=True, eq=False)
class PiecewiseExp:
    """A piecewise sum of polynomial-exponential atoms on [breaks[0], breaks[-1]].

    pieces[i] is a tuple of ((a, b), coeffs) atoms in the local coordinate
    s = x - breaks[i], of frequency a + b*omega; no other module reads
    them.  width is 0 for a scalar object, else the number of members of
    the block, and omega the block's kernel frequency vector (None while
    no atom has b != 0).  Evaluation is right-continuous at interior
    breaks; a block's values carry the member axis first.  Sums and
    products take two objects on the same breaks.
    """

    breaks: tuple
    pieces: tuple
    width: int = 0
    omega: np.ndarray | None = None

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
        """Evaluate at scalar or array x (right-continuous at breaks).

        A block gives shape (width,) + x.shape, or, for a 2-D x with one
        row per member, each member at its own row of points.
        """
        if self.width:
            return self._eval_members(np.asarray(x, dtype=float))
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

    def _eval_members(self, x):
        idx = self._piece_index(x)
        if x.ndim == 2:
            if x.shape[0] != self.width:
                raise ValueError(f"{x.shape[0]} rows of points for a block "
                                 f"of {self.width}")
            out = np.zeros(x.shape, dtype=complex)
            for i, pc in enumerate(self.pieces):
                rows, cols = np.nonzero(idx == i)
                if rows.size:
                    out[rows, cols] = _eval_block(
                        pc, self.omega, self.width,
                        x[rows, cols] - self.breaks[i], rows)
            return out
        flat, idx = x.reshape(-1), idx.reshape(-1)
        out = np.zeros((self.width, flat.size), dtype=complex)
        for i, pc in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[:, mask] = _eval_block(pc, self.omega, self.width,
                                           flat[mask] - self.breaks[i])
        return out.reshape((self.width,) + x.shape)

    def take(self, members):
        """The block of the given members (positions along the member axis)."""
        members = np.asarray(members, dtype=int)
        pieces = tuple(tuple((key, tuple(c[members] for c in coeffs))
                             for key, coeffs in pc) for pc in self.pieces)
        omega = None if self.omega is None else self.omega[members]
        return PiecewiseExp(self.breaks, pieces, len(members), omega)

    # -- piece access (the oracle's propagators read u through these) ------

    def _local(self, i, s):
        """Piece i at the local coordinate s = x - breaks[i], scalar or array."""
        return _eval_atoms(self.pieces[i], s)

    def _constant_height(self, i):
        """Height of piece i if it is a constant, else None."""
        atoms = self.pieces[i]
        if len(atoms) == 0:
            return 0j
        if (len(atoms) == 1 and atoms[0][0] == _ZERO_KEY
                and len(atoms[0][1]) == 1):
            return complex(atoms[0][1][0])
        return None

    def _derivative(self):
        """The derivative inside every piece (jumps at the breaks dropped)."""
        return PiecewiseExp(self.breaks,
                            tuple(_derivative_atoms(pc) for pc in self.pieces))

    # -- algebra: both operands live on the same breaks ----------------------

    def _join(self, other):
        """(width, omega) of a sum or product of self and other."""
        if self.breaks != other.breaks:
            raise ValueError(f"operands live on different breaks: "
                             f"{self.breaks} and {other.breaks}")
        if self.width and other.width and self.width != other.width:
            raise ValueError(f"operands are blocks of {self.width} and "
                             f"{other.width} members")
        omega = self.omega
        if omega is None:
            omega = other.omega
        elif not (other.omega is None or other.omega is omega
                  or np.array_equal(other.omega, omega)):
            raise ValueError("operands live on different frequency vectors")
        return self.width or other.width, omega

    def _widened(self, width):
        """The pieces, with scalar coefficients spread over width members."""
        if self.width or not width:
            return self.pieces
        return tuple(tuple((key, tuple(np.full(width, c, dtype=complex)
                                       for c in coeffs)) for key, coeffs in pc)
                     for pc in self.pieces)

    def __add__(self, other):
        width, omega = self._join(other)
        pieces = tuple(
            _merge_atoms(pa + pb)
            for pa, pb in zip(self._widened(width), other._widened(width))
        )
        return PiecewiseExp(self.breaks, pieces, width, omega)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        width, omega = self._join(other)
        zero = np.zeros(width, complex) if width else 0j
        pieces = []
        for pa, pb in zip(self.pieces, other.pieces):
            atoms = []
            for (a1, b1), c1 in pa:
                for (a2, b2), c2 in pb:
                    atoms.append(((a1 + a2, b1 + b2), _polymul(c1, c2, zero)))
            pieces.append(_merge_atoms(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces), width, omega)

    def scale(self, c):
        """c times self; c is a number, or one number per member (a block)."""
        # scaling keeps frequencies apart, so atoms need trimming, not merging
        if np.ndim(c):
            c = np.asarray(c, dtype=complex)
            width = self.width or len(c)
        else:
            c, width = complex(c), self.width
        pieces = []
        for pc in self.pieces:
            atoms = []
            for key, coeffs in pc:
                coeffs = _trim([c * x for x in coeffs])
                if len(coeffs) > 1 or not _vanishes(coeffs[0]):
                    atoms.append((key, coeffs))
            pieces.append(tuple(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces), width, self.omega)

    def conj(self):
        """The complex conjugate; a block's omega must be real."""
        if self.omega is not None and self.omega.imag.any():
            raise ValueError("the conjugate of a block needs a real omega")
        pieces = tuple(
            _merge_atoms(
                [((complex(-np.conj(a)), -b), tuple(np.conj(x) for x in coeffs))
                 for (a, b), coeffs in pc]
            )
            for pc in self.pieces
        )
        return PiecewiseExp(self.breaks, pieces, self.width, self.omega)

    # -- calculus --------------------------------------------------------

    def _atom_antiderivative(self, key, coeffs, h):
        if self.width:
            return _block_antiderivative(key, coeffs, h, self.omega)
        return _mode_antiderivative(key[0], coeffs, h)

    def _piece_value(self, atoms, s):
        """Atoms of one piece at the local coordinate s, per member."""
        if self.width:
            return _eval_block(atoms, self.omega, self.width,
                               np.array([s]))[:, 0]
        return complex(_eval_atoms(atoms, s))

    def antiderivative(self):
        """F with F' = self and F(breaks[0]) = 0, continuous across breaks."""
        pieces = []
        offset = np.zeros(self.width, complex) if self.width else 0j
        for i, pc in enumerate(self.pieces):
            h = self.breaks[i + 1] - self.breaks[i]
            atoms = []
            for key, coeffs in pc:
                atoms.extend(self._atom_antiderivative(key, coeffs, h))
            atoms.append((_ZERO_KEY, (offset,)))
            merged = _merge_atoms(atoms)
            pieces.append(merged)
            offset = self._piece_value(merged, h)
        return PiecewiseExp(self.breaks, tuple(pieces), self.width, self.omega)

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (defaults to the full domain).

        Sums the definite integrals of the atoms over each piece that
        [a, b] meets; no antiderivative object is built.  A block gives
        one value per member.
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
        total = np.zeros(self.width, complex) if self.width else 0j
        for i in range(first, stop + 1):
            a_i = self.breaks[i]
            h = self.breaks[i + 1] - a_i
            s0 = lo - a_i if i == first else 0.0
            s1 = hi - a_i if i == stop else h
            if s1 == s0:
                continue
            for key, coeffs in self.pieces[i]:
                prim = self._atom_antiderivative(key, coeffs, h)
                total = total + self._piece_value(prim, s1)
                if s0 != 0:
                    total = total - self._piece_value(prim, s0)
        return total if self.width else complex(total)


def step(heights, breaks):
    """Piecewise constant: heights[i] on piece i."""
    pieces = tuple(((_ZERO_KEY, (complex(h),)),) for h in heights)
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
        pieces.append(_merge_atoms([(_ZERO_KEY, shifted)]))
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
                atoms.append((_ZERO_KEY, (complex(ac),)))
                continue
            up = np.exp(1j * k * a)
            dn = np.exp(-1j * k * a)
            # a cos(kx) + b sin(kx) in the piece-local coordinate
            atoms.append(((complex(k), 0), ((ac / 2 - 1j * bc / 2) * up,)))
            atoms.append(((complex(-k), 0), ((ac / 2 + 1j * bc / 2) * dn,)))
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
            atoms = [((freq, 0), (up / 2j,)), ((-freq, 0), (-dn / 2j,))]
        else:
            atoms = [((freq, 0), (up / 2,)), ((-freq, 0), (dn / 2,))]
        pieces.append(_merge_atoms(atoms))
    return PiecewiseExp(breaks, tuple(pieces))


def sin_kernel(freq, breaks):
    return _osc_kernel(freq, breaks, sin_part=True)


def cos_kernel(freq, breaks):
    return _osc_kernel(freq, breaks, sin_part=False)


def harmonic_kernels(omega, b, breaks):
    """sin(b*omega*x) and cos(b*omega*x) as blocks over the vector omega.

    b is a positive integer; the blocks' atoms have the keys (0, -b) and
    (0, b), and omega (complex, one entry per member) becomes their
    kernel frequency vector.
    """
    omega = np.asarray(omega, dtype=complex)
    breaks = tuple(breaks)
    freq = b * omega
    sin_pieces, cos_pieces = [], []
    for a in breaks[:-1]:
        up = np.exp(1j * freq * a)
        dn = np.exp(-1j * freq * a)
        sin_pieces.append(_merge_atoms([((0j, b), (up / 2j,)),
                                        ((0j, -b), (-dn / 2j,))]))
        cos_pieces.append(_merge_atoms([((0j, b), (up / 2,)),
                                        ((0j, -b), (dn / 2,))]))
    width = len(omega)
    return (PiecewiseExp(breaks, tuple(sin_pieces), width, omega),
            PiecewiseExp(breaks, tuple(cos_pieces), width, omega))


def linear(breaks, slope=1.0, intercept=0.0):
    """The global polynomial intercept + slope*x on the given breaks."""
    n = len(breaks) - 1
    return poly_global([(complex(intercept), complex(slope))] * n, breaks)
