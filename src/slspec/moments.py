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
grows with the degree, which keeps the recursion stable but lets the series
run at large |nu| * h, where its terms grow like (|nu| h)^k / k! before they
fall and cancel: an atom of degree 45 at |nu| * h = 23.4 (a product of two
eigenfunction brackets on a smooth potential) loses 1.1e-8 on an integral
of size 2.3e-2, a relative 5e-7.

The index axis.  The asymptotic layer evaluates the same closed forms for
many indices.  An object serves a block of K indices (its members) at
once: every coefficient of an atom is a numpy vector over the members, so
one Python-level operation does the work of K.  A frequency is kept
symbolically as nu = a + b*omega, where a is a constant (it comes from the
potential), b an integer and omega the block's kernel frequency vector, one
entry per member (``harmonic_kernels``).  An atom is ((a, b), coeffs);
atoms merge and sort by that key, never by numeric equality of
frequencies, and each member takes its own branch of the antiderivative.
So a member's numbers do not depend on which other members share its
block.

A plain object (the potential and u^2, ``constant``, ``linear``,
``sin_kernel``, ``cos_kernel``) is a block of one: its coefficients have
shape (1,), its omega is None, and numpy broadcasting pairs it with a block
of any width.  There is one arithmetic, numpy's, so a plain object computes
exactly what member k of any block computes.  The one difference is at the
output: a plain object's ``eval`` and ``integral`` drop the member axis and
give a complex, or an array shaped like x.

The work is paid per row, not per coefficient.  A product takes one
numpy operation per coefficient of its first factor (of its second, where
that has two), against all coefficients of the other at once, and adds
the terms of every output coefficient as the textbook double loop does
(ascending power of the first factor, from zero), so it keeps that
loop's bits.  An evaluation takes one exponential per conjugate pair of
real frequencies: the mirror's phase is the conjugate of the first
one's, which is exact (see ``_eval_block``).  Objects on one omega
evaluated at the same points can share those exponentials through a
phase dict (``PiecewiseExp.eval``).

An object's primitives and definite integrals are formed on at most two
stacked arrays (``_stacks``): the atoms of all its pieces, grouped by top
row, atoms of at most _SHORT_ROWS rows in one stack and longer ones in
the other, so that short atoms are not padded to a series atom's rows.  Each
stack is one (rows, atoms, members) table (``_primitives``), and the
descending recursion runs once per row for all of its atoms; each atom
carries its piece's length and, when evaluated, its own coordinate.
Each atom keeps the bits it has when integrated alone, by three rules.
Each atom starts at its own top row, with exact +0 rows above it.  An
integral adds the atoms' values to its total one atom at a time, in
piece and atom order.  The primitives are evaluated with
``_eval_block``'s shapes: Horner's rule from 0j on (atoms, members, 1)
rows, against each atom's coordinate as a (1, 1) slice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

# Atom below this |nu|*h (scaled with degree) integrates via the power series.
_SERIES_BASE = 2.0
_SERIES_SLOPE = 0.55
_SERIES_MAX_TERMS = 90

_ZERO_KEY = (0j, 0)             # the frequency-free atom: a = 0, b = 0
_NARROW = 8                     # coefficients every block member evaluates
# Atoms of at most this many rows share a primitive stack (_stacks), longer
# ones the other: any split from about 2 to 67 rows keeps validate-step's
# head-block series atoms (68 rows) apart from its one-row atoms.
_SHORT_ROWS = 8


def _series_threshold(degree):
    """|nu|*h up to which an atom of this degree (one per member) takes the series."""
    return np.maximum(_SERIES_BASE, _SERIES_SLOPE * degree + 0.5)


try:        # numpy >= 2: the C function np.count_nonzero wraps in Python
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:             # numpy 1.x: the public function
    _count_nonzero = np.count_nonzero


def _vanishes(c) -> bool:
    """c == 0 for every member."""
    return not _count_nonzero(c)        # a third of the time of c.any()


def _trim(coeffs):
    """Drop trailing (high-degree) zero coefficients; keep at least one."""
    n = len(coeffs)
    while n > 1 and _vanishes(coeffs[n - 1]):
        n -= 1
    return tuple(coeffs[:n])


# Sums below are written out[j] = out[j] + c, never out[j] += c: a
# coefficient is an array that other atoms may share.  Only an array a
# function has just made (the output of _polymul) is added into in place.

def _polyadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, c in enumerate(b):
        out[j] = out[j] + c
    return _trim(out)


def _polymul(a, b):
    """Coefficients of the product, one numpy operation per row of a.

    out[k] sums ca * cb over i + j = k in ascending i, starting from zero
    (which turns -0.0 into +0.0), so it has the bits of the textbook
    double loop.  A factor of one row gives one broadcast product (two
    single rows one product of the rows: numpy multiplies a (1, 1) array
    by a (1,) one in a loop that rounds unlike the others).  A b of two
    rows takes one operation per row of b instead: out[k] = 0 + a[k] b[0]
    + a[k-1] b[1] adds the double loop's two terms in the other order,
    and a sum of two terms from zero has the same bits either way.  Every
    product keeps the operand order ca * cb.
    """
    if len(a) == 1 and len(b) == 1:
        return _trim([0j + a[0] * b[0]])
    if len(a) == 1:
        return _trim(list(0j + a[0] * np.array(b)))
    if len(b) == 1:
        return _trim(list(0j + np.array(a) * b[0]))
    by_b = len(b) == 2
    rows = np.array(a if by_b else b)
    out = np.zeros((len(a) + len(b) - 1,)
                   + np.broadcast_shapes(np.shape(a[0]), np.shape(b[0])),
                   complex)
    if by_b:
        for j, cb in enumerate(b):
            out[j:j + len(a)] += rows * cb
    else:
        for i, ca in enumerate(a):
            out[i:i + len(b)] += ca * rows
    return _trim(list(out))


def _polyshift(coeffs, delta):
    """Coefficients of p(s + delta) from those of p(s), Python numbers."""
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
    until a term falls below 1e-20 of the atom's scale on [0, h].  The
    term of z^k adds into out[n], n = j + k + 1.
    """
    d = len(coeffs) - 1
    out = [0j] * (d + _SERIES_MAX_TERMS + 2)
    tol = 1e-20 * (max(map(abs, coeffs)) * max(h, 1e-300))
    end = 1
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        zk = complex(c)
        hp = h ** (j + 1)
        for n in range(j + 1, j + 1 + _SERIES_MAX_TERMS):
            out[n] += zk / n
            if abs(zk) * hp < tol:
                break
            zk = zk * z / (n - j)
            hp *= h
        end = max(end, n + 1)
    while end > 1 and out[end - 1] == 0:    # Python numbers: no numpy call
        end -= 1
    return tuple(out[:end])


def _frequency(key, omega):
    """a + b*omega: one number when b = 0, else one per member."""
    a, b = key
    return a + b * omega if b else a


def _primitives(atoms, lengths, omega):
    """Primitives A(s) = integral_0^s p(t) exp(i nu t) dt of a list of atoms.

    lengths[i] is the length h of atom i's piece; each A(0) = 0 exactly.
    A member of an atom takes nu = 0, the series or the recursion from its
    own frequency, its own trimmed degree and its piece's h, as it would
    alone.  The atoms are stacked as one (rows, atoms, members) table, by
    descending top row, and the descending recursion runs once per row on
    the stack, in place: a row reaches the leading run of atoms whose top
    is at or above it, and each atom starts at its own top row from the
    exact +0 above it, so it keeps the bits of its own recursion.  The
    recursion divides by z = i nu of its own members only (1 elsewhere),
    and its rows are exact +0 outside them.  The series runs one member at
    a time on Python scalars, and its polynomial goes into the
    frequency-free rows, whose other members hold the recursion's
    constant -q_0, or the plain primitive where nu = 0.

    Gives (place, z, q, const, q_len, c_len).  Atom i of the list is atom
    place[i] of the stack; z is (atoms, members), the recursion rows q
    and the frequency-free rows const are (rows, atoms, members).  Atom
    p's primitive is (its key, its first q_len[p] rows of q), absent
    where q_len[p] is 0, and (_ZERO_KEY, its first c_len[p] rows of
    const); its rows beyond those are zero.
    """
    count, width = len(atoms), len(atoms[0][1][0])
    order = sorted(range(count), key=lambda i: -len(atoms[i][1]))
    place = [0] * count
    for p, i in enumerate(order):
        place[i] = p
    tops = [len(atoms[i][1]) - 1 for i in order]
    hs = [lengths[i] for i in order]
    top = tops[0]
    table = np.zeros((top + 2, count, width), complex)
    for p, i in enumerate(order):
        table[:tops[p] + 1, p] = atoms[i][1]
    a = np.array([atoms[i][0][0] for i in order])[:, None]
    b = np.array([atoms[i][0][1] for i in order])[:, None]
    nu = a if omega is None else np.where(b == 0, a, a + b * omega)
    nu = np.broadcast_to(nu, (count, width))
    z = 1j * nu
    nonzero = table[:top + 1] != 0
    live = nonzero.any(axis=0)
    degree = top - np.argmax(nonzero[::-1], axis=0)
    zero = nu == 0
    series = ~zero & live & (np.abs(z) * np.array(hs)[:, None]
                             <= _series_threshold(degree))
    rec = ~zero & ~series
    has_q, has_zero = rec.any(axis=1), zero.any(axis=1)
    q_len = np.where(has_q, np.add(tops, 1), 0)
    c_len = np.where(has_zero, np.add(tops, 2), 1)
    polys = [(p, k, _series_poly(table[:d + 1, p, k].tolist(), zk, hs[p]))
             for (p, k), d, zk in zip(np.argwhere(series).tolist(),
                                      degree[series].tolist(),
                                      z[series].tolist())]
    for p, _, poly in polys:
        c_len[p] = max(c_len[p], len(poly))
    const = np.zeros((int(c_len.max()), count, width), complex)
    for p, k, poly in polys:
        const[:len(poly), p, k] = poly
    for p in np.flatnonzero(has_zero).tolist():
        # the plain primitive of the atom's nu = 0 members, c_j / (j + 1)
        end = tops[p] + 1
        const[1:end + 1, p] = np.where(
            zero[p], table[:end, p] / np.arange(1, end + 1)[:, None],
            const[1:end + 1, p])
    # row j of the table becomes q_j, from the top; the other members
    # recur on zeros: exact +0, and no overflow
    rows = int(q_len.max())
    q = table[:rows]
    if rows:
        np.copyto(table, 0, where=~rec)
        zr = np.where(rec, z, 1)
        n = 0
        for j in range(rows - 1, -1, -1):
            while n < count and tops[n] >= j:
                n += 1
            q[j, :n] = (q[j, :n] - (j + 1) * table[j + 1, :n]) / zr[:n]
        # -q_0 beside the series and nu = 0 members: -0 where all
        # coefficients of a member vanish
        np.negative(q[0], out=const[0],
                    where=has_q[:, None] & ~zero & ~series)
    return place, z, q, const, q_len.tolist(), c_len.tolist()


def _stacks(pieces, lengths, omega):
    """The primitives of the atoms of several pieces, in at most two stacks.

    pieces[i] lies on a piece of length lengths[i].  Atoms of at most
    _SHORT_ROWS rows go to one _primitives stack and longer ones to the
    other, so that the many short atoms are not padded to the rows of a
    long one (a series atom's).  Gives (stacks, spots): stacks maps
    "long" (False or True) to its stack, and spots[i] lists the (long,
    position in that stack) of each atom of pieces[i].
    """
    groups, spots = {}, []
    for pc, h in zip(pieces, lengths):
        row = []
        for atom in pc:
            long = len(atom[1]) > _SHORT_ROWS
            atoms, hs = groups.setdefault(long, ([], []))
            row.append((long, len(atoms)))
            atoms.append(atom)
            hs.append(h)
        spots.append(row)
    stacks = {long: _primitives(atoms, hs, omega)
              for long, (atoms, hs) in groups.items()}
    return stacks, [[(long, stacks[long][0][i]) for long, i in row]
                    for row in spots]


def _primitive_atoms(atoms, spots, stacks):
    """The primitives of a piece's atoms, from their spots in the stacks.

    Each atom's rows are copied out of its stack: a view would keep the
    whole padded stack alive as long as the antiderivative.
    """
    out = []
    for (key, _), (g, p) in zip(atoms, spots):
        _, _, q, const, q_len, c_len = stacks[g]
        if q_len[p]:
            out.append((key, tuple(q[:q_len[p], p].copy())))
        out.append((_ZERO_KEY, tuple(const[:c_len[p], p].copy())))
    return out


def _primitive_values(prims, s):
    """The primitives of _primitives, atom p at the local coordinate s[p].

    s and the values, of shape (atoms, members), take the atoms in stack
    order.  The values take _eval_block's shapes: Horner's rule starts at
    0j and runs on (atoms, members, 1) rows against each atom's
    coordinate as a (1, 1) slice, and the value is 0 + (recursion rows) *
    phase + (frequency-free rows), so each atom has the bits of its own
    primitive evaluated alone.
    """
    _, z, q, const, _, _ = prims
    s = np.asarray(s, dtype=float)[:, None, None]
    val = 0
    if len(q):
        term = 0j
        for c in q[::-1]:
            term = term * s + c[:, :, None]
        # named, as in _eval_block: the product keeps its operand order
        phase = np.exp(z[:, :, None] * s)
        val = 0 + term * phase
    term = 0j
    for c in const[::-1]:
        term = term * s + c[:, :, None]
    return (val + term)[:, :, 0]


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


def _derivative_atoms(atoms, omega) -> tuple:
    """Atoms of the derivative: (p' + i nu p) exp(i nu s) per atom."""
    out = []
    for key, coeffs in atoms:
        z = 1j * _frequency(key, omega)
        d = [z * c for c in coeffs]
        for j in range(1, len(coeffs)):
            d[j - 1] = d[j - 1] + j * coeffs[j]
        out.append((key, _trim(d)))
    return tuple(out)


def _eval_block(atoms, omega, width, s, rows=None, shared=None):
    """Atoms at the local coordinates s, a 1-D array.

    With rows None every member is evaluated at every s, shape
    (width, len(s)); otherwise member rows[p] at s[p], shape (len(s),).
    Each value is computed from its own member's numbers only.

    Atoms of real frequencies mostly come in pairs +-nu, keyed (a, b) and
    (-a, -b); the second of a pair takes the conjugate of the first one's
    phase rather than its own exponential.  That is exact: b is an integer
    and rounding is symmetric, so the argument (i nu) s of the mirror is
    the exact negation, with real part +-0; exp(+-0) is exactly 1, libm's
    cos is even and its sin odd.

    The mirror serves each member whose own omega is real (every member
    where b = 0); the other members of a block take their own exponential,
    of the same argument array.

    shared, a dict, carries the phases over to other objects on the same
    omega, evaluated at the same s and rows: every exponential computed
    here is kept in it by key, and a key found there (or its mirror,
    conjugated, as above) is not computed again.  The values are those of
    separate calls bit for bit.
    """
    # alone, a phase is kept until its mirror uses it; shared, for good
    phases = {} if shared is None else shared
    mirror_of = phases.pop if shared is None else phases.get
    if rows is None:
        def pick(v):
            return v[:, None] if np.ndim(v) else v
        val = np.zeros((width, len(s)), complex)
        # every operand 2-D: numpy multiplies a (1, 1) array by a (1,) one
        # in a loop that rounds complex products like CPython, unlike
        # every other shape, so a block of one at one point would differ
        s = s[None, :]
    else:
        def pick(v):
            return v[rows] if np.ndim(v) else v
        val = np.zeros(len(s), complex)
    # the members a mirror cannot serve where b != 0: True for all of
    # them, False for none, else a mask of the rows whose omega is complex
    own = False
    if omega is not None and omega.imag.any():
        own = omega.imag != 0
        own = True if own.all() else pick(own)
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
                term = np.zeros_like(val)
                term[wide] = top
                coeffs = coeffs[:_NARROW]
        for c in reversed(coeffs):
            term = term * s + pick(c)
        if key != _ZERO_KEY:
            a, b = key
            mine = own if b else False
            mirrored = a.imag == 0 and mine is not True
            # a piece's keys are distinct: only a shared dict holds this one
            phase = phases.get(key)
            if phase is None and mirrored:
                mirror = mirror_of((-a, -b), None)
                if mirror is not None:
                    phase = np.conj(mirror)
                    if mine is not False:
                        mine = np.broadcast_to(mine, phase.shape)
                        phase[mine] = np.exp((pick(1j * _frequency(key, omega))
                                              * s)[mine])
            if phase is None:
                # named, so that numpy cannot reuse the large temporary and
                # multiply in the swapped order, which rounds differently
                phase = np.exp(pick(1j * _frequency(key, omega)) * s)
                if mirrored or shared is not None:
                    phases[key] = phase
            term = term * phase
        val = val + term
    return val


@dataclass(frozen=True, eq=False)
class PiecewiseExp:
    """A piecewise sum of polynomial-exponential atoms on [breaks[0], breaks[-1]].

    pieces[i] is a tuple of ((a, b), coeffs) atoms in the local coordinate
    s = x - breaks[i], of frequency a + b*omega; each coefficient is a
    numpy vector over the width members, and no other module reads them.
    omega is the block's kernel frequency vector (None while no atom has
    b != 0).  A plain object (block False) is a block of one whose values
    come without the member axis.  Evaluation is right-continuous at
    interior breaks; a block's values carry the member axis first.  Sums
    and products take two objects on the same breaks.
    """

    breaks: tuple
    pieces: tuple
    width: int = 1
    omega: np.ndarray | None = None
    block: bool = False

    @property
    def lo(self):
        return self.breaks[0]

    @property
    def hi(self):
        return self.breaks[-1]

    def _piece_index(self, x):
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def _output(self, values):
        """values, member axis first; a plain object's without that axis."""
        if self.block:
            return values
        return values.item() if values.ndim == 1 else values[0]

    def eval(self, x, phases=None):
        """Evaluate at scalar or array x (right-continuous at breaks).

        A block gives shape (width,) + x.shape, or, for a 2-D x with one
        row per member, each member at its own row of points; a plain
        object gives a complex, or an array shaped like x.

        phases, a dict, lets objects on the same breaks and omega that are
        evaluated at the same x share their exponentials: pass one fresh
        dict to each of their calls, and each atom key of each piece pays
        one exponential for all of them (see ``_eval_block``).  The values
        are the same bits as without it.
        """
        x = np.asarray(x, dtype=float)
        idx = self._piece_index(x)

        def shared(i):
            return None if phases is None else phases.setdefault(i, {})
        if self.block and x.ndim == 2:
            if x.shape[0] != self.width:
                raise ValueError(f"{x.shape[0]} rows of points for a block "
                                 f"of {self.width}")
            out = np.zeros(x.shape, dtype=complex)
            for i, pc in enumerate(self.pieces):
                rows, cols = np.nonzero(idx == i)
                if rows.size:
                    out[rows, cols] = _eval_block(
                        pc, self.omega, self.width,
                        x[rows, cols] - self.breaks[i], rows, shared(i))
            return out
        flat, idx = x.reshape(-1), idx.reshape(-1)
        out = np.zeros((self.width, flat.size), dtype=complex)
        for i, pc in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[:, mask] = _eval_block(pc, self.omega, self.width,
                                           flat[mask] - self.breaks[i],
                                           shared=shared(i))
        return self._output(out.reshape((self.width,) + x.shape))

    def max_frequency(self) -> float:
        """The largest |a + b*omega| over the atoms of every piece and member."""
        return max((float(np.abs(_frequency(key, self.omega)).max())
                    for pc in self.pieces for key, _ in pc), default=0.0)

    def take(self, members):
        """The block of the given members (positions along the member axis)."""
        members = np.asarray(members, dtype=int)
        pieces = tuple(tuple((key, tuple(c[members] for c in coeffs))
                             for key, coeffs in pc) for pc in self.pieces)
        omega = None if self.omega is None else self.omega[members]
        return PiecewiseExp(self.breaks, pieces, len(members), omega, True)

    # -- piece access (the oracle's propagators read u through these) ------

    def _local(self, i, s):
        """Piece i of a plain object at the local coordinates s, a 1-D array."""
        return _eval_block(self.pieces[i], self.omega, 1, s)[0]

    @cached_property
    def _constant_heights(self):
        """Per piece of a plain object: its height if a constant, else None.

        Read once per object; the oracle's walks look every piece up here.
        """
        def height(atoms):
            if len(atoms) == 0:
                return 0j
            if (len(atoms) == 1 and atoms[0][0] == _ZERO_KEY
                    and len(atoms[0][1]) == 1):
                return atoms[0][1][0].item()
            return None
        return tuple(height(atoms) for atoms in self.pieces)

    @cached_property
    def _meshes(self) -> dict:
        """The oracle's cell meshes of this object's smooth pieces, by
        (piece, step scale) (oracle._mesh); they die with the object."""
        return {}

    def _derivative(self):
        """The derivative inside every piece (jumps at the breaks dropped)."""
        pieces = tuple(_derivative_atoms(pc, self.omega) for pc in self.pieces)
        return PiecewiseExp(self.breaks, pieces, self.width, self.omega,
                            self.block)

    # -- algebra: both operands live on the same breaks ----------------------

    def _join(self, other):
        """(width, omega, block) of a sum or product of self and other."""
        if self.breaks != other.breaks:
            raise ValueError(f"operands live on different breaks: "
                             f"{self.breaks} and {other.breaks}")
        if self.block and other.block and self.width != other.width:
            raise ValueError(f"operands are blocks of {self.width} and "
                             f"{other.width} members")
        omega = self.omega
        if omega is None:
            omega = other.omega
        elif not (other.omega is None or other.omega is omega
                  or np.array_equal(other.omega, omega)):
            raise ValueError("operands live on different frequency vectors")
        return max(self.width, other.width), omega, self.block or other.block

    def _widened(self, width):
        """The pieces, with a plain object's coefficients spread over width.

        A sum keeps an atom only one operand has as it is: without this a
        block would hold coefficients of two shapes, and every reader that
        indexes members would have to broadcast them.
        """
        if self.width == width:
            return self.pieces
        return tuple(tuple((key, tuple(np.full(width, c, dtype=complex)
                                       for c in coeffs)) for key, coeffs in pc)
                     for pc in self.pieces)

    def __add__(self, other):
        width, omega, block = self._join(other)
        pieces = tuple(
            _merge_atoms(pa + pb)
            for pa, pb in zip(self._widened(width), other._widened(width))
        )
        return PiecewiseExp(self.breaks, pieces, width, omega, block)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        width, omega, block = self._join(other)
        pieces = []
        for pa, pb in zip(self.pieces, other.pieces):
            atoms = []
            for (a1, b1), c1 in pa:
                for (a2, b2), c2 in pb:
                    atoms.append(((a1 + a2, b1 + b2), _polymul(c1, c2)))
            pieces.append(_merge_atoms(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces), width, omega, block)

    def scale(self, c):
        """c times self; c is a number, or one number per member (a block)."""
        # scaling keeps frequencies apart, so atoms need trimming, not merging
        c = np.asarray(c, dtype=complex)
        pieces = []
        for pc in self.pieces:
            atoms = []
            for key, coeffs in pc:
                coeffs = _trim([c * x for x in coeffs])
                if len(coeffs) > 1 or not _vanishes(coeffs[0]):
                    atoms.append((key, coeffs))
            pieces.append(tuple(atoms))
        return PiecewiseExp(self.breaks, tuple(pieces), max(self.width, c.size),
                            self.omega, self.block or c.ndim > 0)

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
        return PiecewiseExp(self.breaks, pieces, self.width, self.omega,
                            self.block)

    # -- calculus --------------------------------------------------------

    def _piece_value(self, atoms, s):
        """Atoms of one piece at the local coordinate s, per member."""
        return _eval_block(atoms, self.omega, self.width, np.array([s]))[:, 0]

    def _lengths(self):
        """The length of each piece."""
        return [b - a for a, b in zip(self.breaks, self.breaks[1:])]

    def antiderivative(self):
        """F with F' = self and F(breaks[0]) = 0, continuous across breaks.

        The primitives of every piece's atoms come from at most two stacks
        (_stacks); each piece adds the value of the pieces before it at
        its left end.
        """
        lengths = self._lengths()
        stacks, spots = _stacks(self.pieces, lengths, self.omega)
        pieces = []
        offset = np.zeros(self.width, complex)
        for pc, row, h in zip(self.pieces, spots, lengths):
            atoms = _primitive_atoms(pc, row, stacks)
            atoms.append((_ZERO_KEY, (offset,)))
            merged = _merge_atoms(atoms)
            pieces.append(merged)
            offset = self._piece_value(merged, h)
        return PiecewiseExp(self.breaks, tuple(pieces), self.width, self.omega,
                            self.block)

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (defaults to the full domain).

        Sums the definite integrals of the atoms over each piece that
        [a, b] meets; no antiderivative object is built.  Their primitives
        come from at most two stacks (_stacks), each evaluated once at its
        atoms' upper ends, and once more at the lower ends where [a, b]
        starts inside a piece (that piece's atoms alone).  A block gives one
        value per member, a plain object a complex.
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
        lengths = self._lengths()
        spans = []              # (piece, s0, s1) of each piece to integrate
        for i in range(first, stop + 1):
            s0 = lo - self.breaks[i] if i == first else 0.0
            s1 = hi - self.breaks[i] if i == stop else lengths[i]
            if s1 != s0 and self.pieces[i]:
                spans.append((i, s0, s1))
        stacks, spots = _stacks([self.pieces[i] for i, _, _ in spans],
                                [lengths[i] for i, _, _ in spans], self.omega)
        ends = {g: np.zeros(len(prims[0])) for g, prims in stacks.items()}
        for (_, _, s1), row in zip(spans, spots):
            for g, p in row:
                ends[g][p] = s1
        at_s1 = {g: _primitive_values(prims, ends[g])
                 for g, prims in stacks.items()}
        at_s0 = {}              # only the first piece can start inside
        if spans and spans[0][1] != 0:
            for g, (_, z, q, const, _, _) in stacks.items():
                ps = [p for h, p in spots[0] if h == g]
                if ps:
                    values = _primitive_values(
                        (None, z[ps], q[:, ps], const[:, ps], None, None),
                        np.full(len(ps), spans[0][1]))
                    at_s0.update(zip([(g, p) for p in ps], values))
        # atom by atom, in order, as each atom's integral alone
        total = np.zeros(self.width, complex)
        for (_, s0, _), row in zip(spans, spots):
            for g, p in row:
                total = total + at_s1[g][p]
                if s0 != 0:
                    total = total - at_s0[g, p]
        return self._output(total)


def _plain(values):
    """Shape-(1,) coefficients of a plain object from Python numbers."""
    return tuple(np.array([v], dtype=complex) for v in values)


def step(heights, breaks):
    """Piecewise constant: heights[i] on piece i."""
    pieces = tuple(((_ZERO_KEY, _plain([h])),) for h in heights)
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
        pieces.append(_merge_atoms([(_ZERO_KEY, _plain(shifted))]))
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
                atoms.append((_ZERO_KEY, _plain([ac])))
                continue
            up = np.exp(1j * k * a)
            dn = np.exp(-1j * k * a)
            # a cos(kx) + b sin(kx) in the piece-local coordinate
            atoms.append(((complex(k), 0),
                          _plain([(ac / 2 - 1j * bc / 2) * up])))
            atoms.append(((complex(-k), 0),
                          _plain([(ac / 2 + 1j * bc / 2) * dn])))
        pieces.append(_merge_atoms(atoms))
    return PiecewiseExp(breaks, tuple(pieces))


def _kernels(freq, up_key, dn_key, breaks, omega=None):
    """sin(freq*x) and cos(freq*x), freq one entry per member.

    The atoms of +-freq have the keys up_key and dn_key; the objects are
    blocks on omega, or plain when omega is None.
    """
    breaks = tuple(breaks)
    sin_pieces, cos_pieces = [], []
    for a in breaks[:-1]:
        up = np.exp(1j * freq * a)
        dn = np.exp(-1j * freq * a)
        sin_pieces.append(_merge_atoms([(up_key, (up / 2j,)),
                                        (dn_key, (-dn / 2j,))]))
        cos_pieces.append(_merge_atoms([(up_key, (up / 2,)),
                                        (dn_key, (dn / 2,))]))
    width, block = len(freq), omega is not None
    return (PiecewiseExp(breaks, tuple(sin_pieces), width, omega, block),
            PiecewiseExp(breaks, tuple(cos_pieces), width, omega, block))


def _plain_kernels(freq, breaks):
    freq = complex(freq)
    return _kernels(np.array([freq]), (freq, 0), (-freq, 0), breaks)


def sin_kernel(freq, breaks):
    return _plain_kernels(freq, breaks)[0]


def cos_kernel(freq, breaks):
    return _plain_kernels(freq, breaks)[1]


def harmonic_kernels(omega, b, breaks):
    """sin(b*omega*x) and cos(b*omega*x) as blocks over the vector omega.

    b is a positive integer; the blocks' atoms have the keys (0, -b) and
    (0, b), and omega (complex, one entry per member) becomes their
    kernel frequency vector.
    """
    omega = np.asarray(omega, dtype=complex)
    return _kernels(b * omega, (0j, b), (0j, -b), breaks, omega)


def linear(breaks, slope=1.0, intercept=0.0):
    """The global polynomial intercept + slope*x on the given breaks."""
    n = len(breaks) - 1
    return poly_global([(complex(intercept), complex(slope))] * n, breaks)
