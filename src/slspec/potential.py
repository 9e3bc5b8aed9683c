"""Exact representations of the antiderivative potential u on [0, pi].

The operator studied here is -y'' + q(x) y with q = u' understood
distributionally, so the user supplies u itself, not q.  The additive
constant of u matters: shifting u by a constant turns the regularized
Neumann condition at pi into a Robin condition, which is why the loader
insists on an explicit u rather than reconstructing it from q.

Three closed-form families are supported, all complex-valued and all
integrable in closed form against oscillatory kernels:

* ``step``  -- piecewise constants (delta interactions in q),
* ``poly``  -- piecewise polynomials in the global coordinate,
* ``trig``  -- piecewise finite Fourier blocks c0 + sum_k (a_k cos kt + b_k sin kt).

Values at breakpoints follow the right-continuity convention; a value at a
single point never affects an integral, the convention only keeps eval_u
deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import moments
from .errors import DomainError, PotentialFormatError

PI = math.pi

_BREAK_TOL = 1e-9

# trig pieces store ((k, cos_coeff, sin_coeff), ...) with integer k >= 0;
# k = 0 carries only the cos (constant) coefficient.


@dataclass(frozen=True)
class PotentialSpec:
    """Exact description of u as an ordered partition of [0, pi].

    kind
        One of ``step``, ``poly``, ``trig``.
    breaks
        Strictly increasing breakpoints, first 0 and last pi.
    coeffs
        Per-piece coefficients.  For ``step`` a 1-tuple (height,); for
        ``poly`` ascending global-coordinate coefficients; for ``trig``
        a tuple of (k, cos_coeff, sin_coeff) triples.
    """

    kind: str
    breaks: tuple
    coeffs: tuple

    def __reduce__(self):
        # pickle the description only, never the cached closed-form objects
        return (PotentialSpec, (self.kind, self.breaks, self.coeffs))

    def __post_init__(self):
        if self.kind not in ("step", "poly", "trig"):
            raise PotentialFormatError(f"unknown potential kind {self.kind!r}")
        if len(self.breaks) < 2 or len(self.coeffs) != len(self.breaks) - 1:
            raise PotentialFormatError("pieces and breakpoints do not match")
        if abs(self.breaks[0]) > _BREAK_TOL or abs(self.breaks[-1] - PI) > _BREAK_TOL:
            raise PotentialFormatError(
                f"pieces must partition [0, pi]; got endpoints "
                f"{self.breaks[0]} and {self.breaks[-1]}")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not b > a:
                raise PotentialFormatError(
                    f"breakpoints must increase strictly; offending breakpoint {b}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return PotentialSpec("step", (0.0, PI), ((0j,),))

    @staticmethod
    def constant(value):
        return PotentialSpec("step", (0.0, PI), ((complex(value),),))

    @staticmethod
    def step(pieces):
        """pieces: iterable of (a, b, height) covering [0, pi] in order."""
        breaks, heights = _assemble(pieces)
        return PotentialSpec("step", breaks, tuple((complex(h),) for h in heights))

    @staticmethod
    def poly(pieces):
        """pieces: iterable of (a, b, coeffs) with ascending global coeffs."""
        breaks, clists = _assemble(pieces)
        return PotentialSpec(
            "poly", breaks, tuple(tuple(complex(c) for c in cl) for cl in clists))

    @staticmethod
    def trig(pieces):
        """pieces: iterable of (a, b, sin_coeffs); sin_coeffs[k-1] scales sin(kt)."""
        breaks, clists = _assemble(pieces)
        coeffs = tuple(
            tuple((k + 1, 0j, complex(c)) for k, c in enumerate(cl))
            for cl in clists)
        return PotentialSpec("trig", breaks, coeffs)

    # -- evaluation --------------------------------------------------------

    @cached_property
    def piecewise(self) -> moments.PiecewiseExp:
        """The potential as a polynomial-exponential object."""
        if self.kind == "step":
            return moments.step([c[0] for c in self.coeffs], self.breaks)
        if self.kind == "poly":
            return moments.poly_global(self.coeffs, self.breaks)
        return moments.trig_global(self.coeffs, self.breaks)

    @cached_property
    def piecewise_sq(self) -> moments.PiecewiseExp:
        """u^2 as a polynomial-exponential object."""
        return self.piecewise * self.piecewise

    @cached_property
    def square_antiderivative(self) -> moments.PiecewiseExp:
        """The antiderivative of u^2 from 0, free of lambda."""
        return self.piecewise_sq.antiderivative()

    def eval_u(self, x):
        """u(x) for x in [0, pi], right-continuous at breakpoints."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < -1e-12) or np.any(arr > PI + 1e-12):
            raise DomainError(f"coordinate {x} outside [0, pi]")
        if self.kind != "poly":
            return self.piecewise.eval(x)
        # the global coefficients are the exact description; evaluating them
        # directly skips the rounding of the shift to piece-local coordinates
        flat = np.atleast_1d(arr)
        idx = np.clip(np.searchsorted(self.breaks, flat, side="right") - 1,
                      0, len(self.coeffs) - 1)
        out = np.zeros(flat.shape, dtype=complex)
        for i, coeffs in enumerate(self.coeffs):
            mask = idx == i
            if mask.any():
                out[mask] = (_comp_horner([c.real for c in coeffs], flat[mask])
                             + 1j * _comp_horner([c.imag for c in coeffs], flat[mask]))
        return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # -- algebra (closed within the representation) -------------------------

    def conjugate(self) -> "PotentialSpec":
        return PotentialSpec(self.kind, self.breaks, _map_coeffs(self, np.conj))

    def real_part(self) -> "PotentialSpec":
        return self._parts[0]

    def imag_part(self) -> "PotentialSpec":
        return self._parts[1]

    @cached_property
    def _parts(self) -> tuple:
        return tuple(PotentialSpec(self.kind, self.breaks, _map_coeffs(self, fn))
                     for fn in (lambda c: complex(c.real),
                                lambda c: complex(c.imag)))

    # -- derived quantities --------------------------------------------------

    @cached_property
    def l2_norm_sq(self) -> float:
        """The squared L2 norm of u over [0, pi], integral of |u|^2."""
        val = (self.piecewise * self.piecewise.conj()).integral()
        return float(val.real)

    @cached_property
    def is_real(self) -> bool:
        return all(
            abs(complex(c).imag) == 0.0
            for piece in self.coeffs for c in _flatten(self.kind, piece))

    def describe(self) -> str:
        return f"{self.kind} potential, {len(self.coeffs)} piece(s) on [0, pi]"


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _two_prod(a, b):
    """a * b as (product, exact rounding error)."""
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    c = _SPLITTER * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _two_sum(a, b):
    """a + b as (sum, exact rounding error)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _comp_horner(coeffs, x):
    """Compensated Horner (Graillat, Langlois, Louvet) for real ascending
    coefficients at real ndarray x: as accurate as Horner in twice the
    working precision, then rounded once."""
    s = np.full_like(x, coeffs[-1])
    r = np.zeros_like(x)
    for c in reversed(coeffs[:-1]):
        p, pe = _two_prod(s, x)
        s, se = _two_sum(p, c)
        r = r * x + (pe + se)
    return s + r


def _flatten(kind, piece):
    if kind == "trig":
        for _, ac, bc in piece:
            yield ac
            yield bc
    else:
        yield from piece


def _map_coeffs(spec, fn):
    if spec.kind == "trig":
        return tuple(
            tuple((k, complex(fn(complex(ac))), complex(fn(complex(bc))))
                  for k, ac, bc in piece)
            for piece in spec.coeffs)
    return tuple(
        tuple(complex(fn(complex(c))) for c in piece) for piece in spec.coeffs)


def _assemble(pieces):
    pieces = list(pieces)
    if not pieces:
        raise PotentialFormatError("potential needs at least one piece")
    breaks = [float(pieces[0][0])]
    payload = []
    for a, b, data in pieces:
        a, b = float(a), float(b)
        if abs(a - breaks[-1]) > _BREAK_TOL:
            kindw = "gap" if a > breaks[-1] else "overlap"
            raise PotentialFormatError(
                f"pieces leave a {kindw} at breakpoint {breaks[-1]!r} "
                f"(next piece starts at {a!r})")
        if not b > a:
            raise PotentialFormatError(
                f"piece [{a}, {b}] is empty; offending breakpoint {b!r}")
        breaks.append(b)
        payload.append(data)
    return tuple(breaks), payload


# -- JSON loader --------------------------------------------------------------

def load_potential(source) -> PotentialSpec:
    """Build a PotentialSpec from a JSON file path, JSON text, or a dict.

    Schema::

        { "kind": "step" | "poly" | "trig",
          "pieces": [ { "from": float, "to": float,
                        "coeffs_re": [...], "coeffs_im": [...] } ] }

    ``coeffs_im`` is optional and defaults to zeros.  For ``trig`` pieces
    coefficient k scales sin((k+1) t).  The pieces must partition [0, pi];
    violations raise PotentialFormatError naming the offending breakpoint.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            is_file = Path(str(source)).exists()
        except (OSError, ValueError):       # text too long for a path name
            is_file = False
        text = Path(source).read_text() if is_file else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PotentialFormatError(f"potential file is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc or "pieces" not in doc:
        raise PotentialFormatError("potential document needs 'kind' and 'pieces'")
    kind = doc["kind"]
    if kind not in ("step", "poly", "trig"):
        raise PotentialFormatError(f"unknown potential kind {kind!r}")
    rows = doc["pieces"]
    if not isinstance(rows, list) or not rows:
        raise PotentialFormatError("'pieces' must be a non-empty list")
    assembled = []
    for row in rows:
        try:
            a, b = float(row["from"]), float(row["to"])
            re = [float(v) for v in row["coeffs_re"]]
            im = [float(v) for v in row.get("coeffs_im", [0.0] * len(re))]
        except (KeyError, TypeError, ValueError) as exc:
            raise PotentialFormatError(f"malformed piece {row!r}: {exc}")
        if len(im) != len(re):
            raise PotentialFormatError(
                f"coeffs_re and coeffs_im lengths differ in piece starting at {a!r}")
        if not re:
            raise PotentialFormatError(f"piece starting at {a!r} has no coefficients")
        coeffs = [complex(r, i) for r, i in zip(re, im)]
        if not all(math.isfinite(abs(c)) for c in coeffs):
            raise PotentialFormatError(f"non-finite coefficient in piece at {a!r}")
        assembled.append((a, b, coeffs))
    if kind == "step":
        for a, b, coeffs in assembled:
            if len(coeffs) != 1:
                raise PotentialFormatError(
                    f"step piece starting at {a!r} must have exactly one coefficient")
        spec = PotentialSpec.step([(a, b, c[0]) for a, b, c in assembled])
    elif kind == "poly":
        spec = PotentialSpec.poly(assembled)
    else:
        spec = PotentialSpec.trig(assembled)
    with np.errstate(over="ignore", invalid="ignore"):
        norm_sq = spec.l2_norm_sq
    if not math.isfinite(norm_sq):
        raise PotentialFormatError(
            "coefficients too large: the L2 norm of u is not finite")
    return spec
