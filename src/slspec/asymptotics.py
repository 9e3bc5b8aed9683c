"""First-order spectral asymptotics for the Dirichlet/regularized-Neumann problem.

For the operator -y'' + u'(x) y on [0, pi] with y(0) = 0 and quasi-derivative
Neumann condition (y' - u y)(pi) = 0, the square roots of the eigenvalues
behave like

    sqrt(lambda_n) = m - v(pi, m^2) / pi + rho_n,        m = n - 1/2,

with v the four-term oscillatory correction (see ``oscillatory``) and rho_n
an empirically O(gamma^2) remainder.  Eigenfunctions and their biorthogonal
partners are evaluated from the first-order bracket expansions around
sin(m x) and cos(m x).

Normalization: the eigenfunction table is scaled to exact unit L2 norm
(computed in closed form, not by grid quadrature), and the accompanying
biorthogonal table is scaled so that the exact pairing (y_n, w_n) equals
one.  The truncated brackets alone leave a second-order defect in these
normalizations that would swamp the biorthogonality diagnostics for low n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import moments
from .errors import DomainError
from .oscillatory import _EVAL_CELLS, _CorrectionProfile, _member
from .potential import PI, PotentialSpec


@dataclass
class SpectralPoint:
    """One eigenvalue slot: asymptotic prediction plus optional oracle data."""

    n: int
    m: float
    sqrt_lambda_asym: complex
    phase_correction: complex       # mu_n = -v(pi, m^2)/pi
    sqrt_lambda_numeric: complex | None = None
    residual: float | None = None
    flag: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("index n must be >= 1")
        if abs(self.m - (self.n - 0.5)) > 1e-12:
            raise ValueError("m must equal n - 1/2")

    @property
    def rho(self) -> complex | None:
        """Remainder sqrt(lambda_n)_numeric - sqrt(lambda_n)_asym."""
        if self.sqrt_lambda_numeric is None:
            return None
        return self.sqrt_lambda_numeric - self.sqrt_lambda_asym

    @property
    def lambda_asym(self) -> complex:
        return self.sqrt_lambda_asym ** 2


@dataclass
class EigenfunctionTable:
    """Sampled eigenfunction (or biorthogonal partner) on a grid in [0, pi]."""

    index: int
    grid: np.ndarray
    values: np.ndarray
    kind: str                       # "asymptotic" | "biorthogonal" | "oracle"
    normalization: str = ""

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.grid.ndim != 1 or len(self.grid) < 2:
            raise ValueError("grid must be a 1-D array with at least two nodes")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if abs(self.grid[0]) > 1e-12 or abs(self.grid[-1] - PI) > 1e-9:
            raise DomainError("grid must span [0, pi]")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("table contains non-finite values")

    def sup_distance(self, other: "EigenfunctionTable") -> float:
        if len(self.grid) != len(other.grid) or np.any(self.grid != other.grid):
            raise ValueError("tables live on different grids")
        return float(np.abs(self.values - other.values).max())


def default_grid(size: int = 513) -> np.ndarray:
    return np.linspace(0.0, PI, int(size))


# Indices of a request's head block in the closed-form layer.  A block's
# objects are as wide as its widest member, and the first indices carry
# series polynomials of degree 30 and more, so they keep a block of their
# own; the later ones, of degree 2 or so, share blocks of 4 _BLOCK, whose
# cost per atom, row and piece is paid once for more members.
_BLOCK = 32


def _blocks(ns) -> list:
    """A request's layout: its first _BLOCK entries, then runs of at most
    4 _BLOCK, in order.  Callers lay a request out once and hand each
    block on whole; no block-level function splits it again."""
    ns = [int(n) for n in ns]
    cuts = [0, *range(_BLOCK, len(ns), 4 * _BLOCK), len(ns)]
    return [tuple(ns[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a]


@functools.lru_cache(maxsize=1)
def _m2_profile(pot: PotentialSpec, ns: tuple) -> _CorrectionProfile:
    """The correction profile at m^2 = (n - 1/2)^2 for each n of a block.

    A block's predictions, its eigenfunction brackets and the gauges of
    its rootless indices read one profile; callers handle one block at a
    time, so only the latest is kept (a complex potential's partners read
    the profile of conj(u) once per block).
    """
    return _CorrectionProfile(pot, [(n - 0.5) * (n - 0.5) for n in ns])


@functools.lru_cache(maxsize=8)
def _bracket_weights(pot: PotentialSpec, conjugated: bool) -> tuple:
    """((pi - t) * c(t), (pi - t) * s(t)), the weights of the bracket constants.

    c and s weight the cos and sin moments of the first-order
    eigenfunction brackets: c = u_R and s = u_R^2 - u_I^2, or, for the
    conjugated (biorthogonal) expansion, c = u_R + 2i u_I and
    s = u_R^2 - u_I^2 + 4i u_R u_I.  Neither depends on the index, so
    each is built once per potential.
    """
    uR, uI = pot.real_part().piecewise, pot.imag_part().piecewise
    if conjugated:
        cos_weight = uR + uI.scale(2j)
        sin_weight = uR * uR - uI * uI + (uR * uI).scale(4j)
    else:
        cos_weight, sin_weight = uR, uR * uR - uI * uI
    w_lin = moments.linear(pot.breaks, slope=-1.0, intercept=PI)  # (pi - t)
    return w_lin * cos_weight, w_lin * sin_weight


def _predictions(pot: PotentialSpec, block) -> list:
    """eigenvalue_asym for every n of a block, from one m^2 profile."""
    block = tuple(int(n) for n in block)
    if any(n < 1 for n in block):
        raise ValueError("index n must be >= 1")
    mu = -_m2_profile(pot, block).v(PI) / PI
    points = []
    for n, mu_n in zip(block, mu):
        m = n - 0.5
        mu_n = complex(mu_n)
        points.append(SpectralPoint(n=n, m=m, sqrt_lambda_asym=m + mu_n,
                                    phase_correction=mu_n))
    return points


def eigenvalue_asym(pot: PotentialSpec, n: int) -> SpectralPoint:
    """Asymptotic sqrt(lambda_n) = m - v(pi, m^2)/pi.

    Each call builds its own m^2 profile; for many indices use
    ``oracle.solve_spectrum``, which predicts a request's blocks
    (_blocks) with one profile each.
    """
    return _predictions(pot, [n])[0]


def _leading(prof: _CorrectionProfile, x) -> tuple:
    """Leading Prufer phase and modulus of each member of prof at x.

    x is as in ``_CorrectionProfile.terms``.  The phase is
    sqrt(lam) x + v(x, lam), the modulus
    1 - int_0^x u cos(2st) - (2s)^{-1} int_0^x u^2 sin(2st).
    """
    v = prof.v(x)
    s = prof.sqrt_lam.reshape((-1,) + (1,) * (v.ndim - 1))
    modulus = (1.0 - prof.single_cos.eval(x)
               - prof.square_sin.eval(x) / (2 * s))
    return s * np.asarray(x, dtype=float) + v, modulus


def prufer_phase_asym(pot: PotentialSpec, x, lam):
    """Leading phase sqrt(lam)*x + v(x, lam); x may be an array."""
    x = np.asarray(x, dtype=float)
    return _member(_leading(_CorrectionProfile(pot, [lam]), x.reshape(-1))[0],
                   x.shape)


def prufer_modulus_asym(pot: PotentialSpec, x, lam):
    """Leading modulus 1 - int_0^x u cos(2st) - (2s)^{-1} int_0^x u^2 sin(2st).

    x may be an array.
    """
    x = np.asarray(x, dtype=float)
    return _member(_leading(_CorrectionProfile(pot, [lam]), x.reshape(-1))[1],
                   x.shape)


class _BracketAssembly:
    """Closed-form assembly of the first-order eigenfunction brackets.

    One assembly serves a block of indices.  Both expansions take their
    moments at 2m from the correction profile at m^2, of u for the
    eigenfunction and of conj(u) for the biorthogonal partner, kernels
    included: 2 sqrt(m^2) is exactly 2m.
    """

    def __init__(self, pot: PotentialSpec, ns, conjugated: bool):
        self.ns = tuple(int(n) for n in ns)
        m = np.array([n - 0.5 for n in self.ns])
        breaks = pot.breaks
        prof = _m2_profile(pot.conjugate() if conjugated else pot, self.ns)
        sin2m, cos2m = prof.sin_k, prof.cos_k
        w_cos, w_sin = _bracket_weights(pot, conjugated)
        k_cos = (w_cos * cos2m).integral() / PI
        k_sin = (w_sin * sin2m).integral() / PI

        u_cos, u_sin = prof.single_cos, prof.single_sin
        u2_cos, u2_int = prof.square_cos, prof.square_plain
        double, u2_sin = prof.double, prof.square_sin

        one = moments.constant(1.0, breaks)
        xs = moments.linear(breaks)                                 # t
        c_sin = one.scale(1.0 + k_cos + k_sin / (2 * m))
        sin_bracket = c_sin - u_cos - u2_sin.scale(1 / (2 * m))
        tail1 = u_sin.eval(PI) + 2 * double.eval(PI)
        tail2 = u2_int.eval(PI) - u2_cos.eval(PI)
        cos_bracket = (u_sin + double.scale(2) - xs.scale(tail1 / PI)
                       + (u2_int - u2_cos - xs.scale(tail2 / PI)).scale(1 / (2 * m)))
        sin_m, cos_m = moments.harmonic_kernels(prof.sqrt_lam, 1, breaks)
        self.func = sin_m * sin_bracket + cos_m * cos_bracket

    def values(self, grid, members=None):
        """Every member, or the members at the given positions, on grid.

        Shape (members, len(grid)); the grid is evaluated in chunks of at
        most _EVAL_CELLS values.
        """
        func = self.func if members is None else self.func.take(members)
        out = np.empty((func.width, len(grid)), dtype=complex)
        step = max(1, _EVAL_CELLS // func.width)
        for i in range(0, len(grid), step):
            out[:, i:i + step] = func.eval(grid[i:i + step])
        return out

    def norm_sq(self) -> np.ndarray:
        return (self.func * self.func.conj()).integral().real


def _table_bandwidth(pot: PotentialSpec, ns) -> float:
    """A bound on |a + b*omega| over the atoms of the tables of ns.

    With m the largest n - 1/2 and K the largest frequency of u's atoms:
    the double moment of the cos bracket, u cos(2mt) times the
    antiderivative of u sin(2mt), reaches 4m + 2K, and the kernels sin(mx)
    and cos(mx) add m.  No other bracket term goes higher, and the
    conjugated expansion has the same frequencies.
    """
    return 5 * (max(ns) - 0.5) + 2 * pot.piecewise.max_frequency()


_NORMALIZATIONS = {
    "asymptotic": "unit L2 norm (closed-form integral)",
    "biorthogonal": "pairing with eigenfunction table equals one (closed form)",
}


def _normalized(pot: PotentialSpec, block: tuple, kind: str,
                store: dict | None) -> tuple:
    """(assembly, scale) of one block: its tables are the rows of
    assembly.values(grid) / scale[:, None], on any grid.

    The scale is the closed-form norm of the eigenfunction ("asymptotic")
    expansion, or for a complex potential's "biorthogonal" partners the
    conjugated closed-form pairing with the normalized eigenfunctions; a
    real potential's partners are its eigenfunctions, one assembly for
    both.  store, a dict that one caller keeps for one potential, holds
    each pair it builds under (kind, block), so that tables of the same
    block on another grid reuse the assembly and its norm; None keeps
    nothing.
    """
    store = {} if store is None else store
    key = ("asymptotic" if pot.is_real else kind, block)
    if key not in store:
        if key[0] == "asymptotic":
            asm_y = _BracketAssembly(pot, block, conjugated=False)
            store[key] = asm_y, np.sqrt(asm_y.norm_sq())
        else:
            asm_y, nrm_y = _normalized(pot, block, "asymptotic", store)
            asm_w = _BracketAssembly(pot, block, conjugated=True)
            pairing = (asm_y.func * asm_w.func.conj()).integral() / nrm_y
            store[key] = asm_w, np.conj(pairing)
    return store[key]


def _table_values(pot: PotentialSpec, block, grid, kind: str,
                  store: dict | None = None) -> np.ndarray:
    """Rows of the eigenfunction ("asymptotic") or "biorthogonal" tables
    of a block.

    One assembly (two for a complex potential's partners), built by
    _normalized unless store holds it; the normalizations are those of
    eigenfunction_asym and biorthogonal_asym.
    """
    asm, scale = _normalized(pot, tuple(block), kind, store)
    values = asm.values(grid)
    values /= scale[:, None]
    return values


def _table_rows(pot: PotentialSpec, block, grid, kind: str,
                store: dict | None = None):
    """The rows of _table_values a chunk of members at a time.

    Yields (start, rows), the rows of block[start:start + len(rows)] in
    at most _EVAL_CELLS values, evaluated from the block's one assembly
    as the caller reaches them.  A non-finite row raises ValueError, as
    an EigenfunctionTable would.
    """
    block = tuple(block)
    asm, scale = _normalized(pot, block, kind, store)
    step = max(1, _EVAL_CELLS // len(grid))
    for i in range(0, len(block), step):
        members = range(i, min(i + step, len(block)))
        values = asm.values(grid, members if step < len(block) else None)
        values /= scale[i:i + step, None]
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("table contains non-finite values")
        yield i, values


def _tables(pot: PotentialSpec, block, grid, kind: str,
            store: dict | None = None) -> list:
    """The tables of _table_values, one per n; their values share one array."""
    grid = np.asarray(grid, dtype=float)
    return [EigenfunctionTable(index=n, grid=grid, values=row, kind=kind,
                               normalization=_NORMALIZATIONS[kind])
            for n, row in zip(block, _table_values(pot, block, grid, kind,
                                                   store))]


def eigenfunction_asym(pot: PotentialSpec, n: int, grid) -> EigenfunctionTable:
    """First-order eigenfunction table, exact unit L2 norm, index n."""
    return _tables(pot, [n], grid, "asymptotic")[0]


def biorthogonal_asym(pot: PotentialSpec, n: int, grid) -> EigenfunctionTable:
    """Biorthogonal partner table, scaled so the pairing with y_n is one.

    The bracket expansion is evaluated as written (conjugated moments and the
    (u_R + 2i u_I)-weighted constants) and then rescaled by the closed-form
    pairing with the normalized eigenfunction table, which realizes the
    construction w_n = conj(y_n) / (y_n, conj(y_n)) without its second-order
    truncation error.  For real potentials the conjugated expansion is the
    eigenfunction's own, and its pairing the norm: the table is the
    eigenfunction table, bit for bit, from one assembly.
    """
    return _tables(pot, [n], grid, "biorthogonal")[0]


def normalization_factor(pot: PotentialSpec, n: int) -> complex:
    """First-order expansion of the normalization integral of the raw solution.

    Returns pi/2 * (1 - (1/(pi m)) int u sin(2mt)
                      - (2/pi)   int (pi - t) u cos(2mt)
                      - (1/(pi m)) int (pi - t) u^2 sin(2mt)).
    """
    m = n - 0.5
    breaks = pot.breaks
    u = pot.piecewise
    u2 = pot.piecewise_sq
    sin2m = moments.sin_kernel(2 * m, breaks)
    cos2m = moments.cos_kernel(2 * m, breaks)
    w_lin = moments.linear(breaks, slope=-1.0, intercept=PI)
    t1 = (u * sin2m).integral() / (PI * m)
    t2 = 2 * (w_lin * u * cos2m).integral() / PI
    t3 = (w_lin * u2 * sin2m).integral() / (PI * m)
    return PI / 2 * (1 - t1 - t2 - t3)
