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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import moments
from .errors import DomainError
from .oscillatory import _CorrectionProfile, principal_sqrt
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
    # what gamma_at_m2 is sampled from: the potential and the sample count
    _pot: PotentialSpec | None = field(default=None, repr=False, compare=False)
    _sup_grid: int = field(default=256, repr=False, compare=False)

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

    @cached_property
    def gamma_at_m2(self) -> float:
        """Sampled remainder gauge at m^2, computed on first read.

        Few callers read it (the sweep, for an index without a usable
        root), and sampling the gauge costs more than the prediction itself,
        so the point keeps only a reference to its potential, not the
        correction profile.  A point built without one can be given the
        value by assignment.
        """
        if self._pot is None:
            raise ValueError("gamma_at_m2 needs the potential; points from "
                             "eigenvalue_asym carry it")
        prof = _CorrectionProfile(self._pot, self.m * self.m)
        return prof.gauge(self._sup_grid).value


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


def eigenvalue_asym(pot: PotentialSpec, n: int, sup_grid: int = 256) -> SpectralPoint:
    """Asymptotic sqrt(lambda_n) = m - v(pi, m^2)/pi.

    The gauge at m^2 (``gamma_at_m2``) is sampled on sup_grid points when
    it is first read.
    """
    if n < 1:
        raise ValueError("index n must be >= 1")
    m = n - 0.5
    prof = _CorrectionProfile(pot, m * m)
    mu = -prof.v(PI) / PI
    return SpectralPoint(n=n, m=m, sqrt_lambda_asym=m + mu,
                         phase_correction=mu, _pot=pot, _sup_grid=sup_grid)


def prufer_phase_asym(pot: PotentialSpec, x, lam):
    """Leading phase sqrt(lam)*x + v(x, lam); x may be an array."""
    prof = _CorrectionProfile(pot, lam)
    return prof.sqrt_lam * np.asarray(x, dtype=float) + prof.v(x)


def prufer_modulus_asym(pot: PotentialSpec, x, lam):
    """Leading modulus 1 - int_0^x u cos(2st) - (2s)^{-1} int_0^x u^2 sin(2st)."""
    s = principal_sqrt(lam)
    prof = _CorrectionProfile(pot, lam)
    u2_sin = (pot.piecewise * pot.piecewise
              * moments.sin_kernel(2 * s, pot.breaks)).antiderivative()
    return 1.0 - prof.single_cos.eval(x) - u2_sin.eval(x) / (2 * s)


class _BracketAssembly:
    """Closed-form assembly of the first-order eigenfunction brackets."""

    def __init__(self, pot: PotentialSpec, n: int, conjugated: bool):
        self.n = int(n)
        self.m = m = n - 0.5
        breaks = pot.breaks
        u = pot.piecewise.conj() if conjugated else pot.piecewise
        u2 = u * u
        uR = pot.real_part().piecewise
        uI = pot.imag_part().piecewise
        sin2m = moments.sin_kernel(2 * m, breaks)
        cos2m = moments.cos_kernel(2 * m, breaks)
        w_lin = moments.linear(breaks, slope=-1.0, intercept=PI)   # (pi - t)

        if conjugated:
            cos_weight = uR + uI.scale(2j)
            sin_weight = uR * uR - uI * uI + (uR * uI).scale(4j)
        else:
            cos_weight = uR
            sin_weight = uR * uR - uI * uI
        k_cos = (w_lin * cos_weight * cos2m).integral() / PI
        k_sin = (w_lin * sin_weight * sin2m).integral() / PI

        u_cos = (u * cos2m).antiderivative()
        u_sin = (u * sin2m).antiderivative()
        u2_sin = (u2 * sin2m).antiderivative()
        u2_cos = (u2 * cos2m).antiderivative()
        u2_int = u2.antiderivative()
        double = (u * cos2m * u_sin).antiderivative()

        one = moments.constant(1.0, breaks)
        xs = moments.linear(breaks)                                 # t
        c_sin = one.scale(1.0 + k_cos + k_sin / (2 * m))
        sin_bracket = c_sin - u_cos - u2_sin.scale(1 / (2 * m))
        tail1 = complex(u_sin.eval(PI) + 2 * double.eval(PI))
        tail2 = complex(u2_int.eval(PI) - u2_cos.eval(PI))
        cos_bracket = (u_sin + double.scale(2) - xs.scale(tail1 / PI)
                       + (u2_int - u2_cos - xs.scale(tail2 / PI)).scale(1 / (2 * m)))
        self.func = (moments.sin_kernel(m, breaks) * sin_bracket
                     + moments.cos_kernel(m, breaks) * cos_bracket)

    def values(self, grid):
        return self.func.eval(grid)

    def norm_sq(self) -> float:
        return float((self.func * self.func.conj()).integral().real)


def _unit_table(asm: _BracketAssembly, grid, kind: str,
                normalization: str) -> EigenfunctionTable:
    """The assembly's values on grid, divided by its closed-form norm."""
    values = asm.values(grid) / np.sqrt(asm.norm_sq())
    return EigenfunctionTable(index=asm.n, grid=grid, values=values,
                              kind=kind, normalization=normalization)


def eigenfunction_asym(pot: PotentialSpec, n: int, grid) -> EigenfunctionTable:
    """First-order eigenfunction table, exact unit L2 norm, index n."""
    return _unit_table(_BracketAssembly(pot, n, conjugated=False),
                       np.asarray(grid, dtype=float), "asymptotic",
                       "unit L2 norm (closed-form integral)")


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
    grid = np.asarray(grid, dtype=float)
    note = "pairing with eigenfunction table equals one (closed form)"
    asm_y = _BracketAssembly(pot, n, conjugated=False)
    if pot.is_real:
        return _unit_table(asm_y, grid, "biorthogonal", note)
    asm_w = _BracketAssembly(pot, n, conjugated=True)
    nrm_y = np.sqrt(asm_y.norm_sq())
    pairing = complex((asm_y.func * asm_w.func.conj()).integral()) / nrm_y
    return EigenfunctionTable(
        index=n, grid=grid, values=asm_w.values(grid) / np.conj(pairing),
        kind="biorthogonal", normalization=note)


def normalization_factor(pot: PotentialSpec, n: int) -> complex:
    """First-order expansion of the normalization integral of the raw solution.

    Returns pi/2 * (1 - (1/(pi m)) int u sin(2mt)
                      - (2/pi)   int (pi - t) u cos(2mt)
                      - (1/(pi m)) int (pi - t) u^2 sin(2mt)).
    """
    m = n - 0.5
    breaks = pot.breaks
    u = pot.piecewise
    u2 = u * u
    sin2m = moments.sin_kernel(2 * m, breaks)
    cos2m = moments.cos_kernel(2 * m, breaks)
    w_lin = moments.linear(breaks, slope=-1.0, intercept=PI)
    t1 = (u * sin2m).integral() / (PI * m)
    t2 = 2 * (w_lin * u * cos2m).integral() / PI
    t3 = (w_lin * u2 * sin2m).integral() / (PI * m)
    return PI / 2 * (1 - t1 - t2 - t3)
