"""Empirical verification of the remainder claims behind the asymptotics.

The expansion theory promises, for u in L2, that the eigenvalue remainders
are O(gamma^2(lambda_n)) with a potential-dependent constant, that the
eigenfunction sup-remainders form an l1 sequence, and that {gamma(lambda_n)}
is l2.  The constants are existential, so this module never asserts a fixed
bound; it reports ratio profiles and verdicts based on boundedness and
Cauchy-increment trends at desk scale (an explicitly heuristic reading of
the summability statements).

Degraded indices (oracle failures) are flagged and excluded from the ratio
statistics, never silently dropped; a sweep does not abort because one
index failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from . import asymptotics, oracle
from .errors import (IndexingError, IntegrationBlowupError,
                     NonconvergenceError)
from .oscillatory import SpectralDomain, remainder_gauge
from .potential import PI, PotentialSpec

REPORT_SCHEMA = "slspec-report/1"

CSV_COLUMNS = ["n", "m", "sqrt_lambda_asym_re", "sqrt_lambda_asym_im",
               "sqrt_lambda_num_re", "sqrt_lambda_num_im", "abs_rho",
               "gamma", "gamma_sq", "ratio", "eigfun_sup_err"]

_THRESHOLDS = {
    "ratio_tail_factor": 2.0,     # tail max of |rho|/gamma^2 vs mid-range max
    "l1_increment_fraction": 0.1, # second-half increment vs first-half sum
    "doubling_decrease_factor": 1.5,
    "zero_floor": 1e-12,
}
_BIORTH_GRID = 16385            # Simpson nodes of the pairing matrix
_BIORTH_TOL = 5e-3              # largest deviation from the identity that passes


def _fmt(x) -> str:
    # + 0.0 folds negative zero so equal tables print identically
    return repr(float(x) + 0.0)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass
class RemainderRecord:
    n: int
    gamma: float
    gamma_sq: float
    eig_error: float
    eigfun_sup_error: float
    ratio: float
    flag: str = ""

    def __post_init__(self):
        for name in ("gamma", "gamma_sq", "eig_error", "eigfun_sup_error"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class ComparisonReport:
    potential: str
    n_min: int
    n_max: int
    records: list
    points: list
    partial_sums: dict
    verdicts: dict
    thresholds: dict
    config: dict
    biorthogonality: dict | None = None
    degraded: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        recs = [{
            "n": r.n, "gamma": r.gamma, "gamma_sq": r.gamma_sq,
            "eig_error": r.eig_error, "eigfun_sup_error": r.eigfun_sup_error,
            "ratio": r.ratio if math.isfinite(r.ratio) else None,
            "flag": r.flag,
        } for r in self.records]
        return {
            "schema": REPORT_SCHEMA,
            "potential": self.potential,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "config": self.config,
            "records": recs,
            "partial_sums": self.partial_sums,
            "verdicts": self.verdicts,
            "thresholds": self.thresholds,
            "biorthogonality": self.biorthogonality,
            "degraded": self.degraded,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        rows = []
        for rec, pt in zip(self.records, self.points):
            num = pt.sqrt_lambda_numeric
            rows.append([
                rec.n, _fmt(pt.m),
                _fmt(pt.sqrt_lambda_asym.real), _fmt(pt.sqrt_lambda_asym.imag),
                _fmt(num.real) if num is not None else "",
                _fmt(num.imag) if num is not None else "",
                _fmt(rec.eig_error), _fmt(rec.gamma), _fmt(rec.gamma_sq),
                _fmt(rec.ratio), _fmt(rec.eigfun_sup_error),
            ])
        with open(path, "w", newline="") as fh:
            fh.write(_csv_text(CSV_COLUMNS, rows))


def _guarded_ratio(err: float, gamma_sq: float) -> float:
    # gamma vanishes only for the zero potential, where the remainders are
    # identically zero; anything at solver-noise scale reads as 0/0 -> 0
    if gamma_sq <= 0:
        return 0.0 if err <= 1e-8 else math.inf
    return err / gamma_sq


def _sweep_one(pot: PotentialSpec, n: int, grid, eigfun: bool,
               sup_grid: int, domain: SpectralDomain | None):
    point = asymptotics.eigenvalue_asym(pot, n, sup_grid=sup_grid)
    flag = ""
    gamma = None
    eig_err = 0.0
    sup_err = 0.0
    try:
        res = oracle.solve_eigenvalue(pot, n, seed=point, domain=domain)
        point.sqrt_lambda_numeric = res.sqrt_lambda
        point.residual = res.residual
        gamma = remainder_gauge(pot, res.lam, sup_grid=sup_grid).value
        eig_err = abs(point.rho)
        if eigfun:
            asym_tab = asymptotics.eigenfunction_asym(pot, n, grid)
            num_tab = oracle.eigenfunction_numeric(pot, res.lam, grid,
                                                   align_to=asym_tab)
            sup_err = asym_tab.sup_distance(num_tab)
    except (NonconvergenceError, IndexingError,
            IntegrationBlowupError) as exc:
        flag = f"degraded: {exc}"
        point.flag = flag
    if gamma is None:               # no root: the gauge at m^2 stands in
        gamma = point.gamma_at_m2
    return _record(n, gamma, eig_err, sup_err, flag), point


def _record(n: int, gamma: float, eig_err: float, sup_err: float,
            flag: str) -> RemainderRecord:
    """One sweep record; gamma_sq and the guarded ratio follow from gamma."""
    return RemainderRecord(n=n, gamma=gamma, gamma_sq=gamma * gamma,
                           eig_error=eig_err, eigfun_sup_error=sup_err,
                           ratio=_guarded_ratio(eig_err, gamma * gamma),
                           flag=flag)


def _sweep_chunk(ns, pot, grid_size, eigfun_up_to, sup_grid, domain):
    grid = asymptotics.default_grid(grid_size)
    return [_sweep_one(pot, n, grid, eigfun=n <= eigfun_up_to,
                       sup_grid=sup_grid, domain=domain) for n in ns]


def _cumulative(values) -> list:
    out, acc = [], 0.0
    for v in values:
        acc += v
        out.append(acc)
    return out


def _partial(sums: list, n_values: list, at: int) -> float:
    """Cumulative sum at index <= at (0 when no index qualifies)."""
    best = 0.0
    for n, s in zip(n_values, sums):
        if n <= at:
            best = s
    return best


def remainder_sweep(pot: PotentialSpec, n_max: int, grid_size: int = 513, *,
                    n_min: int = 1, eigfun_up_to: int | None = None,
                    sup_grid: int = 256, jobs: int = 1,
                    domain: SpectralDomain | None = None) -> ComparisonReport:
    """Asymptotic-versus-oracle sweep over n_min..n_max with verdicts.

    For each index: eigenvalue remainder |rho_n|, eigenfunction sup error on
    the shared grid (up to eigfun_up_to, default all), the gauge at the
    converged eigenvalue and its square, and the guarded ratio.  Partial-sum
    tables and boundedness/Cauchy verdicts summarize the remainder claims.
    Roots come from oracle.solve_eigenvalue's default ("auto") route, which
    the report's config records as its method.  jobs > 1 sweeps strided
    chunks of the indices in worker processes (oracle._pmap_chunks) with
    the same result.  domain is the search region of the complex root
    finder (default SpectralDomain()).
    """
    if n_max < max(n_min, 2):
        raise ValueError("n_max too small for a sweep")
    eigfun_up_to = n_max if eigfun_up_to is None else int(eigfun_up_to)
    ns = list(range(n_min, n_max + 1))
    results = oracle._pmap_chunks(_sweep_chunk, ns, jobs, pot, grid_size,
                                  eigfun_up_to, sup_grid, domain)
    points = [p for _, p in results]
    # indices that converged to one root are degraded like a failed solve
    shared = {p.n for p in oracle._flag_shared_roots(points)}
    records = [_record(p.n, p.gamma_at_m2, 0.0, 0.0, p.flag) if p.n in shared
               else r for r, p in results]

    good = [r for r in records if not r.flag]
    n_good = [r.n for r in good]
    sums = {
        "n": n_good,
        "abs_rho": _cumulative([r.eig_error for r in good]),
        "eigfun_sup": _cumulative([r.eigfun_sup_error for r in good
                                   if r.n <= eigfun_up_to]),
        "eigfun_n": [r.n for r in good if r.n <= eigfun_up_to],
        "gamma_sq": _cumulative([r.gamma_sq for r in good]),
    }
    verdicts = _verdicts(records, sums, n_max, eigfun_up_to)
    return ComparisonReport(
        potential=pot.describe(), n_min=n_min, n_max=n_max, records=records,
        points=points, partial_sums=sums, verdicts=verdicts,
        thresholds=dict(_THRESHOLDS),
        config={"grid_size": grid_size, "method": "auto", "sup_grid": sup_grid,
                "eigfun_up_to": eigfun_up_to, "n_min": n_min, "n_max": n_max},
        degraded=[r.n for r in records if r.flag])


def _verdicts(records, sums, n_max, eigfun_up_to) -> dict:
    floor = _THRESHOLDS["zero_floor"]
    good = [r for r in records if not r.flag]
    mid_lo, mid_hi = max(10, n_max // 4), n_max // 2
    mid = [r.ratio for r in good if mid_lo <= r.n <= mid_hi
           and math.isfinite(r.ratio)]
    tail = [r.ratio for r in good if r.n > mid_hi and math.isfinite(r.ratio)]
    if not mid or not tail:
        ratio_ok = True
    else:
        ratio_ok = (max(tail) <= _THRESHOLDS["ratio_tail_factor"] * max(mid)
                    or max(tail) <= floor)

    def cauchy_l1(key, nkey):
        total = sums[key]
        nvals = sums[nkey]
        if not total:
            return True
        half = _partial(total, nvals, n_max // 2)
        full = total[-1]
        return (full - half) <= _THRESHOLDS["l1_increment_fraction"] * half + floor

    def doubling(key, nkey, top):
        total = sums[key]
        nvals = sums[nkey]
        if not total:
            return True
        s_q = _partial(total, nvals, top // 4)
        s_h = _partial(total, nvals, top // 2)
        s_f = _partial(total, nvals, top)
        d1, d2 = s_h - s_q, s_f - s_h
        if d1 <= floor and d2 <= floor:
            return True
        return d1 >= _THRESHOLDS["doubling_decrease_factor"] * d2

    return {
        "ratio_bounded": bool(ratio_ok),
        "rho_l1_cauchy": bool(cauchy_l1("abs_rho", "n")),
        "gamma_l2_cauchy": bool(cauchy_l1("gamma_sq", "n")),
        "eigfun_sup_cauchy": bool(doubling("eigfun_sup", "eigfun_n",
                                           eigfun_up_to)),
        "all_converged": not any(r.flag for r in records),
    }


def biorthogonality_check(pot: PotentialSpec, n_max: int, *,
                          n_min: int = 1) -> dict:
    """Pairing matrix (y_n, w_k) of the asymptotic tables by quadrature.

    The pairing is the Hermitian one, integral of y_n * conj(w_k) over
    [0, pi], evaluated by composite Simpson on a shared uniform grid of
    _BIORTH_GRID nodes; a real potential's tables are built once and serve
    as both systems.  The verdict passes when no entry deviates from the
    identity by more than _BIORTH_TOL.  Quadratic cost limits n_max to 24.
    """
    if n_max > 24:
        raise ValueError("biorthogonality_check is quadratic; n_max <= 24")
    grid = asymptotics.default_grid(_BIORTH_GRID)
    ns = list(range(n_min, n_max + 1))
    ys = {n: asymptotics.eigenfunction_asym(pot, n, grid).values for n in ns}
    ws = ys if pot.is_real else {
        k: asymptotics.biorthogonal_asym(pot, k, grid).values for k in ns}
    mat = np.empty((len(ns), len(ns)), dtype=complex)
    for i, n in enumerate(ns):
        for j, k in enumerate(ns):
            mat[i, j] = simpson(ys[n] * np.conj(ws[k]), x=grid)
    dev = np.abs(mat - np.eye(len(ns)))
    max_offdiag = float((dev - np.diag(np.diag(dev))).max())
    max_diag = float(np.abs(np.diag(mat) - 1).max())
    return {
        "n_values": ns,
        "matrix_re": mat.real.tolist(),
        "matrix_im": mat.imag.tolist(),
        "max_offdiag": max_offdiag,
        "max_diag_deviation": max_diag,
        "tolerance": _BIORTH_TOL,
        "verdict": bool(max(max_offdiag, max_diag) <= _BIORTH_TOL),
    }


def phase_modulus_ratio_profile(pot: PotentialSpec, n_max: int, *,
                                n_min: int = 10) -> dict:
    """Phase and modulus remainder ratios against gamma^2 at the true roots.

    For each n: sup over x of |theta_oracle - (sqrt(lam) x + v)| and of
    |r_oracle - r_leading|, both divided by gamma^2(lambda_n), the gauge
    at its default sampling.  Roots come from oracle.solve_eigenvalue's
    default route.  A 0/0 is reported as 0.
    """
    ns, th_ratios, r_ratios = [], [], []
    degraded = []
    for n in range(n_min, n_max + 1):
        try:
            res = oracle.solve_eigenvalue(pot, n)
            lam = res.lam
            s = res.sqrt_lambda
            xs = np.union1d(np.linspace(0.0, PI, max(512, int(24 * abs(s)))),
                            np.asarray(pot.breaks))
            traj = oracle.integrate_prufer(pot, lam, xs)
        except (NonconvergenceError, IndexingError,
                IntegrationBlowupError) as exc:
            degraded.append((n, str(exc)))
            continue
        theta_lead = asymptotics.prufer_phase_asym(pot, xs, lam)
        r_lead = asymptotics.prufer_modulus_asym(pot, xs, lam)
        dth = float(np.abs(traj.theta - theta_lead).max())
        dr = float(np.abs(np.exp(traj.log_r) - r_lead).max())
        g2 = remainder_gauge(pot, lam).value ** 2
        ns.append(n)
        th_ratios.append(_guarded_ratio(dth, g2))
        r_ratios.append(_guarded_ratio(dr, g2))
    return {"n_values": ns, "theta_ratio": th_ratios, "r_ratio": r_ratios,
            "degraded": degraded}
