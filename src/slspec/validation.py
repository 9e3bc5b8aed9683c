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

A sweep walks its indices in the blocks of the closed-form layer
(asymptotics._blocks: a request's first 32 indices, then blocks of up
to 128): per block one profile gives the predictions, one the gauges at
the solved eigenvalues and one assembly the eigenfunction tables, and
the roots are solved in lockstep, one characteristic walk per round of
the root finders.  The tables meet the numeric eigenfunctions a chunk of
members at a time, one oracle walk per chunk, so that no array of a wide
block holds more than _EVAL_CELLS values.  No record depends on how the
indices were blocked.

The biorthogonality check pairs the asymptotic eigenfunction and
biorthogonal tables on the nodes of a composite Gauss-Legendre rule, a
few per radian of the pairing's highest frequency on cells inside each
piece (about 1.5k nodes at n_max = 20), and at rounding level.  The
tables come from one assembly per block and are normalized in closed
form, so the exact diagonal is one and its deviation reads the
quadrature's defect.  Within one validate call the check reads the
assemblies and norms the sweep built (the store of remainder_sweep).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, oracle
from .errors import INDEX_FAILURES
from .oscillatory import (_EVAL_CELLS, SpectralDomain, _CorrectionProfile,
                          remainder_gauge)
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
_GAUSS_POINTS = 20              # Gauss-Legendre nodes per cell of the pairing
_CELL_PHASE = 8.0               # largest phase (rad) of the pairing per cell
_BIORTH_TOL = 5e-3              # largest deviation from the identity that passes
BIORTH_N_MAX = 20               # the pairing matrix grows quadratically in n_max


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


def _sweep_block(pot: PotentialSpec, ns: tuple, grid, eigfun_up_to: int,
                 sup_grid: int, domain: SpectralDomain | None,
                 store: dict | None) -> list:
    """(record, point) of each index of one block of the closed-form layer.

    The predictions, the gauges at the solved lambda_n (at m^2 for an index
    without a root) and the eigenfunction brackets are one profile each
    for the block.  The block's roots are solved in lockstep
    (oracle._solve_points), one characteristic walk per round, each root
    with the bits it has alone, and their eigenfunctions compared with the
    tables (_eigfun_errors).  A failed solve or a root whose walk fails
    flags its own index only.  The block's assembly and norm go to store
    (asymptotics._normalized).
    """
    points = asymptotics._predictions(pot, ns)
    results = oracle._solve_points(pot, points, domain=domain)
    roots = {p.n: res.lam for p, res in zip(points, results) if not p.flag}
    flags = {p.n: p.flag for p in points}
    gammas = {}
    if roots:       # the profile at the roots lives for its gauges only
        gammas = dict(zip(roots, (g.value for g in _CorrectionProfile(
            pot, list(roots.values())).gauge(sup_grid))))
    sup_errs = dict.fromkeys(ns, 0.0)
    want = {k: roots[n] for k, n in enumerate(ns)
            if n in roots and n <= eigfun_up_to}
    for k, err in _eigfun_errors(pot, ns, want, grid, store).items():
        if isinstance(err, float):
            sup_errs[ns[k]] = err
        else:
            flags[ns[k]] = points[k].flag = f"degraded: {err}"
    rootless = [k for k, n in enumerate(ns) if n not in roots]
    if rootless:                    # no root: the gauge at m^2 stands in
        m2_gauges = asymptotics._m2_profile(pot, ns).gauge(sup_grid, rootless)
        gammas.update((ns[k], g.value) for k, g in zip(rootless, m2_gauges))
    return [(_record(p.n, gammas[p.n], abs(p.rho) if p.n in roots else 0.0,
                     sup_errs[p.n], flags[p.n]), p) for p in points]


def _eigfun_errors(pot: PotentialSpec, ns: tuple, roots: dict, grid,
                   store: dict | None) -> dict:
    """{position: sup error or failure} of the roots of a block.

    roots maps positions in the block ns to lambda_n.  The tables meet the
    numeric eigenfunctions a chunk of members at a time, at most
    _EVAL_CELLS values per array: the chunk's rows of the block's one
    assembly (asymptotics._table_rows) and one oracle walk of its roots
    (oracle._unit_trajectory with a batch), each row aligned and compared
    as eigenfunction_numeric would.  A root whose walk fails gets its
    INDEX_FAILURES error; any other error is raised.
    """
    out = {}
    chunks = (asymptotics._table_rows(pot, ns, grid, "asymptotic", store)
              if roots else ())
    for start, refs in chunks:
        chunk = [k for k in range(start, start + len(refs)) if k in roots]
        if not chunk:
            continue
        rows, errors = oracle._unit_trajectory(
            pot, np.array([roots[k] for k in chunk]), grid)
        for k, row, exc in zip(chunk, rows, errors):
            if exc is not None and not isinstance(exc, INDEX_FAILURES):
                raise exc
            ref = refs[k - start]
            out[k] = exc or float(np.abs(
                ref - oracle._align(pot, ref, row)).max())
    return out


def _record(n: int, gamma: float, eig_err: float, sup_err: float,
            flag: str) -> RemainderRecord:
    """One sweep record; gamma_sq and the guarded ratio follow from gamma."""
    return RemainderRecord(n=n, gamma=gamma, gamma_sq=gamma * gamma,
                           eig_error=eig_err, eigfun_sup_error=sup_err,
                           ratio=_guarded_ratio(eig_err, gamma * gamma),
                           flag=flag)


def _sweep_chunk(ns, pot, grid_size, eigfun_up_to, sup_grid, domain, store):
    grid = asymptotics.default_grid(grid_size)
    return [pair for block in asymptotics._blocks(ns)
            for pair in _sweep_block(pot, block, grid, eigfun_up_to,
                                     sup_grid, domain, store)]


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
                    domain: SpectralDomain | None = None,
                    store: dict | None = None) -> ComparisonReport:
    """Asymptotic-versus-oracle sweep over n_min..n_max with verdicts.

    For each index: eigenvalue remainder |rho_n|, eigenfunction sup error on
    the shared grid (up to eigfun_up_to, default all), the gauge at the
    converged eigenvalue and its square, and the guarded ratio.  Partial-sum
    tables and boundedness/Cauchy verdicts summarize the remainder claims.
    Roots come from oracle.solve_eigenvalue, which has one route per kind
    of potential; the config's "method": "auto" is a fixed label, kept
    because it is part of the report bytes.  jobs > 1 sweeps strided
    chunks of the indices in worker processes (oracle._pmap_chunks) with
    the same result.  domain is the search region of the complex root
    finder (default SpectralDomain()).  store, a dict, receives each
    block's eigenfunction assembly and norm, which a biorthogonality_check
    of the same potential and indices then reuses; a worker process fills
    its own copy, so a sweep that runs in workers leaves it empty.
    """
    if n_max < max(n_min, 2):
        raise ValueError("n_max too small for a sweep")
    eigfun_up_to = n_max if eigfun_up_to is None else int(eigfun_up_to)
    ns = list(range(n_min, n_max + 1))
    results = oracle._pmap_chunks(_sweep_chunk, ns, jobs, pot, grid_size,
                                  eigfun_up_to, sup_grid, domain, store)
    points = [p for _, p in results]
    # indices that converged to one root are degraded like a failed solve
    shared = {p.n for p in oracle._flag_shared_roots(points)}
    records = [_record(p.n, remainder_gauge(pot, p.m * p.m, sup_grid).value,
                       0.0, 0.0, p.flag)
               if p.n in shared else r for r, p in results]

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


@functools.cache
def _gauss_rule() -> tuple:
    """The _GAUSS_POINTS-point Gauss-Legendre nodes and weights on [0, 1].

    Built on the first check of a process: numpy imports np.polynomial on
    first use, which would otherwise cost every start.
    """
    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    return (x + 1) / 2, w / 2


def _cells(h: float, freq: float) -> int:
    """Cells of a piece of length h: each spans at most _CELL_PHASE of freq."""
    return max(1, math.ceil(freq * h / _CELL_PHASE))


def _pairing_rule(breaks, freq: float) -> tuple:
    """Nodes and weights of the composite Gauss-Legendre rule on the breaks.

    Every piece is cut into _cells(h, freq) equal cells with one Gauss rule
    each; no node falls on a break, so an integrand analytic inside each
    piece converges geometrically in the points per cell.
    """
    x, w = _gauss_rule()
    nodes, weights = [], []
    for a, b in zip(breaks, breaks[1:]):
        cells = _cells(b - a, freq)
        h = (b - a) / cells
        nodes.append((a + h * np.arange(cells)[:, None] + h * x).ravel())
        weights.append(np.tile(h * w, cells))
    return np.concatenate(nodes), np.concatenate(weights)


def biorthogonality_check(pot: PotentialSpec, n_max: int, *,
                          n_min: int = 1, store: dict | None = None) -> dict:
    """Pairing matrix (y_n, w_k) of the asymptotic tables by quadrature.

    The pairing is the Hermitian one, integral of y_n * conj(w_k) over
    [0, pi].  Inside a piece the integrand is a sum of polynomial times
    exponential atoms of frequency at most twice the tables' bandwidth
    (asymptotics._table_bandwidth), so the composite Gauss-Legendre rule
    of _pairing_rule reaches rounding level.  The tables are evaluated on
    its nodes and the matrix is one weighted product; a real potential's
    tables are built once and serve as both systems.  Blocks whose
    assembly and norm store holds (remainder_sweep fills it) are not
    rebuilt, and the evaluations are the same bits.  The tables are
    normalized in closed form, so the exact diagonal is one and
    max_diag_deviation reads the quadrature's defect.  The verdict passes
    when no entry deviates from the identity by more than _BIORTH_TOL.
    The matrix grows quadratically in n_max, which is limited to
    BIORTH_N_MAX.
    """
    if n_max > BIORTH_N_MAX:
        raise ValueError("biorthogonality_check is quadratic; "
                         f"n_max <= {BIORTH_N_MAX}")
    ns = list(range(n_min, n_max + 1))
    nodes, weights = _pairing_rule(
        pot.breaks, 2 * asymptotics._table_bandwidth(pot, ns))
    store = {} if store is None else store

    def tables(kind):
        values = asymptotics._table_values(pot, ns, nodes, kind, store)
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("table contains non-finite values")
        return values

    ys = tables("asymptotic")
    ws = ys if pot.is_real else tables("biorthogonal")
    mat = (ys * weights) @ ws.conj().T
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
    at its default sampling.  The roots of each block of the closed-form
    layer (asymptotics._blocks) are predicted by one profile and solved in
    lockstep (oracle._solve_points), each with the bits it has alone, as
    from oracle.solve_eigenvalue; theta and r are read off the
    quasi-system trajectory at the root (oracle._prufer_from_quasi), each
    member on its own grid of max(512, 24 |sqrt(lam)|) points.  A 0/0 is
    reported as 0.  The solved members are compared a chunk at a time
    (_ratio_chunk), so that their rows of points, the trajectories and
    the leading phase and modulus stay within _EVAL_CELLS values.
    """
    ratios, degraded = [], []
    for block in asymptotics._blocks(range(n_min, n_max + 1)):
        points = asymptotics._predictions(pot, block)
        chunk = []
        for n, res in zip(block, oracle._solve_points(pot, points)):
            if not isinstance(res, oracle.SecularResult):
                degraded.append((n, str(res)))
                continue
            s = res.sqrt_lambda
            xs = np.union1d(np.linspace(0.0, PI, max(512, int(24 * abs(s)))),
                            np.asarray(pot.breaks))
            try:
                traj = oracle._prufer_from_quasi(
                    oracle.integrate_quasi_system(pot, res.lam, xs))
            except INDEX_FAILURES as exc:
                degraded.append((n, str(exc)))
                continue
            longest = max([len(xs)] + [len(b[2]) for b in chunk])
            if chunk and (len(chunk) + 1) * longest > _EVAL_CELLS:
                ratios += _ratio_chunk(pot, chunk)
                chunk = []
            chunk.append((n, res.lam, xs, traj.theta, np.exp(traj.log_r)))
        if chunk:
            ratios += _ratio_chunk(pot, chunk)
    return {"n_values": [n for n, _, _ in ratios],
            "theta_ratio": [th for _, th, _ in ratios],
            "r_ratio": [r for _, _, r in ratios], "degraded": degraded}


def _rows(points) -> np.ndarray:
    """Points of varying number, one row per member, padded with pi."""
    rows = np.full((len(points), max(len(p) for p in points)), PI)
    for row, p in zip(rows, points):
        row[:len(p)] = p
    return rows


def _ratio_chunk(pot: PotentialSpec, solved) -> list:
    """[(n, theta ratio, r ratio)] of solved members (n, lam, xs, theta, r).

    One correction profile of their roots gives the leading phase and
    modulus, each member on its own row of points, and the gauges.
    """
    prof = _CorrectionProfile(pot, [b[1] for b in solved])
    theta_lead, r_lead = asymptotics._leading(prof,
                                              _rows([b[2] for b in solved]))
    out = []
    for k, ((n, _, xs, theta, r), gauge) in enumerate(
            zip(solved, prof.gauge())):
        dth = float(np.abs(theta - theta_lead[k, :len(xs)]).max())
        dr = float(np.abs(r - r_lead[k, :len(xs)]).max())
        g2 = gauge.value ** 2
        out.append((n, _guarded_ratio(dth, g2), _guarded_ratio(dr, g2)))
    return out
