"""Independent checks of the CLI outputs, run outside the timed region.

Each index of a request ends up in one of three states: passed, flagged by
the library (a ``degraded`` row), or failed here although the library
returned it as valid.  Flagged and failed indices both count against the
workload.  Output that does not have the documented shape makes the whole
run incorrect.

The checks call only public library functions, and never the root solver
or its verifier.  Real roots are checked by an oscillation count from the
initial state (0, 1), which stays real for negative eigenvalues, and by a
Newton step at half the oracle's step size.  Complex roots are checked by
the same Newton step and by requiring distinct roots for distinct indices.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from slspec import characteristic, integrate_quasi_system

PI = math.pi

REPORT_SCHEMA = "slspec-report/1"
VERDICT_KEYS = ("ratio_bounded", "rho_l1_cauchy", "gamma_l2_cauchy",
                "eigfun_sup_cauchy", "all_converged")
REPORT_COLUMNS = ["n", "m", "sqrt_lambda_asym_re", "sqrt_lambda_asym_im",
                  "sqrt_lambda_num_re", "sqrt_lambda_num_im", "abs_rho",
                  "gamma", "gamma_sq", "ratio", "eigfun_sup_err"]
SPECTRUM_COLUMNS = ["n", "m", "sqrt_lambda_asym_re", "sqrt_lambda_asym_im",
                    "sqrt_lambda_num_re", "sqrt_lambda_num_im", "abs_rho",
                    "residual", "flag"]

# Half the oracle's default RK4 phase step (0.004).
HALF_STEP_SCALE = 0.002
# Largest accepted Newton correction |d lambda| / max(1, |lambda|).  No
# tighter than the 1e-7 of acceptance criterion 8, so that a legitimate
# change of root route does not read as a failure.
NEWTON_TOL = 1e-7
# Two indices whose sqrt(lambda) agree to this relative distance share a root.
SAME_ROOT_TOL = 1e-6


class OutputError(Exception):
    """An output file does not have the documented shape."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def zero_count(pot, lam: float) -> int:
    """Sign changes of y1 on (0, pi] for y1(0) = 0, (y' - u y)(0) = 1."""
    s = math.sqrt(abs(lam))
    grid = np.linspace(0.0, PI, 32 * (int(s) + 3) + 1)
    y1 = integrate_quasi_system(pot, lam, grid, init=(0.0, 1.0)).y1.real[1:]
    signs = np.sign(y1[y1 != 0])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def newton_correction(pot, lam: complex) -> float:
    """Relative Newton step of the characteristic function at lam."""
    h = 1e-5 * max(1.0, abs(lam))
    f = characteristic(pot, lam, step_scale=HALF_STEP_SCALE)
    df = (characteristic(pot, lam + h, step_scale=HALF_STEP_SCALE)
          - characteristic(pot, lam - h, step_scale=HALF_STEP_SCALE)) / (2 * h)
    if df == 0:
        return math.inf
    return abs(f / df) / max(1.0, abs(lam))


def _rows(text: str, columns: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    _expect(bool(rows) and rows[0] == columns,
            f"unexpected CSV header {rows[0] if rows else None}")
    return rows[1:]


def _roots(rows: list, n_values: tuple, flagged: set) -> dict:
    """sqrt(lambda) per unflagged index from CSV rows (columns 4 and 5)."""
    _expect([int(r[0]) for r in rows] == list(n_values),
            "output rows do not cover the requested indices in order")
    roots = {}
    for r in rows:
        n = int(r[0])
        if n in flagged:
            _expect(r[4] == "" and r[5] == "",
                    f"flagged index {n} still carries a root")
            continue
        s = complex(float(r[4]), float(r[5]))
        _expect(math.isfinite(abs(s)), f"index {n} has a non-finite root")
        roots[n] = s
    return roots


def check_validate(pot, n_values: tuple, report_json: str, report_csv: str,
                   biorth_expected: bool):
    """(flagged indices, failed indices) of one validate request."""
    doc = json.loads(report_json)
    _expect(doc.get("schema") == REPORT_SCHEMA, "report schema is not "
            f"{REPORT_SCHEMA}")
    verdicts = doc.get("verdicts")
    _expect(isinstance(verdicts, dict)
            and all(isinstance(verdicts.get(k), bool) for k in VERDICT_KEYS),
            "report lacks a verdict key")
    records = doc.get("records")
    _expect(isinstance(records, list)
            and [r.get("n") for r in records] == list(n_values),
            "report records do not cover the requested indices")
    flagged = {r["n"] for r in records if r.get("flag")}
    _expect(sorted(flagged) == doc.get("degraded"),
            "degraded list disagrees with the record flags")
    _expect(verdicts["all_converged"] == (not flagged),
            "all_converged verdict disagrees with the degraded list")
    if biorth_expected:
        bio = doc.get("biorthogonality")
        _expect(isinstance(bio, dict) and isinstance(bio.get("verdict"), bool),
                "report lacks the biorthogonality check")
    roots = _roots(_rows(report_csv, REPORT_COLUMNS), n_values, flagged)
    failed = set()
    for n, s in roots.items():
        lam = (s * s).real
        if zero_count(pot, lam) != n - 1 or newton_correction(pot, lam) > NEWTON_TOL:
            failed.add(n)
    return flagged, failed


def check_spectrum(pot, n_values: tuple, table_csv: str):
    """(flagged indices, failed indices) of one spectrum --method both table."""
    rows = _rows(table_csv, SPECTRUM_COLUMNS)
    flagged = {int(r[0]) for r in rows if r[8].startswith("degraded")}
    for r in rows:
        _expect(r[8] == "" or r[8].startswith("degraded"),
                f"unknown flag {r[8]!r} at index {r[0]}")
    roots = _roots(rows, n_values, flagged)
    failed = {n for n, s in roots.items()
              if newton_correction(pot, s * s) > NEWTON_TOL}
    items = list(roots.items())
    for i, (n1, s1) in enumerate(items):
        for n2, s2 in items[i + 1:]:
            if abs(s1 - s2) <= SAME_ROOT_TOL * max(1.0, abs(s1)):
                failed.update((n1, n2))
    return flagged, failed
