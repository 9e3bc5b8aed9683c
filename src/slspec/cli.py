"""Command-line surface.

Thin shell over the library: every command's output is reproducible from
library calls with the same configuration, and per-index determinism makes
the output independent of the parallelism degree.

Exit codes: 0 success (possibly with flagged rows), 2 configuration or
potential-file error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict

from . import asymptotics, oracle, validation
from .errors import (DomainError, PotentialFormatError, SingularArgumentError,
                     SpectralError)
from .oscillatory import SpectralDomain, remainder_gauge
from .potential import load_potential
from .validation import _csv_text, _fmt

SPECTRUM_SCHEMA = "slspec-spectrum/1"
TABLE_SCHEMA = "slspec-table/1"


@dataclass
class RunConfig:
    command: str
    potential: str
    n_min: int = 1
    n_max: int = 10
    n: int | None = None
    grid: int = 513
    method: str = "asym"            # asym | shoot | both
    kind: str = "asym"              # asym | biorth | oracle
    alpha: float = 2.0
    tol_root: float = 1e-12
    fmt: str = "csv"
    out: str | None = None
    jobs: int = 0                   # 0: SLSPEC_JOBS or cpu count

    def validate(self) -> None:
        if self.n is not None and self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("index range is empty; need 1 <= n-min <= n-max")
        if self.grid < 16:
            raise ValueError("--grid must be at least 16")
        if not self.tol_root > 0:
            raise ValueError("--tol-root must be positive")
        if self.alpha <= 0:
            raise ValueError("--alpha must be positive")

    def effective_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        env = os.environ.get("SLSPEC_JOBS", "")
        if env.isdigit() and int(env) > 0:
            return int(env)
        return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slspec",
        description="Spectral tables for -y'' + u'(x) y on [0, pi] with "
                    "Dirichlet/regularized-Neumann conditions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--potential", required=True,
                       help="JSON potential file (kind step|poly|trig)")
        p.add_argument("--n-min", type=int, default=1)
        p.add_argument("--n-max", type=int, default=10)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--grid", type=int, default=513)
        p.add_argument("--method", choices=["asym", "shoot", "both"],
                       default="asym")
        p.add_argument("--kind", choices=["asym", "biorth", "oracle"],
                       default="asym")
        p.add_argument("--alpha", type=float, default=2.0)
        p.add_argument("--tol-root", type=float, default=1e-12)
        p.add_argument("--format", dest="fmt", choices=["csv", "json"],
                       default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--jobs", type=int, default=0,
                       help="parallel workers (default: SLSPEC_JOBS or cores)")

    for name, doc in [
        ("spectrum", "eigenvalue table over an index range"),
        ("eigenfunction", "sampled eigenfunction table for one index"),
        ("validate", "asymptotics-versus-oracle remainder report"),
        ("gamma", "remainder-gauge profile over an index range"),
    ]:
        common(sub.add_parser(name, help=doc))
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_spectrum(cfg: RunConfig) -> int:
    pot = load_potential(cfg.potential)
    ns = list(range(cfg.n_min, cfg.n_max + 1))
    if cfg.method == "asym":
        points = [asymptotics.eigenvalue_asym(pot, n) for n in ns]
    else:
        points = oracle.solve_spectrum(
            pot, ns, domain=SpectralDomain(alpha=cfg.alpha),
            tol_root=cfg.tol_root)
    header = ["n", "m", "sqrt_lambda_asym_re", "sqrt_lambda_asym_im"]
    if cfg.method in ("shoot", "both"):
        header += ["sqrt_lambda_num_re", "sqrt_lambda_num_im", "abs_rho",
                   "residual", "flag"]
    rows = []
    for p in points:
        row = [p.n, _fmt(p.m), _fmt(p.sqrt_lambda_asym.real),
               _fmt(p.sqrt_lambda_asym.imag)]
        if cfg.method in ("shoot", "both"):
            if p.sqrt_lambda_numeric is not None:
                row += [_fmt(p.sqrt_lambda_numeric.real),
                        _fmt(p.sqrt_lambda_numeric.imag),
                        _fmt(abs(p.rho)), _fmt(p.residual), p.flag]
            else:
                row += ["", "", "", "", p.flag]
        rows.append(row)
    if cfg.fmt == "csv":
        _emit(_csv_text(header, rows), cfg.out)
    else:
        _emit(_json_text({"schema": SPECTRUM_SCHEMA, "config": asdict(cfg),
                          "columns": header, "rows": rows}), cfg.out)
    return 0


def cmd_eigenfunction(cfg: RunConfig) -> int:
    pot = load_potential(cfg.potential)
    n = cfg.n if cfg.n is not None else cfg.n_min
    grid = asymptotics.default_grid(cfg.grid)
    if cfg.kind == "biorth":
        table = asymptotics.biorthogonal_asym(pot, n, grid)
    else:
        table = asymptotics.eigenfunction_asym(pot, n, grid)
    if cfg.kind == "oracle":
        res = oracle.solve_eigenvalue(pot, n, domain=SpectralDomain(cfg.alpha),
                                      tol_root=cfg.tol_root)
        table = oracle.eigenfunction_numeric(pot, res.lam, grid, align_to=table)
    rows = [[_fmt(x), _fmt(v.real), _fmt(v.imag)]
            for x, v in zip(table.grid, table.values)]
    if cfg.fmt == "csv":
        _emit(_csv_text(["x", "re_y", "im_y"], rows), cfg.out)
    else:
        _emit(_json_text({"schema": TABLE_SCHEMA, "config": asdict(cfg),
                          "index": table.index, "kind": table.kind,
                          "normalization": table.normalization,
                          "columns": ["x", "re_y", "im_y"], "rows": rows}),
              cfg.out)
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    pot = load_potential(cfg.potential)
    report = validation.remainder_sweep(
        pot, cfg.n_max, grid_size=cfg.grid, n_min=cfg.n_min,
        jobs=cfg.effective_jobs(), domain=SpectralDomain(alpha=cfg.alpha))
    if cfg.n_max <= 20:
        report.biorthogonality = validation.biorthogonality_check(
            pot, cfg.n_max, n_min=cfg.n_min)
    base = cfg.out or "slspec_report"
    if base.endswith(".json") or base.endswith(".csv"):
        base = base.rsplit(".", 1)[0]
    report.write_json(base + ".json")
    report.write_csv(base + ".csv")
    for key, ok in report.verdicts.items():
        sys.stdout.write(f"{key}: {'pass' if ok else 'FAIL'}\n")
    if report.degraded:
        sys.stdout.write(f"degraded indices: {report.degraded}\n")
    sys.stdout.write(f"report: {base}.json / {base}.csv\n")
    return 0


def cmd_gamma(cfg: RunConfig) -> int:
    pot = load_potential(cfg.potential)
    header = ["n", "m", "gamma", "gamma_sq", "tail", "upper_estimate"]
    rows = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        m = n - 0.5
        g = remainder_gauge(pot, m * m)
        rows.append([n, _fmt(m), _fmt(g.value), _fmt(g.value ** 2),
                     _fmt(g.tail), _fmt(g.upper_estimate)])
    if cfg.fmt == "csv":
        _emit(_csv_text(header, rows), cfg.out)
    else:
        _emit(_json_text({"schema": "slspec-gamma/1", "config": asdict(cfg),
                          "columns": header, "rows": rows}), cfg.out)
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigenfunction": cmd_eigenfunction,
    "validate": cmd_validate,
    "gamma": cmd_gamma,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command, potential=args.potential,
                    n_min=args.n_min, n_max=args.n_max, n=args.n,
                    grid=args.grid, method=args.method, kind=args.kind,
                    alpha=args.alpha, tol_root=args.tol_root,
                    fmt=args.fmt, out=args.out, jobs=args.jobs)
    try:
        cfg.validate()
        pot_path = cfg.potential
        if not os.path.exists(pot_path):
            raise PotentialFormatError(f"potential file not found: {pot_path}")
        return _COMMANDS[cfg.command](cfg)
    except (PotentialFormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"slspec: configuration error: {exc}\n")
        return 2
    except (DomainError, SingularArgumentError, SpectralError) as exc:
        sys.stderr.write(f"slspec: internal error: {exc}\n")
        return 3
    except Exception as exc:   # pragma: no cover - last resort
        sys.stderr.write(f"slspec: unexpected failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
