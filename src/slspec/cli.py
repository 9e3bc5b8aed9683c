"""Command-line surface.

Thin shell over the library: every command's output is reproducible from
library calls with the same configuration, and per-index determinism makes
the output independent of the parallelism degree.  Each subcommand
registers only the flags it reads (_FLAGS, _COMMAND_FLAGS); a field of
RunConfig that a subcommand does not register keeps its default.

Exit codes: 0 success (possibly with flagged rows); 2 a usage error (from
argparse, RunConfig.validate, the potential file, or an unreadable or
unwritable path); 3 an error raised inside the library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict

from . import asymptotics, oracle, validation
from .errors import PotentialFormatError, SpectralError
from .oscillatory import SpectralDomain
from .potential import PotentialSpec, load_potential
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
    method: str = "asym"            # asym | both
    kind: str = "asym"              # asym | biorth | oracle
    alpha: float = 2.0
    tol_root: float = 1e-12
    fmt: str = "csv"
    out: str | None = None
    jobs: int = 0                   # 0: see effective_jobs

    def validate(self) -> None:
        if self.n is not None and self.n < 1:
            raise ValueError("--n must be >= 1")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("index range is empty; need 1 <= n-min <= n-max")
        if self.command == "validate" and self.n_max < 2:
            raise ValueError("a sweep needs n-max >= 2")
        if self.grid < 16:
            raise ValueError("--grid must be at least 16")
        if not self.tol_root > 0:
            raise ValueError("--tol-root must be positive")
        if self.alpha <= 0:
            raise ValueError("--alpha must be positive")
        if self.jobs < 0:
            raise ValueError("--jobs must be >= 0")

    def effective_jobs(self) -> int:
        """--jobs if given; else 1 (spectrum) or SLSPEC_JOBS or cores.

        spectrum starts its pool only on an explicit --jobs above 1: on a
        cheap potential the pool's start-up costs more than it saves.
        """
        if self.jobs > 0:
            return self.jobs
        if self.command == "spectrum":
            return 1
        env = os.environ.get("SLSPEC_JOBS", "")
        if env.isdigit() and int(env) > 0:
            return int(env)
        return os.cpu_count() or 1


# Every flag, declared once; the destination is the RunConfig field it
# sets, and the default is that field's default.
_FLAGS = {
    "--potential": dict(required=True,
                        help="JSON potential file (kind step|poly|trig)"),
    "--n-min": dict(type=int),
    "--n-max": dict(type=int),
    "--n": dict(type=int, help="the index (default 1)"),
    "--grid": dict(type=int),
    "--method": dict(choices=["asym", "both"]),
    "--kind": dict(choices=["asym", "biorth", "oracle"]),
    "--alpha": dict(type=float, help="complex roots are searched in "
                                     "|Im sqrt(lambda)| < alpha"),
    "--tol-root": dict(type=float,
                       help="secant tolerance, complex potentials only"),
    "--format": dict(dest="fmt", choices=["csv", "json"]),
    "--out": dict(help="output path (default stdout)"),
    "--jobs": dict(type=int,
                   help="parallel workers (default: 1 for spectrum, "
                        "SLSPEC_JOBS or cores for validate)"),
}

_COMMAND_FLAGS = {
    "spectrum": ("eigenvalue table over an index range",
                 ("--potential", "--n-min", "--n-max", "--method", "--alpha",
                  "--tol-root", "--format", "--out", "--jobs")),
    "eigenfunction": ("sampled eigenfunction table for one index",
                      ("--potential", "--n", "--grid", "--kind", "--alpha",
                       "--tol-root", "--format", "--out")),
    "validate": ("asymptotics-versus-oracle remainder report",
                 ("--potential", "--n-min", "--n-max", "--grid", "--alpha",
                  "--out", "--jobs")),
    "gamma": ("remainder-gauge profile over an index range",
              ("--potential", "--n-min", "--n-max", "--format", "--out")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slspec",
        description="Spectral tables for -y'' + u'(x) y on [0, pi] with "
                    "Dirichlet/regularized-Neumann conditions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, flags) in _COMMAND_FLAGS.items():
        # an absent flag stays out of the namespace: RunConfig's default holds
        p = sub.add_parser(name, help=doc, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_spectrum(cfg: RunConfig, pot: PotentialSpec) -> int:
    ns = list(range(cfg.n_min, cfg.n_max + 1))
    if cfg.method == "asym":
        points = [p for block in asymptotics._blocks(ns)
                  for p in asymptotics._predictions(pot, block)]
    else:
        points = oracle.solve_spectrum(
            pot, ns, jobs=cfg.effective_jobs(),
            domain=SpectralDomain(alpha=cfg.alpha), tol_root=cfg.tol_root)
    header = ["n", "m", "sqrt_lambda_asym_re", "sqrt_lambda_asym_im"]
    if cfg.method == "both":
        header += ["sqrt_lambda_num_re", "sqrt_lambda_num_im", "abs_rho",
                   "residual", "flag"]
    rows = []
    for p in points:
        row = [p.n, _fmt(p.m), _fmt(p.sqrt_lambda_asym.real),
               _fmt(p.sqrt_lambda_asym.imag)]
        if cfg.method == "both":
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


def cmd_eigenfunction(cfg: RunConfig, pot: PotentialSpec) -> int:
    n = 1 if cfg.n is None else cfg.n
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


def cmd_validate(cfg: RunConfig, pot: PotentialSpec) -> int:
    # the sweep's block assemblies and norms, kept for the check only
    biorth = cfg.n_max <= validation.BIORTH_N_MAX
    store = {} if biorth else None
    report = validation.remainder_sweep(
        pot, cfg.n_max, grid_size=cfg.grid, n_min=cfg.n_min,
        jobs=cfg.effective_jobs(), domain=SpectralDomain(alpha=cfg.alpha),
        store=store)
    if biorth:
        report.biorthogonality = validation.biorthogonality_check(
            pot, cfg.n_max, n_min=cfg.n_min, store=store)
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


def cmd_gamma(cfg: RunConfig, pot: PotentialSpec) -> int:
    header = ["n", "m", "gamma", "gamma_sq", "tail", "upper_estimate"]
    rows = []
    # one m^2 profile per block; a row is remainder_gauge(pot, m * m)
    for block in asymptotics._blocks(range(cfg.n_min, cfg.n_max + 1)):
        for n, g in zip(block, asymptotics._m2_profile(pot, block).gauge()):
            rows.append([n, _fmt(n - 0.5), _fmt(g.value), _fmt(g.value ** 2),
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


def _config_error(exc) -> int:
    sys.stderr.write(f"slspec: configuration error: {exc}\n")
    return 2


def main(argv=None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        cfg.validate()
        if not os.path.exists(cfg.potential):
            raise PotentialFormatError(
                f"potential file not found: {cfg.potential}")
        pot = load_potential(cfg.potential)
    except (PotentialFormatError, ValueError, OSError) as exc:
        return _config_error(exc)
    try:
        return _COMMANDS[cfg.command](cfg, pot)
    except OSError as exc:          # the --out path
        return _config_error(exc)
    except (SpectralError, ValueError) as exc:
        sys.stderr.write(f"slspec: internal error: {exc}\n")
        return 3
    except Exception as exc:   # pragma: no cover - last resort
        sys.stderr.write(f"slspec: unexpected failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
