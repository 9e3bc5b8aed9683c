"""slspec benchmark: seeded CLI workloads, checked outputs, per-layer trace.

Usage, from the root of a checkout::

    python3 bench/run.py --workload validate-step --seed 1 --seconds 30 --trace 0

Workloads (inputs in ``workloads.py``):

* ``validate-step``    ``slspec validate --n-max 150`` on a real 6-piece step;
* ``validate-smooth``  ``slspec validate --n-max 20`` on a real 2-piece quadratic;
* ``spectrum-complex`` ``slspec spectrum --method both`` on a complex trig
  potential (n = 1..16) and a complex 3-piece step (n = 1..200).

Every request runs in this process through ``slspec.cli.main`` with
``--jobs 1``.  One pass runs all of a workload's requests; passes repeat on
the same inputs while the ``--seconds`` budget lasts, and times are medians
over passes.  The outputs of every pass must be byte-identical; the last
pass is checked independently (``checks.py``) outside the timed region.

``--trace 0`` prints the end-to-end metrics.  Times are rescaled to a
nominal machine speed by the reference loop of ``calibrate.py``, sampled
during each measured interval, because the speed of a shared host drifts
by up to a factor of two; the raw times are printed too.

* ``setup_s``: process start until slspec is imported and the workload's
  potential files are written and loaded with ``load_potential``; median
  over several fresh child processes;
* ``wall_s``: time for one pass, the median over passes;
* ``indices_per_s``: indices that passed the independent check per ``wall_s``;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracer.py``, plus ``trace.overhead_s`` (traced minus
untraced pass time) and ``failed_frac``.  Spans go to ``.bench_out/``.

Either mode prints ``failed_frac`` (flagged plus check-failed indices over
indices attempted), the sha256 of the output bytes and the provenance
record, which is also appended to ``.bench_out/results.jsonl``.  The last
line of standard output is one JSON object: ``correct`` says the outputs had
the documented shape and were identical across passes; ``attempted`` and
``failed`` count the indices of one pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def _import_slspec():
    """Import slspec from this checkout's source tree, never from elsewhere."""
    if not (SRC / "slspec" / "__init__.py").is_file():
        raise SystemExit(f"bench: no slspec source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import slspec
    if Path(slspec.__file__).resolve().parent != (SRC / "slspec").resolve():
        raise SystemExit(f"bench: slspec imported from {slspec.__file__}, "
                         f"not from {SRC}")
    return slspec


def prepare(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's potential files and load each: [(request, path, pot)]."""
    from slspec import load_potential
    import workloads

    prepared = []
    (directory / "out").mkdir()
    for req in workloads.requests(workload, seed):
        path = directory / f"{req.name}.json"
        path.write_text(json.dumps(req.doc, indent=1) + "\n")
        prepared.append((req, path, load_potential(str(path))))
    return prepared


def setup_probe(args) -> None:
    """Child process of ``measure_setup``: set up once, print the set-up time.

    Prints the time since launch, the part of it spent in the speed probe,
    and the slowdown the probe saw.
    """
    with calibrate.SpeedProbe() as speed:
        _import_slspec()
        prepare(args.workload, args.seed, Path(args.probe_dir))
    raw = time.monotonic() - float(args.t0)
    print(repr(raw), repr(sum(speed.inside + speed.edges)), repr(speed.slowdown()))


def measure_setup(workload: str, seed: int, work: Path) -> list:
    """Set-up times of SETUP_PROBES fresh processes: [(raw, at nominal speed)].

    Each time runs from launch to loaded inputs.  The parent reads
    CLOCK_MONOTONIC, which is system-wide, just before the launch and hands
    it to the child, which subtracts it at the end.  The child's own speed
    probe covers the import of slspec and the set-up proper.
    """
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = work / f"probe{k}"
        probe_dir.mkdir()
        t0 = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", workload, "--seed", str(seed),
               "--probe-dir", str(probe_dir), "--t0", repr(t0)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        raw, probing, slowdown = map(float, proc.stdout.split()[-3:])
        times.append((raw, (raw - probing) / slowdown))
    return times


def _outputs(req, work: Path) -> list:
    base = work / "out" / req.name
    if req.command == "validate":
        return [base.with_suffix(".json"), base.with_suffix(".csv")]
    return [base.with_suffix(".csv")]


def run_pass(prepared: list, work: Path, tracer=None, speed=None):
    """Run every request once; (seconds, exit codes, stderr text).

    A ``calibrate.SpeedProbe`` given as speed samples the timed region only.
    """
    from slspec import cli

    codes = []
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          speed or contextlib.nullcontext()):
        t = time.perf_counter()
        for k, (req, path, _pot) in enumerate(prepared):
            if tracer is not None:
                tracer.request = k
            target = _outputs(req, work)[-1]
            codes.append(cli.main([req.command, "--potential", str(path),
                                   *req.args, "--out", str(target)]))
        wall = time.perf_counter() - t
    return wall, codes, err.getvalue()


def read_outputs(prepared: list, work: Path) -> dict:
    return {p.name: p.read_bytes() for req, _, _ in prepared
            for p in _outputs(req, work)}


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    return h.hexdigest()


def check(prepared: list, outputs: dict):
    """(attempted, flagged, failed) with flagged/failed as {(request, n)}."""
    import checks

    attempted, flagged, failed = 0, set(), set()
    for req, _path, pot in prepared:
        attempted += len(req.n_values)
        if req.command == "validate":
            fl, fa = checks.check_validate(
                pot, req.n_values, outputs[f"{req.name}.json"].decode(),
                outputs[f"{req.name}.csv"].decode(),
                biorth_expected=max(req.n_values) <= 20)
        else:
            fl, fa = checks.check_spectrum(pot, req.n_values,
                                           outputs[f"{req.name}.csv"].decode())
        flagged |= {(req.name, n) for n in fl}
        failed |= {(req.name, n) for n in fa}
    return attempted, flagged, failed


def provenance(args) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "slspec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _repeat(run_one, seconds: float) -> list:
    """Call run_one until the budget is spent, at least once.

    A further call is made only if, at the pace so far, it ends within the
    budget.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_one())
        spent = time.perf_counter() - start
        if spent * (len(results) + 1) / len(results) > seconds:
            return results


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    _import_slspec()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import checks
    from tracer import Tracer

    setup = [] if args.trace else measure_setup(args.workload, args.seed, work)
    prepared = prepare(args.workload, args.seed, work)
    digests, codes, errors = set(), [], []

    def one(tracer=None, speed=None):
        wall, c, err = run_pass(prepared, work, tracer, speed)
        codes.extend(c)
        if err:
            errors.append(err)
        digests.add(digest(read_outputs(prepared, work)))
        return wall

    def calibrated():
        speed = calibrate.SpeedProbe()
        wall = one(speed=speed)
        return wall, speed.at_nominal(wall), speed.slowdown()

    tracers = []

    def traced_pair():
        plain = one()
        tracer = Tracer()
        tracer.install()
        try:
            traced = one(tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        return plain, traced

    if args.trace:
        pairs = _repeat(traced_pair, args.seconds)
        walls = [p for p, _ in pairs]
    else:
        runs = _repeat(calibrated, args.seconds)
        walls = [w for w, _, _ in runs]
    correct = all(c == 0 for c in codes) and len(digests) == 1
    try:
        attempted, flagged, failed = check(prepared, read_outputs(prepared, work))
    except checks.OutputError as exc:
        print(f"output check failed: {exc}")
        correct = False
        flagged = set()
        failed = {(req.name, n) for req, _, _ in prepared for n in req.n_values}
        attempted = len(failed)
    bad = flagged | failed

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls)}")
    for err in errors[:1]:
        print("stderr of the CLI:", err.strip().replace("\n", " | ")[:400])
    print(f"  pass times s: {_fmt(walls)}")
    print(f"  indices: {attempted} attempted, {len(flagged)} flagged by the "
          f"library, {len(failed - flagged)} more failed the check: "
          f"{sorted(bad)[:12]}")
    print(f"  failed_frac {len(bad) / attempted:.6g} 1")
    print(f"  output sha256 {sorted(digests)[0]}"
          + ("" if len(digests) == 1 else f" (and {len(digests) - 1} other digests)"))

    if args.trace:
        metrics = {}
        for name in tracers[0].metrics():
            vals = [t.metrics()[name] for t in tracers]
            metrics[name] = (statistics.median(v for v, _ in vals), vals[0][1])
        metrics["trace.overhead_s"] = (statistics.median(t - p for p, t in pairs), "s")
        metrics["failed_frac"] = (len(bad) / attempted, "1")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracers[0].write_spans(spans)
        print(f"  {len(tracers[0].spans)} spans of the first traced pass in "
              f"{spans.relative_to(ROOT)}")
    else:
        wall = statistics.median(n for _, n, _ in runs)
        print(f"  slowdown against nominal speed: {_fmt(s for _, _, s in runs)}")
        print(f"  pass times at nominal speed s: {_fmt(n for _, n, _ in runs)}")
        print(f"  set-up times s: {_fmt(r for r, _ in setup)}; at nominal "
              f"speed: {_fmt(n for _, n in setup)}")
        metrics = {
            "setup_s": (statistics.median(n for _, n in setup), "s"),
            "wall_s": (wall, "s"),
            "indices_per_s": ((attempted - len(bad)) / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:44s} {value:14.6g} {unit}")

    record = provenance(args)
    print("provenance", json.dumps(record, sort_keys=True))
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": len(bad),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**record, "digest": sorted(digests),
                             "pass_s": walls, **result}) + "\n")
    print(json.dumps(result))
    return 0


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


if __name__ == "__main__":
    sys.exit(main())
