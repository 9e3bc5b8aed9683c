"""Command-line behavior: outputs, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import slspec
from slspec.cli import main

PI = math.pi


@pytest.fixture()
def pot_files(tmp_path):
    files = {}
    docs = {
        "free": {"kind": "step", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [0.0]}]},
        "const": {"kind": "step", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [1.0]}]},
        "step": {"kind": "step", "pieces": [
            {"from": 0.0, "to": PI / 2, "coeffs_re": [0.0]},
            {"from": PI / 2, "to": PI, "coeffs_re": [2.0]}]},
        "trig": {"kind": "trig", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [1.0], "coeffs_im": [1.0]}]},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_spectrum_free_both(pot_files, capsys):
    code, out, _ = _run(["spectrum", "--potential", pot_files["free"],
                         "--n-min", "1", "--n-max", "5", "--method", "both"],
                        capsys)
    assert code == 0
    rows = _rows(out)
    assert rows[0][0] == "n"
    vals = [float(r[2]) for r in rows[1:]]
    assert vals == [0.5, 1.5, 2.5, 3.5, 4.5]
    rhos = [float(r[6]) for r in rows[1:]]
    assert max(rhos) <= 1e-10


def test_spectrum_constant_row(pot_files, capsys):
    code, out, _ = _run(["spectrum", "--potential", pot_files["const"],
                         "--n-min", "5", "--n-max", "5",
                         "--method", "both"], capsys)
    assert code == 0
    row = _rows(out)[1]
    assert abs(float(row[2]) - 4.429264) < 1e-5
    assert abs(float(row[6])) <= 1e-3          # |rho_5|


def test_spectrum_step_csv_monotone(pot_files, capsys):
    code, out, _ = _run(["spectrum", "--potential", pot_files["step"],
                         "--n-min", "1", "--n-max", "100", "--method", "both"],
                        capsys)
    assert code == 0
    rows = _rows(out)[1:]
    assert len(rows) == 100
    nums = [float(r[4]) for r in rows]
    # highest eigenvalue first is a bound state; Re sqrt increases afterwards
    assert all(b > a for a, b in zip(nums[1:], nums[2:]))
    assert all(r[8] == "" for r in rows)       # no degraded flags


def test_spectrum_shoot_method(pot_files, capsys):
    code, out, _ = _run(["spectrum", "--potential", pot_files["trig"],
                         "--n-min", "8", "--n-max", "10", "--method", "both"],
                        capsys)
    assert code == 0
    rows = _rows(out)[1:]
    assert len(rows) == 3
    for row in rows:
        assert float(row[7]) < 1e-8            # residual column
        assert row[8] == ""


def test_spectrum_json_schema(pot_files, capsys):
    code, out, _ = _run(["spectrum", "--potential", pot_files["free"],
                         "--n-max", "3", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["schema"] == "slspec-spectrum/1"
    assert doc["config"]["command"] == "spectrum"
    assert len(doc["rows"]) == 3


def test_eigenfunction_free_values(pot_files, capsys):
    code, out, _ = _run(["eigenfunction", "--potential", pot_files["free"],
                         "--n", "1", "--grid", "16"], capsys)
    assert code == 0
    rows = _rows(out)[1:]
    assert len(rows) == 16
    for x_s, re_s, im_s in rows:
        x, re = float(x_s), float(re_s)
        assert abs(re - math.sqrt(2 / PI) * math.sin(x / 2)) < 1e-12
        assert float(im_s) == 0.0


def test_eigenfunction_real_asym_equals_biorth(pot_files, capsys):
    outs = []
    for kind in ("asym", "biorth"):
        code, out, _ = _run(["eigenfunction", "--potential", pot_files["step"],
                             "--n", "6", "--grid", "64", "--kind", kind],
                            capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_eigenfunction_oracle_close_to_asym(pot_files, capsys):
    vals = {}
    for kind in ("asym", "oracle"):
        code, out, _ = _run(["eigenfunction", "--potential", pot_files["step"],
                             "--n", "20", "--grid", "257", "--kind", kind],
                            capsys)
        assert code == 0
        vals[kind] = np.asarray([[float(c) for c in row]
                                 for row in _rows(out)[1:]])
    sup = np.abs(vals["asym"][:, 1] - vals["oracle"][:, 1]).max()
    assert sup <= 0.05


def test_validate_free_passes(pot_files, tmp_path, capsys):
    base = str(tmp_path / "rep")
    code, out, _ = _run(["validate", "--potential", pot_files["free"],
                         "--n-max", "12", "--out", base, "--jobs", "1"],
                        capsys)
    assert code == 0
    assert "ratio_bounded: pass" in out
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["schema"] == "slspec-report/1"
    assert all(doc["verdicts"].values())
    lines = (tmp_path / "rep.csv").read_text().splitlines()
    assert len(lines) == 13
    # gamma column all zeros for the free potential
    gcol = [float(r.split(",")[7]) for r in lines[1:]]
    assert max(gcol) == 0.0


def test_validate_jobs_bytes_identical(pot_files, tmp_path, capsys):
    texts = []
    for jobs, tag in (("1", "a"), ("2", "b")):
        base = str(tmp_path / f"rep_{tag}")
        code, _, _ = _run(["validate", "--potential", pot_files["step"],
                           "--n-max", "10", "--out", base, "--jobs", jobs],
                          capsys)
        assert code == 0
        texts.append((tmp_path / f"rep_{tag}.json").read_bytes()
                     + (tmp_path / f"rep_{tag}.csv").read_bytes())
    assert texts[0] == texts[1]


SMOOTH_POLY = {"kind": "poly", "pieces": [
    {"from": 0.0, "to": 1.3, "coeffs_re": [0.5, -0.4, 0.3]},
    {"from": 1.3, "to": PI, "coeffs_re": [0.2, 0.1, -0.05]}]}


@pytest.mark.parametrize("doc, extra, builds", [
    (SMOOTH_POLY, ["--n-max", "20"], 1),
    # criterion 6: the partners' assembly is the only other one
    ({"kind": "trig", "pieces": [{"from": 0.0, "to": PI, "coeffs_re": [1.0],
                                  "coeffs_im": [1.0]}]},
     ["--n-min", "5", "--n-max", "15"], 2),
])
def test_validate_builds_each_assembly_once(doc, extra, builds, tmp_path,
                                            capsys, monkeypatch):
    # the biorthogonality check reads the sweep's block assembly and norm
    from slspec import asymptotics

    count = [0]
    real_init = asymptotics._BracketAssembly.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        real_init(self, *args, **kwargs)

    path = tmp_path / "pot.json"
    path.write_text(json.dumps(doc))
    texts = []
    for jobs in ("1", "2"):
        base = str(tmp_path / f"rep{jobs}")
        with monkeypatch.context() as m:
            m.setattr(asymptotics._BracketAssembly, "__init__", counting_init)
            code, _, _ = _run(["validate", "--potential", str(path),
                               "--out", base, "--jobs", jobs] + extra, capsys)
        assert code == 0
        if jobs == "1":
            assert count[0] == builds
        texts.append((tmp_path / f"rep{jobs}.json").read_bytes()
                     + (tmp_path / f"rep{jobs}.csv").read_bytes())
    # under --jobs 2 the sweep runs in workers and the check builds its own
    assert texts[0] == texts[1]


def test_validate_alpha_reaches_root_finder(pot_files, tmp_path, capsys):
    # sqrt(lam_1) of u = (1+i) sin t has imaginary part -0.72: the secant
    # cannot reach it inside |Im sqrt(lam)| < 0.05
    degraded = {}
    for alpha, tag in (("2.0", "wide"), ("0.05", "narrow")):
        base = str(tmp_path / f"rep_{tag}")
        code, _, _ = _run(["validate", "--potential", pot_files["trig"],
                           "--n-max", "3", "--alpha", alpha, "--out", base,
                           "--jobs", "1"], capsys)
        assert code == 0
        doc = json.loads((tmp_path / f"rep_{tag}.json").read_text())
        degraded[tag] = doc["degraded"]
    assert degraded == {"wide": [], "narrow": [1]}


def test_gamma_profile_scaling(pot_files, capsys):
    code, out, _ = _run(["gamma", "--potential", pot_files["const"],
                         "--n-min", "5", "--n-max", "40"], capsys)
    assert code == 0
    rows = _rows(out)[1:]
    prods = [float(r[2]) * float(r[1]) for r in rows]   # gamma * m bounded
    assert 3.0 < min(prods) and max(prods) < 9.0


def test_exit_code_missing_file(capsys):
    code, _, err = _run(["spectrum", "--potential", "/nonexistent.json",
                         "--n-max", "3"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_exit_code_bad_potential(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "step", "pieces": [
        {"from": 0.0, "to": 1.0, "coeffs_re": [1.0]},
        {"from": 1.5, "to": PI, "coeffs_re": [0.0]}]}))
    code, _, err = _run(["spectrum", "--potential", str(bad), "--n-max", "3"],
                        capsys)
    assert code == 2
    assert "gap" in err
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"kind": "step", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [1e200]}]}))
    code, out, err = _run(["gamma", "--potential", str(huge), "--n-max", "3"],
                          capsys)
    assert code == 2 and out == ""
    assert "not finite" in err


def test_exit_code_bad_config(pot_files, capsys):
    code, _, err = _run(["spectrum", "--potential", pot_files["free"],
                         "--n-min", "5", "--n-max", "2"], capsys)
    assert code == 2
    code, _, _ = _run(["eigenfunction", "--potential", pot_files["free"],
                       "--n", "1", "--grid", "4"], capsys)
    assert code == 2
    code, _, err = _run(["spectrum", "--potential", pot_files["free"],
                         "--jobs", "-3"], capsys)
    assert code == 2
    assert "--jobs" in err


def test_exit_code_library_value_error(pot_files, capsys, monkeypatch):
    # a ValueError raised inside the library is not a usage error
    import slspec.cli as cli

    def broken(*a, **kw):
        raise ValueError("synthetic library failure")

    monkeypatch.setattr(cli.oracle, "solve_eigenvalue", broken)
    code, _, err = _run(["eigenfunction", "--potential", pot_files["step"],
                         "--n", "4", "--kind", "oracle"], capsys)
    assert code == 3
    assert "internal error" in err


def test_exit_code_validate_range_checked_first(pot_files, capsys,
                                                monkeypatch):
    import slspec.cli as cli
    calls = []
    monkeypatch.setattr(cli.validation, "remainder_sweep",
                        lambda *a, **kw: calls.append(a))
    code, _, err = _run(["validate", "--potential", pot_files["free"],
                         "--n-max", "1", "--jobs", "1"], capsys)
    assert code == 2 and calls == []
    assert "configuration error" in err


def test_exit_code_unwritable_out(pot_files, tmp_path, capsys):
    code, out, err = _run(["gamma", "--potential", pot_files["const"],
                           "--n-max", "3",
                           "--out", str(tmp_path / "no" / "such.csv")],
                          capsys)
    assert code == 2 and out == ""
    assert "configuration error" in err


def test_exit_code_internal_error(pot_files, capsys, monkeypatch):
    import slspec.cli as cli
    from slspec import NonconvergenceError

    def broken(*a, **kw):
        raise NonconvergenceError("synthetic oracle failure")

    monkeypatch.setattr(cli.oracle, "solve_eigenvalue", broken)
    code, _, err = _run(["eigenfunction", "--potential", pot_files["step"],
                         "--n", "4", "--kind", "oracle"], capsys)
    assert code == 3
    assert "internal error" in err


def test_env_jobs_fallback(pot_files, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SLSPEC_JOBS", "2")
    base = str(tmp_path / "env_rep")
    code, _, _ = _run(["validate", "--potential", pot_files["free"],
                       "--n-max", "8", "--out", base], capsys)
    assert code == 0
    assert (tmp_path / "env_rep.json").exists()


def test_console_script_smoke(pot_files):
    # the child imports the same slspec tree as this test, installed or not
    src = os.path.dirname(os.path.dirname(slspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "slspec.cli", "spectrum", "--potential",
         pot_files["free"], "--n-max", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,m,")


def _loaded_by_cli(package):
    """Modules of package loaded by importing slspec and running the CLI."""
    # the child imports the same slspec tree as this test, installed or not
    src = os.path.dirname(os.path.dirname(slspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, slspec, slspec.cli\n"
             "try:\n"
             "    slspec.cli.main(['--help'])\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(sorted(m for m in sys.modules\n"
             f"             if m == {package!r} or m.startswith({package + '.'!r})))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_loads_no_scipy():
    # scipy is a test dependency only: importing the package and running
    # the command line must not load it
    assert _loaded_by_cli("scipy") == "[]"


def test_cli_import_leaves_multiprocessing_out():
    # only --jobs > 1 starts a pool; the import does not load its modules
    assert _loaded_by_cli("multiprocessing") == "[]"


# the flags each subcommand registers; every other pair is a usage error
KEPT_FLAGS = {
    "spectrum": {"--n-min", "--n-max", "--method", "--alpha", "--tol-root",
                 "--format", "--out", "--jobs"},
    "eigenfunction": {"--n", "--grid", "--kind", "--alpha", "--tol-root",
                      "--format", "--out"},
    "validate": {"--n-min", "--n-max", "--grid", "--alpha", "--out",
                 "--jobs"},
    "gamma": {"--n-min", "--n-max", "--format", "--out"},
}
FLAG_VALUES = {      # flag: (argument, RunConfig field, parsed value)
    "--n-min": ("2", "n_min", 2), "--n-max": ("3", "n_max", 3),
    "--n": ("2", "n", 2), "--grid": ("32", "grid", 32),
    "--method": ("both", "method", "both"),
    "--kind": ("oracle", "kind", "oracle"), "--alpha": ("1.5", "alpha", 1.5),
    "--tol-root": ("1e-10", "tol_root", 1e-10),
    "--format": ("json", "fmt", "json"), "--out": ("o", "out", "o"),
    "--jobs": ("1", "jobs", 1),
}


def test_flag_table_count():
    from slspec.cli import _COMMAND_FLAGS
    pairs = {(cmd, f) for cmd, (_, flags) in _COMMAND_FLAGS.items()
             for f in flags}
    assert pairs == {(cmd, f) for cmd, flags in KEPT_FLAGS.items()
                     for f in flags | {"--potential"}}
    assert len(pairs) == 29


@pytest.mark.parametrize("command", sorted(KEPT_FLAGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_flag_table(command, flag):
    from slspec.cli import RunConfig, _build_parser
    arg, field, value = FLAG_VALUES[flag]
    argv = [command, "--potential", "p.json", flag, arg]
    if flag not in KEPT_FLAGS[command]:
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        return
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    # the flag sets its field; every other field keeps its default
    assert cfg == RunConfig(command=command, potential="p.json",
                            **{field: value})


def _spectrum_bytes(path, n_max, jobs, capsys):
    code, out, _ = _run(["spectrum", "--potential", path, "--n-max", n_max,
                         "--method", "both", "--jobs", jobs], capsys)
    assert code == 0
    return out


def test_spectrum_default_jobs_in_process(pot_files, capsys, monkeypatch):
    # without --jobs, spectrum solves in this process whatever SLSPEC_JOBS says
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("spectrum started a process pool")
    monkeypatch.setenv("SLSPEC_JOBS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, _ = _run(["spectrum", "--potential", pot_files["step"],
                         "--n-max", "8", "--method", "both"], capsys)
    assert code == 0
    assert len(_rows(out)) == 9


def test_spectrum_jobs_bytes_identical(pot_files, tmp_path, capsys):
    assert (_spectrum_bytes(pot_files["step"], "12", "2", capsys)
            == _spectrum_bytes(pot_files["step"], "12", "1", capsys))
    # indices 1 and 2 share a root; with two jobs they fall into the
    # chunks [1, 3] and [2, 4], and the merged list must still flag both
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"kind": "trig", "pieces": [
        {"from": 0.0, "to": PI,
         "coeffs_re": [-0.9016119370042602, -0.18491425128013936],
         "coeffs_im": [0.723816463551145, 0.7930903869151645]}]}))
    two = _spectrum_bytes(str(shared), "4", "2", capsys)
    assert two == _spectrum_bytes(str(shared), "4", "1", capsys)
    flags = [row[8] for row in _rows(two)[1:]]
    assert flags[:2] == ["degraded: shared root with index 2",
                         "degraded: shared root with index 1"]
    assert flags[2:] == ["", ""]


def test_spectrum_strong_constant_bound_state(tmp_path, capsys):
    # u = 120 binds lam_1 = -beta^2 with beta = 120 tanh(120 pi) = 120
    path = tmp_path / "u120.json"
    path.write_text(json.dumps({"kind": "step", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [120.0]}]}))
    code, out, _ = _run(["spectrum", "--potential", str(path), "--n-max", "3",
                         "--method", "both"], capsys)
    assert code == 0
    rows = _rows(out)[1:]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert [r[8] for r in rows] == ["", "", ""]
    assert float(rows[0][4]) == 0.0 and abs(float(rows[0][5]) - 120.0) < 1e-9


@pytest.mark.parametrize("a, n_max, flagged", [(-30.0, 3, []),
                                               (-3000.0, 5, [])])
def test_spectrum_overflow_flags_not_warns(a, n_max, flagged, tmp_path,
                                           capsys):
    # u = a x^2 seeds its low indices far below the spectrum, where the
    # propagator overflows: under the suite's error::RuntimeWarning filter a
    # numpy warning would end the run with "unexpected failure" (exit 3);
    # the walk raises the typed blow-up instead, and the angle search
    # restarts from s = 0 and solves the index
    path = tmp_path / "well.json"
    path.write_text(json.dumps({"kind": "poly", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [0.0, 0.0, a]}]}))
    code, out, err = _run(["spectrum", "--potential", str(path), "--n-max",
                           str(n_max), "--method", "both"], capsys)
    assert code == 0, err
    rows = _rows(out)[1:]
    assert [int(r[0]) for r in rows] == list(range(1, n_max + 1))
    assert [int(r[0]) for r in rows if r[8]] == flagged
    for r in rows:
        if r[8]:
            assert r[8] == f"degraded: non-finite state at x = {PI}"
        else:
            assert r[4] != ""
