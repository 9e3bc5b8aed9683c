"""Command-line behavior: outputs, formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
                         "--n", "5", "--n-min", "5", "--n-max", "5",
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
                         "--n-min", "8", "--n-max", "10", "--method", "shoot"],
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
    proc = subprocess.run(
        [sys.executable, "-m", "slspec.cli", "spectrum", "--potential",
         pot_files["free"], "--n-max", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,m,")
