"""Sweeps, biorthogonality diagnostics, report plumbing."""

import json
import math

import numpy as np
import pytest

from slspec import (NonconvergenceError, PotentialSpec, asymptotics,
                    biorthogonality_check, oracle,
                    phase_modulus_ratio_profile, remainder_gauge,
                    remainder_sweep, validation)
from slspec.validation import CSV_COLUMNS, REPORT_SCHEMA

PI = math.pi


def test_free_sweep_all_zero_and_passing(free_pot):
    rep = remainder_sweep(free_pot, 16)
    assert all(rep.verdicts.values())
    assert all(r.eig_error < 1e-10 for r in rep.records)
    assert all(r.gamma == 0.0 for r in rep.records)
    assert all(r.ratio == 0.0 for r in rep.records)
    assert rep.degraded == []


def test_step_sweep_ratio_bounded_and_errors_decay(step_pot):
    rep = remainder_sweep(step_pot, 48)
    assert rep.verdicts["ratio_bounded"]
    assert rep.verdicts["all_converged"]
    errs = {r.n: r.eigfun_sup_error for r in rep.records}
    assert errs[10] <= 0.05
    assert errs[40] < errs[20] < errs[10]
    ratios = [r.ratio for r in rep.records if r.n >= 10]
    assert max(ratios) < 1.0


def test_constant_sweep_second_order_remainder(const_pot):
    rep = remainder_sweep(const_pot, 100, eigfun_up_to=0)
    assert rep.verdicts["all_converged"]
    for r in rep.records:
        if r.n >= 10:
            assert r.n ** 2 * r.eig_error <= 5.0


def test_complex_potential_sweep(trig_pot):
    rep = remainder_sweep(trig_pot, 14, n_min=6)
    assert rep.verdicts["all_converged"]
    for r in rep.records:
        assert math.isfinite(r.ratio)
        assert r.ratio < 1.0
        assert r.eigfun_sup_error < 0.05


def test_sweep_determinism(step_pot):
    a = remainder_sweep(step_pot, 14).to_json_dict()
    b = remainder_sweep(step_pot, 14).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_jobs_match_serial(step_pot):
    a = remainder_sweep(step_pot, 12, jobs=1).to_json_dict()
    b = remainder_sweep(step_pot, 12, jobs=2).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_gauge_at_m2_sampled_only_where_read(step_pot, monkeypatch):
    import slspec.oracle as om
    from slspec import solve_spectrum
    from slspec.oscillatory import _CorrectionProfile

    gauge_lams = []
    real_gauge = _CorrectionProfile.gauge
    real_search = om._index_search

    def counting_gauge(self, sup_grid=256, members=None):
        lams = self.lam if members is None else self.lam[members]
        gauge_lams.extend(complex(lam) for lam in lams)
        return real_gauge(self, sup_grid, members)

    def flaky(pot, n, *args):      # index 5 fails inside its block
        if n == 5:
            raise om.NonconvergenceError("synthetic failure", best=None)
        return (yield from real_search(pot, n, *args))

    monkeypatch.setattr(_CorrectionProfile, "gauge", counting_gauge)
    pts = solve_spectrum(step_pot, range(1, 9))
    assert all(not p.flag for p in pts)
    assert gauge_lams == []
    # a sweep samples the gauge at each solved lambda_n, and at m^2 only
    # for the index that has no root: one block member each
    monkeypatch.setattr(om, "_index_search", flaky)
    rep = remainder_sweep(step_pot, 12, jobs=1)
    assert rep.degraded == [5]
    assert len(gauge_lams) == 12
    assert gauge_lams.count(4.5 ** 2) == 1
    for pt in rep.points:
        if pt.n != 5:
            lam_n = pt.sqrt_lambda_numeric ** 2
            assert sum(abs(lam - lam_n) <= 1e-9 * abs(lam_n)
                       for lam in gauge_lams) == 1
    # the member's value is index 5's gauge on its own
    assert rep.records[4].gamma == remainder_gauge(step_pot, 4.5 ** 2).value


def test_sweep_builds_each_closed_form_object_once(step_pot, monkeypatch):
    from collections import Counter

    import slspec.asymptotics as A
    from slspec.oscillatory import _CorrectionProfile

    tables, profile_lams = Counter(), []
    real_tables = A._table_rows
    real_init = _CorrectionProfile.__init__

    def counting_tables(pot, ns, grid, kind, store=None):
        tables.update(ns)
        return real_tables(pot, ns, grid, kind, store)

    def counting_init(self, pot, lams):
        profile_lams.extend(complex(lam) for lam in lams)
        real_init(self, pot, lams)

    monkeypatch.setattr(A, "_table_rows", counting_tables)
    monkeypatch.setattr(_CorrectionProfile, "__init__", counting_init)
    rep = remainder_sweep(step_pot, 12, jobs=1)
    assert rep.degraded == []
    # one table per index, one m^2 member and one lambda_n member per index
    assert tables == Counter(range(1, 13))
    assert len(profile_lams) == 2 * 12
    for pt in rep.points:
        lam_n = pt.sqrt_lambda_numeric ** 2
        assert profile_lams.count(pt.m ** 2) == 1
        assert sum(abs(lam - lam_n) <= 1e-9 * abs(lam_n)
                   for lam in profile_lams) == 1


def test_sweep_marks_degraded_and_continues(step_pot, monkeypatch):
    import slspec.validation as V
    from slspec.oscillatory import _CorrectionProfile

    real_search = V.oracle._index_search
    real_init = _CorrectionProfile.__init__
    profiles = []

    def flaky(pot, n, *args):      # index 3 fails inside its block
        if n == 3:
            raise NonconvergenceError("synthetic", best=None)
        return (yield from real_search(pot, n, *args))

    def counting_init(self, pot, lams):
        profiles.extend(lams)
        real_init(self, pot, lams)

    monkeypatch.setattr(V.oracle, "_index_search", flaky)
    monkeypatch.setattr(_CorrectionProfile, "__init__", counting_init)
    rep = remainder_sweep(step_pot, 6)
    assert rep.degraded == [3]
    rec3 = next(r for r in rep.records if r.n == 3)
    assert rec3.flag.startswith("degraded")
    assert not rep.verdicts["all_converged"]
    # degraded index excluded from partial sums
    assert 3 not in rep.partial_sums["n"]
    # the index without a root reads the gauge from the m^2 profile its
    # prediction built: one profile member for it, two for each solved index
    assert len(profiles) == 11
    assert rec3.gamma == remainder_gauge(step_pot, 2.5 * 2.5).value


def test_sweep_flags_shared_root(shared_root_trig):
    # the secant sends indices 1 and 2 to one root; the sweep solves them
    # in one block and must still flag both, like solve_spectrum; a flagged
    # index reads the gauge at m^2 with the sweep's own sample count
    for sup_grid in (256, 128):
        rep = remainder_sweep(shared_root_trig, 3, eigfun_up_to=0,
                              sup_grid=sup_grid)
        assert rep.degraded == [1, 2]
        assert not rep.verdicts["all_converged"]
        assert rep.records[0].flag == "degraded: shared root with index 2"
        assert rep.records[1].flag == "degraded: shared root with index 1"
        for rec, pt in zip(rep.records[:2], rep.points):
            assert pt.flag == rec.flag
            assert pt.sqrt_lambda_numeric is None and pt.residual is None
            gauge = remainder_gauge(shared_root_trig, pt.m * pt.m,
                                    sup_grid=sup_grid)
            assert rec.eig_error == 0.0 and rec.gamma == gauge.value
        assert (rep.records[2].flag == ""
                and rep.points[2].sqrt_lambda_numeric is not None)


def test_report_serialization(tmp_path, step_pot):
    rep = remainder_sweep(step_pot, 12)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    rep.write_json(jpath)
    rep.write_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["n_max"] == 12
    assert len(doc["records"]) == 12
    lines = cpath.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 13
    # numeric roundtrip of one row
    row = lines[1].split(",")
    assert int(row[0]) == 1
    float(row[2])


def test_biorthogonality_free_is_kronecker(free_pot):
    out = biorthogonality_check(free_pot, 8)
    assert out["max_offdiag"] <= 1e-10
    assert out["max_diag_deviation"] <= 1e-10
    assert out["verdict"]


# The seed-7 validate-smooth potential of the benchmark, as literals.  Its
# break is not a node of a uniform grid, so a uniform rule loses its order
# there: composite Simpson on 16385 nodes is off by 1.46e-9.
SEED7_POLY = PotentialSpec.poly([
    (0.0, 1.9533546081185296,
     [0.2055351366199076, -0.13153790927596964, 0.10625250475800369]),
    (1.9533546081185296, PI,
     [0.14251366389676398, 0.004375522878521763, 0.1361493501628234])])


def _matrix(out):
    return np.asarray(out["matrix_re"]) + 1j * np.asarray(out["matrix_im"])


def _pointwise_tables(pot, ns, kind):
    """x -> the tables of ns at the point x, one value per index.

    The assembly's closed-form brackets times the normalization
    _table_values gives them, read off at two probe points: the reference
    shares the tables with the check, not its quadrature.
    """
    asm = asymptotics._BracketAssembly(
        pot, ns, conjugated=kind == "biorthogonal" and not pot.is_real)
    probe = np.array([0.7, 2.3])
    scale = asymptotics._table_values(pot, ns, probe, kind) / asm.values(probe)
    assert np.abs(scale[:, 1] - scale[:, 0]).max() <= 1e-14 * np.abs(scale).max()
    return lambda x: scale[:, 0] * asm.func.eval(x)


def _quad_pairing(pot, ns):
    """(y_n, w_k) for every n, k of ns by scipy's adaptive Gauss-Kronrod
    quadrature of the whole matrix, piece by piece."""
    from scipy.integrate import quad_vec

    y = _pointwise_tables(pot, ns, "asymptotic")
    w = _pointwise_tables(pot, ns, "biorthogonal")
    return sum(quad_vec(lambda x: np.outer(y(x), np.conj(w(x))), a, b,
                        epsabs=1e-15, epsrel=1e-15, norm="max", limit=2000)[0]
               for a, b in zip(pot.breaks, pot.breaks[1:]))


@pytest.mark.parametrize("name", ["poly", "trig"])
def test_biorthogonality_matrix_is_the_pairing(all_pots, name, monkeypatch):
    # the composite Gauss rule against scipy's quadrature, then against
    # itself on twice as many cells
    pot = all_pots[name]
    coarse = {(lo, hi): _matrix(biorthogonality_check(pot, hi, n_min=lo))
              for lo, hi in ((2, 6), (1, 20))}
    ref = _quad_pairing(pot, tuple(range(2, 7)))
    assert np.abs(coarse[2, 6] - ref).max() <= 1e-12
    cells = validation._cells
    monkeypatch.setattr(validation, "_cells", lambda h, f: 2 * cells(h, f))
    for (lo, hi), mat in coarse.items():
        finer = _matrix(biorthogonality_check(pot, hi, n_min=lo))
        assert np.abs(mat - finer).max() <= 1e-13


def test_biorthogonality_off_grid_break_matches_quad():
    out = biorthogonality_check(SEED7_POLY, 20)
    ref = _quad_pairing(SEED7_POLY, tuple(range(1, 21)))
    assert np.abs(_matrix(out) - ref).max() <= 1e-12
    assert out["max_diag_deviation"] <= 1e-12


@pytest.mark.parametrize("name", ["step", "poly", "trig"])
def test_biorthogonality_diagonal_reads_the_quadrature_defect(all_pots, name):
    # the tables are normalized in closed form: the exact diagonal is one
    for n_min, n_max in ((1, 20), (5, 15)):
        out = biorthogonality_check(all_pots[name], n_max, n_min=n_min)
        assert out["max_diag_deviation"] <= 1e-12


@pytest.mark.parametrize("name", ["free", "const", "step", "poly", "trig"])
def test_biorthogonality_evaluates_few_nodes(all_pots, name, monkeypatch):
    # a dense grid must not come back unnoticed
    seen = []
    table_values = asymptotics._table_values

    def counting(pot, ns, grid, kind, store=None):
        seen.append(len(grid))
        return table_values(pot, ns, grid, kind, store)

    monkeypatch.setattr(asymptotics, "_table_values", counting)
    biorthogonality_check(all_pots[name], 20)
    assert seen and max(seen) < 4096


@pytest.mark.parametrize("name, n_min, n_max",
                         [("poly", 1, 20), ("trig", 5, 15)])
def test_biorthogonality_from_the_sweeps_tables_is_bit_identical(
        all_pots, name, n_min, n_max):
    pot = all_pots[name]
    store = {}
    remainder_sweep(pot, n_max, n_min=n_min, jobs=1, store=store)
    swept = set(store)
    assert swept == {("asymptotic", block) for block
                     in asymptotics._blocks(range(n_min, n_max + 1))}
    shared = biorthogonality_check(pot, n_max, n_min=n_min, store=store)
    # the check adds the complex partners' assemblies only
    added = {kind for kind, _ in set(store) - swept}
    assert added == (set() if pot.is_real else {"biorthogonal"})
    alone = biorthogonality_check(pot, n_max, n_min=n_min)
    for key in ("matrix_re", "matrix_im", "max_offdiag", "max_diag_deviation"):
        assert np.asarray(shared[key]).tobytes() == np.asarray(alone[key]).tobytes()


def test_biorthogonality_real_step(step_pot):
    out = biorthogonality_check(step_pot, 15, n_min=5)
    ns = out["n_values"]
    mat = np.asarray(out["matrix_re"]) + 1j * np.asarray(out["matrix_im"])
    for i, n in enumerate(ns):
        for j, k in enumerate(ns):
            bound = max(5e-3, 1.0 / (n * k))
            assert abs(mat[i, j] - (1.0 if i == j else 0.0)) <= bound, (n, k)


def test_biorthogonality_complex(trig_pot):
    out = biorthogonality_check(trig_pot, 15, n_min=5)
    assert out["max_offdiag"] <= 5e-3
    assert out["max_diag_deviation"] <= 5e-3
    assert out["verdict"]


def test_biorthogonality_cost_guard(step_pot):
    # one limit, the one `validate` gates its block on
    for n_max in (21, 30):
        with pytest.raises(ValueError):
            biorthogonality_check(step_pot, n_max)


def test_phase_modulus_ratio_profile_free(free_pot):
    out = phase_modulus_ratio_profile(free_pot, 14, n_min=10)
    assert out["theta_ratio"] == [0.0] * 5 or max(out["theta_ratio"]) < 1e-6
    assert max(out["r_ratio"]) < 1e-6 if out["r_ratio"] else True


def test_phase_modulus_ratio_profile_constant(const_pot):
    out = phase_modulus_ratio_profile(const_pot, 24, n_min=10)
    assert len(out["n_values"]) == 15
    assert max(out["theta_ratio"]) < 1.0
    assert max(out["r_ratio"]) < 1.0
    assert out["degraded"] == []


@pytest.mark.parametrize("name", ["free", "const", "poly"])
def test_ratio_profile_blocks_keep_the_per_index_bits(name, all_pots,
                                                      monkeypatch):
    pot = all_pots[name]
    roots = []
    walk = oracle.integrate_quasi_system

    def spy(p, lam, grid, **kw):
        roots.append(complex(lam))
        return walk(p, lam, grid, **kw)

    monkeypatch.setattr(oracle, "integrate_quasi_system", spy)
    # two blocks of the closed-form layer: 1..32 and 33..40
    ns = range(1, 41)
    out = phase_modulus_ratio_profile(pot, 40, n_min=1)
    monkeypatch.setattr(oracle, "integrate_quasi_system", walk)
    assert roots == [complex(oracle.solve_eigenvalue(pot, n).lam) for n in ns]
    alone = [phase_modulus_ratio_profile(pot, n, n_min=n) for n in ns]
    for key in ("n_values", "degraded"):
        assert out[key] == [v for one in alone for v in one[key]]
    for key in ("theta_ratio", "r_ratio"):
        assert [v.hex() for v in out[key]] == [
            v.hex() for one in alone for v in one[key]]
