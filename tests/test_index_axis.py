"""The index axis of the closed-form layer: per-index determinism.

The moments engine, the correction profile and the bracket assembly take a
block of indices at once.  Index n's numbers must not depend on which other
indices share its block: computed alone, inside a block of consecutive
indices or inside a strided block (as a --jobs 2 chunk hands them over),
they agree bit for bit.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from slspec import (PotentialSpec, asymptotics, correction_terms, moments,
                    prufer_modulus_asym, prufer_phase_asym, remainder_gauge)
from slspec.cli import main
from slspec.oscillatory import _CorrectionProfile

PI = math.pi

_POTS = {
    "step": PotentialSpec.step([(0.0, PI / 2, 0.0), (PI / 2, PI, 2.0)]),
    "poly": PotentialSpec.poly([(0.0, 1.3, [-1.0, 0.0, 1.0]),
                                (1.3, PI, [0.5, 0.2])]),
    # sin 3t: at n = 2 the kernel frequency 2m = 3 meets the mode for this
    # member only, so two symbolic frequencies coincide numerically there
    "trig": PotentialSpec.trig([(0.0, PI, [0.7, 0.0, 0.4])]),
    "ctrig": PotentialSpec.trig([(0.0, PI, [1 + 1j, 0.5j, -0.3])]),
    "cstep": PotentialSpec.step([(0.0, 1.0, 0.5 + 1.0j),
                                 (1.0, 2.2, -1.0 - 0.5j), (2.2, PI, 2.0)]),
}
_NS = (1, 2, 3, 10, 40)
_BLOCKS = {
    "alone": None,
    "consecutive": (tuple(range(1, 33)), tuple(range(9, 41))),
    "strided": (tuple(range(1, 64, 2)), tuple(range(2, 65, 2))),
}
# wide enough that a block of 32 evaluates arrays above 256 KB, where numpy
# reuses temporaries in place
_GRID = np.linspace(0.0, PI, 1025)


def _bits(x):
    return np.atleast_1d(np.asarray(x)).view(np.uint8).tobytes()


def _lam(n):
    # a lambda per index that is not m^2: the asymptotic prediction squared
    m = n - 0.5
    return complex(m + 0.3 / m + 0.05j) ** 2


def _per_index(pot, block):
    """{n: bytes of v(pi, m^2), gauge at lambda, table, norm} over a block."""
    asymptotics._m2_profile.cache_clear()
    v = asymptotics._m2_profile(pot, block).v(PI)
    gauges = _CorrectionProfile(pot, [_lam(n) for n in block]).gauge(64)
    tables = asymptotics._table_values(pot, block, _GRID, "biorthogonal")
    norms = asymptotics._BracketAssembly(pot, block, False).norm_sq()
    return {n: (_bits(v[k]), gauges[k], _bits(tables[k]), _bits(norms[k]))
            for k, n in enumerate(block)}


@pytest.mark.parametrize("name", sorted(_POTS))
def test_index_numbers_do_not_depend_on_the_block(name):
    pot = _POTS[name]
    alone = {}
    for n in _NS:
        alone.update(_per_index(pot, (n,)))
    for setting in ("consecutive", "strided"):
        seen = {}
        for block in _BLOCKS[setting]:
            seen.update(_per_index(pot, block))
        for n in _NS:
            assert seen[n] == alone[n], (setting, n)


def test_public_single_index_calls_are_blocks_of_one():
    pot = _POTS["ctrig"]
    block = tuple(range(1, 33))
    points = asymptotics._predictions(pot, block)
    tables = asymptotics._tables(pot, block, _GRID, "asymptotic")
    gauges = asymptotics._m2_profile(pot, block).gauge()
    for n in (1, 2, 10):
        point = asymptotics.eigenvalue_asym(pot, n)
        assert point.sqrt_lambda_asym == points[n - 1].sqrt_lambda_asym
        table = asymptotics.eigenfunction_asym(pot, n, _GRID)
        assert _bits(table.values) == _bits(tables[n - 1].values)
        assert remainder_gauge(pot, (n - 0.5) ** 2) == gauges[n - 1]


@pytest.mark.parametrize("shape", [(2, 3), (1, 4), (4,), ()])
def test_single_lambda_calls_take_x_of_any_shape(shape):
    # a 2-D x is points, never one row per member of the block of one
    pot, lam = _POTS["ctrig"], 30.0 + 2.0j
    x = np.random.default_rng(3).uniform(0.0, PI, shape)
    flat = x.reshape(-1)
    terms, flat_terms = (correction_terms(pot, x, lam),
                         correction_terms(pot, flat, lam))
    pairs = [(f(pot, x, lam), f(pot, flat, lam))
             for f in (prufer_phase_asym, prufer_modulus_asym)]
    pairs += [(getattr(terms, name), getattr(flat_terms, name))
              for name in ("term_single_sin", "term_l2", "term_double",
                           "term_u2_cos")]
    for got, ref in pairs:
        if shape:
            assert got.shape == shape
        else:
            assert isinstance(got, complex)
        assert _bits(np.reshape(got, -1)) == _bits(ref)


def test_series_member_keeps_its_own_branch():
    # n = 1 carries series atoms of high degree on the poly; a member with
    # |nu| h near 30 must still take the recursion, as it does alone
    pot = _POTS["poly"]
    wide = asymptotics._BracketAssembly(pot, (1,), False).func
    assert max(len(coeffs) for piece in wide.pieces
               for _, coeffs in piece) >= 31
    mixed = _per_index(pot, (1, 40))
    assert mixed[1] == _per_index(pot, (1,))[1]
    assert mixed[40] == _per_index(pot, (40,))[40]


def test_block_merges_by_key_not_by_value():
    # at n = 2, sin(3t) * sin(2 m t) holds two atoms of frequency 0 whose
    # keys differ; the block keeps them apart, and both antiderivatives
    # take the nu = 0 branch
    pot = _POTS["trig"]
    u_sin = pot.piecewise * _CorrectionProfile(pot, [2.25, 6.25]).sin_k
    keys = [key for key, _ in u_sin.pieces[0]]
    assert (-3 + 0j, 2) in keys and (3 + 0j, -2) in keys
    F = u_sin.antiderivative()
    x = np.linspace(0.0, PI, 9)
    ref = [(pot.piecewise * moments.sin_kernel(2 * m, pot.breaks))
           .antiderivative().eval(x) for m in (1.5, 2.5)]
    assert np.abs(F.eval(x) - np.array(ref)).max() < 1e-13


def test_block_conjugate_needs_real_omega():
    pot = _POTS["step"]
    sin_k, _ = moments.harmonic_kernels(np.array([1.5, 2.5 + 0.1j]), 1,
                                        pot.breaks)
    with pytest.raises(ValueError, match="real omega"):
        sin_k.conj()
    with pytest.raises(ValueError, match="frequency vectors"):
        sin_k * moments.harmonic_kernels(np.array([1.5, 2.5]), 1,
                                         pot.breaks)[0]


# -- the CLI: --jobs and --n-min do not change a row ----------------------------

@pytest.fixture()
def ctrig_file(tmp_path):
    path = tmp_path / "ctrig.json"
    path.write_text(json.dumps({"kind": "trig", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [1.0, 0.0, -0.3],
         "coeffs_im": [1.0, 0.5, 0.0]}]}))
    return str(path)


def _rows_from(text, n_min):
    return [r for r in csv.reader(io.StringIO(text))
            if r[0] != "n" and int(r[0]) >= n_min]


def _spectrum(path, jobs, n_min, capsys):
    assert main(["spectrum", "--potential", path, "--method", "both",
                 "--n-min", n_min, "--n-max", "40", "--jobs", jobs]) == 0
    return capsys.readouterr().out


def _validate(path, jobs, n_min, base):
    assert main(["validate", "--potential", path, "--n-min", n_min,
                 "--n-max", "40", "--out", base, "--jobs", jobs]) == 0
    with open(base + ".csv") as fh:
        return fh.read()


def test_cli_rows_independent_of_jobs_and_n_min(ctrig_file, tmp_path, capsys):
    one = _spectrum(ctrig_file, "1", "1", capsys)
    assert _spectrum(ctrig_file, "2", "1", capsys) == one
    later = _spectrum(ctrig_file, "1", "7", capsys)
    assert _rows_from(later, 7) == _rows_from(one, 7)
    reports = {}
    for jobs, n_min in (("1", "1"), ("2", "1"), ("1", "7")):
        base = str(tmp_path / f"rep_{jobs}_{n_min}")
        reports[jobs, n_min] = _validate(ctrig_file, jobs, n_min, base)
        capsys.readouterr()
    assert reports["2", "1"] == reports["1", "1"]
    assert (_rows_from(reports["1", "7"], 7)
            == _rows_from(reports["1", "1"], 7))
