"""The head/tail layout of the closed-form layer and the memory it may use.

A request's first _BLOCK indices form one block, where the series-branch
members sit, and the rest go in blocks of at most 4 _BLOCK.  A member's
numbers must not depend on the layout: the head/tail blocks give every
index the bytes that runs of _BLOCK give.  A wide block must keep every
(members x points) array within _EVAL_CELLS values, and a solver round
walks at most _BLOCK members through a smooth piece.
"""

import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slspec import PotentialSpec, asymptotics, cli, moments, oracle
from slspec.asymptotics import _BLOCK, _EVAL_CELLS
from slspec.oscillatory import _CorrectionProfile
from slspec.validation import phase_modulus_ratio_profile, remainder_sweep

PI = math.pi

_POTS = {
    "step": PotentialSpec.step([(0.0, PI / 2, 0.0), (PI / 2, PI, 2.0)]),
    "poly": PotentialSpec.poly([(0.0, 1.3, [-1.0, 0.0, 1.0]),
                                (1.3, PI, [0.5, 0.2])]),
    "ctrig": PotentialSpec.trig([(0.0, PI, [1 + 1j, 0.5j, -0.3])]),
    "cstep": PotentialSpec.step([(0.0, 1.0, 0.5 + 1.0j),
                                 (1.0, 2.2, -1.0 - 0.5j), (2.2, PI, 2.0)]),
}
STEP6 = PotentialSpec.step([(0.0, 0.4, 1.3), (0.4, 0.9, -0.7),
                            (0.9, 1.5, 1.9), (1.5, 2.1, -1.6),
                            (2.1, 2.7, 0.4), (2.7, PI, -1.1)])
_NS = tuple(range(1, 151))
_GRID = asymptotics.default_grid(513)


def _bits(x):
    return np.atleast_1d(np.asarray(x)).view(np.uint8).tobytes()


def _runs_of_block(ns):
    """The layout before the head/tail one: runs of _BLOCK entries."""
    ns = [int(n) for n in ns]
    return [tuple(ns[i:i + _BLOCK]) for i in range(0, len(ns), _BLOCK)]


def _check_layout(ns):
    blocks = asymptotics._blocks(ns)
    assert [n for block in blocks for n in block] == [int(n) for n in ns]
    assert all(block for block in blocks)
    if blocks:
        assert len(blocks[0]) == min(len(ns), _BLOCK)
    assert all(len(block) <= 4 * _BLOCK for block in blocks[1:])
    # no block is split that the next could have held
    assert all(len(block) == 4 * _BLOCK for block in blocks[1:-1])


@pytest.mark.parametrize("ns", [
    (), (7,), range(1, 21), range(1, 33), range(1, 34), range(1, 151),
    range(1, 161), range(1, 162), range(1, 201), range(5, 400),
    # strided chunks, as --jobs 2 and 3 hand them over
    range(1, 201, 2), range(2, 201, 2), range(3, 401, 3)])
def test_blocks_partition_the_request(ns):
    _check_layout(ns)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(0, 600), st.integers(1, 4))
def test_blocks_partition_any_strided_range(start, count, stride):
    _check_layout(range(start, start + stride * count, stride))


def test_validate_step_takes_two_blocks_and_cstep_three():
    assert [len(b) for b in asymptotics._blocks(range(1, 151))] == [32, 118]
    assert [len(b) for b in asymptotics._blocks(range(1, 201))] == [32, 128,
                                                                    40]


def _lam(n):
    # a lambda per index that is not m^2: the asymptotic prediction squared
    m = n - 0.5
    return complex(m + 0.3 / m + 0.05j) ** 2


def _per_index(pot, blocks, chunked):
    """{n: bytes of v(pi, m^2), gauge at lambda, table row, norm, root}.

    chunked reads the table rows as the sweep does (_table_rows, a chunk
    of members at a time), otherwise as one array per block.
    """
    out = {}
    for block in blocks:
        asymptotics._m2_profile.cache_clear()
        v = asymptotics._m2_profile(pot, block).v(PI)
        gauges = _CorrectionProfile(pot, [_lam(n) for n in block]).gauge()
        if chunked:
            rows = np.concatenate([r for _, r in asymptotics._table_rows(
                pot, block, _GRID, "asymptotic")])
        else:
            rows = asymptotics._table_values(pot, block, _GRID, "asymptotic")
        norms = asymptotics._BracketAssembly(pot, block, False).norm_sq()
        points = asymptotics._predictions(pot, block)
        roots = oracle._solve_block(pot, block,
                                    [p.sqrt_lambda_asym for p in points])
        for k, n in enumerate(block):
            res = roots[k]
            root = ((_bits(res.lam), res.residual.hex(), res.iterations)
                    if isinstance(res, oracle.SecularResult) else str(res))
            out[n] = (_bits(v[k]), gauges[k], _bits(rows[k]), _bits(norms[k]),
                      root)
    return out


@pytest.mark.parametrize("name", sorted(_POTS))
def test_head_tail_layout_keeps_every_members_bytes(name):
    pot = _POTS[name]
    layout = asymptotics._blocks(_NS)
    assert len(layout) == 2 and len(layout[1]) > _EVAL_CELLS // len(_GRID)
    new = _per_index(pot, layout, chunked=True)
    old = _per_index(pot, _runs_of_block(_NS), chunked=False)
    assert new.keys() == old.keys()
    for n in _NS:
        assert new[n] == old[n], n


def test_sweep_keeps_its_arrays_within_the_budget(monkeypatch):
    # every (members x points) array of the sweep: the evaluations of the
    # closed-form objects, the table rows, the node walks and the numeric
    # eigenfunction rows
    sizes = {}

    def record(owner, name, size):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.setdefault(name, []).append(size(out, *args))
            return out

        monkeypatch.setattr(owner, name, spy)

    record(moments.PiecewiseExp, "eval", lambda out, *a: np.size(out))
    record(asymptotics._BracketAssembly, "values",
           lambda out, *a: np.size(out))
    record(oracle, "_unit_trajectory", lambda out, *a: np.size(out[0]))
    record(oracle, "_walk", lambda out, pe, lam, *a: np.size(lam) * (
        0 if len(a) < 3 or a[2] is None else len(a[2])))
    rep = remainder_sweep(STEP6, 150, jobs=1)
    assert rep.degraded == []
    assert set(sizes) == {"eval", "values", "_unit_trajectory", "_walk"}
    for name, seen in sizes.items():
        assert max(seen) <= _EVAL_CELLS, name


def test_solver_rounds_walk_at_most_a_block_through_a_smooth_piece(
        monkeypatch):
    widths = []
    real = oracle._magnus_matrices

    def spy(delta, gamma, h, lam):
        widths.append(len(lam))
        return real(delta, gamma, h, lam)

    monkeypatch.setattr(oracle, "_magnus_matrices", spy)
    points = oracle.solve_spectrum(_POTS["poly"], range(1, 101))
    assert not any(p.flag for p in points)
    assert max(map(len, asymptotics._blocks(range(1, 101)))) > _BLOCK
    assert max(widths) == _BLOCK


def test_cli_call_leaves_no_mesh_behind(tmp_path, capsys, monkeypatch):
    # the meshes of a smooth piece are held on its PiecewiseExp and die
    # with the potential.  The m^2 profiles and the bracket weights stay in
    # their small caches by design (PotentialSpec compares by value, so an
    # equal potential loaded later reuses them) and hold the potential
    # until replaced; they are cleared here, so that only the oracle's
    # objects are tested
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"kind": "poly", "pieces": [
        {"from": 0.0, "to": 1.3, "coeffs_re": [-1.0, 0.0, 1.0]},
        {"from": 1.3, "to": PI, "coeffs_re": [0.5, 0.2]}]}))
    refs = []
    load = cli.load_potential

    def spy(source):
        pot = load(source)
        refs.append(weakref.ref(pot.piecewise))
        return pot

    monkeypatch.setattr(cli, "load_potential", spy)
    assert cli.main(["spectrum", "--potential", str(path), "--method",
                     "both", "--n-max", "5"]) == 0
    capsys.readouterr()
    assert refs and refs[0]() is not None and refs[0]()._meshes
    asymptotics._m2_profile.cache_clear()
    asymptotics._bracket_weights.cache_clear()
    gc.collect()
    assert refs[0]() is None


def test_meshes_stay_out_of_a_pickled_potential():
    pot = PotentialSpec.poly([(0.0, 1.3, [-1.0, 0.0, 1.0]),
                              (1.3, PI, [0.5, 0.2])])
    fresh = pickle.dumps(pot)
    oracle.solve_eigenvalue(pot, 3)
    assert pot.piecewise._meshes
    assert pickle.dumps(pot) == fresh


def test_ratio_profile_keeps_its_arrays_within_the_budget(monkeypatch):
    # the leading phase and modulus of the members' rows of up to
    # 24 |sqrt(lambda)| points, and the rows themselves, a chunk of
    # members at a time
    from slspec import validation

    sizes = {}

    def record(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.setdefault(name, []).append(np.size(out))
            return out

        monkeypatch.setattr(owner, name, spy)

    record(moments.PiecewiseExp, "eval")
    record(validation, "_rows")
    out = phase_modulus_ratio_profile(_POTS["poly"], 60, n_min=10)
    assert out["n_values"] == list(range(10, 61)) and out["degraded"] == []
    assert set(sizes) == {"eval", "_rows"}
    for name, seen in sizes.items():
        assert max(seen) <= _EVAL_CELLS, name
