"""Potential representations: evaluation, algebra, moments, loader."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slspec import (DomainError, PotentialFormatError, PotentialSpec,
                    load_potential, moments)
from conftest import RAW_PIECES, piecewise_quad

PI = math.pi


def _moment(pot, omega, a, b, kernel):
    """Integral of u(t) kernel(2 omega t) over [a, b], in closed form."""
    return (pot.piecewise * kernel(2 * omega, pot.breaks)).integral(a, b)


# -- evaluation ----------------------------------------------------------------

def test_eval_zero_potential(free_pot):
    assert free_pot.eval_u(1.0) == 0


def test_eval_step_heights(step_pot):
    assert step_pot.eval_u(PI / 4) == 0
    assert step_pot.eval_u(3.0) == 2
    # right-continuity at the breakpoint
    assert step_pot.eval_u(PI / 2) == 2


def test_eval_trig(trig_pot):
    assert abs(trig_pot.eval_u(PI / 2) - (1 + 1j)) < 1e-15


def test_eval_domain_error(step_pot):
    with pytest.raises(DomainError):
        step_pot.eval_u(-0.2)
    with pytest.raises(DomainError):
        step_pot.eval_u(PI + 0.2)


def test_eval_matches_raw_closures(all_pots):
    xs = np.linspace(0.0, PI, 211)
    for name, pot in all_pots.items():
        raw = RAW_PIECES[name]
        from conftest import raw_u_eval
        ref = np.array([raw_u_eval(raw, float(x)) for x in xs])
        assert np.abs(pot.eval_u(xs) - ref).max() < 1e-12, name


# -- algebra -------------------------------------------------------------------

def _random_spec(kind, seed):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.3, PI - 0.3, size=rng.integers(0, 3)))
    breaks = [0.0, *cuts, PI]
    pieces = []
    for a, b in zip(breaks, breaks[1:]):
        if kind == "step":
            data = complex(*rng.standard_normal(2))
        elif kind == "poly":
            deg = int(rng.integers(0, 4))
            data = [complex(*rng.standard_normal(2)) for _ in range(deg + 1)]
        else:
            data = [complex(*rng.standard_normal(2))
                    for _ in range(int(rng.integers(1, 3)))]
        pieces.append((a, b, data))
    return getattr(PotentialSpec, kind if kind != "trig" else "trig")(pieces)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["step", "poly", "trig"]), seed=st.integers(0, 2**31))
def test_conjugation_involution_and_recomposition(kind, seed):
    p = _random_spec(kind, seed)
    xs = np.linspace(0.0, PI, 37)
    vals = p.eval_u(xs)
    assert np.abs(p.conjugate().conjugate().eval_u(xs) - vals).max() == 0.0
    assert np.abs(p.conjugate().eval_u(xs) - np.conj(vals)).max() < 1e-13
    rec = p.real_part().eval_u(xs) + 1j * p.imag_part().eval_u(xs)
    assert np.abs(rec - vals).max() < 1e-13


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kind=st.sampled_from(["step", "poly", "trig"]), seed=st.integers(0, 2**31))
def test_square_is_pointwise_square(kind, seed):
    # relative to the square's size: a poly's u^2 reaches 1e4 on [0, pi],
    # where rounding alone is 1e-12; over 3000 seeds the worst relative
    # error is 5e-15, and a dropped cross term is of the square's order
    p = _random_spec(kind, seed)
    xs = np.linspace(0.0, PI, 37)
    u = p.eval_u(xs)
    size = max(1.0, float(np.abs(u).max()) ** 2)
    assert np.abs(p.piecewise_sq.eval(xs) - u ** 2).max() < 1e-13 * size


def test_real_potential_has_zero_imag_part(step_pot):
    xs = np.linspace(0.0, PI, 31)
    assert np.abs(step_pot.imag_part().eval_u(xs)).max() == 0.0


def test_square_of_step(step_pot):
    assert step_pot.piecewise_sq.eval(3.0) == 4


def test_conjugate_of_constant():
    p = PotentialSpec.constant(1 + 1j)
    assert p.conjugate().eval_u(1.0) == 1 - 1j


# -- moments --------------------------------------------------------------------

def test_constant_moment_closed_forms():
    a = 2.3 - 0.7j
    p = PotentialSpec.constant(a)
    for n in (1, 3, 10, 33):
        m = n - 0.5
        assert abs(_moment(p, m, 0.0, PI, moments.sin_kernel) - a / m) < 1e-13
        assert abs(_moment(PotentialSpec.constant(1.0), m, 0.0, PI,
                           moments.cos_kernel)) < 1e-13


def test_moment_small_frequency_limit(step_pot, trig_pot):
    for p in (step_pot, trig_pot):
        val = _moment(p, 1e-9, 0.0, PI, moments.sin_kernel)
        assert abs(val) < 1e-7   # kernel sin(2 omega t) -> 0


def test_moment_against_quadrature_random_samples(all_pots):
    rng = np.random.default_rng(42)
    for _ in range(100):
        name = rng.choice(["const", "step", "trig", "poly"])
        pot = all_pots[name]
        omega = rng.uniform(0.5, 60.0)
        a, b = np.sort(rng.uniform(0.0, PI, 2))
        if b - a < 0.1:
            b = min(PI, a + 0.1)
        weight = "sin" if rng.integers(2) else "cos"
        kern = np.sin if weight == "sin" else np.cos
        got = _moment(pot, omega, a, b, getattr(moments, f"{weight}_kernel"))
        ref = piecewise_quad(RAW_PIECES[name],
                             lambda u, t: u * kern(2 * omega * t), a, b)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (name, omega, a, b)


def test_l2_norm_and_zero_frequency_moment(all_pots):
    for name, pot in all_pots.items():
        ref = piecewise_quad(RAW_PIECES[name], lambda u, t: u * np.conj(u))
        assert abs(pot.l2_norm_sq - ref.real) < 1e-11, name
        if pot.is_real:
            # for real u the squared norm equals the omega = 0 cosine moment of u^2
            zero_cos = (pot.piecewise_sq
                        * moments.cos_kernel(0.0, pot.breaks)).integral(0.0, PI)
            assert abs(pot.l2_norm_sq - zero_cos.real) < 1e-11


def test_moment_domain_guard(step_pot):
    with pytest.raises(DomainError):
        _moment(step_pot, 1.0, -0.1, 1.0, moments.sin_kernel)


# -- loader ---------------------------------------------------------------------

def _step_doc():
    return {"kind": "step", "pieces": [
        {"from": 0.0, "to": PI / 2, "coeffs_re": [0.0]},
        {"from": PI / 2, "to": PI, "coeffs_re": [2.0]}]}


def test_loader_roundtrip_dict(step_pot):
    p = load_potential(_step_doc())
    xs = np.linspace(0.0, PI, 17)
    assert np.abs(p.eval_u(xs) - step_pot.eval_u(xs)).max() == 0.0


def test_loader_file_and_text(tmp_path, step_pot):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(_step_doc()))
    # indented JSON text is longer than a file name may be
    long_text = json.dumps(_step_doc(), indent=64)
    assert len(long_text) > 1024
    for source in (path, json.dumps(_step_doc()), long_text):
        p = load_potential(source)
        assert p.eval_u(3.0) == 2


def test_loader_complex_trig():
    doc = {"kind": "trig", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [1.0], "coeffs_im": [1.0]}]}
    p = load_potential(doc)
    assert abs(p.eval_u(PI / 2) - (1 + 1j)) < 1e-15


def test_loader_rejects_overlap_with_breakpoint_in_message():
    doc = {"kind": "step", "pieces": [
        {"from": 0.0, "to": 2.0, "coeffs_re": [0.0]},
        {"from": 1.9, "to": PI, "coeffs_re": [2.0]}]}
    with pytest.raises(PotentialFormatError) as err:
        load_potential(doc)
    assert "2.0" in str(err.value) or "1.9" in str(err.value)


def test_loader_rejects_gap():
    doc = {"kind": "step", "pieces": [
        {"from": 0.0, "to": 1.0, "coeffs_re": [0.0]},
        {"from": 1.5, "to": PI, "coeffs_re": [2.0]}]}
    with pytest.raises(PotentialFormatError) as err:
        load_potential(doc)
    assert "gap" in str(err.value)


def test_loader_rejects_bad_endpoints_and_coeffs():
    with pytest.raises(PotentialFormatError):
        load_potential({"kind": "step", "pieces": [
            {"from": 0.1, "to": PI, "coeffs_re": [1.0]}]})
    with pytest.raises(PotentialFormatError):
        load_potential({"kind": "step", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [1.0], "coeffs_im": [1.0, 2.0]}]})
    with pytest.raises(PotentialFormatError):
        load_potential({"kind": "poly", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": []}]})
    with pytest.raises(PotentialFormatError):
        load_potential({"kind": "step", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [1.0], "coeffs_im": ["x"]}]})
    with pytest.raises(PotentialFormatError):
        load_potential("not json at all {")
    with pytest.raises(PotentialFormatError):
        load_potential({"kind": "step", "pieces": [
            {"from": 0.0, "to": PI, "coeffs_re": [1e200]}]})


def test_pickle_carries_the_description_only(trig_pot):
    import pickle

    from slspec import eigenfunction_asym, eigenvalue_asym

    fresh = PotentialSpec(trig_pot.kind, trig_pot.breaks, trig_pot.coeffs)
    size = len(pickle.dumps(fresh))
    point_size = len(pickle.dumps(eigenvalue_asym(fresh, 3)))
    # fill every closed-form product cached on the potential
    eigenfunction_asym(fresh, 3, np.linspace(0.0, PI, 9))
    assert fresh.l2_norm_sq > 0 and "piecewise_sq" in vars(fresh)
    assert "piecewise" in vars(fresh.imag_part())
    assert len(pickle.dumps(fresh)) == size
    assert len(pickle.dumps(eigenvalue_asym(fresh, 3))) == point_size
    back = pickle.loads(pickle.dumps(fresh))
    assert back == fresh and "piecewise" not in vars(back)
