"""Unit checks for the polynomial-exponential integration engine."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from slspec import PotentialSpec, moments, oscillatory

PI = math.pi


def _atom_quad(coeffs, nu, h):
    def f(t):
        return polyval(t, coeffs) * np.exp(1j * nu * t)
    re = quad(lambda t: f(t).real, 0.0, h, limit=400, epsabs=1e-14)[0]
    im = quad(lambda t: f(t).imag, 0.0, h, limit=400, epsabs=1e-14)[0]
    return re + 1j * im


def _atom_exact(coeffs, nu, h):
    atom = ((complex(nu), 0), tuple(np.array([c], dtype=complex) for c in coeffs))
    return moments.PiecewiseExp((0.0, h), ((atom,),)).antiderivative().eval(h)


@pytest.mark.parametrize("nu", [0.0, 1e-7, 1e-4, 3e-3, 0.2, 0.9, 2.7, 17.0, 119.0])
@pytest.mark.parametrize("coeffs", [(1.0,), (0.3, -1.2), (2.0, 0.0, 1.5, -0.4)])
def test_atom_integral_matches_quadrature(nu, coeffs):
    h = 1.9
    got = _atom_exact(coeffs, nu, h)
    ref = _atom_quad(coeffs, nu, h)
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.25, 4.0), deg=st.integers(0, 5),
       seed=st.integers(0, 2**31))
def test_series_and_recursion_agree_near_threshold(scale, deg, seed):
    # frequencies straddling the branch switch must produce the same value
    rng = np.random.default_rng(seed)
    coeffs = tuple(rng.standard_normal(deg + 1))
    h = 1.4
    thr = moments._series_threshold(deg) / h
    for nu in (thr * scale, -thr * scale):
        got = _atom_exact(coeffs, nu, h)
        ref = _atom_quad(coeffs, nu, h)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


@settings(max_examples=50, deadline=None)
@given(deg=st.integers(0, 6), delta=st.floats(-2.0, 2.0), seed=st.integers(0, 2**31))
def test_polyshift(deg, delta, seed):
    rng = np.random.default_rng(seed)
    coeffs = tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
    shifted = moments._polyshift(coeffs, delta)
    s = np.linspace(-1.0, 1.0, 7)
    direct = polyval(s + delta, coeffs)
    via = polyval(s, shifted)
    assert np.abs(direct - via).max() < 1e-10 * max(1.0, np.abs(direct).max())


def _sample_pe():
    base = moments.poly_global([(0.0, 1.0), (2.0,)], (0.0, 1.1, PI))
    return base * moments.sin_kernel(3.0, base.breaks) + \
        moments.constant(0.5j, base.breaks)


def test_antiderivative_starts_at_zero_and_is_continuous():
    f = _sample_pe()
    F = f.antiderivative()
    assert abs(F.eval(0.0)) == 0.0
    for b in f.breaks[1:-1]:
        left = F.eval(b - 1e-9)
        right = F.eval(b + 1e-9)
        assert abs(left - right) < 1e-7


def test_algebra_pointwise():
    f = _sample_pe()
    g = f * f
    xs = np.linspace(0.0, PI, 41)
    assert np.abs(g.eval(xs) - f.eval(xs) ** 2).max() < 1e-12
    assert np.abs(f.conj().eval(xs) - np.conj(f.eval(xs))).max() < 1e-13
    assert np.abs((f - f).eval(xs)).max() == 0.0


def test_operands_on_different_breaks_raise():
    f = _sample_pe()
    g = moments.constant(1.0, (0.0, 0.4, 1.1, PI))
    for combine in (lambda a, b: a + b, lambda a, b: a - b,
                    lambda a, b: a * b):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="different breaks"):
                combine(a, b)


def test_right_continuity_at_breaks():
    f = moments.poly_global([(1.0,), (5.0,)], (0.0, 1.0, PI))
    assert f.eval(1.0) == 5.0
    assert f.eval(0.0) == 1.0
    assert f.eval(PI) == 5.0


def test_integral_subinterval_and_domain_guard():
    f = _sample_pe()
    full = f.integral()
    assert abs(f.integral(0.0, 1.1) + f.integral(1.1, PI) - full) < 1e-13
    with pytest.raises(Exception):
        f.integral(-0.5, 1.0)


def _antiderivative_difference(f, a, b):
    """The integral the way it was taken before: F(b) - F(a) from f's antiderivative."""
    F = f.antiderivative()
    return complex(F.eval(b) - F.eval(a))


def _integral_cases():
    base = _sample_pe()
    # |nu| h below the series threshold on every piece: series-branch atoms
    slow = moments.poly_global([(1.0, -0.5, 0.25), (0.3, 2.0)], (0.0, 1.1, PI)) \
        * moments.sin_kernel(0.2, (0.0, 1.1, PI))
    # complex frequencies, decaying and growing, on three pieces
    brk = (0.0, 0.7, 2.3, PI)
    cplx = moments.poly_global([(0.5j, 1.0), (2.0, -1j, 0.3), (1.0 - 1j,)], brk) \
        * moments.cos_kernel(7.3 + 1.9j, brk)
    return {"sample": base, "series": slow, "complex": cplx}


@pytest.mark.parametrize("name", ["sample", "series", "complex"])
@pytest.mark.parametrize("a, b", [
    (None, None),          # full domain
    (0.2, 0.9),            # inside one piece
    (0.4, 2.9),            # across breaks
    (1.1, PI),             # from a break to the end
    (1.7, 1.7),            # empty
    (2.9, 0.4),            # reversed
])
def test_integral_sums_atom_integrals(name, a, b):
    f = _integral_cases()[name]
    lo = f.lo if a is None else a
    hi = f.hi if b is None else b
    got = f.integral(a, b)
    ref = _antiderivative_difference(f, lo, hi)
    if lo == hi:
        assert got == 0
    else:
        assert abs(got - ref) <= 1e-14 * abs(ref)


def test_integral_series_branch_is_exercised():
    f = _integral_cases()["series"]
    for i, piece in enumerate(f.pieces):
        h = f.breaks[i + 1] - f.breaks[i]
        for (nu, b), coeffs in piece:
            thr = moments._series_threshold(len(coeffs) - 1)
            assert b == 0 and (nu == 0 or abs(nu) * h <= thr)


@pytest.mark.parametrize("c", [0, 1, -1, 2 + 3j])
def test_scale_matches_merged_route(c):
    zero_step = moments.step([0.0, 2.0], (0.0, 1.0, PI))
    for f in [*_integral_cases().values(), zero_step, moments.constant(0.0, (0.0, PI))]:
        merged = tuple(
            moments._merge_atoms([(nu, tuple(complex(c) * x for x in coeffs))
                                  for nu, coeffs in pc])
            for pc in f.pieces)
        assert f.scale(c).pieces == merged


# -- a plain object is a block of one -------------------------------------------

_PLAIN_POTS = {
    "step": PotentialSpec.step([(0.0, PI / 2, 0.0), (PI / 2, PI, 2.0)]),
    "poly": PotentialSpec.poly([(0.0, 1.3, [-1.0, 0.0, 1.0]),
                                (1.3, PI, [0.5, 0.2])]),
    "trig": PotentialSpec.trig([(0.0, PI, [0.7, 0.0, 0.4])]),
    "ctrig": PotentialSpec.trig([(0.0, PI, [1 + 1j, 0.5j, -0.3])]),
    "cstep": PotentialSpec.step([(0.0, 1.0, 0.5 + 1.0j),
                                 (1.0, 2.2, -1.0 - 0.5j), (2.2, PI, 2.0)]),
}
_WIDTH, _MEMBER = 32, 13
_OPS = {
    "scale": lambda g, u: g,
    "mul": lambda g, u: g * u,
    "square": lambda g, u: g * g,
    "add": lambda g, u: g + u,
    "double": lambda g, u: g + g,
    "conj": lambda g, u: g.conj(),
    "antiderivative": lambda g, u: g.antiderivative(),
    "antiderivative of the square": lambda g, u: (g * g).antiderivative(),
}


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def _member_atoms(f, k):
    """Keys and coefficient bytes of member k of f, piece by piece."""
    return [[(key, b"".join(_bits(np.atleast_1d(c)[k]) for c in coeffs))
             for key, coeffs in pc] for pc in f.pieces]


def _branches(f):
    """The antiderivative branches the atoms of f take."""
    kinds = set()
    for i, pc in enumerate(f.pieces):
        h = f.breaks[i + 1] - f.breaks[i]
        for (nu, _), coeffs in pc:
            if nu == 0:
                kinds.add("nu = 0")
            elif abs(nu) * h <= moments._series_threshold(len(coeffs) - 1):
                kinds.add("series")
            else:
                kinds.add("recursion")
    return kinds


@pytest.mark.parametrize("name", sorted(_PLAIN_POTS))
def test_plain_object_is_a_block_of_one(name):
    # a plain object, the same object as a block of one and member k of a
    # block of 32 (all three made by scale) compute the same bits
    u = _PLAIN_POTS[name].piecewise
    xs = np.linspace(0.0, PI, 33)
    c = np.linspace(0.5, 1.5, _WIDTH) - 0.35j
    seen = set()
    for f in (u, u * moments.sin_kernel(0.95, u.breaks),
              u * moments.cos_kernel(9.7, u.breaks)):
        seen |= _branches(f) | _branches(f * f)
        plain = f.scale(c[_MEMBER])
        blocks = ((f.scale(c[_MEMBER:_MEMBER + 1]), 0), (f.scale(c), _MEMBER))
        for op, fn in _OPS.items():
            ref = fn(plain, u)
            for block, k in blocks:
                got = fn(block, u)
                assert _member_atoms(got, k) == _member_atoms(ref, 0), op
                assert _bits(got.eval(xs)[k]) == _bits(ref.eval(xs)), op
                assert _bits(got.eval(1.3)[k]) == _bits(ref.eval(1.3)), op
                assert _bits(got.integral()[k]) == _bits(ref.integral()), op
                assert (_bits(got.integral(0.4, 2.9)[k])
                        == _bits(ref.integral(0.4, 2.9))), op
    assert seen == {"nu = 0", "series", "recursion"}


def test_max_frequency_reads_every_atom():
    breaks = (0.0, 1.0, PI)
    trig = moments.trig_global([[(3, 1.0, 0.0)], [(0, 2.0, 0.0), (1, 0.0, 1.0)]],
                               breaks)
    assert trig.max_frequency() == 3.0
    assert moments.constant(2.0, breaks).max_frequency() == 0.0
    sin_k, _ = moments.harmonic_kernels([1.5, 2.5 + 0.5j], 2, breaks)
    assert sin_k.max_frequency() == pytest.approx(abs(2 * (2.5 + 0.5j)),
                                                  rel=1e-15)
    assert (sin_k * trig).max_frequency() == pytest.approx(
        abs(3 + 2 * (2.5 + 0.5j)), rel=1e-15)


def test_atom_format_stays_inside_moments():
    # the (nu, coeffs) atoms are private to the engine: no other library
    # module names a moments._* helper or reads PiecewiseExp.pieces
    offences = []
    for path in sorted(Path(moments.__file__).parent.glob("*.py")):
        if path.name == "moments.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "moments"):
                offences += [(path.name, node.lineno, alias.name)
                             for alias in node.names
                             if alias.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "pieces"
                    or (node.attr.startswith("_")
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "moments")):
                offences.append((path.name, node.lineno, node.attr))
    assert offences == []


# -- bit pins of the row-wise kernels -------------------------------------------


def _same_bits(got, ref):
    """Coefficient tuples or arrays equal byte for byte, signed zeros too."""
    got, ref = list(map(np.asarray, got)), list(map(np.asarray, ref))
    return (len(got) == len(ref)
            and all(g.shape == r.shape
                    and np.array_equal(g.view(np.uint8), r.view(np.uint8))
                    for g, r in zip(got, ref)))


def _polymul_loop(a, b):
    """The textbook double loop, from zero, trailing zero rows trimmed."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    while len(out) > 1 and not np.any(out[-1]):
        out.pop()
    return out


def _coefficients(rng, degree, width):
    """Random complex coefficients with exact and negative zeros among them."""
    table = (rng.standard_normal((degree + 1, width))
             + 1j * rng.standard_normal((degree + 1, width)))
    zero = rng.random(table.shape)
    table.real[zero < 0.1] = 0.0
    table.imag[(zero > 0.1) & (zero < 0.2)] = -0.0
    table[(zero > 0.2) & (zero < 0.3)] = complex(-0.0, -0.0)
    table[(zero > 0.3) & (zero < 0.35)] = complex(0.0, -0.0)
    if rng.random() < 0.3:
        table[-1] = complex(-0.0, 0.0)      # a trailing zero row to trim
    return tuple(table)


@pytest.mark.parametrize("width", [2, 32])
@pytest.mark.parametrize("shapes", ["plain x plain", "plain x block",
                                    "block x plain", "block x block"])
def test_polymul_keeps_the_double_loop_bits(width, shapes):
    rng = np.random.default_rng(width)
    wa, wb = (1 if s == "plain" else width for s in shapes.split(" x "))
    pairs = [(d, int(rng.integers(0, 43))) for d in range(43)]
    pairs += [(int(rng.integers(0, 43)), d) for d in range(43)]
    for da, db in pairs:
        a = _coefficients(rng, da, wa)
        b = _coefficients(rng, db, wb)
        assert _same_bits(moments._polymul(a, b), _polymul_loop(a, b)), (da, db)


def _mirrored(atoms):
    """Keys of atoms whose mirror (-a, -b) is an atom too."""
    keys = {key for key, _ in atoms}
    return {(a, b) for a, b in keys if (-a, -b) in keys and b != 0}


def _eval_atom_by_atom(atoms, omega, width, s, rows=None):
    """The atoms' sum with one exponential per atom: each evaluated alone.

    Adding the parts in the atoms' order from zero gives the bits of one
    pass, because a sum from +0 never holds -0.
    """
    val = 0
    for atom in atoms:
        val = val + moments._eval_block((atom,), omega, width, s, rows)
    return val


@pytest.mark.parametrize("lam_shift", [0.0, 3j])
def test_shared_phases_keep_the_bits_of_one_exponential_per_atom(lam_shift):
    # real m^2 of a real step: conjugate pairs share a phase, on the 1-D and
    # on the per-member path; at complex lambda (a complex omega) none may
    pot = PotentialSpec.step([(0.0, 0.9, 1.3), (0.9, 2.1, -0.4),
                              (2.1, PI, 0.8)])
    ns = range(1, 21)
    prof = oscillatory._CorrectionProfile(
        pot, [(n - 0.5) ** 2 + lam_shift for n in ns])
    rng = np.random.default_rng(5)
    paired = 0
    for f in (prof.single_sin, prof.double, prof.square_cos,
              prof.single_sin * prof.single_sin.conj()
              if lam_shift == 0 else prof.single_sin * prof.double):
        for i, atoms in enumerate(f.pieces):
            h = f.breaks[i + 1] - f.breaks[i]
            paired += len(_mirrored(atoms))
            s = np.concatenate(([0.0, h], rng.uniform(0.0, h, 200)))
            rows = rng.integers(0, f.width, len(s))
            for r in (None, rows):
                got = moments._eval_block(atoms, f.omega, f.width, s, r)
                ref = _eval_atom_by_atom(atoms, f.omega, f.width, s, r)
                assert _same_bits([got], [ref]), (i, r is None)
    assert paired > 0


def test_mirrors_are_decided_per_member():
    # a block whose omega is real for some members only (a negative and
    # some complex lambdas): each value is the one exponential per atom's,
    # alone or with a shared dict, and a shared dict keeps one phase per
    # pair of a real a where a member's omega is real
    pot = PotentialSpec.step([(0.0, 0.9, 1.3), (0.9, 2.1, -0.4),
                              (2.1, PI, 0.8)])
    lams = [-1.74] + [(n - 0.5) ** 2 + (3j if n % 3 == 0 else 0.0)
                      for n in range(2, 21)]
    prof = oscillatory._CorrectionProfile(pot, lams)
    objects = (prof.single_sin, prof.single_cos, prof.double,
               prof.square_cos)
    omega = objects[0].omega
    assert 0 < np.count_nonzero(omega.imag == 0) < len(omega)
    rng = np.random.default_rng(9)
    for f in objects + (prof.single_sin * prof.double,):
        for i, atoms in enumerate(f.pieces):
            h = f.breaks[i + 1] - f.breaks[i]
            s = np.concatenate(([0.0, h], rng.uniform(0.0, h, 100)))
            for r in (None, rng.integers(0, f.width, len(s))):
                got = moments._eval_block(atoms, f.omega, f.width, s, r)
                ref = _eval_atom_by_atom(atoms, f.omega, f.width, s, r)
                assert _same_bits([got], [ref]), (i, r is None)
    x = np.concatenate((pot.breaks, rng.uniform(0.0, PI, 200)))
    phases = {}
    shared = [f.eval(x, phases) for f in objects]
    assert _same_bits(shared, _evals(objects, x, False))
    for held in phases.values():
        assert not any((-a, -b) in held for a, b in held if b and a.imag == 0)


def test_libm_exp_of_a_negated_imaginary_argument_is_the_conjugate():
    # the exactness of shared phases rests on this: cexp(+-0 + iy) is
    # (cos y, sin y) with cos even and sin odd, bit for bit
    y = np.random.default_rng(11).uniform(-2000.0, 2000.0, 100_000)
    y[:4] = (0.0, -0.0, 2000.0, -2000.0)
    z = np.zeros(len(y), complex)
    z.imag = y
    assert _same_bits([np.exp(-z)], [np.conj(np.exp(z))])


def _evals(objects, x, shared):
    """Each object at x: with one phase dict for all of them, or alone."""
    phases = {} if shared else None
    return [f.eval(x, phases if shared else None) for f in objects]


@pytest.mark.parametrize("lam_shift", [0.0, 3j])
def test_a_phase_dict_shared_by_the_profile_terms_keeps_their_bits(lam_shift):
    # the four terms the gauge samples, on a step and on a trig potential
    # (atoms of frequency a + b omega with a != 0), at real m^2 (a real
    # omega: mirrors are conjugated across objects) and at complex lambda
    # (a complex omega: only equal keys are shared)
    rng = np.random.default_rng(3)
    for pot in (PotentialSpec.step([(0.0, 0.9, 1.3), (0.9, 2.1, -0.4),
                                    (2.1, PI, 0.8)]),
                PotentialSpec.trig([(0.0, 1.2, [0.3, 1.0, -0.5]),
                                    (1.2, PI, [0.2, 0.0, 0.7])])):
        prof = oscillatory._CorrectionProfile(
            pot, [(n - 0.5) ** 2 + lam_shift for n in range(1, 13)])
        objects = (prof.single_sin, prof.single_cos, prof.double,
                   prof.square_cos)
        x = np.concatenate((pot.breaks, rng.uniform(0.0, PI, 300)))
        rows = np.sort(rng.uniform(0.0, PI, (12, 40)), axis=1)
        for at in (x, rows):
            assert _same_bits(_evals(objects, at, True),
                              _evals(objects, at, False))
            assert _same_bits(_evals(objects[::-1], at, True),
                              _evals(objects[::-1], at, False))


@pytest.mark.parametrize("omega", [[1.5, 2.5, 7.25], [1.5, 2.5 + 0.5j, 7.25]])
def test_a_phase_dict_serves_an_object_with_one_atom_of_a_pair(omega):
    # exp(2i omega x) = cos + i sin holds the +2 omega atom alone; beside
    # sin(2 omega x), which holds both, it reads the conjugate of the
    # mirror's phase at a real omega, in either order
    breaks = (0.0, 1.1, PI)
    sin_k, cos_k = moments.harmonic_kernels(omega, 2, breaks)
    up = cos_k + sin_k.scale(1j)
    assert [[key for key, _ in pc] for pc in up.pieces] == [[(0j, 2)]] * 2
    x = np.linspace(0.0, PI, 101)
    for objects in ((sin_k, up), (up, sin_k), (up, cos_k, sin_k)):
        assert _same_bits(_evals(objects, x, True), _evals(objects, x, False))
    ref = np.exp(2j * np.asarray(omega)[:, None] * x)
    assert np.allclose(up.eval(x), ref, rtol=1e-13, atol=1e-13)
