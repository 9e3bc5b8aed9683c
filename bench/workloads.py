"""Seeded inputs for the three benchmark workloads.

Every workload is a list of CLI requests on generated potential files.  The
seed changes the shape of each potential (breakpoints, the order and exact
value of the coefficients) but not its strength class, so that two seeds of
one workload do the same kind and amount of work:

* heights are drawn one per equal sub-interval of their range and then
  shuffled over the pieces (``_strata``), so each height is uniform on the
  stated range while the set always spans it;
* smooth potentials are rescaled to a fixed supremum, attained near pi.

Only the generated files reach the program; the seed never does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

PI = math.pi


@dataclass(frozen=True)
class Request:
    """One CLI call: ``slspec <command> --potential <file> <args>``."""

    name: str               # file stem of the potential and its outputs
    command: str            # validate | spectrum
    doc: dict               # potential JSON document
    args: tuple             # CLI arguments after the potential path
    n_values: tuple         # indices the request attempts


def _breaks(rng: random.Random, pieces: int, min_gap: float) -> list:
    """Sorted breakpoints of [0, pi] with every piece at least min_gap long."""
    while True:
        cuts = sorted(rng.uniform(0.0, PI) for _ in range(pieces - 1))
        breaks = [0.0] + cuts + [PI]
        if min(b - a for a, b in zip(breaks, breaks[1:])) >= min_gap:
            return breaks


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """One uniform draw from each of count equal sub-intervals, shuffled."""
    width = (hi - lo) / count
    vals = [lo + width * (k + rng.random()) for k in range(count)]
    rng.shuffle(vals)
    return vals


def _step_doc(breaks, re, im=None) -> dict:
    pieces = []
    for k, (a, b) in enumerate(zip(breaks, breaks[1:])):
        piece = {"from": a, "to": b, "coeffs_re": [re[k]]}
        if im is not None:
            piece["coeffs_im"] = [im[k]]
        pieces.append(piece)
    return {"kind": "step", "pieces": pieces}


def validate_step(rng: random.Random) -> list:
    """Real 6-piece step, heights uniform in [-2, 2], validate n = 1..150."""
    doc = _step_doc(_breaks(rng, 6, 0.15), _strata(rng, 6, -2.0, 2.0))
    return [Request("step", "validate", doc,
                    ("--n-max", "150", "--jobs", "1"), tuple(range(1, 151)))]


def validate_smooth(rng: random.Random) -> list:
    """Real 2-piece quadratic, sup|u| = 1.5, u(pi) >= 1.2, validate n = 1..20.

    The fixed supremum bounds the cost of the scan fallback (unscaled draws
    ran from seconds to many minutes).  Draws are repeated until |u(pi)| is
    at least 0.8 sup|u|, and the sign makes u(pi) positive: that puts a
    Robin-type bound state below zero, so n = 1 takes the scan route on
    every seed.  With u(pi) below about 0.5 it takes the bracket route and
    the pass is 20% shorter.
    """
    while True:
        breaks = _breaks(rng, 2, 0.8)
        coeffs = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(2)]
        sup = 0.0
        for (a, b), c in zip(zip(breaks, breaks[1:]), coeffs):
            t = np.linspace(a, b, 2049)
            sup = max(sup, float(np.abs(c[0] + c[1] * t + c[2] * t * t).max()))
        last = coeffs[-1]
        u_pi = last[0] + last[1] * PI + last[2] * PI * PI
        if abs(u_pi) >= 0.8 * sup:
            break
    scale = math.copysign(1.5 / sup, u_pi)
    doc = {"kind": "poly", "pieces": [
        {"from": a, "to": b, "coeffs_re": [scale * v for v in c]}
        for (a, b), c in zip(zip(breaks, breaks[1:]), coeffs)]}
    return [Request("poly", "validate", doc,
                    ("--n-max", "20", "--jobs", "1"), tuple(range(1, 21)))]


def spectrum_complex(rng: random.Random) -> list:
    """Complex 2-mode trig (n = 1..16) and complex 3-piece step (n = 1..200).

    The trig coefficients are rescaled to sum |c_k|^2 = 2, the strength of
    u = (1+i) sin t.  Step heights have real parts in [-1, 1] and imaginary
    parts in [-3, 3]; strong imaginary steps are where the secant drifts at
    low n.
    """
    re = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    im = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    norm = math.sqrt(sum(a * a + b * b for a, b in zip(re, im)) / 2.0)
    trig = {"kind": "trig", "pieces": [
        {"from": 0.0, "to": PI, "coeffs_re": [a / norm for a in re],
         "coeffs_im": [b / norm for b in im]}]}
    step = _step_doc(_breaks(rng, 3, 0.3), _strata(rng, 3, -1.0, 1.0),
                     _strata(rng, 3, -3.0, 3.0))
    args = ("--n-min", "1", "--method", "both", "--jobs", "1")
    return [
        Request("trig", "spectrum", trig, args + ("--n-max", "16"),
                tuple(range(1, 17))),
        Request("cstep", "spectrum", step, args + ("--n-max", "200"),
                tuple(range(1, 201))),
    ]


WORKLOADS = {
    "validate-step": validate_step,
    "validate-smooth": validate_smooth,
    "spectrum-complex": spectrum_complex,
}


def requests(workload: str, seed: int) -> list:
    """The workload's requests for one seed; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
