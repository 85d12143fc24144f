"""Every closed form and the oracle against 40-digit mpmath (ROADMAP item 3).

The CLI prints 16 significant digits, so the target is a relative error of
1e-15 at every sampled cell.  Today the routes that take the sine of an
angle reduced mod 2N but not folded towards 0 miss it: near pi the angle's
rounding swamps a small sine.  Measured max
relative errors on the cells sampled below (``default_rng(3)``, 2000 a
machine or a kernel):

* two-term: 1.4e-12, 3.0e-12, 6.7e-12 at (n, x, q_A) = (4087, 5, 16),
  (1007, 5, 20), (4087, 5, 24);
* per-k: 3.7e-13 and 5.3e-13 at (21, 10, 12) and (341, 2, 12), r = 6
  and 10; 1.4e-12 at (4087, 5, 16), r = 330;
* oracle: 2.7e-13, 7.6e-14, 2.2e-14 at (21, 10, 12), (341, 2, 12),
  (1007, 5, 13);
* envelope: 6.8e-16 at most, on the two-term machines and (21, 10, 12),
  at cells and between them.  Each of its two class terms is
  ``fejer_kernel`` at sigma*r/N in lowest terms, whose angles are folded
  into [0, 1/2] turns in integers; reduced mod 2 turns alone, the
  envelope's angles gave 3.0e-12;
* Fejer acceptance: 8.9e-16 at most.  ``fejer_kernel`` folds both angles
  into [0, pi/2] exactly in integers, so it meets the target already;
* within-peak deviation weight: 6.9e-16 at most, with its angle folded
  in the same way (``_sin_turns``); unfolded, sin(pi*delta) near delta = 1
  gave 2.5e-12.

A sampled maximum grows with the sample: a cell whose sine lies next to
pi is off by up to about N ulps.  Folding the angle into [-pi/2, pi/2]
(item 3's fix, as a prototype) takes two-term to 7.2e-16 and
per-k at r = 6 and 10 to 7.5e-16 on the same cells, which flips their
strict xfails.  Per-k at r = 330 keeps 1.7e-14 from its sum over 330
classes, and the oracle's sum of N phasors keeps its error, so those two
stay xfailed after that fix.
"""

from fractions import Fraction

import numpy as np
import pytest

from oracles import oracle_at, per_k_at
from shorsim.distribution import (
    FejerProposal,
    OrderInfo,
    ProblemInstance,
    envelope,
    peak_deviation_prob,
    two_term_at,
)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

#: The error every route has today (the largest measured is 6.7e-12).
TODAY = 1e-11
#: The CLI's 16 printed digits.
TARGET = 1e-15

CELLS = 2000


def machine(n, x, q_A):
    inst = ProblemInstance.create(n, x, q_A)
    return inst, OrderInfo.from_instance(inst)


def exact_law(inst, info, sigma):
    """The two-term law at a rational position sigma, to 40 digits: the
    per-class phasor sums in closed form, which the oracle sums literally."""
    N, r, k0 = inst.N, info.r, info.k0
    large, small = info.M0 + 2, info.M0 + 1
    base = Fraction(sigma) * r / N
    if base.denominator == 1:
        return mp.mpf(k0 * large * large + (r - k0) * small * small) / mp.mpf(N) ** 2

    def sin_sq(size):
        angle = base * size % 2
        return mp.sin(mp.pi * mp.mpf(angle.numerator) / angle.denominator) ** 2

    return (k0 * sin_sq(large) + (r - k0) * sin_sq(small)) / (sin_sq(1) * mp.mpf(N) ** 2)


def exact_acceptance(proposal, t):
    L, Np = proposal.L, proposal.Np
    num, den = proposal._envelope(t)
    t %= Np
    if t == 0:
        kernel = mp.mpf(L * L)
    else:
        kernel = (mp.sin(mp.pi * mp.mpf(L * t) / Np) / mp.sin(mp.pi * mp.mpf(t) / Np)) ** 2
    return kernel * den / num


def max_relative_error(got, exact):
    with mp.workdps(40):
        return max(float(abs(mp.mpf(float(g)) - e) / e) for g, e in zip(got, exact))


def cell_errors(at, machines):
    def error(rng):
        worst = 0.0
        for n, x, q_A in machines:
            inst, info = machine(n, x, q_A)
            cells = rng.integers(0, inst.N, size=CELLS)
            with mp.workdps(40):
                exact = [exact_law(inst, info, int(c)) for c in cells]
            worst = max(worst, max_relative_error(at(inst, info, cells), exact))
        return worst
    return error


def envelope_errors(rng):
    worst = 0.0
    for n, x, q_A in [(4087, 5, 16), (1007, 5, 20), (4087, 5, 24), (21, 10, 12)]:
        inst, info = machine(n, x, q_A)
        # integer cells and positions between them, at 1/1024 steps
        sigmas = [Fraction(int(s), 1024) for s in rng.integers(0, inst.N * 1024, size=CELLS // 2)]
        sigmas += [Fraction(int(c)) for c in rng.integers(0, inst.N, size=CELLS // 2)]
        with mp.workdps(40):
            exact = [exact_law(inst, info, s) for s in sigmas]
        worst = max(worst, max_relative_error([envelope(inst, info, s) for s in sigmas], exact))
    return worst


def deviation_errors(rng):
    ds = [int(d) for d in rng.integers(-5, 6, size=CELLS)]
    deltas = [float(delta) for delta in rng.random(CELLS) if delta > 0.0]
    with mp.workdps(40):
        exact = [mp.sin(mp.pi * mp.mpf(delta)) ** 2 / (mp.pi * (d - mp.mpf(delta))) ** 2
                 for d, delta in zip(ds, deltas)]
    return max_relative_error([peak_deviation_prob(d, delta) for d, delta in zip(ds, deltas)], exact)


def acceptance_errors(rng):
    worst = 0.0
    for L, Np in [(2, 7), (3, 1 << 16), (117, 4097), (1000, 1 << 20), (5, 1 << 24), (1 << 12, 1 << 24)]:
        proposal = FejerProposal(L, Np)
        ts = [int(t) for t in rng.integers(0, Np, size=CELLS)]
        # the kernel's exact zeros come out exactly 0 (both angles are
        # folded in integers), which no relative error measures
        ts = [t for t in ts if t == 0 or L * t % Np]
        with mp.workdps(40):
            exact = [exact_acceptance(proposal, t) for t in ts]
        worst = max(worst, max_relative_error([proposal.acceptance(t) for t in ts], exact))
    return worst


ITEM_3 = "ROADMAP item 3: the sine of an angle in [0, 2pi) loses digits near pi"

ROUTES = {
    "two_term_at": cell_errors(two_term_at, [(4087, 5, 16), (1007, 5, 20), (4087, 5, 24)]),
    "per_k_at": cell_errors(per_k_at, [(21, 10, 12), (341, 2, 12)]),
    "per_k_at at r = 330": cell_errors(per_k_at, [(4087, 5, 16)]),
    "oracle_at": cell_errors(oracle_at, [(21, 10, 12), (341, 2, 12), (1007, 5, 13)]),
    "envelope": envelope_errors,
    "peak_deviation_prob": deviation_errors,
    "FejerProposal.acceptance": acceptance_errors,
}

_errors = {}


def error(route):
    """The route's max relative error, measured once per test session."""
    if route not in _errors:
        _errors[route] = ROUTES[route](np.random.default_rng(3))
    return _errors[route]


@pytest.mark.parametrize("route", ROUTES)
def test_error_is_within_todays_bound(route):
    assert error(route) <= TODAY


@pytest.mark.parametrize("route", [
    pytest.param("two_term_at", marks=pytest.mark.xfail(strict=True, reason=ITEM_3)),
    pytest.param("per_k_at", marks=pytest.mark.xfail(strict=True, reason=ITEM_3)),
    pytest.param("per_k_at at r = 330", marks=pytest.mark.xfail(
        strict=True, reason=ITEM_3 + "; its sum over 330 classes keeps 1.7e-14 after the fix")),
    pytest.param("oracle_at", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 3: the oracle's sum of N phasors, which the fix "
                            "of the sine does not reach")),
    "envelope",
    "peak_deviation_prob",
    "FejerProposal.acceptance",
])
def test_error_is_within_the_printed_digit(route):
    assert error(route) <= TARGET
