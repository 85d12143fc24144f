"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured figure and runtime.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from oracles import oracle_at, peaks, per_k_at
from shorsim.distribution import (
    OrderInfo,
    ProblemInstance,
    capture_probability_d01,
    two_term_at,
)
from shorsim.experiments import census_aggregate, census_sweep, figure1_instance, valuation_model_mc
from shorsim.number_theory import multiplicative_order
from shorsim.pipeline import Classification, recover_order, run_with_retries

SEMIPRIME_LIST = [15, 21, 33, 35, 39, 51, 55, 57]


def _announce(num: int, name: str, detail: str, elapsed: float):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}; {elapsed:.2f}s]")


def test_criterion_1_closed_forms_match_oracle():
    started = time.perf_counter()
    instances = [(15, x) for x in range(2, 15) if math.gcd(x, 15) == 1] + [(21, 10)]
    worst = 0.0
    for n, x in instances:
        inst = ProblemInstance.create(n, x, q_A=8)
        info = OrderInfo.from_instance(inst)
        cells = np.arange(inst.N)
        reference = oracle_at(inst, info, cells)
        for at in (per_k_at, two_term_at):
            gap = float(np.max(np.abs(at(inst, info, cells) - reference)))
            worst = max(worst, gap)
            assert gap < 1e-10, (n, x, at.__name__, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _announce(1, "closed forms vs oracle", f"max entrywise gap {worst:.2e}", elapsed)


def test_criterion_2_reference_figure_reproduction():
    started = time.perf_counter()
    inst, info = figure1_instance()
    p, peak_models = two_term_at(inst, info, np.arange(inst.N)), peaks(inst, info)
    assert inst.N == 256 and len(p) == 256
    assert abs(float(p.sum()) - 1.0) < 1e-9
    top6 = set(np.argsort(p)[-6:].tolist())
    annotated = {p.c_nu + (1 if p.delta_nu > 0.5 else 0) for p in peak_models}
    assert annotated == {0, 43, 85, 128, 171, 213}
    assert top6 == annotated
    elapsed = time.perf_counter() - started
    _announce(2, "reference figure", f"peak cells {sorted(top6)}", elapsed)


def test_criterion_3_capture_probability_quadrature():
    started = time.perf_counter()
    value = capture_probability_d01()
    elapsed = time.perf_counter() - started
    assert abs(value - 0.902) <= 0.002
    assert elapsed < 1.0
    _announce(3, "capture probability", f"value {value:.6f}", elapsed)


def _recovery_sweep():
    """Yield (n, x, r, nu, mu, d, recovery) over the exhaustive peak sweep."""
    for n in SEMIPRIME_LIST:
        q_A = (n * n - 1).bit_length()
        for x in range(2, n):
            if math.gcd(x, n) != 1:
                continue
            inst = ProblemInstance.create(n, x, q_A)
            assert inst.N >= n * n
            r = multiplicative_order(x, n)
            info = OrderInfo.from_instance(inst)
            assert info.r == r
            for peak in peaks(inst, info):
                if peak.nu == 0:
                    continue
                mu = math.gcd(peak.nu, r)
                for d in (0, 1):
                    yield n, x, r, peak.nu, mu, d, recover_order(peak.c_nu + d, inst)


def test_criterion_4_exhaustive_order_recovery_guarantee():
    started = time.perf_counter()
    checked = 0
    for n, x, r, nu, mu, d, rec in _recovery_sweep():
        if mu != 1:
            continue
        assert rec.r_candidate == r and rec.verified, (n, x, nu, d)
        assert rec.recovered.denominator == nu
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(4, "exhaustive recovery", f"{checked} peak cells, zero exceptions", elapsed)


def test_criterion_5_shared_factor_collapse():
    started = time.perf_counter()
    checked = 0
    for n, x, r, nu, mu, d, rec in _recovery_sweep():
        if mu == 1:
            continue
        assert rec.r_candidate == r // mu, (n, x, nu, d)
        assert rec.recovered.denominator == nu // mu
        assert not rec.verified
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _announce(5, "collapsed candidates", f"{checked} peak cells, all r/mu", elapsed)


def test_criterion_6_failure_census_bounds():
    started = time.perf_counter()
    rows = census_sweep(10_000)
    agg = census_aggregate(rows)
    for row in rows:
        assert row.fraction_bad <= 0.5, row.n
    assert 1 / 3 - 0.1 <= agg.aggregate_bad_fraction <= 1 / 3 + 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _announce(
        6, "failure census",
        f"{agg.count} semiprimes, aggregate {agg.aggregate_bad_fraction:.4f}, "
        f"max {agg.max_bad_fraction:.4f}",
        elapsed,
    )


def test_criterion_7_valuation_model_monte_carlo():
    started = time.perf_counter()
    res = valuation_model_mc(1_000_000, seed=0)
    elapsed = time.perf_counter() - started
    assert abs(res.p_a - 0.25) <= 0.005
    assert abs(res.p_b - 1 / 12) <= 0.005
    assert abs(res.p_fail - 1 / 3) <= 0.01
    assert elapsed < 10.0
    _announce(
        7, "valuation model",
        f"p_a {res.p_a:.4f}, p_b {res.p_b:.4f}, p_fail {res.p_fail:.4f}",
        elapsed,
    )


def test_criterion_8_end_to_end_seeded_runs():
    started = time.perf_counter()
    outcomes = [run_with_retries(21, 10, seed=seed, q_A=9) for seed in range(1000)]
    successes = [o for o in outcomes if o.classification is Classification.SUCCESS]
    for o in successes:
        assert o.factors == (3, 7)
    fraction = len(successes) / len(outcomes)
    assert fraction > 0.8
    # determinism spot check: replaying seeds reproduces outcome and retry log
    for seed in (0, 1, 499, 999):
        assert run_with_retries(21, 10, seed=seed, q_A=9) == outcomes[seed]
    elapsed = time.perf_counter() - started
    tally = Counter(o.classification.value for o in outcomes)
    _announce(8, "end-to-end runs", f"success fraction {fraction:.3f}, tally {dict(tally)}", elapsed)


def test_criterion_9_desk_scale_coverage_documented():
    # Everything quantitative is covered by criteria 1-8 at desk scale; the
    # one untestable assumption (real bases behaving like the idealized
    # independent-valuation model) is handled by the census band of
    # criterion 6 and called out in the README.
    started = time.perf_counter()
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "independen" in text.lower()  # the documented model caveat
    assert "census" in text.lower()
    elapsed = time.perf_counter() - started
    _announce(9, "desk-scale coverage", "model caveat documented in README", elapsed)
