"""Census, valuation-model Monte Carlo, capture rates, neighbor probes,
and the reference-instance dump.

The closed-form census is checked against a literal per-base sweep kept
here as the oracle: orders read from per-prime primitive-root tables
(themselves checked against the brute-force order walk) and combined by
lcm, with the matched-valuation test for trivial square roots (checked
against direct modular powers).

The block-wise Monte Carlo routes are pinned by SHA-256 of their reprs,
taken from the whole-array routes they replaced, and checked against
those routes, kept here as oracles: trailing zeros of whole word arrays
for the valuation model, and inverse-CDF draws from the built vector for
the capture rate.
"""

import hashlib
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shorsim import distribution, experiments
from shorsim.distribution import OrderInfo, ProblemInstance, peaks, sample, two_term_distribution
from shorsim.errors import DomainError, ResourceError
from shorsim.experiments import (
    MAX_CENSUS_NMAX,
    FailureCensus,
    capture_rate_empirical,
    census_aggregate,
    census_rows,
    census_sweep,
    failure_census,
    figure1_data,
    neighbor_state_check,
    semiprimes_below,
    valuation_model_mc,
)
from shorsim.number_theory import mod_pow, multiplicative_order
from shorsim.pipeline import Classification, extract_factors
from shorsim.rng import SplitMix64

SEMIPRIMES = [15, 21, 33, 35, 39, 51, 55, 57]


@lru_cache(maxsize=None)
def _prime_order_table(p):
    """orders[x] = multiplicative order of x mod p, for 1 <= x < p.

    Built by walking a primitive root g: the order of g**i is
    (p-1)/gcd(p-1, i).
    """
    group = p - 1
    prime_factors = []
    rest, f = group, 2
    while f * f <= rest:
        if rest % f == 0:
            prime_factors.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        prime_factors.append(rest)
    g = 2
    while any(pow(g, group // f, p) == 1 for f in prime_factors):
        g += 1
    orders = np.zeros(p, dtype=np.int64)
    value = 1
    for i in range(group):
        orders[value] = group // math.gcd(group, i)
        value = value * g % p
    return orders


def sweep_census(n, p, q):
    """The census of n = p*q by classifying every base 1 < x < n.

    r = lcm(order mod p, order mod q); the base is odd-order when r is
    odd, and a trivial square root when the two per-prime orders share
    the same positive 2-adic valuation (exactly then x**(r/2) is -1 mod
    both primes, hence mod n).
    """
    xs = np.arange(2, n, dtype=np.int64)
    xp = xs % p
    xq = xs % q
    coprime = (xp != 0) & (xq != 0)
    r1 = _prime_order_table(p)[xp[coprime]]
    r2 = _prime_order_table(q)[xq[coprime]]
    v1 = np.log2((r1 & -r1).astype(np.float64)).astype(np.int64)
    v2 = np.log2((r2 & -r2).astype(np.float64)).astype(np.int64)
    odd = (v1 == 0) & (v2 == 0)  # r = lcm(r1, r2) is odd iff both are odd
    trivial = (v1 == v2) & (v1 >= 1)
    num_x = int(coprime.sum())
    n_odd = int(odd.sum())
    n_trivial = int(trivial.sum())
    return FailureCensus(
        n=n, p1=p, p2=q,
        num_x=num_x,
        odd_r=n_odd,
        trivial_sqrt=n_trivial,
        good=num_x - n_odd - n_trivial,
        common_factor_skipped=int((~coprime).sum()),
        fraction_odd=n_odd / num_x,
        fraction_trivial_sqrt=n_trivial / num_x,
        fraction_bad=(n_odd + n_trivial) / num_x,
    )


def _is_odd_prime(m):
    return m > 2 and m % 2 == 1 and all(m % f for f in range(3, math.isqrt(m) + 1, 2))


def _next_prime(m):
    while not _is_odd_prime(m):
        m += 1
    return m


SMALL_ODD_PRIMES = [p for p in range(3, 1000) if _is_odd_prime(p)]


def brute_classification(n, x):
    r = multiplicative_order(x, n)
    if r % 2 == 1:
        return "odd"
    if mod_pow(x, r // 2, n) == n - 1:
        return "trivial"
    return "good"


def _two_adic_draws(rng, count):
    """count trailing-zero counts of raw words, the whole array at once
    (the all-zero word, probability 2**-64, counts as 64)."""
    words = rng.uint64_block(count)
    lowbit = words & (~words + np.uint64(1))
    with np.errstate(divide="ignore"):
        tz = np.where(words == 0, 64.0, np.log2(lowbit.astype(np.float64)))
    return tz.astype(np.int64)


def whole_array_valuation(trials, seed):
    """(matched_valuations, both_odd) from whole valuation arrays."""
    rng = SplitMix64(seed)
    k1 = _two_adic_draws(rng, trials)
    k2 = _two_adic_draws(rng, trials)
    return int(((k1 == k2) & (k1 >= 1)).sum()), int(((k1 == 0) & (k2 == 0)).sum())


def inverse_cdf_capture(n, x, q_A, samples, seed):
    """(exact value, sampled fraction) from the built vector: peak cells
    read from it, and inverse-CDF draws placed in cells and classified by
    their nearest peak."""
    inst = ProblemInstance.create(n, x, q_A)
    info = OrderInfo.from_instance(inst)
    p = two_term_distribution(inst, info).probabilities
    exact = float(sum(p[pk.c_nu] + p[pk.c_nu + 1] for pk in peaks(inst, info)))
    cs = np.asarray(sample(two_term_distribution(inst, info), seed, samples), dtype=np.int64)
    nu_near = np.rint(cs * info.r / inst.N).astype(np.int64)
    d = cs - (nu_near * inst.N) // info.r
    return exact, int(((d == 0) | (d == 1)).sum()) / samples


class TestSemiprimeEnumeration:
    def test_list_below_100(self):
        assert [t[0] for t in semiprimes_below(100)] == [
            15, 21, 33, 35, 39, 51, 55, 57, 65, 69, 77, 85, 87, 91, 93, 95,
        ]

    def test_factors_are_correct(self):
        for n, p, q in semiprimes_below(2000):
            assert p < q and p * q == n and n % 2 == 1

    def test_excludes_squares_and_prime_powers(self):
        values = {t[0] for t in semiprimes_below(200)}
        assert {9, 25, 27, 45, 49, 63, 75, 99, 105, 121, 125, 135, 147, 165, 169, 175, 189, 195} & values == set()

    @pytest.mark.parametrize("limit", [0, 15, 16, 22, 3000])
    @pytest.mark.parametrize("size", [1, 7, 1 << 16])
    def test_matches_a_literal_scan_in_any_chunks(self, monkeypatch, limit, size):
        monkeypatch.setattr(experiments, "_BLOCK", size)
        scan = []
        for n in range(limit):
            p = next((f for f in range(3, math.isqrt(n) + 1, 2) if n % f == 0), None)
            if n % 2 and p and p * p != n and _is_odd_prime(n // p) and n // p != p:
                scan.append((n, p, n // p))
        assert semiprimes_below(limit) == scan
        assert [(r.n, r.p1, r.p2) for r in census_rows(limit)] == scan


class TestOrderTables:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101])
    def test_table_matches_brute_force_walk(self, p):
        table = _prime_order_table(p)
        for x in range(1, p):
            assert int(table[x]) == multiplicative_order(x, p), (p, x)


class TestFailureCensus:
    def test_fig_modulus_counts(self):
        c = failure_census(21)
        assert (c.n, c.p1, c.p2) == (21, 3, 7)
        assert c.num_x == 11  # 1 < x < 21 coprime to 21
        assert c.odd_r == 2  # x in {4, 16}, order 3
        assert c.trivial_sqrt == 3  # x in {5, 17, 20}
        assert c.good == 6
        assert c.fraction_bad == pytest.approx(5 / 11)

    def test_counts_partition_tested_bases(self):
        for n in SEMIPRIMES:
            c = failure_census(n)
            assert c.odd_r + c.trivial_sqrt + c.good == c.num_x
            assert c.num_x + c.common_factor_skipped == n - 2

    def test_common_factor_count_is_totient_complement(self):
        for n, p, q in semiprimes_below(200):
            c = failure_census(n)
            phi = (p - 1) * (q - 1)
            assert c.num_x == phi - 1  # x = 1 excluded
            assert c.common_factor_skipped == (n - 2) - (phi - 1)

    @pytest.mark.parametrize("n", SEMIPRIMES)
    def test_matches_brute_force_classification(self, n):
        expected = {"odd": 0, "trivial": 0, "good": 0}
        for x in range(2, n):
            if math.gcd(x, n) != 1:
                continue
            expected[brute_classification(n, x)] += 1
        c = failure_census(n)
        assert (c.odd_r, c.trivial_sqrt, c.good) == (
            expected["odd"], expected["trivial"], expected["good"],
        )

    def test_matches_direct_power_on_sampled_larger_moduli(self):
        import random

        rnd = random.Random(606)
        rows = semiprimes_below(10_000)
        for n, p, q in rnd.sample(rows, 25):
            tp, tq = _prime_order_table(p), _prime_order_table(q)
            xs = [x for x in rnd.sample(range(2, n), min(60, n - 2))
                  if x % p != 0 and x % q != 0]
            for x in xs:
                r1, r2 = int(tp[x % p]), int(tq[x % q])
                r = r1 * r2 // math.gcd(r1, r2)
                v1, v2 = (r1 & -r1).bit_length() - 1, (r2 & -r2).bit_length() - 1
                assert mod_pow(x, r, n) == 1
                if r % 2 == 0:
                    assert (mod_pow(x, r // 2, n) == n - 1) == (v1 == v2 >= 1), (n, x)
                else:
                    assert v1 == v2 == 0

    def test_classification_consistent_with_factor_extraction(self):
        for n in SEMIPRIMES:
            for x in range(2, n):
                if math.gcd(x, n) != 1:
                    continue
                kind, factors = extract_factors(n, x, multiplicative_order(x, n))
                expected = {
                    Classification.ODD_ORDER: "odd",
                    Classification.TRIVIAL_SQUARE_ROOT: "trivial",
                    Classification.SUCCESS: "good",
                }[kind]
                assert expected == brute_classification(n, x)
                if kind is Classification.SUCCESS:
                    assert factors[0] * factors[1] == n

    def test_non_semiprime_rejected(self):
        for n in (9, 10, 17, 25, 105):
            with pytest.raises(DomainError):
                failure_census(n)

    def test_closed_form_matches_sweep_below_10k(self):
        rows = semiprimes_below(10_000)
        assert len(rows) == 1932
        expected = [sweep_census(n, p, q) for n, p, q in rows]
        assert [failure_census(n) for n, _p, _q in rows] == expected
        assert census_sweep(10_000) == expected

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_closed_form_matches_sweep_on_random_semiprimes(self, data):
        p = data.draw(st.sampled_from(SMALL_ODD_PRIMES), label="p")
        q = _next_prime(data.draw(st.integers(min_value=p + 1, max_value=(10**6 - 1) // p)))
        assume(p * q < 10**6)
        assert failure_census(p * q) == sweep_census(p * q, p, q)

    def test_sweep_is_capped(self):
        with pytest.raises(ResourceError):
            census_sweep(MAX_CENSUS_NMAX + 1)

    def test_half_bound_over_moderate_sweep(self):
        rows = census_sweep(1500)
        assert rows and all(r.fraction_bad <= 0.5 for r in rows)

    @pytest.mark.parametrize("nmax, pinned", [
        (100, "CensusAggregate(count=16, total_x=656, total_odd=84, total_trivial=116, "
              "aggregate_bad_fraction=0.3048780487804878, mean_bad_fraction=0.3051461263081252, "
              "max_bad_fraction=0.4915254237288136, bound_ok=True)"),
        (10_000, "CensusAggregate(count=1932, total_x=8166964, total_odd=1051466, "
                 "total_trivial=1311354, aggregate_bad_fraction=0.289314364554564, "
                 "mean_bad_fraction=0.2941315304477971, max_bad_fraction=0.4999482348069158, "
                 "bound_ok=True)"),
    ])
    def test_aggregate_of_a_stream_is_pinned(self, nmax, pinned):
        # reprs taken when the aggregate summed a held list of rows
        assert repr(census_aggregate(census_rows(nmax))) == pinned
        assert repr(census_aggregate(census_sweep(nmax))) == pinned

    def test_aggregate_matches_its_definition_in_any_order(self):
        rows = census_sweep(3000)
        for ordered in (rows, rows[::-1], sorted(rows, key=lambda r: -r.fraction_bad)):
            agg = census_aggregate(iter(ordered))
            assert agg.count == len(rows)
            assert (agg.total_x, agg.total_odd, agg.total_trivial) == (
                sum(r.num_x for r in rows), sum(r.odd_r for r in rows),
                sum(r.trivial_sqrt for r in rows))
            assert agg.max_bad_fraction == max(r.fraction_bad for r in rows)
            assert agg.mean_bad_fraction == pytest.approx(
                math.fsum(r.fraction_bad for r in rows) / len(rows), rel=1e-14)
            assert agg.bound_ok
        two = census_aggregate(iter([failure_census(21), failure_census(15)]))
        assert two.max_bad_fraction == 5 / 11  # the first row's
        assert two.mean_bad_fraction == (5 / 11 + 1 / 7) / 2

    def test_rows_stream_in_order(self):
        rows = census_rows(5000)
        assert iter(rows) is rows  # a generator, not a list
        assert list(rows) == census_sweep(5000)

    def test_rows_check_the_cap_on_the_call(self):
        with pytest.raises(ResourceError):
            census_rows(MAX_CENSUS_NMAX + 1)

    def test_aggregate_of_no_rows_is_a_domain_error(self):
        with pytest.raises(DomainError):
            census_aggregate(iter(()))

    def test_aggregate_fields(self):
        rows = census_sweep(300)
        agg = census_aggregate(rows)
        assert agg.count == len(rows)
        assert agg.total_x == sum(r.num_x for r in rows)
        assert 0 < agg.aggregate_bad_fraction < 0.5
        assert agg.bound_ok


class TestValuationModel:
    def test_estimates_match_analytic_values(self):
        res = valuation_model_mc(1_000_000, seed=0)
        assert res.p_a == pytest.approx(0.25, abs=0.005)
        assert res.estimate == pytest.approx(1 / 12, abs=0.005)
        assert res.p_fail == pytest.approx(1 / 3, abs=0.01)

    def test_estimate_is_matched_over_trials(self):
        res = valuation_model_mc(10_000, seed=5)
        assert res.estimate == res.matched_valuations / res.trials
        assert res.p_fail == (res.both_odd + res.matched_valuations) / res.trials

    def test_deterministic_per_seed(self):
        assert valuation_model_mc(50_000, seed=9) == valuation_model_mc(50_000, seed=9)

    def test_disjoint_seeds_agree_within_five_sigma(self):
        trials = 200_000
        a = valuation_model_mc(trials, seed=1)
        b = valuation_model_mc(trials, seed=2)
        p = 1 / 12
        sigma = math.sqrt(2 * p * (1 - p) / trials)
        assert abs(a.estimate - b.estimate) <= 5 * sigma

    def test_valuation_distribution_matches_model(self):
        # P(k = j) = 2^-(j+1): check the first few bins at 10 sigma
        draws = _two_adic_draws(SplitMix64(3), 400_000)
        for j in range(6):
            p = 2.0 ** -(j + 1)
            freq = float((draws == j).sum()) / len(draws)
            sigma = math.sqrt(p * (1 - p) / len(draws))
            assert abs(freq - p) <= 10 * sigma, j

    def test_rejects_empty_run(self):
        with pytest.raises(DomainError):
            valuation_model_mc(0)


class TestCaptureRate:
    def test_spread_displacements_approach_average(self):
        # instances whose peak displacements cover the unit interval evenly
        reports = [
            capture_rate_empirical(21, 10, 9, samples=20_000, seed=3),
            capture_rate_empirical(35, 11, 11, samples=20_000, seed=3),
            capture_rate_empirical(55, 16, 12, samples=20_000, seed=3),
        ]
        mean_exact = sum(r.exact_value for r in reports) / len(reports)
        assert mean_exact == pytest.approx(0.902, abs=0.02)

    def test_integer_peaks_capture_everything(self):
        rep = capture_rate_empirical(15, 2, 8, samples=5_000, seed=0)
        assert rep.exact_value == pytest.approx(1.0, abs=1e-9)
        assert rep.sampled_fraction == 1.0

    def test_sampled_tracks_exact_within_binomial_bounds(self):
        rep = capture_rate_empirical(21, 10, 9, samples=50_000, seed=11)
        sigma = math.sqrt(rep.exact_value * (1 - rep.exact_value) / rep.samples)
        assert abs(rep.sampled_fraction - rep.exact_value) <= 4 * sigma

    def test_exact_value_is_sampling_free(self):
        a = capture_rate_empirical(21, 10, 9, samples=100, seed=1)
        b = capture_rate_empirical(21, 10, 9, samples=9_999, seed=77)
        assert a.exact_value == b.exact_value

    def test_undersized_register_rejected(self):
        with pytest.raises(DomainError):
            capture_rate_empirical(21, 10, 8, samples=10, seed=0)


# The capture grid: bases with r | N (n = 15) and without, the default
# register and two wider ones.
CAPTURE_GRID = {15: (2, 7), 21: (2, 10), 1007: (5,), 899: (7,)}


def capture_reprs(n):
    q0 = ProblemInstance.default_q_A(n)
    return "\n".join(
        repr(capture_rate_empirical(n, x, q_A, 5000, seed=seed))
        for x in CAPTURE_GRID[n] for q_A in range(q0, q0 + 3) for seed in (0, 5)
    )


def valuation_reprs(trials):
    return "\n".join(repr(valuation_model_mc(trials, seed=seed)) for seed in (0, 3, 2**64 - 1))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of capture_reprs(n) and valuation_reprs(trials), taken when
# capture built the whole vector and drew from its CDF, and the valuation
# model held whole arrays of trailing-zero counts.
PINNED_CAPTURE = {
    15: "9d9c30e0a4ac8b2303e46f5231838aca727f63ff3ce70207314b221518f7ac61",
    21: "a6a379acfed22ccbcc6d54b90d45af1cec8744368acc49b5e3e3a8d8293ac2e2",
    1007: "b574943c50594b267d3a7483239fd985da7afe1575f7ed482db4aa7466bcb772",
    899: "18ae7e41dcc4146be09ba239d7a2bb6a4e72274bb52ed0e03651cffbd8e6fd2f",
}
PINNED_VALUATION = {
    1: "d6be52c823889be07876f73e900499dcddccbc3de8d6631bd80951cdddad4f5c",
    1000: "f052a519924054a3d392b1ff6d20b9660abba9d848c39a31419ab6311a1fc5c6",
    (1 << 16) - 1: "1b6452212eb2f8ff4e45e2ab664d2ab304855ebbb7e5f0f3817ac7c58da146f2",
    1 << 16: "09a9489bafd8205a52d8ec0079edab39c4ce50ee135d32bfd43f9b927d6a09da",
    (1 << 16) + 1: "d5a592e59acc570db0f43b1406480a335ee9f2c7f0f2ef9cfadeff162023b7fe",
    10**6: "32f1b34a6420126e7357073929d99a750a23c3f42f077a609778c62a8c2c74bf",
}
BLOCK_SIZES = (1, 7, (1 << 16) + 1)


def patch_blocks(monkeypatch, size):
    monkeypatch.setattr(distribution, "_BLOCK_CELLS", size)
    monkeypatch.setattr(experiments, "_BLOCK", size)


class TestBlockwiseMonteCarlo:
    @pytest.mark.parametrize("n", PINNED_CAPTURE)
    def test_capture_is_pinned(self, n):
        assert sha256(capture_reprs(n)) == PINNED_CAPTURE[n]

    @pytest.mark.parametrize("trials", PINNED_VALUATION)
    def test_valuation_is_pinned(self, trials):
        assert sha256(valuation_reprs(trials)) == PINNED_VALUATION[trials]

    # one-cell blocks cost a pass per cell, so only the smallest grid
    @pytest.mark.parametrize("n, size", [(15, 1), (15, 7), (21, 7), (15, 1 << 16 | 1), (21, 1 << 16 | 1)])
    def test_capture_does_not_depend_on_the_blocks(self, monkeypatch, n, size):
        patch_blocks(monkeypatch, size)
        assert sha256(capture_reprs(n)) == PINNED_CAPTURE[n]

    @pytest.mark.parametrize("size, trials", [
        (size, trials) for size in BLOCK_SIZES for trials in PINNED_VALUATION
        if trials <= 1000 * size  # at most a thousand blocks a call
    ])
    def test_valuation_does_not_depend_on_the_blocks(self, monkeypatch, size, trials):
        patch_blocks(monkeypatch, size)
        assert sha256(valuation_reprs(trials)) == PINNED_VALUATION[trials]

    @pytest.mark.parametrize("case", [
        (15, 2, 8, 3000, 1),  # r | N: every draw is a peak cell
        (21, 10, 9, 20_000, 11),
        (33, 5, 11, 20_000, 0),
        (55, 16, 12, 20_000, 3),
        (1007, 5, 20, 100_000, 4),
    ])
    def test_capture_matches_inverse_cdf_draws(self, case):
        n, x, q_A, samples, seed = case
        rep = capture_rate_empirical(n, x, q_A, samples, seed=seed)
        assert (rep.exact_value, rep.sampled_fraction) == inverse_cdf_capture(*case)

    @pytest.mark.parametrize("trials", [1, 999, (1 << 16) + 3, 300_000])
    @pytest.mark.parametrize("seed", [0, 12])
    def test_valuation_matches_whole_arrays(self, trials, seed):
        res = valuation_model_mc(trials, seed=seed)
        assert (res.matched_valuations, res.both_odd) == whole_array_valuation(trials, seed)

    def test_capture_keeps_the_register_cap(self):
        with pytest.raises(ResourceError):
            capture_rate_empirical(4097, 3, 25, samples=10, seed=0)


class TestNeighborCheck:
    def test_no_neighbor_changes_on_guaranteed_instance(self):
        rep = neighbor_state_check(21, 10, 9)
        assert rep.r == 6
        assert {p.nu for p in rep.probes} == {1, 5}  # coprime peak indices
        assert rep.changed_within_guarantee == 0
        for probe in rep.probes:
            results = dict(probe.results)
            assert results[0] == results[1] == (6, probe.nu)

    @pytest.mark.parametrize("n,x,q_A", [(15, 7, 8), (35, 11, 11), (57, 5, 12), (55, 21, 12)])
    def test_guaranteed_cells_always_agree(self, n, x, q_A):
        rep = neighbor_state_check(n, x, q_A)
        for probe in rep.probes:
            results = dict(probe.results)
            assert results[0] == results[1] == (rep.r, probe.nu)
        assert rep.changed_within_guarantee == 0

    def test_far_from_peak_fails_regardless_of_neighbors(self):
        from shorsim.distribution import ProblemInstance
        from shorsim.pipeline import recover_order

        inst = ProblemInstance.create(21, 10, q_A=9)
        for c in (49, 50, 51):  # mid-gap between the nu = 0 and nu = 1 peaks
            rec = recover_order(c, inst)
            assert not rec.verified

    def test_undersized_register_rejected(self):
        with pytest.raises(DomainError):
            neighbor_state_check(21, 10, 8)


class TestFigureData:
    def test_reference_instance_shape(self):
        inst, dist, pk = figure1_data()
        assert (inst.n, inst.x, inst.q_A, inst.N) == (21, 10, 8, 256)
        assert len(dist.probabilities) == 256
        assert len(pk) == 6
        assert abs(dist.total - 1.0) < 1e-9

    def test_heaviest_states_are_annotated_peak_cells(self):
        _inst, dist, pk = figure1_data()
        top6 = set(np.argsort(dist.probabilities)[-6:].tolist())
        # the heavier of floor/ceiling per peak: ceiling iff delta > 1/2
        expected = {p.c_nu + (1 if p.delta_nu > 0.5 else 0) for p in pk}
        assert top6 == expected == {0, 43, 85, 128, 171, 213}
