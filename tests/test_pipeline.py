"""End-to-end run mechanics: prechecks, continued-fractions recovery,
factor extraction, retry handling, and the recovery guarantee, with the
exhaustive peak sweep over a fixed list of small semiprimes.
"""

import copy
import hashlib
import math
import pickle
from fractions import Fraction

import pytest

from oracles import continued_fraction, peaks
from shorsim import distribution, experiments, number_theory, pipeline
from shorsim.distribution import OrderInfo, ProblemInstance
from shorsim.errors import ContractError, DomainError
from shorsim.experiments import (
    CaptureReport,
    CensusAggregate,
    FailureCensus,
    NeighborReport,
    ValuationModelResult,
)
from shorsim.number_theory import (
    carmichael_lambda,
    multiplicative_order,
    order_from_multiple,
)
from shorsim.pipeline import (
    Classification,
    GuaranteeReport,
    RecoveryResult,
    RetryEvent,
    RetryPolicy,
    RunOutcome,
    extract_factors,
    order_recovery_guarantee,
    precheck,
    recover_order,
    run_once,
    run_with_retries,
    semiprime_factors,
)

SEMIPRIMES = [15, 21, 33, 35, 39, 51, 55, 57]


def coprime_bases(n):
    return [x for x in range(2, n) if math.gcd(x, n) == 1]


def default_q_A(n):
    return (n * n - 1).bit_length()


def first_seed_sampling(n, x, q_A, target_c, limit=4000):
    """Smallest seed whose first draw lands on target_c (deterministic forever)."""
    from shorsim.distribution import sample_states
    from shorsim.rng import SplitMix64

    inst = ProblemInstance.create(n, x, q_A)
    info = OrderInfo.from_instance(inst)
    for seed in range(limit):
        if sample_states(inst, info, SplitMix64(seed), 1)[0] == target_c:
            return seed
    raise AssertionError(f"no seed below {limit} samples c={target_c}")


class TestSemiprimeFactors:
    def test_accepts_odd_distinct_semiprimes(self):
        assert semiprime_factors(15) == (3, 5)
        assert semiprime_factors(21) == (3, 7)
        assert semiprime_factors(9997) == (13, 769)

    @pytest.mark.parametrize("n", [9, 17, 25, 27, 49, 105, 33 * 3, 16, 100])
    def test_rejects_everything_else(self, n):
        assert semiprime_factors(n) is None


class TestPrecheck:
    def test_shared_factor_found(self):
        assert precheck(21, 7) == 7
        assert precheck(21, 6) == 3

    def test_coprime_proceeds(self):
        assert precheck(21, 10) is None
        assert precheck(15, 4) is None

    def test_out_of_range_base(self):
        with pytest.raises(DomainError):
            precheck(21, 1)
        with pytest.raises(DomainError):
            precheck(21, 21)


class TestRecoverOrder:
    def test_guaranteed_cell_recovers_exact_order(self):
        inst = ProblemInstance.create(21, 10, q_A=8)
        rec = recover_order(43, inst)
        assert rec.recovered == Fraction(6, 1)
        assert rec.r_candidate == 6
        assert rec.verified

    def test_zero_state_recovers_nothing(self):
        inst = ProblemInstance.create(21, 10, q_A=8)
        rec = recover_order(0, inst)
        assert rec.recovered is None and rec.r_candidate is None and not rec.verified

    def test_shared_index_factor_collapses_candidate(self):
        # c = 85 sits on the nu = 2 peak; gcd(2, 6) = 2 halves the ratio
        inst = ProblemInstance.create(21, 10, q_A=8)
        rec = recover_order(85, inst)
        assert rec.recovered == Fraction(3, 1)
        assert rec.r_candidate == 3
        assert not rec.verified  # 10^3 = 13 mod 21

    def test_no_convergent_below_modulus(self):
        inst = ProblemInstance.create(21, 10, q_A=8)
        rec = recover_order(1, inst)
        assert rec.recovered is None and rec.r_candidate is None

    def test_verified_flag_is_checked_power(self):
        inst = ProblemInstance.create(21, 10, q_A=9)
        for c in range(1, inst.N, 13):
            rec = recover_order(c, inst)
            if rec.r_candidate is not None:
                assert rec.verified == (pow(10, rec.r_candidate, 21) == 1)

    def test_out_of_range_state_rejected(self):
        inst = ProblemInstance.create(21, 10, q_A=8)
        with pytest.raises(DomainError):
            recover_order(-1, inst)
        with pytest.raises(DomainError):
            recover_order(inst.N, inst)

    def test_recovery_invariants_over_every_state(self):
        # recovered is None exactly when c = 0 or even the first convergent
        # numerator floor(N/c) reaches n; verified always means the power checks
        for n, x, q_A in [(15, 2, 8), (21, 10, 9)]:
            inst = ProblemInstance.create(n, x, q_A)
            for c in range(inst.N):
                rec = recover_order(c, inst)
                assert (rec.recovered is None) == (c == 0 or inst.N // c >= n)
                if rec.recovered is not None:
                    assert rec.r_candidate == rec.recovered.numerator < n
                    assert rec.verified == (pow(x, rec.r_candidate, n) == 1)
                else:
                    assert rec.r_candidate is None and not rec.verified

    def test_recovered_equals_the_literal_convergent_selection(self):
        # the last of continued_fraction(N/c)'s convergents with numerator
        # below n, selected from the whole list
        for n, x, q_A in [(15, 2, 8), (21, 10, 9), (1007, 5, 14)]:
            inst = ProblemInstance.create(n, x, q_A)
            for c in range(1, inst.N):
                below = [cv for cv in continued_fraction(Fraction(inst.N, c)).convergents
                         if cv.numerator < n]
                assert recover_order(c, inst).recovered == (below[-1] if below else None), (n, c)


class TestExtractFactors:
    def test_splits_the_fig_instance(self):
        assert extract_factors(21, 10, 6) == (Classification.SUCCESS, (3, 7))

    def test_trivial_square_root(self):
        # 5^3 = 125 = 20 = n-1 (mod 21)
        assert extract_factors(21, 5, 6) == (Classification.TRIVIAL_SQUARE_ROOT, None)

    def test_odd_order(self):
        assert extract_factors(21, 4, 3) == (Classification.ODD_ORDER, None)

    def test_wrong_power_rejected(self):
        with pytest.raises(ContractError):
            extract_factors(21, 10, 5)

    def test_multiple_of_order_rejected(self):
        with pytest.raises(ContractError):
            extract_factors(21, 10, 12)  # x^6 = 1 already

    def test_non_positive_order_rejected(self):
        # 8^2 = 1 (mod 21): a modular power at r = -2 would pass as 1 and
        # split n with the inverse 8^-1 = 8
        for r in (0, -2):
            with pytest.raises(DomainError):
                extract_factors(21, 8, r)

    def test_even_nontrivial_orders_always_split(self):
        for n in SEMIPRIMES:
            for x in coprime_bases(n):
                r = multiplicative_order(x, n)
                if r % 2 == 1 or pow(x, r // 2, n) == n - 1:
                    continue
                kind, factors = extract_factors(n, x, r)
                assert kind is Classification.SUCCESS
                p, q = factors
                assert 1 < p <= q < n and p * q == n


class TestExhaustiveRecovery:
    """Every peak cell (and its right neighbor) over the fixed semiprime
    list, with the default square-covering register."""

    @pytest.mark.parametrize("n", SEMIPRIMES)
    def test_peak_cells_recover_order_or_known_collapse(self, n):
        q_A = default_q_A(n)
        for x in coprime_bases(n):
            inst = ProblemInstance.create(n, x, q_A)
            info = OrderInfo.from_instance(inst)
            for peak in peaks(inst, info):
                if peak.nu == 0:
                    continue
                mu = math.gcd(peak.nu, info.r)
                for d in (0, 1):
                    rec = recover_order(peak.c_nu + d, inst)
                    assert rec.recovered == Fraction(info.r, peak.nu), (n, x, peak.nu, d)
                    if mu == 1:
                        assert rec.r_candidate == info.r
                        assert rec.verified
                    else:
                        assert rec.r_candidate == info.r // mu
                        assert not rec.verified


class TestRunOnce:
    def test_common_factor_shortcut(self):
        out = run_once(21, 7)
        assert out.classification is Classification.COMMON_FACTOR_SHORTCUT
        assert out.factors == (7, 3)
        assert out.instance is None and out.c is None and out.r_true is None

    def test_seeded_success_path(self):
        seed = first_seed_sampling(21, 10, 8, target_c=43)
        out = run_once(21, 10, q_A=8, seed=seed)
        assert out.c == 43
        assert out.classification is Classification.SUCCESS
        assert out.factors == (3, 7)
        assert out.r_true == 6

    def test_zero_state_classified_zero_peak(self):
        seed = first_seed_sampling(21, 10, 8, target_c=0)
        out = run_once(21, 10, q_A=8, seed=seed)
        assert out.classification is Classification.ZERO_PEAK
        assert out.factors is None

    def test_trivial_square_root_base(self):
        # x = 5 has r = 6 with 5^3 = -1: any verified recovery is terminal
        for seed in range(40):
            out = run_once(21, 5, q_A=9, seed=seed)
            assert out.classification in (
                Classification.TRIVIAL_SQUARE_ROOT,
                Classification.ZERO_PEAK,
                Classification.UNVERIFIED_ORDER,
            )
            if out.recovery is not None and out.recovery.verified:
                assert out.classification is Classification.TRIVIAL_SQUARE_ROOT

    def test_deterministic_given_seed(self):
        assert run_once(21, 10, q_A=9, seed=5) == run_once(21, 10, q_A=9, seed=5)

    def test_non_semiprime_rejected(self):
        for n in (9, 16, 17, 25, 105):
            with pytest.raises(DomainError):
                run_once(n, 2)

    def test_success_outcomes_always_factor(self):
        for seed in range(60):
            out = run_once(21, 10, q_A=9, seed=seed)
            if out.classification is Classification.SUCCESS:
                assert out.factors == (3, 7)
            assert out.retries == []


class TestRunWithRetries:
    def test_multiplier_trial_repairs_collapsed_candidate(self):
        # nu = 3 peak at c = 256 gives candidate 2; mu = 3 restores r = 6
        seed = first_seed_sampling(21, 10, 9, target_c=256)
        out = run_with_retries(21, 10, seed=seed, q_A=9)
        assert out.classification is Classification.SUCCESS
        assert out.factors == (3, 7)
        kinds = [e.kind for e in out.retries]
        assert kinds == ["multiplier_found"]
        assert out.retries[0].multiplier == 3 and out.retries[0].r_candidate == 2

    def test_verified_first_sample_logs_nothing(self):
        seed = first_seed_sampling(21, 10, 9, target_c=85)
        out = run_with_retries(21, 10, seed=seed, q_A=9)
        assert out.classification is Classification.SUCCESS
        assert out.retries == []

    def test_halved_candidate_repaired_by_doubling(self):
        # c = 85 at N = 256 yields candidate 3 (half the order); mu = 2 fixes it
        seed = first_seed_sampling(21, 10, 8, target_c=85)
        out = run_with_retries(21, 10, seed=seed, q_A=8)
        assert out.classification is Classification.SUCCESS
        assert out.factors == (3, 7)
        assert out.retries[0].kind == "multiplier_found"
        assert out.retries[0].r_candidate == 3 and out.retries[0].multiplier == 2

    def test_exhausted_when_budget_disallows_retrying(self):
        seed = first_seed_sampling(21, 10, 9, target_c=256)  # unverified candidate
        policy = RetryPolicy(max_mu=1, max_resamples=0)
        out = run_with_retries(21, 10, policy=policy, seed=seed, q_A=9)
        assert out.classification is Classification.EXHAUSTED
        assert out.factors is None

    def test_zero_peak_is_resampled(self):
        seed = first_seed_sampling(21, 10, 9, target_c=0)
        out = run_with_retries(21, 10, seed=seed, q_A=9)
        assert any(e.kind == "resample" for e in out.retries)
        assert out.classification is Classification.SUCCESS

    def test_zero_peak_without_budget_exhausts(self):
        seed = first_seed_sampling(21, 10, 9, target_c=0)
        policy = RetryPolicy(max_mu=64, max_resamples=0)
        out = run_with_retries(21, 10, policy=policy, seed=seed, q_A=9)
        assert out.classification is Classification.EXHAUSTED

    def test_opportunistic_factor_logged_but_not_acted_on(self):
        # c = 256 gives the even candidate 2; with the multiplier budget too
        # small to find mu = 3, the gcd probe on the candidate still spots a
        # factor of 21 (10^1 - 1 = 9 shares 3), which is logged only
        seed = first_seed_sampling(21, 10, 9, target_c=256)
        policy = RetryPolicy(max_mu=2, max_resamples=0)
        out = run_with_retries(21, 10, policy=policy, seed=seed, q_A=9)
        assert out.classification is Classification.EXHAUSTED
        assert out.factors is None
        kinds = [e.kind for e in out.retries]
        assert kinds == ["multiplier_exhausted", "opportunistic_factor"]
        assert out.retries[1].factor in (3, 7)

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            RetryPolicy(max_mu=0)
        with pytest.raises(DomainError):
            RetryPolicy(max_resamples=-1)
        with pytest.raises(DomainError):
            RetryPolicy()._replace(max_resamples=-1)
        with pytest.raises(DomainError):
            RetryPolicy._make((0, 4))
        assert RetryPolicy() == (64, 4) and RetryPolicy._make((2, 0)) == RetryPolicy(2, 0)

    def test_first_attempt_matches_run_once(self):
        for seed in range(12):
            single = run_once(21, 10, q_A=9, seed=seed)
            retried = run_with_retries(21, 10, seed=seed, q_A=9)
            if not retried.retries:
                assert retried == single  # untouched run is bit-for-bit the single attempt
            elif retried.retries[0].kind == "resample":
                assert single.classification in (
                    Classification.ZERO_PEAK, Classification.UNVERIFIED_ORDER,
                )
            else:
                assert retried.retries[0].c == single.c  # multiplier scan ran on the same draw

    def test_deterministic_outcome_and_log(self):
        a = run_with_retries(21, 10, seed=17, q_A=9)
        b = run_with_retries(21, 10, seed=17, q_A=9)
        assert a == b

    def test_base_level_failures_are_terminal(self):
        # x = 20 has order 2 with 20 = -1 (mod 21): every verified recovery
        # is a trivial square root and must not be retried
        for seed in range(30):
            out = run_with_retries(21, 20, seed=seed, q_A=9)
            if out.classification is Classification.TRIVIAL_SQUARE_ROOT:
                assert not any(e.kind == "resample" and e.c == out.c for e in out.retries[:-1])
                break
        else:
            raise AssertionError("no trivial-square-root outcome observed")

    def test_common_factor_shortcut_passthrough(self):
        out = run_with_retries(21, 14, seed=0)
        assert out.classification is Classification.COMMON_FACTOR_SHORTCUT
        assert out.factors == (7, 3)


class TestGuarantee:
    def test_square_covering_register_guarantees(self):
        rep = order_recovery_guarantee(ProblemInstance.create(21, 10, q_A=9))
        assert rep.size_ok and rep.holds
        assert rep.delta_min == pytest.approx(1 / 420)
        assert rep.max_delta_c_d0 < rep.delta_min
        assert rep.max_delta_c_d1 < rep.delta_min

    def test_undersized_register_flagged(self):
        rep = order_recovery_guarantee(ProblemInstance.create(21, 10, q_A=8))
        assert not rep.size_ok and not rep.holds

    def test_margin_minimum_formula(self):
        rep = order_recovery_guarantee(ProblemInstance.create(21, 10, q_A=9))
        assert rep.r == 6
        assert rep.margin_min == pytest.approx(1 / 42)
        # 1/(r(r+1)) is the smallest gap over peak indices
        gaps = [(rep.r - nu) / (rep.r * (rep.r + 1)) for nu in range(1, rep.r)]
        assert min(gaps) == pytest.approx(rep.margin_min)

    def test_guarantee_holds_across_default_registers(self):
        for n in SEMIPRIMES:
            x = coprime_bases(n)[0]
            rep = order_recovery_guarantee(ProblemInstance.create(n, x))
            assert rep.holds, n


# The run grid whose outcomes are pinned: a shared-factor base, bases of
# every order class, the default and a narrow register (which misses the
# peaks often enough to exercise every retry action), and four policies.
RUN_GRID = {
    15: (2, 5, 7, 14),
    21: (2, 4, 5, 7, 10, 20),
    33: (2, 4, 5, 10, 11, 32),
    1007: (2, 3, 5, 19, 1006),
}
RUN_POLICIES = (None, RetryPolicy(1, 0), RetryPolicy(2, 0), RetryPolicy(64, 0))


def run_grid_reprs(n):
    """The reprs of run_once and run_with_retries over the pinned grid for n."""
    lines = []
    for x in RUN_GRID[n]:
        for q_A in (None, default_q_A(n) - 3):
            for seed in range(30):
                lines.append(repr(run_once(n, x, q_A=q_A, seed=seed)))
                for policy in RUN_POLICIES:
                    lines.append(repr(run_with_retries(n, x, policy=policy, seed=seed, q_A=q_A)))
    return "\n".join(lines)


# SHA-256 of run_grid_reprs(n): the reprs of 0.7.0 with their one
# difference cut out, the ProblemInstance field q_B that 0.8.0 removed
# (the reprs of 0.7.0 gave the digests taken when run_once and
# run_with_retries were still two separate copies of the attempt).
PINNED_RUNS = {
    15: "1b6d45137625402a966b4ac076adfcf6ffe75f7f13c71dfabbf4b0e2db4d6845",
    21: "f4cc29d569a87e05c35267619b0744be62b85cab50b017850f73b75f64b9595a",
    33: "de961cd8d23d6547baffac6d0a5b0763a0d5b2b07770d7cfe240a9d0e3d6ef3b",
    1007: "914874bd63c29e0f40d3c44c469615a442db91f47e08578ef288a667de4621bb",
}

# The wide-register grid: n = 46327 * 46337 near the top of the run range.
# Its Fejer proposals draw bounds of two words (q_A 40) and three words
# (q_A 62, the default), and N/c expands into long continued fractions.
WIDE_N = 46327 * 46337
WIDE_BASES = (2, 3, 5, WIDE_N - 1)


def wide_run_reprs(q_A):
    """The reprs of run_once and run_with_retries over the wide grid at q_A."""
    lines = []
    for x in WIDE_BASES:
        for seed in range(20):
            lines.append(repr(run_once(WIDE_N, x, q_A=q_A, seed=seed)))
            for policy in RUN_POLICIES:
                lines.append(repr(run_with_retries(WIDE_N, x, policy=policy, seed=seed, q_A=q_A)))
    return "\n".join(lines)


# SHA-256 of wide_run_reprs(q_A): the reprs of 0.7.0 with q_B cut out, as
# above (those of 0.7.0 gave the digests taken while convergents were
# still selected from the list of Fractions and every Lemire draw ran the
# multiword loop).
PINNED_WIDE_RUNS = {
    62: "6841bbefb9d64d9201b50fc7106aba70d68176851b9ef336604e2dc2f2adff5e",
    40: "b5d814401015a3074567bed91e8d038f87d305b5196dab69c83bc4912cebfb18",
}


class TestRunRoute:
    @pytest.mark.parametrize("n", PINNED_RUNS)
    def test_outcomes_are_pinned(self, n):
        digest = hashlib.sha256(run_grid_reprs(n).encode()).hexdigest()
        assert digest == PINNED_RUNS[n]

    @pytest.mark.parametrize("q_A", PINNED_WIDE_RUNS)
    def test_wide_register_outcomes_are_pinned(self, q_A):
        digest = hashlib.sha256(wide_run_reprs(q_A).encode()).hexdigest()
        assert digest == PINNED_WIDE_RUNS[q_A]

    @pytest.mark.parametrize("run", [run_once, run_with_retries])
    def test_modulus_is_trial_divided_once(self, monkeypatch, run):
        n = 46327 * 46337
        original = number_theory._distinct_prime_factors
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        for module in (number_theory, distribution, pipeline, experiments):
            if getattr(module, "_distinct_prime_factors", None) is original:
                monkeypatch.setattr(module, "_distinct_prime_factors", counted)
        run(n, 3, seed=1)
        assert calls.count(n) == 1

    @pytest.mark.parametrize("x", [2, 3, 5, 7])
    def test_lambda_and_candidates_are_never_trial_divided(self, monkeypatch, x):
        # safe primes: lambda = 2 * 22943 * 23099 costs ~11 500 trial steps,
        # p - 1 and q - 1 about 80 each
        p, q = 45887, 46199
        n = p * q
        original = number_theory._distinct_prime_factors
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(number_theory, "_distinct_prime_factors", counted)
        out = run_with_retries(n, x, seed=1)
        assert calls == [n, p - 1, q - 1]
        assert out.r_true == order_from_multiple(x, n, (p - 1) * (q - 1) // 2)

    @pytest.mark.parametrize("x", [2, 3, 5, 46326])
    def test_order_at_the_top_of_the_modulus_range(self, x):
        # the brute walk would take up to 2^31 steps here: check the order's
        # defining property instead, over the primes of r by trial division
        n = 46327 * 46337
        r = run_once(n, x, seed=0).r_true
        assert pow(x, r, n) == 1
        rest, f, primes = r, 2, []
        while f * f <= rest:
            if rest % f == 0:
                primes.append(f)
                while rest % f == 0:
                    rest //= f
            f += 1
        primes += [rest] if rest > 1 else []
        assert primes
        for f in primes:
            assert pow(x, r // f, n) != 1, (x, r, f)


def odd_semiprimes_below(limit):
    return [n for n in range(15, limit, 2) if semiprime_factors(n) is not None]


def literal_multiplier(n, x, candidate, max_mu):
    """The multiplier scan the run route made before it read the order:
    the first mu in 2..max_mu with x**(mu*candidate) = 1 (mod n)."""
    for mu in range(2, max_mu + 1):
        if pow(x, mu * candidate, n) == 1:
            return mu
    return None


def literal_run(n, x, q_A, seed, policy):
    """The run route as it was before it read the order: the literal
    multiplier scan, and every verified multiple reduced to the order by
    order_from_multiple.  The differential oracle of the pipeline."""
    from shorsim.distribution import sample_states
    from shorsim.rng import SplitMix64

    g = precheck(n, x)
    if g is not None:
        return pipeline.RunOutcome(n=n, x=x, instance=None, c=None, recovery=None,
                                   classification=Classification.COMMON_FACTOR_SHORTCUT,
                                   factors=(g, n // g), r_true=None)
    inst = ProblemInstance.create(n, x, q_A)
    lam, primes = carmichael_lambda(n)
    info = OrderInfo.from_multiple(inst, lam, primes)
    rng = SplitMix64(seed)

    def resolve(rec):
        if rec.c == 0:
            return Classification.ZERO_PEAK, None
        if not rec.verified:
            return Classification.UNVERIFIED_ORDER, None
        return extract_factors(n, x, order_from_multiple(x, n, rec.r_candidate))

    events = []
    rec = recover_order(sample_states(inst, info, rng, 1)[0], inst)
    resamples = 0
    while True:
        kind, factors = resolve(rec)
        if policy is None or kind not in (Classification.ZERO_PEAK,
                                          Classification.UNVERIFIED_ORDER):
            break
        if kind is Classification.UNVERIFIED_ORDER and rec.r_candidate is not None:
            mu = literal_multiplier(n, x, rec.r_candidate, policy.max_mu)
            if mu is not None:
                events.append(pipeline.RetryEvent("multiplier_found", rec.c, rec.r_candidate, mu))
                exact = order_from_multiple(x, n, mu * rec.r_candidate)
                kind, factors = extract_factors(n, x, exact)
                break
            events.append(pipeline.RetryEvent("multiplier_exhausted", rec.c, rec.r_candidate))
            lucky = pipeline._opportunistic_factor(n, x, rec.r_candidate)
            if lucky is not None:
                events.append(pipeline.RetryEvent("opportunistic_factor", rec.c,
                                                  rec.r_candidate, factor=lucky))
        if resamples >= policy.max_resamples:
            kind, factors = Classification.EXHAUSTED, None
            break
        c = sample_states(inst, info, rng, 1)[0]
        resamples += 1
        events.append(pipeline.RetryEvent("resample", c=c))
        rec = recover_order(c, inst)
    return pipeline.RunOutcome(n=n, x=x, instance=inst, c=rec.c, recovery=rec,
                               classification=kind, factors=factors, r_true=info.r,
                               retries=events)


class TestOrderIsRead:
    """The run reads the order r it reduced before its first draw; the
    literal multiplier scan and the peak sweep are the oracles."""

    def test_multiplier_closed_form_equals_the_literal_scan(self):
        checked = 0
        for n in odd_semiprimes_below(160):
            for x in coprime_bases(n):
                r = multiplicative_order(x, n)
                for candidate in range(1, n):
                    if pow(x, candidate, n) == 1:
                        continue  # verified: a multiple of r
                    mu = r // math.gcd(r, candidate)
                    for max_mu in (1, 2, 3, 64):
                        closed = mu if mu <= max_mu else None
                        assert literal_multiplier(n, x, candidate, max_mu) == closed, (
                            n, x, candidate, max_mu)
                        checked += 1
        assert checked > 600_000

    @pytest.mark.parametrize("n", odd_semiprimes_below(100))
    def test_runs_equal_the_literal_route(self, n):
        for x in coprime_bases(n)[::3] + [n - 1]:
            for q_A in (None, default_q_A(n) - 3):
                for seed in range(4):
                    for policy in (None, RetryPolicy(1, 0), RetryPolicy(2, 1),
                                   RetryPolicy(3, 0), RetryPolicy()):
                        got = (run_once(n, x, q_A=q_A, seed=seed) if policy is None
                               else run_with_retries(n, x, policy=policy, seed=seed, q_A=q_A))
                        assert got == literal_run(n, x, q_A, seed, policy), (n, x, q_A, seed)

    def test_one_order_reduction_per_run(self, monkeypatch):
        original = number_theory.order_from_multiple
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (number_theory, distribution, pipeline, experiments):
            if getattr(module, "order_from_multiple", None) is original:
                monkeypatch.setattr(module, "order_from_multiple", counted)
        kinds = set()
        for x in (2, 4, 5, 8, 10, 11, 13, 16, 20):
            for q_A in (9, 6):
                for seed in range(25):
                    calls.clear()
                    out = run_with_retries(21, x, seed=seed, q_A=q_A)
                    assert len(calls) == 1, (x, q_A, seed)
                    kinds.update(e.kind for e in out.retries)
                    if out.recovery is not None and out.recovery.verified:
                        kinds.add("verified")
        assert {"verified", "multiplier_found", "resample"} <= kinds
        calls.clear()
        run_with_retries(21, 14, seed=0)  # shared factor: no order at all
        assert calls == []


def literal_guarantee_maxima(inst):
    """max_delta_c_d0 and max_delta_c_d1 by the sweep over every peak."""
    pk = peaks(inst, OrderInfo.from_instance(inst))
    return (max(p.delta_nu for p in pk) / inst.N,
            max(1.0 - p.delta_nu for p in pk) / inst.N)


class TestGuaranteeClosedForm:
    def test_equals_the_peak_sweep_bit_for_bit(self):
        checked = 0
        for n in odd_semiprimes_below(300):
            for x in coprime_bases(n):
                for q_A in (3, 6, None):
                    inst = ProblemInstance.create(n, x, q_A)
                    rep = order_recovery_guarantee(inst)
                    d0, d1 = literal_guarantee_maxima(inst)
                    assert (rep.max_delta_c_d0, rep.max_delta_c_d1) == (d0, d1), (n, x, q_A)
                    assert rep.holds == (rep.size_ok and max(d0, d1) < rep.delta_min)
                    checked += 1
        assert checked > 7000

    def test_large_order_lists_no_peak(self):
        # r is far above the peak cap, so a sweep would be refused
        rep = order_recovery_guarantee(ProblemInstance.create(2119933513, 3, q_A=8))
        assert rep.r == 529960357
        assert rep.max_delta_c_d0 == (rep.r - 1) / rep.r / 256
        assert not rep.size_ok and not rep.holds


_INSTANCE = dict(n=21, x=10, q_A=9)
_RECOVERY = dict(c=85, recovered=Fraction(6, 1), r_candidate=6, verified=True)
_NEIGHBORS = dict(n=21, x=10, q_A=9, r=6, nu=[1], c_nu=[85], delta_nu=[0.3333333333333333],
                  results={-1: [None], 0: [(3, 7)], 1: [(3, 7)], 2: [None]},
                  neighbors_differ=[(-1, 2)], changed_neighbors=2, changed_within_guarantee=0)

#: (record, keyword fields, repr) for every public record; each repr was
#: taken while the records were dataclasses, except ProblemInstance's,
#: which has no q_B field since 0.8.0, and NeighborReport's, whose probes
#: are columns since 0.9.8
RECORDS = [
    (ProblemInstance, _INSTANCE, "ProblemInstance(n=21, x=10, q_A=9, N=512)"),
    (OrderInfo, dict(r=6, M0=84, k0=2, delta_min=1 / 420),
     "OrderInfo(r=6, M0=84, k0=2, delta_min=0.002380952380952381)"),
    (RecoveryResult, _RECOVERY,
     "RecoveryResult(c=85, recovered=Fraction(6, 1), r_candidate=6, verified=True)"),
    (RetryPolicy, dict(max_mu=8, max_resamples=0), "RetryPolicy(max_mu=8, max_resamples=0)"),
    (RetryEvent, dict(kind="resample", c=5),
     "RetryEvent(kind='resample', c=5, r_candidate=None, multiplier=None, factor=None)"),
    (GuaranteeReport, dict(n=21, x=10, q_A=9, N=512, r=6, delta_min=1 / 420,
                           max_delta_c_d0=1 / 768, max_delta_c_d1=1 / 512,
                           margin_min=1 / 42, size_ok=True, holds=True),
     "GuaranteeReport(n=21, x=10, q_A=9, N=512, r=6, delta_min=0.002380952380952381, "
     "max_delta_c_d0=0.0013020833333333333, max_delta_c_d1=0.001953125, "
     "margin_min=0.023809523809523808, size_ok=True, holds=True)"),
    (RunOutcome, dict(n=21, x=10, instance=ProblemInstance(**_INSTANCE), c=85,
                      recovery=RecoveryResult(**_RECOVERY), classification=Classification.SUCCESS,
                      factors=(3, 7), r_true=6,
                      retries=[RetryEvent(kind="multiplier_found", c=43, r_candidate=3, multiplier=2)]),
     "RunOutcome(n=21, x=10, instance=ProblemInstance(n=21, x=10, q_A=9, N=512), c=85, "
     "recovery=RecoveryResult(c=85, recovered=Fraction(6, 1), r_candidate=6, verified=True), "
     "classification=<Classification.SUCCESS: 'Success'>, factors=(3, 7), r_true=6, "
     "retries=[RetryEvent(kind='multiplier_found', c=43, r_candidate=3, multiplier=2, factor=None)])"),
    (CensusAggregate, dict(count=2, total_x=19, total_odd=3, total_trivial=4,
                           aggregate_bad_fraction=7 / 19, mean_bad_fraction=0.375,
                           max_bad_fraction=0.45454545454545453, bound_ok=True),
     "CensusAggregate(count=2, total_x=19, total_odd=3, total_trivial=4, "
     "aggregate_bad_fraction=0.3684210526315789, mean_bad_fraction=0.375, "
     "max_bad_fraction=0.45454545454545453, bound_ok=True)"),
    (ValuationModelResult, dict(trials=1000, matched_valuations=80, both_odd=250,
                                p_a=0.25, p_b=0.08, p_fail=0.33),
     "ValuationModelResult(trials=1000, matched_valuations=80, both_odd=250, "
     "p_a=0.25, p_b=0.08, p_fail=0.33)"),
    (CaptureReport, dict(n=21, x=10, q_A=9, samples=1000, exact_value=0.8105694691387022,
                         sampled_fraction=0.811),
     "CaptureReport(n=21, x=10, q_A=9, samples=1000, exact_value=0.8105694691387022, "
     "sampled_fraction=0.811)"),
    (NeighborReport, _NEIGHBORS,
     "NeighborReport(n=21, x=10, q_A=9, r=6, nu=[1], c_nu=[85], delta_nu=[0.3333333333333333], "
     "results={-1: [None], 0: [(3, 7)], 1: [(3, 7)], 2: [None]}, neighbors_differ=[(-1, 2)], "
     "changed_neighbors=2, changed_within_guarantee=0)"),
    (FailureCensus, dict(n=21, p1=3, p2=7, num_x=11, odd_r=2, trivial_sqrt=3,
                         fraction_bad=5 / 11),
     "FailureCensus(n=21, p1=3, p2=7, num_x=11, odd_r=2, trivial_sqrt=3, "
     "fraction_bad=0.45454545454545453)"),
]


class TestRecords:
    @pytest.mark.parametrize("record, fields, pinned", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_semantics(self, record, fields, pinned):
        value = record(**fields)
        assert {name: getattr(value, name) for name in fields} == fields
        assert repr(value) == pinned
        assert isinstance(value, tuple) and value == tuple(value)
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.note = "extra"
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*copies, copy.deepcopy(value)):
            assert type(copied) is record and copied == value and repr(copied) == pinned

    def test_instance_keeps_N_on_every_route(self):
        inst = ProblemInstance.create(21, 10)
        wider = inst._replace(q_A=10)
        assert (wider.q_A, wider.N) == (10, 1024)
        remade = ProblemInstance._make(tuple(inst))
        assert type(remade) is ProblemInstance and remade == inst
        with pytest.raises(DomainError, match="N must be 2\\^q_A = 1024, got 512"):
            ProblemInstance._make((21, 10, 10, 512))
        with pytest.raises(TypeError):
            inst._replace(N=1024)
        with pytest.raises(TypeError):
            ProblemInstance(21, 10, 9, 512)
        with pytest.raises(DomainError):
            inst._replace(x=7)
        with pytest.raises(DomainError):
            ProblemInstance._make((21, 10, 0, 1))

    def test_outcomes_get_their_own_retry_log(self):
        fields = dict(n=21, x=3, instance=None, c=None, recovery=None,
                      classification=Classification.COMMON_FACTOR_SHORTCUT, factors=(3, 7),
                      r_true=None)
        first, second = RunOutcome(**fields), RunOutcome(**fields)
        assert first.retries == [] and first.retries is not second.retries
        first.retries.append(RetryEvent(kind="resample", c=1))
        assert second.retries == [] and RunOutcome(**fields).retries == []
