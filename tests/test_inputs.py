"""The library's input contract: each public callable of ``shorsim``, given
one junk value for one numeric argument of a valid call, returns, raises
DomainError or raises ResourceError, and does so within two seconds."""

import math
import signal
from typing import NamedTuple

import numpy as np
import pytest

import shorsim
from shorsim import (
    FejerProposal,
    OrderInfo,
    ProblemInstance,
    RetryPolicy,
    SplitMix64,
    capture_rate_empirical,
    carmichael_lambda,
    census_sweep,
    envelope,
    extract_factors,
    failure_census,
    fejer_kernel,
    multiplicative_order,
    neighbor_state_check,
    order_from_multiple,
    peak_columns,
    peak_deviation_prob,
    precheck,
    recover_order,
    run_once,
    run_with_retries,
    sample_states,
    semiprime_factors,
    two_term_at,
    two_term_prefix_sums,
    valuation_model_mc,
)
from shorsim.errors import ContractError, DomainError, ResourceError

# the ROADMAP's list of junk values, and a numpy integer
JUNK = [1.5, "3", None, True, -1, 0, math.nan, math.inf, -math.inf, 10**40, -10**40, 2.0, np.int64(3)]
JUNK_IDS = ["1.5", "'3'", "None", "True", "-1", "0", "nan", "inf", "-inf", "10**40", "-10**40", "2.0",
            "np.int64(3)"]

INST = ProblemInstance.create(21, 10, 8)
INFO = OrderInfo.from_instance(INST)


class Call(NamedTuple):
    function: object  # called with the keyword arguments of valid
    valid: dict       # a valid call; each of its numeric arguments is replaced in turn
    raises: tuple = (DomainError, ResourceError)


CALLS = {
    "FejerProposal": Call(FejerProposal, dict(L=4, Np=16)),
    "OrderInfo.from_multiple": Call(lambda multiple: OrderInfo.from_multiple(INST, multiple),
                                    dict(multiple=6)),
    "ProblemInstance": Call(ProblemInstance, dict(n=21, x=10, q_A=8)),
    "ProblemInstance.create": Call(ProblemInstance.create, dict(n=21, x=10, q_A=8)),
    "ProblemInstance.default_q_A": Call(ProblemInstance.default_q_A, dict(n=21)),
    "RetryPolicy": Call(RetryPolicy, dict(max_mu=64, max_resamples=4)),
    "SplitMix64": Call(SplitMix64, dict(seed=0)),
    "SplitMix64.advance": Call(lambda count: SplitMix64(0).advance(count), dict(count=3)),
    "SplitMix64.uint64_block": Call(lambda count: SplitMix64(0).uint64_block(count), dict(count=3)),
    "SplitMix64.random_block": Call(lambda count: SplitMix64(0).random_block(count), dict(count=3)),
    "capture_rate_empirical": Call(capture_rate_empirical, dict(n=21, x=10, q_A=9, samples=1000, seed=0)),
    "carmichael_lambda": Call(carmichael_lambda, dict(n=21)),
    "census_sweep": Call(census_sweep, dict(nmax=100)),
    "envelope": Call(lambda sigma: envelope(INST, INFO, sigma), dict(sigma=42.5)),
    # a whole number that is not the order of x breaks the documented
    # precondition, a ContractError
    "extract_factors": Call(extract_factors, dict(n=21, x=10, r=6),
                            (DomainError, ResourceError, ContractError)),
    "failure_census": Call(failure_census, dict(n=21)),
    "fejer_kernel": Call(fejer_kernel, dict(L=4, Np=16, t=3)),
    "multiplicative_order": Call(multiplicative_order, dict(x=10, n=21)),
    "neighbor_state_check": Call(neighbor_state_check, dict(n=21, x=10, q_A=9)),
    "order_from_multiple": Call(order_from_multiple, dict(x=10, n=21, multiple=6, primes=[2, 3])),
    "peak_columns": Call(lambda start, stop: peak_columns(INST, INFO, start, stop), dict(start=0, stop=6)),
    "peak_deviation_prob": Call(peak_deviation_prob, dict(d=0, delta_nu=0.25)),
    "precheck": Call(precheck, dict(n=21, x=10)),
    "recover_order": Call(lambda c: recover_order(c, INST), dict(c=43)),
    "run_once": Call(run_once, dict(n=21, x=10, q_A=9, seed=0)),
    "run_with_retries": Call(run_with_retries, dict(n=21, x=10, seed=0, q_A=9)),
    "sample_states": Call(lambda count: sample_states(INST, INFO, SplitMix64(0), count), dict(count=5)),
    "semiprime_factors": Call(semiprime_factors, dict(n=21)),
    "two_term_at": Call(lambda c: two_term_at(INST, INFO, c), dict(c=[0, 43])),
    "two_term_prefix_sums": Call(lambda cells: two_term_prefix_sums(INST, INFO, cells), dict(cells=[0, 43])),
    "valuation_model_mc": Call(valuation_model_mc, dict(trials=1000, seed=0)),
}

# callables whose arguments are all objects (an instance, its order info, rows)
# or that take none
NO_NUMBER = {"capture_probability_d01", "census_aggregate", "figure1_instance",
             "order_recovery_guarantee"}

# records that hold what they are given, and the enumeration of outcomes
RECORDS = {"CaptureReport", "CensusAggregate", "Classification", "FailureCensus",
           "GuaranteeReport", "NeighborReport", "OrderInfo", "RecoveryResult",
           "RetryEvent", "RunOutcome", "ValuationModelResult"}


class TimedOut(Exception):
    """The call ran past its time bound."""


def within(seconds, function, **kwargs):
    """function(**kwargs), or TimedOut once `seconds` of wall time pass."""
    def alarm(_signum, _frame):
        raise TimedOut(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return function(**kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_public_callable_is_in_the_table():
    public = {name for name in dir(shorsim) if not name.startswith("_")
              and callable(getattr(shorsim, name))
              and not (isinstance(getattr(shorsim, name), type)
                       and issubclass(getattr(shorsim, name), Exception))}
    listed = {name.partition(".")[0] for name in CALLS}
    assert public == listed | NO_NUMBER | RECORDS


@pytest.mark.parametrize("name", CALLS)
def test_the_valid_call_returns(name):
    call = CALLS[name]
    within(2.0, call.function, **call.valid)


@pytest.mark.parametrize("junk", JUNK, ids=JUNK_IDS)
@pytest.mark.parametrize("name, argument", [(name, argument) for name, call in CALLS.items()
                                            for argument in call.valid])
def test_a_junk_argument_is_a_result_or_a_domain_or_resource_error(name, argument, junk):
    call = CALLS[name]
    try:
        within(2.0, call.function, **dict(call.valid, **{argument: junk}))
    except call.raises:
        pass


@pytest.mark.parametrize("function, args", [
    (semiprime_factors, (math.inf,)),  # never returned
    (carmichael_lambda, (math.inf,)),  # never returned
    (multiplicative_order, (3, 10**40)),  # walked on
    (ProblemInstance.create, (21, 10, np.int64(64))),  # built N = 0
    (run_once, (np.int64(21), 10)),  # AttributeError
    (RetryPolicy, (1.5, 0)),  # built
    (capture_rate_empirical, (21, 10, 9, True)),  # a report of True samples
    (capture_rate_empirical, (21, 10, 9, 2.5)),  # TypeError
    (valuation_model_mc, (True,)),  # a report of True trials
    (valuation_model_mc, (2.5,)),  # TypeError
    (lambda count: sample_states(INST, INFO, SplitMix64(0), count), (True,)),  # one state
    (lambda count: sample_states(INST, INFO, SplitMix64(0), count), (2.5,)),  # TypeError
    (order_from_multiple, (10, 21, 6, 3)),  # TypeError
    (order_from_multiple, (10, 21, 6, [1.5])),  # TypeError
    (order_from_multiple, (10, 21, 6, ["3"])),  # TypeError
    (order_from_multiple, (10, 21, 6, [0])),  # ZeroDivisionError
    (order_from_multiple, (10, 21, 6, [True])),  # hung: rest % True is always 0
    (order_from_multiple, (10, 21, 6, [np.int64(3)])),  # taken as a prime
], ids=["semiprime_factors-inf", "carmichael_lambda-inf", "multiplicative_order-10**40",
        "create-np.int64(64)", "run_once-np.int64(21)", "RetryPolicy-1.5", "capture-True",
        "capture-2.5", "valuation-True", "valuation-2.5", "sample_states-True", "sample_states-2.5",
        "primes-3", "primes-[1.5]", "primes-['3']", "primes-[0]", "primes-[True]", "primes-[np.int64(3)]"])
def test_an_input_that_once_hung_or_slipped_through_is_refused(function, args):
    with pytest.raises((DomainError, ResourceError)):
        within(2.0, lambda: function(*args))
