"""shorsim: classical simulator and analysis toolkit for the measurement
statistics of quantum order finding.

Exact output distributions over the measured register, deterministic
sampling, continued-fractions order recovery, factor extraction with
retry handling, and exhaustive success/failure experiments over small
semiprimes.
"""

from .distribution import (
    MAX_ORACLE_QUBITS,
    MAX_REGISTER_QUBITS,
    MAX_RUN_MODULUS,
    METHOD_ORACLE,
    METHOD_PER_K,
    METHOD_TWO_TERM,
    FejerProposal,
    OrderInfo,
    OutputDistribution,
    PeakModel,
    ProblemInstance,
    capture_probability_d01,
    envelope,
    fejer_kernel,
    oracle_distribution,
    peak_deviation_prob,
    peaks,
    per_k_distribution,
    sample,
    sample_from,
    sample_states,
    two_term_at,
    two_term_distribution,
    two_term_prefix_sums,
)
from .errors import ContractError, DomainError, NoOrderError, ResourceError
from .experiments import (
    CENSUS_HEURISTIC_LIMIT,
    MAX_CENSUS_NMAX,
    CaptureReport,
    CensusAggregate,
    FailureCensus,
    NeighborProbe,
    NeighborReport,
    ValuationModelResult,
    capture_rate_empirical,
    census_aggregate,
    census_rows,
    census_sweep,
    failure_census,
    figure1_data,
    figure1_instance,
    neighbor_state_check,
    semiprimes_below,
    valuation_model_mc,
)
from .number_theory import (
    ContinuedFractionExpansion,
    best_convergent_bounded,
    carmichael_lambda,
    continued_fraction,
    gcd,
    lcm,
    mod_pow,
    multiplicative_order,
    order_from_multiple,
    semiprime_factors,
    semiprime_lambda,
)
from .pipeline import (
    MAX_RUN_QUBITS,
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
)
from .rng import SplitMix64

__version__ = "0.2.0"
