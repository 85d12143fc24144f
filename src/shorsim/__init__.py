"""shorsim: classical simulator and analysis toolkit for the measurement
statistics of quantum order finding.

Exact output distributions over the measured register, deterministic
sampling, continued-fractions order recovery, factor extraction with
retry handling, and exhaustive success/failure experiments over small
semiprimes.
"""

from .distribution import (
    MAX_PEAKS_ORDER,
    MAX_REGISTER_QUBITS,
    MAX_RUN_MODULUS,
    FejerProposal,
    OrderInfo,
    ProblemInstance,
    capture_probability_d01,
    envelope,
    fejer_kernel,
    peak_columns,
    peak_deviation_prob,
    sample_states,
    two_term_at,
    two_term_prefix_sums,
)
from .errors import ContractError, DomainError, NoOrderError, ResourceError
from .experiments import (
    CENSUS_HEURISTIC_LIMIT,
    MAX_CAPTURE_SAMPLES,
    MAX_CENSUS_NMAX,
    MAX_MC_TRIALS,
    MAX_NEIGHBOR_ORDER,
    CaptureReport,
    CensusAggregate,
    FailureCensus,
    NeighborReport,
    ValuationModelResult,
    capture_rate_empirical,
    census_aggregate,
    census_sweep,
    failure_census,
    figure1_instance,
    neighbor_state_check,
    valuation_model_mc,
)
from .number_theory import (
    carmichael_lambda,
    multiplicative_order,
    order_from_multiple,
    semiprime_factors,
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

__version__ = "0.9.13"
