"""Learning-augmented online decision-making via adaptive switching.

The package bundles the core problem abstractions (:mod:`.framework`), the
switching meta-algorithm in its four variants (:mod:`.switching`), three
applications (:mod:`.oltq`, :mod:`.kserver`, :mod:`.orra`), an experiment
harness (:mod:`.harness`) and a command-line front end (:mod:`.cli`).
"""

from .framework import (
    ConfigurationError,
    ContractError,
    DistanceProfile,
    InvalidActionError,
    OracleTooLargeError,
    ProblemInstance,
    RequestSequence,
    SearchTooLargeError,
    Trajectory,
    brute_force_opt,
    check_bounded_influence,
    check_lipschitz,
    evaluate_trajectory,
    sequence_distance,
)
from .switching import (
    AdaSwitchConfig,
    CompetitiveReport,
    OfflineOracle,
    OnlineOracle,
    monte_carlo_estimate,
    regret_based_switch_check,
    run_adaswitch_exact,
    run_adaswitch_gamma,
    theoretical_bound,
    threshold_table,
)

__all__ = [
    "AdaSwitchConfig",
    "CompetitiveReport",
    "ConfigurationError",
    "ContractError",
    "DistanceProfile",
    "InvalidActionError",
    "OfflineOracle",
    "OnlineOracle",
    "OracleTooLargeError",
    "ProblemInstance",
    "RequestSequence",
    "SearchTooLargeError",
    "Trajectory",
    "brute_force_opt",
    "check_bounded_influence",
    "check_lipschitz",
    "evaluate_trajectory",
    "monte_carlo_estimate",
    "regret_based_switch_check",
    "run_adaswitch_exact",
    "run_adaswitch_gamma",
    "sequence_distance",
    "theoretical_bound",
    "threshold_table",
]

__version__ = "0.1.0"
