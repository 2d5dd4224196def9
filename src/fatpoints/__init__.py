"""fatpoints: exact non-specialty verification of fat-point linear systems on P^3.

Rank checks of interpolation matrices over a prime field, the glueing
reduction that shrinks the case lists, and replayable certificates for the
degree sweeps.
"""

from ._version import __version__
from .model import (
    CaseSignature,
    SystemSpec,
    binomial,
    conditions_count,
    edim,
    parse_mults,
    parse_system,
    vdim,
)
from .monomials import derivative_orders, monomial_basis
from .gfp import (
    PRIME_LADDER,
    is_prime,
    rank,
)
from .interpolation import (
    Certificate,
    MatrixTooLargeError,
    build_matrix,
    check_case,
    reduce_fundamental,
    replay_certificate,
)
from .enumeration import (
    algorithm_a_cases,
    algorithm_b_cases,
    count_algorithm_a,
    count_algorithm_b,
    q_values,
    window,
)
from .reduction import (
    ClosureReport,
    GlueRule,
    KnownResults,
    closure_audit,
    validate_glue_rule,
)
from .campaign import (
    CampaignConfig,
    ResultStore,
    VerifyReport,
    run_campaign,
    status,
    verify_log,
)

__all__ = [
    "__version__",
    "CaseSignature",
    "SystemSpec",
    "binomial",
    "conditions_count",
    "edim",
    "parse_mults",
    "parse_system",
    "vdim",
    "derivative_orders",
    "monomial_basis",
    "PRIME_LADDER",
    "is_prime",
    "rank",
    "Certificate",
    "MatrixTooLargeError",
    "build_matrix",
    "check_case",
    "reduce_fundamental",
    "replay_certificate",
    "algorithm_a_cases",
    "algorithm_b_cases",
    "count_algorithm_a",
    "count_algorithm_b",
    "q_values",
    "window",
    "ClosureReport",
    "GlueRule",
    "KnownResults",
    "closure_audit",
    "validate_glue_rule",
    "CampaignConfig",
    "ResultStore",
    "VerifyReport",
    "run_campaign",
    "status",
    "verify_log",
]
