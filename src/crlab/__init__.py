"""crlab: exact Cohen-Ramanujan sum arithmetic and verification harness."""

from .core_arith import (
    FACTORIZE_LIMIT,
    Factorization,
    divisors,
    factorize,
    gcd_s,
    harmonic_sum,
    is_power_free,
    is_s_prime,
    jordan_totient,
    klee_phi,
    mobius,
    mobius_range,
    sigma_ks,
    sigma_real,
    tau_s,
    zeta,
)
from .cr_sum import (
    CRSumTable,
    ResourceLimitError,
    build_table,
    cr_sum_exact,
    cr_sum_exponential,
    cr_values_fixed_n,
    orthogonality_grid,
    orthogonality_value,
    power_free_absorption_check,
    ramanujan_sum_oracle,
)
from .expansion import (
    ExpansionCoefficients,
    as_plain_n,
    coefficients_from_csv_text,
    coefficients_to_csv_text,
    evaluate,
    is_period_exact,
    mean_value_coefficient,
    shift_coefficients,
    sigma_expansion,
    tau_weighted_norm,
)
from .asymptotics import (
    CorrelationConfig,
    CorrelationReport,
    HDecomposition,
    LemmaCheckReport,
    correlation_sum,
    corollary_lhs,
    corollary_main,
    decompose_h,
    lemma_check,
    run_correlation_report,
    sigma_power_array,
    theorem1_main,
    theorem2_main,
)

__version__ = "0.1.0"
