"""crlab: exact Cohen-Ramanujan sum arithmetic and verification harness.

Only the numpy-free core_arith layer is imported with the package. The
public names of cr_sum, expansion and asymptotics resolve on first access
(PEP 562), so `import crlab.cli` does not load numpy.
"""

import importlib

from .core_arith import (
    FACTORIZE_LIMIT,
    Factorization,
    HDecomposition,
    ResourceLimitError,
    cr_sum_exact,
    decompose_h,
    divisors,
    factorize,
    gcd_s,
    harmonic_sum,
    is_power_free,
    is_s_prime,
    jordan_totient,
    klee_phi,
    mobius,
    sigma_ks,
    sigma_real,
    tau_s,
    zeta,
)

# Public names of the numpy-backed modules, by home module.
_LAZY_EXPORTS = {
    "cr_sum": (
        "CRSumTable",
        "build_table",
        "cr_sum_exponential",
        "orthogonality_grid",
        "orthogonality_value",
        "power_free_absorption_check",
        "ramanujan_sum_oracle",
    ),
    "expansion": (
        "ExpansionCoefficients",
        "as_plain_n",
        "coefficients_from_csv_text",
        "evaluate",
        "is_period_exact",
        "mean_value_coefficients",
        "shift_coefficients",
        "sigma_expansion",
        "tau_weighted_norm",
        "write_coefficients_csv",
    ),
    "asymptotics": (
        "CorrelationConfig",
        "CorrelationReport",
        "LemmaCheckReport",
        "correlation_sum",
        "corollary_lhs",
        "corollary_main",
        "lemma_check",
        "run_correlation_report",
        "theorem1_main",
        "theorem2_main",
    ),
}
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    # Submodule names are not in _HOME: their AttributeError lets
    # `from crlab import asymptotics` fall back to importing the submodule.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
