"""Cohen-Ramanujan series expansions.

A truncated expansion is a dense coefficient family r -> fhat(r) for
r = 1..R, tagged with the exponent s, the argument convention (whether the
series is evaluated against c_r^s(n) or c_r^s(n**s)), and its provenance.
Supports the closed-form family for sigma_{ks}(n)/n**ks, empirical
coefficient extraction through finite mean values, and the shift transform
fhat(r) -> fhat(r) * c_r^s(h) / Phi_s(r**s).
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .core_arith import ResourceLimitError, check_exponent, jordan_totient, power_at_most, zeta
from .cr_sum import (
    _ascending_sums, _check_cells, _cr_column, _cr_values_at_root, _dirichlet_sieve,
    _int_dtype, _python_op, _read_only, _row_slices, _sieve_rows, _write_rows,
)

PLAIN_N = "plain_n"
N_TO_S = "n_to_s"
_MODES = (PLAIN_N, N_TO_S)

# Largest truncation R of a closed-form series (expand, shift, correlate t1/t2). At this
# limit `shift` takes about 1.7 s and 78 MiB, `expand --n` 2 s and 77 MiB (2-core x86-64 VM).
MAX_SERIES_R = 10**6


@dataclass(frozen=True, eq=False)
class ExpansionCoefficients:
    """Truncated coefficient family: coeffs[i] is fhat(i + 1).

    coeffs is a read-only float64 column, made once from any sequence of
    floats; a float64 array is taken as a view, not copied, so replace() and
    as_plain_n share it. Families compare by identity, since == on ndarrays
    is elementwise.
    """

    s: int
    argument_mode: str
    coeffs: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        check_exponent(self.s)
        if self.argument_mode not in _MODES:
            raise ValueError(f"argument_mode must be one of {_MODES}, got {self.argument_mode!r}")
        object.__setattr__(self, "coeffs", _read_only(np.asarray(self.coeffs, dtype=np.float64)))

    @property
    def r_max(self) -> int:
        return len(self.coeffs)

    def coefficient(self, r: int) -> float:
        if not 1 <= r <= len(self.coeffs):
            raise ValueError(f"r = {r} outside family range 1..{len(self.coeffs)}")
        return float(self.coeffs[r - 1])


def sigma_expansion(k: int, s: int, r_max: int) -> ExpansionCoefficients:
    """Closed-form family fhat(r) = zeta(k+1) / r**((k+1)s) for r <= r_max.

    This expands sigma_{ks}(n)/n**ks against c_r^s(n**s), so the family
    carries argument_mode n_to_s.
    """
    check_exponent(s)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if r_max > MAX_SERIES_R:
        raise ResourceLimitError(f"series truncation R = {r_max} exceeds {MAX_SERIES_R}")
    z = zeta(k + 1)
    exp = (k + 1) * s
    # z < 2, so z / r**exp rounds to 0.0 once r**exp >= 2**1076; those r**exp,
    # which may be huge, are never formed.
    nonzero = min(r_max, 2 ** -(-1076 // exp) - 1)
    powers = np.arange(1, nonzero + 1, dtype=_int_dtype(nonzero, exp)) ** exp
    coeffs = np.pad(_python_op(operator.truediv, z, powers), (0, r_max - nonzero))
    return ExpansionCoefficients(
        s=s, argument_mode=N_TO_S, coeffs=coeffs, provenance=f"closed_form_sigma(k={k})"
    )


def as_plain_n(family: ExpansionCoefficients) -> ExpansionCoefficients:
    """Reinterpret an s=1 family in n**s mode as a plain-n family.

    For s = 1 the two argument conventions coincide (n**1 == n); for s >= 2
    the reindexing is not defined here and the call is rejected.
    """
    if family.argument_mode == PLAIN_N:
        return family
    if family.s != 1:
        raise ValueError("argument-mode conversion is only defined for s = 1")
    return replace(family, argument_mode=PLAIN_N)


def evaluate(family: ExpansionCoefficients, n: int) -> float:
    """Evaluate the truncated series at n.

    Uses the exact integer c values and a single float multiply-accumulate
    in fixed ascending-r order, so results are reproducible. A 0.0
    coefficient adds exactly +-0, so the sum stops at the last nonzero
    coefficient and no c value past it (c_r^s(n**s) = J_s(r) for r | n) is
    formed; a truncation without one evaluates to 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nonzero = np.flatnonzero(family.coeffs)
    if not len(nonzero):
        return 0.0
    r_max, s = int(nonzero[-1]) + 1, family.s
    if family.argument_mode == PLAIN_N:
        c_values = _cr_column(n, s, r_max)
    else:
        # c_r^s(n**s): the s-th root part of n**s is n, so n**s is never factorized.
        c_values = _cr_values_at_root(n, s, r_max)
    return float(_ascending_sums(_python_op(operator.mul, family.coeffs[:r_max], c_values[1:]), -1))


def mean_value_coefficients(f_values: np.ndarray, r_values: Sequence[int], s: int) -> np.ndarray:
    """(1/N) * sum_{n <= N} f(n) * c_r^s(n) / Phi_s(r**s) for each r of r_values.

    The means come back as one read-only float64 column, in the order of
    r_values.

    f_values[n] = f(n) as float64 for n <= N = len(f_values) - 1, slot 0 unused.
    The rows are sieved straight to N in blocks of about _BLOCK_CELLS cells
    (_row_slices; one block is held at a time), with all R * (N + 1) cells
    held to MAX_TABLE_CELLS before any sieving. Each block's products are
    added along its rows in ascending n (_ascending_sums), and every product
    and quotient is Python's (_python_op), so each mean value equals a Python
    loop over n bit for bit. The rows leave out n = 0,
    and a divisor Phi_s(r**s) = J_s(r) >= r**(s - 1) that would round the
    quotient to 0 is never formed.
    When r**s | N whole periods of c_r^s are averaged (see is_period_exact); no
    N -> infinity extrapolation is attempted.
    """
    check_exponent(s)
    if min(r_values, default=1) < 1:
        raise ValueError(f"r must be >= 1, got {min(r_values)}")
    n_limit = len(f_values) - 1
    if r_values and n_limit < 1:
        raise ValueError(f"n_limit must be >= 1, got {n_limit}")
    _check_cells(len(r_values), n_limit)
    sums = [np.zeros(0)]  # a block of no rows: np.concatenate needs one when r_values is empty
    for r_slice in _row_slices(r_values, n_limit):
        terms = _python_op(operator.mul, f_values[1:], _sieve_rows(r_slice, n_limit, s)[:, 1:])
        sums.append(_ascending_sums(terms, -1))
        del terms  # else it stays bound while the next block is sieved
    means = _python_op(operator.truediv, np.concatenate(sums), n_limit)
    # A finite mean is below 2**max_exp and the least subnormal is 2**(min_exp - mant_dig),
    # so once J_s(r) >= r**(s - 1) reaches 2**(max_exp - min_exp + mant_dig + 1) the
    # quotient is below half the least subnormal and rounds to +-0. Such a J_s(r) is not
    # formed: 1 stands in for it and the quotient is set to 0.0.
    info = sys.float_info
    underflow = 2 ** (info.max_exp - info.min_exp + info.mant_dig + 1) - 1
    kept = np.fromiter((power_at_most(r, s - 1, underflow) is not None for r in r_values), bool)
    phis = (jordan_totient(r, s) if keep else 1 for r, keep in zip(r_values, kept))
    phi = np.fromiter(phis, _int_dtype(max(r_values, default=1), s))  # J_s(r) <= r**s
    # + 0.0 turns an underflowed -0.0 into 0.0
    return _read_only(np.where(kept, _python_op(operator.truediv, means, phi), 0.0) + 0.0)


def is_period_exact(r: int, s: int, n_limit: int) -> bool:
    """True iff averaging over n <= n_limit covers whole periods of c_r^s."""
    check_exponent(s)
    if r < 1 or n_limit < 1:
        raise ValueError("r and n_limit must be >= 1")
    period = power_at_most(r, s, n_limit)
    return period is not None and n_limit % period == 0


def shift_coefficients(family: ExpansionCoefficients, h: int) -> ExpansionCoefficients:
    """Coefficient family for n -> f(n + h): fhat(r) * c_r^s(h) / Phi_s(r**s).

    Defined for plain-n families only. h = 0 reproduces the input exactly
    because c_r^s(0) = Phi_s(r**s).
    """
    if family.argument_mode != PLAIN_N:
        raise ValueError("shift_coefficients requires a plain_n family")
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    c_at_h = _cr_column(h, family.s, family.r_max)[1:]
    # c_r^s(0) = Phi_s(r**s): one sieve instead of a factorization per r.
    phi = _cr_column(0, family.s, family.r_max)[1:]
    quotients = _python_op(operator.truediv, c_at_h, phi)
    # + 0.0 turns a product that underflowed to -0.0 into 0.0; other bits stay.
    return replace(family, coeffs=family.coeffs * quotients + 0.0, provenance=f"shifted(h={h})")


def tau_weighted_norm(family: ExpansionCoefficients) -> float:
    """sum_{r <= R} |fhat(r)| * tau(r), the absolute-convergence diagnostic.

    tau(r) comes from one Dirichlet sieve of ones and the terms are added in
    ascending r.
    """
    if not family.r_max:
        return 0.0
    tau = _dirichlet_sieve(np.ones(family.r_max + 1, dtype=np.int64), None)
    return float(_ascending_sums(_python_op(operator.mul, np.abs(family.coeffs), tau[1:]), -1))


def write_coefficients_csv(handle: BinaryIO, family: ExpansionCoefficients) -> None:
    """Write the CSV export (header r,coefficient) as ASCII bytes, 17 significant digits."""
    columns = (range(1, family.r_max + 1), family.coeffs)
    _write_rows(handle, b"r,coefficient\n", b"%d,%.17g\n", columns, b"", b"")


def coefficients_from_csv_text(
    text: str, s: int, argument_mode: str, provenance: str = "imported"
) -> ExpansionCoefficients:
    """Parse the CSV that write_coefficients_csv writes."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "r,coefficient":
        raise ValueError("expected header 'r,coefficient'")
    coeffs = []
    for expected_r, line in enumerate(lines[1:], start=1):
        r_text, coef_text = line.split(",")
        if int(r_text) != expected_r:
            raise ValueError(f"coefficient rows must be contiguous from 1, got r={r_text}")
        coeffs.append(float(coef_text))
    return ExpansionCoefficients(
        s=s, argument_mode=argument_mode, coeffs=coeffs, provenance=provenance
    )
