"""Cohen-Ramanujan sums c_r^s(n) by two independent routes.

The production route is the exact integer divisor-sum representation
c_r^s(n) = sum over d | r with d**s | n of mu(r/d) * d**s. The verification
route evaluates the defining exponential sum over an s-reduced residue
system mod r**s in floating point. Every sieved row (batch tables and
mean-value rows) comes from one row sieve, _sieve_rows: the terms
(d, mu(r/d)) of each row are generated from factorize(r) and added along the
strides d**s; no per-r state outlives its row. Sieved rows cover n >= 1 only
and are int64; tables fill column 0, J_s(r), from jordan_totient
(_table_rows). Tables are read-only int64 (or object) grids; the
`table` command sieves row blocks of about _BLOCK_CELLS cells and writes each
block straight to CSV, so it holds one block and no per-cell Python int,
however large the table is. The CSV text of every block, int64 or object, is
built by numpy in tiles of about _TILE_CELLS cells (_TileWriter), in one
reused record of NUL-padded uint32 words per cell that lose their NULs as
they are written: the r label, the ",n," label (built once per table) and
one word for the value, looked up in _small_words. The rare values of 1000
or more in size (past int64 too) take a "%d" marker word there and are
printed by Python into the tile text with one %-format. Every other file
(lemma and correlation reports, coefficient and orthogonality CSV) is
written from its columns by _write_rows, _TEXT_BLOCK rows at a time. Mean
values sum the same row blocks. Orthogonality sums (_period_gram) and lemma
sums (asymptotics.lemma_check) need no rows: they sum over divisor pairs.

No power r**s is formed past the budget it is held to: core_arith.power_at_most
decides r**s <= bound from bit lengths first. It picks int64 or object
for every exact column and matrix product (_int_dtype, from a bound written
where the column is built), holds the exponential and orthogonality
periods to EXPONENTIAL_ROUTE_LIMIT (_check_period), and lets the row sieve
skip every stride d**s past n_max, so a huge s costs no more than a small
one there.

Every divisor sum over a range of n is one Dirichlet convolution
sum_{d | n} f(d) g(n/d), computed by one numpy sieve, _dirichlet_sieve: the
float sigma rows (f = d**x, g = 1), tau(r) (f = g = 1), the exact column
c_r^s(n) over r at a fixed n (f = d**s on the d with d**s | n, g = mu, from
the numpy Mobius row _mobius_row) and the lemma sums' Mobius steps; lemma
grids take tau(r) and Phi_s(r**s) = c_r^s(0) from these columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core_arith import (  # ResourceLimitError and cr_sum_exact are re-exported
    ResourceLimitError,
    _check_digits,
    _check_r_n,
    check_exponent,
    cr_sum_exact,
    decompose_h,
    divisors,
    factorize,
    is_power_free,
    jordan_totient,
    power_at_most,
)

if TYPE_CHECKING:  # fractions is imported where a Fraction is made, off every import path
    from fractions import Fraction

# The exponential route costs O(r**s) per call; it exists for verification.
EXPONENTIAL_ROUTE_LIMIT = 10**7

# Memory budget, in cells, for tables, mean-value rows and lemma hit rows and sieves.
MAX_TABLE_CELLS = 50_000_000

# Cells per sieved row block (8 MiB of int64) when a table streams out or
# mean values are summed; a block always holds at least one row.
_BLOCK_CELLS = 2**20

# Cells per tile of CSV text from a row block.
_TILE_CELLS = 2**15

# Rows of a report (lemma points, coefficients, ...) formatted per write.
_TEXT_BLOCK = 2**12

# Largest n a sigma row is built for. A correlate run holds at most three
# float64 rows of about N + h cells at once (f, g and the power row or the
# running sums), so at this limit it peaks near 0.5 GB; the corollary with
# a = 1.75, b = 2.5 takes about 7 s there (2-core x86-64 VM).
MAX_SIGMA_LIMIT = 20_000_000

# Exact columns and matrix products are int64 while every value stays below this.
_INT64_LIMIT = 2**63


def _int_dtype(base: int, s: int, factor: int = 1) -> type:
    """int64 when s < 63 and factor * base**s < 2**63, else object (Python ints).

    Every exact column and matrix product takes its dtype here, with factor *
    base**s a bound on its values (and partial sums) written at the call site.
    power_at_most decides from bit lengths, so a huge s costs nothing; s < 63
    keeps base**s an exponent numpy's int64 ** takes (base <= 1 passes the
    bound at any s).
    """
    fits = s < 63 and power_at_most(base, s, (_INT64_LIMIT - 1) // factor) is not None
    return np.int64 if fits else object


def _mobius_terms(r: int) -> list[tuple[int, int]]:
    """The 2**omega(r) pairs (d, mu(r/d)) with d | r and r/d squarefree.

    Starting from (r, 1), each prime p of r adds a copy of every term so far
    with d divided by p and the sign flipped.
    """
    terms = [(r, 1)]
    for p, _ in factorize(r).factors:
        terms += [(d // p, -m) for d, m in terms]
    return terms


def _check_cells(cells: int, grid: str) -> None:
    """Hold a grid of cells to MAX_TABLE_CELLS; a refusal names the grid."""
    if cells > MAX_TABLE_CELLS:
        raise ResourceLimitError(f"{grid}: {cells} cells exceed budget {MAX_TABLE_CELLS}")


def _sieve_rows(r_values: Sequence[int], n_max: int, s: int) -> np.ndarray:
    """c_r^s(n) for 1 <= n <= n_max, one int64 row per entry of r_values, in that order.

    Row i gets mu(r/d) * d**s along the stride d**s, from n = d**s on, for
    every term of _mobius_terms(r_values[i]) with d**s <= n_max, so a row
    costs one factorize and at most 2**omega(r) strides, and no power past
    n_max is formed. Column 0 is left 0: c_r^s(0) = J_s(r) is the one value
    that needs r**s (see _table_rows). Every partial sum at n >= 1 is a sum
    of distinct divisors d**s of n, at most sigma(n) < 2**63 within
    MAX_TABLE_CELLS, so the grid is int64 whatever r and s are. Its callers,
    tables, mean values and meanvalue's f row, hold their grids to it first.
    """
    grid = np.zeros((len(r_values), n_max + 1), dtype=np.int64)
    for i, r in enumerate(r_values):
        for d, m in _mobius_terms(r):
            ds = power_at_most(d, s, n_max) if d <= n_max else None  # d**s >= d
            if ds is not None:
                grid[i, ds::ds] += m * ds
    return grid


def _table_rows(r_values: Sequence[int], n_max: int, s: int) -> np.ndarray:
    """c_r^s(n) for 0 <= n <= n_max: _sieve_rows with column 0 set to J_s(r).

    Column 0 is the only one that can pass int64 (the sieved values are at
    most sigma(n)); J_s(r) <= r**s, so the grid takes its dtype from
    _int_dtype(max r, s) and is Python ints in an object array only past it.
    """
    dtype = _int_dtype(max(r_values), s)
    rows = _sieve_rows(r_values, n_max, s).astype(dtype, copy=False)
    rows[:, 0] = np.fromiter((jordan_totient(r, s) for r in r_values), dtype, len(r_values))
    return rows


def _row_slices(r_values: Sequence[int], n_max: int) -> Iterator[Sequence[int]]:
    """r_values in consecutive slices whose rows of n_max + 1 cells fill about _BLOCK_CELLS cells.

    A slice always holds at least one r. Tables and mean values sieve one
    slice at a time.
    """
    step = max(1, _BLOCK_CELLS // (n_max + 1))
    return (r_values[lo : lo + step] for lo in range(0, len(r_values), step))


def _check_table(r_max: int, n_max: int, s: int) -> None:
    """Validate a table's shape and hold it to MAX_TABLE_CELLS and the digit budget."""
    check_exponent(s)
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    _check_cells(r_max * (n_max + 1), "table")
    _check_digits(r_max, s)


@lru_cache(maxsize=None)
def _small_words() -> np.ndarray:
    """str(v) for -999 <= v <= 999 as one NUL-padded uint32 word each, at index v + 1000.

    Indexes 0 and 2000 hold the marker "%d" for the values of 1000 or more
    in size, which the writer clips to -1000 and 1000.
    """
    return _words(chain((b"%d",), (b"%d" % v for v in range(-999, 1000)), (b"%d",)))


def _words(texts: Iterable[bytes]) -> np.ndarray:
    """Texts of at most 4 bytes as uint32 words, NUL-padded in front."""
    return np.frombuffer(b"".join(text.rjust(4, b"\0") for text in texts), dtype=np.uint32)


def _label_words(lo: int, hi: int, lead: bytes, tail: bytes) -> np.ndarray:
    """lead + str(v) + tail for each v in range(lo, hi) (0 <= lo < hi), as rows of uint32 words.

    Every label takes the words the longest one needs, so ",19998," takes
    two. The digits sit right before the tail; the bytes between the lead
    and a shorter label's first digit are NUL, which the writer strips.
    """
    digits = len(str(hi - 1))
    end = -(-(len(lead) + digits + len(tail)) // 4) * 4 - len(tail)
    text = np.zeros((hi - lo, end + len(tail)), dtype=np.uint8)
    text[:, : len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    text[:, end:] = np.frombuffer(tail, dtype=np.uint8)
    q = np.arange(lo, hi, dtype=np.uint32 if hi <= 2**32 else np.uint64)  # uint32 divides faster
    for k in range(digits):  # units first
        rest = q // 10
        np.add(q - rest * 10, ord("0"), out=text[:, end - 1 - k], casting="unsafe")
        if k:
            text[: max(0, 10**k - lo), end - 1 - k] = 0  # a value below 10**k has no digit k
        q = rest
    return text.view(np.uint32)


class _TileWriter:
    """Writes the CSV cells "\nr,n,value" of row blocks in tiles of about _TILE_CELLS cells.

    A tile is several rows of a narrow table or one n-window of a wide row.
    Its text is a record of NUL-padded uint32 words per cell: the r label,
    the ",n," label, then one word from _small_words for the value. The
    NULs are stripped as the tile is written. A value of 1000 or more in
    size (past int64 too, in an object block) takes the marker word "%d",
    and the tile text, which holds no other %, is %-formatted with those
    values in row order. One record is reused from tile to tile; it is
    reallocated only when the words per cell change or a tile is larger,
    and its ",n," columns are rewritten only when the tile's window or
    r-word count differs from the last one's.
    """

    def __init__(self, handle: BinaryIO, width: int) -> None:
        self.handle = handle
        self.width = width
        # the ",n," words of every n, built once when their 4-byte words fit in a block's bytes
        self.n_words = None
        if width * 4 * -(-(len(str(width - 1)) + 2) // 4) <= _BLOCK_CELLS * 8:
            self.n_words = _label_words(0, width, b",", b",")
        self.record = np.empty((0, 0, 0), dtype=np.uint32)
        self.labels = (-1, 0)  # the n_lo and r-word count of the ",n," words in the record

    def write(self, block: np.ndarray, r: int) -> None:
        """Write the cells of an int64 or object row block whose first row is r.

        The r labels are built for whole tiles of at least 1024 rows at a
        time, so a table of one-row tiles does not build one per row.
        """
        step = max(1, _TILE_CELLS // self.width)
        group = step * -(-1024 // step)
        for g in range(0, len(block), group):
            r_words = _label_words(r + g, r + min(len(block), g + group), b"\n", b"")
            for lo in range(0, len(r_words), step):
                for n_lo in range(0, self.width, _TILE_CELLS):
                    tile = block[g + lo : g + lo + step, n_lo : n_lo + _TILE_CELLS]
                    self._write_tile(r_words[lo : lo + step], n_lo, tile)

    def _write_tile(self, r_words: np.ndarray, n_lo: int, tile: np.ndarray) -> None:
        """Write the cells of a tile whose rows carry r_words and whose first column is n_lo.

        Each value takes its word from _small_words. Only a tile holding a
        value of 1000 or more in size clips its values into the marker
        words and %-formats its text with the values it clipped.
        """
        n_words = self.n_words
        if n_words is None:
            n_words = _label_words(n_lo, n_lo + tile.shape[1], b",", b",")
        else:
            n_words = n_words[n_lo : n_lo + tile.shape[1]]
        r_end = r_words.shape[1]
        n_end = r_end + n_words.shape[1]
        rows, cols, size = self.record.shape
        if rows < len(tile) or cols < tile.shape[1] or size != n_end + 1:
            rows, cols = max(rows, len(tile)), max(cols, tile.shape[1])
            self.record = np.empty((rows, cols, n_end + 1), dtype=np.uint32)
            self.labels = (-1, 0)
        record = self.record[: len(tile), : tile.shape[1]]
        if self.labels != (n_lo, r_end):
            self.record[:, : tile.shape[1], r_end:n_end] = n_words
            self.labels = (n_lo, r_end)
        record[:, :, :r_end] = r_words[:, None]
        wide = ()
        # clip only a tile that needs it; max first, as most wide values are J_s(r) > 0
        if tile.max() > 999 or tile.min() < -999:
            index = np.clip(tile, -1000, 1000).astype(np.int64, copy=False)
            wide = tuple(tile[abs(index) == 1000].tolist())
        else:
            index = tile.astype(np.int64, copy=False)  # an object tile's small values too
        record[:, :, n_end] = _small_words().take(index + 1000)
        text = record.tobytes().translate(None, b"\0")
        self.handle.write(text % wide if wide else text)


def _write_csv(handle: BinaryIO, blocks: Iterable[np.ndarray], n_max: int) -> None:
    """Write the table CSV (header r,n,value) of the row blocks of r = 1, 2, ..., in order.

    Each cell is the text "\nr,n,value" and one newline closes the file.
    Every block, int64 or object (values past int64), goes through one
    _TileWriter for the whole table. A block is let go before the next one
    is drawn from blocks.
    """
    handle.write(b"r,n,value")
    tiles = _TileWriter(handle, n_max + 1)
    r = 1
    for block in blocks:
        tiles.write(block, r)
        r += len(block)
        del block  # else it stays bound while a generator of blocks sieves the next
    handle.write(b"\n")


def _write_rows(
    handle: BinaryIO, head: bytes, row: bytes, columns: Sequence[Sequence], sep: bytes, tail: bytes
) -> None:
    """Write head, row % the values of each row of columns with sep between rows, then tail.

    columns are equal-length sequences, one per % field of row: numpy columns
    (converted to Python values here), lists, tuples or ranges. They are
    formatted _TEXT_BLOCK rows at a time, so a writer holds one block of text
    and values however many rows there are. Every report and coefficient
    file is written here; the table CSV has _write_csv.
    """
    handle.write(head)
    for lo in range(0, len(columns[0]), _TEXT_BLOCK):
        if lo:
            handle.write(sep)
        parts = [column[lo : lo + _TEXT_BLOCK] for column in columns]
        values = [part.tolist() if isinstance(part, np.ndarray) else part for part in parts]
        handle.write(sep.join(map(row.__mod__, zip(*values))))
    handle.write(tail)


def _stream_table_csv(handle: BinaryIO, r_max: int, n_max: int, s: int) -> None:
    """Write the CSV of build_table(r_max, n_max, s) from row blocks, holding one block.

    Callers run _check_table first, before opening handle.
    """
    blocks = (_table_rows(rs, n_max, s) for rs in _row_slices(range(1, r_max + 1), n_max))
    _write_csv(handle, blocks, n_max)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of values, so values itself keeps its flags."""
    view = values.view()
    view.setflags(write=False)
    return view


def _power_row(limit: int, x: float) -> np.ndarray:
    """pw[d] = float(d) ** x for d <= limit (slot 0 is 0.0).

    The row is one np.float_power over d = 1..limit, in place: it calls libm
    pow once per entry, as Python's float ** does, so every power has the
    bits of sigma_real's; numpy's vectorized np.power (and **) does not
    match them. A power past the float range, where pow would raise (or, at
    x = inf, return inf), is refused before the row is built.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > MAX_SIGMA_LIMIT:
        raise ResourceLimitError(f"sigma row up to n = {limit} exceeds {MAX_SIGMA_LIMIT}")
    try:
        top = pow(float(limit), x)  # d**x grows with d when x > 0
    except OverflowError:
        top = math.inf
    if top == math.inf:
        raise ResourceLimitError(f"sigma row power {limit}**{x} exceeds the float range")
    row = np.arange(limit + 1, dtype=np.float64)  # slot 0 is already 0.0
    np.float_power(row[1:], x, out=row[1:])
    return row


def _dirichlet_sieve(f: np.ndarray, g: np.ndarray | None) -> np.ndarray:
    """out[n] = sum of f[d] * g[n // d] over d | n for n <= L, added in ascending d.

    g = None stands for g = 1, whose terms are the f[d] themselves, so no
    product is formed, and L = len(f) - 1; else L = len(g) - 1, f[d] = 0 past
    f's end, and f may be rows convolved with a column g. Slot 0 of f and g is
    unused and out[0] = 0; out has f's dtype. Divisors d <= isqrt(L) are added
    by stride. Each larger divisor is d = n / m with m < d, so the cofactors m
    are taken in descending order, each adding f[lo : L//m + 1] * g[m] along
    the stride m. Terms with f[d] = 0 or g[m] = 0 are skipped: every use sums
    integers or non-negative floats, to which an added zero changes nothing.
    """
    limit = len(f) - 1 if g is None else len(g) - 1
    out = np.zeros((limit + 1, *f.shape[1:]), dtype=f.dtype)
    lo = math.isqrt(limit) + 1
    for d in range(1, min(lo, len(f))):
        if np.any(f[d]):
            out[d::d] += f[d] if g is None else f[d] * g[1 : limit // d + 1]
    for m in range(limit // lo, 0, -1):
        if g is None or np.any(g[m]):
            hi = min(limit // m, len(f) - 1)
            out[m * lo : m * hi + 1 : m] += f[lo : hi + 1] if g is None else f[lo : hi + 1] * g[m]
    return out


def _mobius_row(limit: int) -> np.ndarray:
    """mu[n] for n <= limit as int64 (slot 0 is 0).

    Each prime p <= isqrt(limit) negates mu along its multiples, zeroes it
    along the multiples of p*p and multiplies into rad[n], the product of
    the primes p <= isqrt(limit) that divide n. A squarefree n with
    rad[n] < n has exactly one more prime factor, above isqrt(limit), which
    negates mu[n] once more.
    """
    mu = np.ones(limit + 1, dtype=np.int64)
    rad = np.ones(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if rad[p] == 1:  # no smaller prime divides p
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rad[p::p] *= p
    mu[rad < np.arange(limit + 1)] *= -1
    mu[0] = 0
    return mu


def _rounded(op: Callable[[float, int], float], x: float, n: int) -> float:
    """op(x, n) for op * or / as Python rounds it, even where n is past the float range.

    Python refuses to convert such an n to float; the exact op(Fraction(x), n)
    is then rounded once, so a quotient underflows honestly to a subnormal or
    0.0.
    """
    try:
        return op(x, n)
    except OverflowError:
        from fractions import Fraction

        return float(op(Fraction(x), n))


def _python_op(op: Callable[[float, int], float], x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Python's op(x[i], n[i]) for op operator.mul or operator.truediv, as a float64 array.

    x is float64 (or, for /, exact ints) and n exact ints; ints are int64 or
    object (Python ints), and x and n broadcast. An int below 2**53 in size
    is an exact float64 and IEEE * and / round correctly, so wherever a
    pair's ints are all that small numpy's float64 op gives Python's float *
    int, float / int and int / int. _rounded gives every other pair, so an
    int past the float range is taken exactly and the result rounded once.
    """
    x, n = np.broadcast_arrays(x, n)
    ints = [a for a in (x, n) if a.dtype != np.float64]
    exact = np.logical_and.reduce([(-(2**53) < a) & (a < 2**53) for a in ints])
    wide = np.nonzero(~exact)
    rounded = [_rounded(op, a, b) for a, b in zip(x[wide].tolist(), n[wide].tolist())]
    # object ints are cast with 1 in place of each wide int, whose result is overwritten
    out = op(*(np.where(exact, a, 1).astype(np.float64) if a.dtype == object else a for a in (x, n)))
    out[wide] = rounded
    return out


def _ascending_sums(terms: np.ndarray, at: int | Sequence[int]) -> np.ndarray:
    """The running sums of terms along the last axis, read at the indices at.

    Each equals the loop `total += term` from 0.0 in ascending order bit for
    bit: np.cumsum (add.accumulate) adds strictly in order, where np.sum and
    np.dot sum pairwise, and + 0.0 turns a leading -0.0 sum into the loop's
    0.0. terms is a float64 array that the sums overwrite.
    """
    return np.cumsum(terms, axis=-1, out=terms)[..., at] + 0.0


def s_reduced_residues(r: int, s: int) -> np.ndarray:
    """The h in 1..r**s with gcd_s(h, r**s, s) == 1, as an int64 array.

    gcd_s(h, r**s, s) > 1 exactly when p**s | h for some prime p | r, so the
    system is sieved by striding each p**s.
    """
    check_exponent(s)
    _check_r_n(r, 0)
    period = _check_period(r, s)
    mask = np.ones(period + 1, dtype=bool)
    mask[0] = False
    for p, _ in factorize(r).factors:
        mask[:: p**s] = False
    return np.nonzero(mask)[0].astype(np.int64)


def cr_sum_exponential(r: int, n: int, s: int) -> complex:
    """c_r^s(n) as the literal exponential sum over the s-reduced residues.

    The imaginary part of the result must vanish to tolerance; callers
    compare against cr_sum_exact. Limited to r**s <= EXPONENTIAL_ROUTE_LIMIT.
    """
    check_exponent(s)
    _check_r_n(r, n)
    period = _check_period(r, s)
    residues = s_reduced_residues(r, s)
    # Reduce n*h mod the period in exact integers so every angle is < 2*pi.
    k = (residues * (n % period)) % period
    phases = np.exp((2.0j * math.pi / period) * k)
    return complex(phases.sum())


def ramanujan_sum_oracle(r: int, n: int) -> int:
    """Classical Ramanujan sum c_r(n) by the Hoelder evaluation.

    c_r(n) = mu(m) * phi(r) / phi(m) with m = r / gcd(r, n). Kept
    independent of the divisor-sum route: phi is counted directly and mu
    comes from a local squarefree scan.
    """
    if r < 1 or n < 1:
        raise ValueError("ramanujan_sum_oracle requires r, n >= 1")
    m = r // math.gcd(r, n)

    def phi_count(q: int) -> int:
        return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)

    def mu_scan(q: int) -> int:
        count = 0
        p = 2
        while p * p <= q:
            if q % p == 0:
                q //= p
                if q % p == 0:
                    return 0
                count += 1
            p += 1
        if q > 1:
            count += 1
        return -1 if count % 2 else 1

    mu_m = mu_scan(m)
    if mu_m == 0:
        return 0
    return mu_m * (phi_count(r) // phi_count(m))


def _check_period(r: int, s: int) -> int:
    """r**s, held to EXPONENTIAL_ROUTE_LIMIT: exponential and orthogonality sums have r**s terms.

    A power past the limit is never formed, and the message names it as r**s.
    """
    period = power_at_most(r, s, EXPONENTIAL_ROUTE_LIMIT)
    if period is None:
        limit = EXPONENTIAL_ROUTE_LIMIT
        raise ResourceLimitError(f"{r}**{s} exceeds the exponential-route limit {limit}")
    return period


def _period_gram(r: int, s: int) -> dict[tuple[int, int], Fraction]:
    """(1/r**s) sum_{m=1}^{r**s} c_d^s(m) c_t^s(m) at (d, t) for all divisors d, t of r, d-major.

    r**s / lcm(a, b)**s of the m <= r**s are divisible by a**s and b**s, so by
    Cohen's definition each is sum_{a | d, b | t} mu(d/a) mu(t/b) gcd(a, b)**s:
    M G M^T, M the Mobius matrix, which on the exponent grid of r = prod p**e
    is a difference along each prime's axis. Partial differences sum at most
    tau(r)**2 terms <= r**s. r**s is held to EXPONENTIAL_ROUTE_LIMIT.
    """
    from fractions import Fraction

    _check_period(r, s)
    factors = factorize(r).factors
    axes = tuple(e + 1 for _, e in factors)
    divs = np.ones(1, dtype=np.int64)
    for p, e in factors:  # the divisors in exponent-grid order
        divs = np.multiply.outer(divs, p ** np.arange(e + 1)).ravel()
    gram = (np.gcd.outer(divs, divs).astype(_int_dtype(r, s, len(divs) ** 2)) ** s).reshape(axes * 2)
    for axis in range(gram.ndim):
        gram = np.diff(gram, axis=axis, prepend=0)
    order = np.argsort(divs)
    divs, gram = divs[order].tolist(), gram.reshape(len(divs), -1)[np.ix_(order, order)].tolist()
    return {(d, t): Fraction(value) for d, row in zip(divs, gram) for t, value in zip(divs, row)}


def orthogonality_grid(r: int, s: int) -> list[tuple[int, int, Fraction]]:
    """(d, t, orthogonality_value(r, d, t, s)) for all divisors d, t of r, d-major.

    One Mobius transform of the tau(r)**2 gcd powers (_period_gram), limited
    to r**s <= EXPONENTIAL_ROUTE_LIMIT.
    """
    check_exponent(s)
    _check_r_n(r, 0)
    return [(d, t, value) for (d, t), value in _period_gram(r, s).items()]


def orthogonality_value(r: int, d: int, t: int, s: int) -> Fraction:
    """(1/r**s) * sum_{m=1}^{r**s} c_d^s(m) c_t^s(m) as an exact rational.

    Requires d | r and t | r. The value is an integer (see _period_gram):
    klee_phi(d**s, s) when d == t and 0 otherwise. Like the exponential
    route it is limited to r**s <= EXPONENTIAL_ROUTE_LIMIT.
    """
    check_exponent(s)
    for name, val in (("r", r), ("d", d), ("t", t)):
        if val < 1:
            raise ValueError(f"{name} must be >= 1, got {val}")
    if r % d != 0:
        raise ValueError(f"d = {d} does not divide r = {r}")
    if r % t != 0:
        raise ValueError(f"t = {t} does not divide r = {r}")
    return _period_gram(r, s)[d, t]


def _cr_column(n: int, s: int, r_max: int) -> np.ndarray:
    """c_r^s(n) for r <= r_max (slot 0 is 0) as an exact ndarray; see _cr_values_at_root.

    The s-th root part of n is the largest m with m**s | n, decompose_h(n, s).m
    (0 for n = 0), so d**s | n exactly when d | m, or for every d when n = 0.
    """
    return _cr_values_at_root(decompose_h(n, s).m if n else 0, s, r_max)


def _cr_values_at_root(root_part: int, s: int, r_max: int) -> np.ndarray:
    """c_r^s(n) for r <= r_max (slot 0 is 0) at any n whose s-th root part is root_part.

    The column is the Dirichlet convolution of f(d) = d**s, on the divisors d
    of root_part (on every d when root_part = 0, that is n = 0), with mu. It
    is exact: int64 while its partial sums fit, Python ints in an object array
    otherwise. They are at most sigma_s(r) <= r**s (1 + ln r), and ln r <
    r.bit_length(). For n = m**s the root part is m itself, which spares
    factorizing n. r_max is held to MAX_TABLE_CELLS before anything is built.
    """
    if r_max > MAX_TABLE_CELLS:
        raise ResourceLimitError(f"exact column of {r_max} values exceeds budget {MAX_TABLE_CELLS}")
    dtype = _int_dtype(r_max, s, r_max.bit_length() + 1)
    if root_part == 0:
        f = np.arange(r_max + 1).astype(dtype) ** s
    else:
        ds = [d for d in divisors(root_part) if d <= r_max]
        f = np.zeros(r_max + 1, dtype=dtype)
        f[ds] = [d**s for d in ds]
    return _dirichlet_sieve(f, _mobius_row(r_max).astype(dtype, copy=False))


@dataclass(frozen=True, eq=False)
class CRSumTable:
    """Immutable dense table of c_r^s(n) over 1 <= r <= r_max, 0 <= n <= n_max.

    values is a read-only (r_max, n_max + 1) ndarray, int64 or (past int64)
    object; value() and row() return Python ints. write_csv sends either
    dtype through the one tile writer, one value word per cell, with the
    values of 1000 or more in size printed by Python. Tables compare by
    identity, since == on ndarrays is elementwise.
    """

    s: int
    r_max: int
    n_max: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _read_only(np.asarray(self.values))
        if values.ndim != 2 or values.shape[0] != self.r_max:
            raise ValueError("row count does not match r_max")
        if values.shape[1] != self.n_max + 1:
            raise ValueError("row length does not match n_max")
        object.__setattr__(self, "values", values)

    def value(self, r: int, n: int) -> int:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"r = {r} outside table range 1..{self.r_max}")
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n = {n} outside table range 0..{self.n_max}")
        return int(self.values[r - 1, n])

    def row(self, r: int) -> tuple[int, ...]:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"r = {r} outside table range 1..{self.r_max}")
        return tuple(self.values[r - 1].tolist())

    def write_csv(self, handle: BinaryIO) -> None:
        """Write the CSV (header r,n,value) as ASCII bytes, one tile per write."""
        _write_csv(handle, (self.values,), self.n_max)


def build_table(r_max: int, n_max: int, s: int) -> CRSumTable:
    """Sieve the full c_r^s table for 1 <= r <= r_max, 0 <= n <= n_max in one numpy pass."""
    _check_table(r_max, n_max, s)
    grid = _table_rows(range(1, r_max + 1), n_max, s)
    return CRSumTable(s=s, r_max=r_max, n_max=n_max, values=grid)


def power_free_absorption_check(r: int, m: int, k: int, s: int) -> bool:
    """True iff c_r^s(m**s * k) == c_r^s(m**s) for s-th-power-free k."""
    check_exponent(s)
    if r < 1 or m < 1 or k < 1:
        raise ValueError("r, m, k must all be >= 1")
    if not is_power_free(k, s):
        raise ValueError(f"k = {k} is not {s}-th power free")
    return cr_sum_exact(r, m**s * k, s) == cr_sum_exact(r, m**s, s)
