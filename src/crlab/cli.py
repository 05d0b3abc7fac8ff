"""Command-line front end.

Every subcommand is deterministic: identical flags produce byte-identical
files. Exit codes: 0 success, 1 failed numeric assertion, 2 usage or
parameter validation error, 3 output I/O error, 4 declared resource budget
exceeded.

Only the numpy-free core_arith is imported here at module level; each
handler imports the modules it uses, so `--help`, `decompose` and
`crsum --method exact` run without numpy. Every command pays for what
`import crlab.cli` loads: numpy, dataclasses and fractions stay off that
path (tests/test_numpy_free.py), and `python -X importtime -c "import
crlab.cli"` shows what is left.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import BinaryIO, Iterator, Sequence

from .core_arith import (
    ResourceLimitError,
    _check_digits,
    check_exponent,
    cr_sum_exact,
    decompose_h,
    jordan_totient,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4


def parse_schedule(text: str) -> tuple[int, ...]:
    """Parse a comma-separated, strictly ascending list of positive integers."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid N schedule {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ValueError("N schedule entries must be positive integers")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("N schedule must be strictly ascending")
    return values


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[BinaryIO]:
    """The binary handle every command writes its file to: --out, else stdout.

    A text-only stdout such as io.StringIO gets the bytes as ASCII text at
    the end. Commands compute their results first and open this last, so a
    refused run leaves no file.
    """
    if path is not None:
        with open(path, "wb") as handle:
            yield handle
        return
    sys.stdout.flush()
    stream = getattr(sys.stdout, "buffer", None)
    if stream is not None:
        yield stream
        return
    buffer = io.BytesIO()
    yield buffer
    sys.stdout.write(buffer.getvalue().decode("ascii"))


def _cmd_crsum(args: argparse.Namespace) -> int:
    if args.method in ("exact", "both"):
        exact = cr_sum_exact(args.r, args.n, args.s)
        _check_digits(args.r, args.s, exact)
    if args.method in ("exponential", "both"):
        from . import cr_sum

        approx = cr_sum.cr_sum_exponential(args.r, args.n, args.s)
    if args.method == "exact":
        print(exact)
    elif args.method == "exponential":
        print(f"{approx.real:.6f}")
    else:
        print(f"{exact} / {approx.real:.6f}")
        if abs(approx - exact) > 1e-6 or abs(approx.imag) > 1e-9:
            print(f"mismatch: exact {exact} vs exponential {approx!r}", file=sys.stderr)
            return EXIT_ASSERTION
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    from . import cr_sum

    cr_sum._check_table(args.r, args.n, args.s)
    with _output(args.out) as handle:
        cr_sum._stream_table_csv(handle, args.r, args.n, args.s)
    if args.out is not None:
        cells = args.r * (args.n + 1)
        print(f"table r_max={args.r} n_max={args.n} s={args.s}: {cells} cells -> {args.out}")
    return EXIT_OK


def _cmd_orthogonality(args: argparse.Namespace) -> int:
    from . import cr_sum

    grid = cr_sum.orthogonality_grid(args.r, args.s)
    failures = sum(value != (jordan_totient(d, args.s) if d == t else 0) for d, t, value in grid)
    # every value is an integer: _period_gram checks that r**s divides each inner sum
    columns = list(zip(*((d, t, int(value)) for d, t, value in grid)))
    with _output(args.out) as handle:
        cr_sum._write_rows(handle, b"d,t,value\n", b"%d,%d,%d\n", columns, b"", b"")
    pairs = len(grid)
    if failures:
        print(f"orthogonality r={args.r} s={args.s}: {failures}/{pairs} pairs FAILED", file=sys.stderr)
        return EXIT_ASSERTION
    if args.out is not None:
        print(f"orthogonality r={args.r} s={args.s}: {pairs} pairs, all exact")
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    from . import expansion

    family = expansion.sigma_expansion(args.k, args.s, args.R)
    norm = expansion.tau_weighted_norm(family)
    summary = f"sigma family k={args.k} s={args.s} R={args.R}: tau-weighted norm {norm:.6g}"
    if args.n is not None:
        value = expansion.evaluate(family, args.n)
        summary += f", evaluate(n={args.n}) = {value:.6g}"
    with _output(args.out) as handle:
        expansion.write_coefficients_csv(handle, family)
    if args.out is not None:
        print(summary)
    return EXIT_OK


def _meanvalue_f_values(args: argparse.Namespace, rows: int):
    """f(n), n <= N, as one float64 row (slot 0 unused); checks the c-row grid budget first."""
    from . import asymptotics, cr_sum

    if args.method == "one" and args.k is not None:
        raise ValueError("meanvalue --method one takes no --k")
    if args.method != "one" and (args.k is None or args.k < 1):
        need = "--k (the inner index q)" if args.method == "crsum" else "--k"
        raise ValueError(f"meanvalue --method {args.method} needs {need}")
    cr_sum._check_cells(rows, args.N)
    check_exponent(args.s)
    if args.method == "sigma":
        return asymptotics._sigma_ratio_values(args.k * args.s, args.N)
    q = 1 if args.method == "one" else args.k  # c_1^s(n) = 1
    # the row leaves slot 0 at 0: c_q^s(0) = J_s(q) may pass the float range
    return cr_sum._sieve_rows((q,), args.N, args.s)[0].astype(float)


def _cmd_meanvalue(args: argparse.Namespace) -> int:
    from . import expansion

    if args.out is not None and args.R is None:
        raise ValueError("meanvalue --out writes the r = 1..R coefficient CSV and needs --R")
    if args.r is not None and args.R is not None:
        raise ValueError("meanvalue takes --r (one coefficient) or --R (r = 1..R), not both")
    for flag, value in (("--R", args.R), ("--N", args.N), ("--r", args.r)):
        if value is not None and value < 1:
            raise ValueError(f"meanvalue {flag} must be >= 1, got {value}")
    r_values = range(1, args.R + 1) if args.R is not None else (1 if args.r is None else args.r,)
    # len() of a range past sys.maxsize overflows; R rows are counted before any is built
    f_values = _meanvalue_f_values(args, len(r_values) if args.R is None else args.R)
    coeffs = expansion.mean_value_coefficients(f_values, r_values, args.s)
    if args.R is not None:
        family = expansion.ExpansionCoefficients(
            s=args.s,
            argument_mode=expansion.PLAIN_N,
            coeffs=coeffs,
            provenance=f"mean_value(method={args.method}, N={args.N})",
        )
        with _output(args.out) as handle:
            expansion.write_coefficients_csv(handle, family)
        if args.out is not None:
            print(f"mean-value coefficients r=1..{args.R} (N={args.N}) -> {args.out}")
        return EXIT_OK
    exact = expansion.is_period_exact(r_values[0], args.s, args.N)
    note = "period-exact" if exact else "partial periods"
    print(f"{coeffs[0]:.6g} ({note})")
    return EXIT_OK


def _cmd_shift(args: argparse.Namespace) -> int:
    from . import expansion

    family = expansion.as_plain_n(expansion.sigma_expansion(args.k, args.s, args.R))
    shifted = expansion.shift_coefficients(family, args.h)
    with _output(args.out) as handle:
        expansion.write_coefficients_csv(handle, shifted)
    if args.out is not None:
        print(
            f"shifted sigma family k={args.k} R={args.R} h={args.h}: "
            f"ghat(1) = {shifted.coefficient(1):.6g}"
        )
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
    from . import asymptotics

    schedule = parse_schedule(args.N)
    config = asymptotics.CorrelationConfig(
        kind=args.method,
        s=args.s,
        h=args.h,
        schedule=schedule,
        a=args.a,
        b=args.b,
        k=args.k,
        r_truncation=args.R,
    )
    report = asymptotics.run_correlation_report(config)
    with _output(args.out) as handle:
        (report.write_json if args.format == "json" else report.write_csv)(handle)
    if args.out is not None:
        final = report.records[-1]
        print(f"{report.theorem} N={final.n_limit}: ratio {final.ratio:.6g}")
    return EXIT_OK


def _cmd_lemmas(args: argparse.Namespace) -> int:
    from . import asymptotics

    schedule = parse_schedule(args.N)
    lemma_id = f"L{args.which}"
    report = asymptotics.lemma_check(
        lemma_id, range(1, args.rmax + 1), range(1, args.kmax + 1), args.s, args.h, schedule
    )
    with _output(args.out) as handle:
        (report.write_json if args.format == "json" else report.write_csv)(handle)
    points = len(report.passed)
    if lemma_id == "L2":
        if args.out is not None:
            print(f"L2: max normalized constant {report.max_normalized:.6g} over {points} points")
        return EXIT_OK
    failures = points - int(report.passed.sum())
    if not failures:
        if args.out is not None:
            print(f"{lemma_id}: all {points} grid points within bound")
        return EXIT_OK
    print(f"{lemma_id}: {failures}/{points} grid points EXCEED bound", file=sys.stderr)
    return EXIT_ASSERTION


def _cmd_decompose(args: argparse.Namespace) -> int:
    dec = decompose_h(args.h, args.s)
    print(f"h={dec.h} m={dec.m} k={dec.k}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crlab",
        description="Cohen-Ramanujan sums, expansions, and asymptotic verification runs",
        epilog="exit codes: 0 ok, 1 failed assertion, 2 usage, 3 I/O, 4 resource budget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crsum", help="one Cohen-Ramanujan sum value")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--method", choices=("exact", "exponential", "both"), default="exact")
    p.set_defaults(handler=_cmd_crsum)

    p = sub.add_parser("table", help="sieved batch table of c_r^s(n) as CSV")
    p.add_argument("--r", type=int, required=True, help="r_max")
    p.add_argument("--n", type=int, required=True, help="n_max")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("orthogonality", help="pairwise orthogonality grid over d,t | r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_orthogonality)

    p = sub.add_parser("expand", help="closed-form sigma expansion coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="also evaluate the truncation at n")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("meanvalue", help="finite mean-value coefficient extraction")
    p.add_argument("--method", choices=("one", "crsum", "sigma"), default="crsum")
    p.add_argument("--k", type=int, default=None, help="inner index q (crsum) or exponent k (sigma)")
    p.add_argument("--r", type=int, default=None, help="one coefficient (default 1)")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=int, default=None, help="extract r = 1..R to CSV instead")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_meanvalue)

    p = sub.add_parser("shift", help="shift transform of the s=1 sigma family")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_shift)

    p = sub.add_parser("correlate", help="correlation report over an N schedule")
    p.add_argument("--method", choices=("corollary", "t1", "t2"), default="corollary")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--N", required=True, help="comma-separated ascending schedule")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("lemmas", help="product-sum lemma bound grid")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--h", type=int, default=0)
    p.add_argument("--N", required=True, help="comma-separated ascending schedule")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_lemmas)

    p = sub.add_parser("decompose", help="h = m**s * k with k s-th power free")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(handler=_cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
