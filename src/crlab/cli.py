"""Command-line front end.

Every subcommand is deterministic: identical flags produce byte-identical
files. Exit codes: 0 success, 1 failed numeric assertion, 2 usage or
parameter validation error, 3 output I/O error, 4 declared resource budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from . import asymptotics, cr_sum, expansion
from .cr_sum import ResourceLimitError

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


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _cmd_crsum(args: argparse.Namespace) -> int:
    if args.method in ("exact", "both"):
        exact = cr_sum.cr_sum_exact(args.r, args.n, args.s)
    if args.method in ("exponential", "both"):
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
    table = cr_sum.build_table(args.r, args.n, args.s)
    if args.out is None:
        sys.stdout.flush()
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:  # a text-only replacement such as io.StringIO
            sys.stdout.write(table.to_csv_text())
        else:
            table.write_csv(stream)
        return EXIT_OK
    with open(args.out, "wb") as handle:
        table.write_csv(handle)
    cells = args.r * (args.n + 1)
    print(f"table r_max={args.r} n_max={args.n} s={args.s}: {cells} cells -> {args.out}")
    return EXIT_OK


def _cmd_orthogonality(args: argparse.Namespace) -> int:
    from .core_arith import divisors, jordan_totient

    divs = divisors(args.r)
    lines = ["d,t,value"]
    failures = 0
    for d in divs:
        for t in divs:
            value = cr_sum.orthogonality_value(args.r, d, t, args.s)
            expected = jordan_totient(d, args.s) if d == t else 0
            if value != expected:
                failures += 1
            lines.append(f"{d},{t},{value}")
    _write_output(args.out, "\n".join(lines) + "\n")
    pairs = len(divs) ** 2
    if failures:
        print(f"orthogonality r={args.r} s={args.s}: {failures}/{pairs} pairs FAILED", file=sys.stderr)
        return EXIT_ASSERTION
    if args.out is not None:
        print(f"orthogonality r={args.r} s={args.s}: {pairs} pairs, all exact")
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    family = expansion.sigma_expansion(args.k, args.s, args.R)
    _write_output(args.out, expansion.coefficients_to_csv_text(family))
    norm = expansion.tau_weighted_norm(family)
    summary = f"sigma family k={args.k} s={args.s} R={args.R}: tau-weighted norm {norm:.6g}"
    if args.n is not None:
        value = expansion.evaluate(family, args.n)
        summary += f", evaluate(n={args.n}) = {value:.6g}"
    if args.out is not None:
        print(summary)
    return EXIT_OK


def _make_meanvalue_function(args: argparse.Namespace) -> Callable[[int], float]:
    from .core_arith import sigma_real

    if args.method == "one":
        return lambda n: 1.0
    if args.method == "crsum":
        q = args.k
        if q is None or q < 1:
            raise ValueError("meanvalue --method crsum needs --k (the inner index q)")
        row = cr_sum.cr_sum_period_row(q, args.s)
        period = q**args.s
        return lambda n: float(row[n % period])
    if args.method == "sigma":
        if args.k is None or args.k < 1:
            raise ValueError("meanvalue --method sigma needs --k")
        exponent = float(args.k * args.s)
        return lambda n: sigma_real(n, exponent) / float(n) ** exponent
    raise ValueError(f"unknown meanvalue method {args.method!r}")


def _cmd_meanvalue(args: argparse.Namespace) -> int:
    f = _make_meanvalue_function(args)
    if args.R is not None:
        lines = ["r,coefficient"]
        for r in range(1, args.R + 1):
            coef = expansion.mean_value_coefficient(f, r, args.s, args.N)
            lines.append(f"{r},{coef:.17g}")
        _write_output(args.out, "\n".join(lines) + "\n")
        if args.out is not None:
            print(f"mean-value coefficients r=1..{args.R} (N={args.N}) -> {args.out}")
        return EXIT_OK
    coef = expansion.mean_value_coefficient(f, args.r, args.s, args.N)
    exact = expansion.is_period_exact(args.r, args.s, args.N)
    note = "period-exact" if exact else "partial periods"
    print(f"{coef:.6g} ({note})")
    return EXIT_OK


def _cmd_shift(args: argparse.Namespace) -> int:
    family = expansion.as_plain_n(expansion.sigma_expansion(args.k, args.s, args.R))
    shifted = expansion.shift_coefficients(family, args.h)
    _write_output(args.out, expansion.coefficients_to_csv_text(shifted))
    if args.out is not None:
        print(
            f"shifted sigma family k={args.k} R={args.R} h={args.h}: "
            f"ghat(1) = {shifted.coefficient(1):.6g}"
        )
    return EXIT_OK


def _cmd_correlate(args: argparse.Namespace) -> int:
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
    text = report.to_json_text() if args.format == "json" else report.to_csv_text()
    _write_output(args.out, text)
    if args.out is not None:
        final = report.records[-1]
        print(f"{report.theorem} N={final.n_limit}: ratio {final.ratio:.6g}")
    return EXIT_OK


def _cmd_lemmas(args: argparse.Namespace) -> int:
    schedule = parse_schedule(args.N)
    lemma_id = f"L{args.which}"
    h_values = (0,) if lemma_id == "L1" else (args.h,)
    grid = asymptotics.build_lemma_grid(
        range(1, args.rmax + 1),
        range(1, args.kmax + 1),
        (args.s,),
        h_values,
        schedule,
    )
    report = asymptotics.lemma_check(lemma_id, grid)
    text = report.to_json_text() if args.format == "json" else report.to_csv_text()
    _write_output(args.out, text)
    if lemma_id == "L2":
        if args.out is not None:
            print(
                f"L2: max normalized constant {report.max_normalized:.6g} "
                f"over {len(report.entries)} points"
            )
        return EXIT_OK
    if report.all_pass:
        if args.out is not None:
            print(f"{lemma_id}: all {len(report.entries)} grid points within bound")
        return EXIT_OK
    failures = sum(1 for e in report.entries if not e.passed)
    print(f"{lemma_id}: {failures}/{len(report.entries)} grid points EXCEED bound", file=sys.stderr)
    return EXIT_ASSERTION


def _cmd_decompose(args: argparse.Namespace) -> int:
    dec = asymptotics.decompose_h(args.h, args.s)
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
    p.add_argument("--r", type=int, default=1)
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
