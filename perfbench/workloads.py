"""The benchmark's workloads: crlab command lines made from a seed, and the
checks that decide whether each command's outputs are correct.

The seed only picks parameters inside a fixed cost class (a shift h, the
exponents a and b, primes of one bit length, a small jitter on n_max);
crlab itself sees nothing but the generated argv. Checks compare against
routes that share no code with the production path where one exists
(the exponential sum, the Hoelder oracle, sympy), and for the default seed
also against committed SHA-256 digests of every output file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import sympy

from crlab.asymptotics import (
    corollary_lhs,
    corollary_main,
    correlation_sum,
    theorem2_main,
)
from crlab.core_arith import sigma_real, zeta
from crlab.cr_sum import cr_sum_exact, cr_sum_exponential, ramanujan_sum_oracle
from crlab.expansion import as_plain_n, sigma_expansion

WORKLOADS = ("table", "numeric")
DEFAULT_SEED = 0
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

# Parameters per size. "full" is what the benchmark measures; "smoke" is a
# tiny pass of the same commands for the benchmark's own tests.
SIZES = {
    "full": {
        # (r_max, n_max, s, n_max jitter): ~6.0M and ~5.0M cells, ~69 MB + ~55 MB of CSV.
        "table": ((300, 20000, 2, 100), (1000, 5000, 1, 25)),
        "correlate": {"schedule": (10_000, 100_000, 1_000_000), "R": 1000},
        # (lemma, r_max = k_max, s, N schedule)
        "lemmas": ((4, 30, 1, (1000, 10_000)), (3, 20, 2, (10_000, 50_000))),
        "series": {"R": 100_000, "mv_N": 30_000, "mv_R": 40, "orth_r": 2520, "primes": 4, "bits": 42},
    },
    "smoke": {
        "table": ((12, 200, 2, 5), (20, 100, 1, 5)),
        "correlate": {"schedule": (100, 1000), "R": 20},
        "lemmas": ((4, 4, 1, (20, 50)), (3, 3, 2, (50, 100))),
        "series": {"R": 200, "mv_N": 300, "mv_R": 5, "orth_r": 12, "primes": 2, "bits": 20},
    },
}

AB_CHOICES = (1.75, 2.0, 2.5)
SAMPLED_CELLS = 16
SAMPLED_LEMMA_POINTS = 3


@dataclass(frozen=True)
class Command:
    """One crlab invocation: argv after `python -m crlab.cli`."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # file names in the output directory
    check: Callable[[str], list[str]]  # stdout -> problems found


def commands(workload: str, seed: int, out_dir: Path, size: str = "full") -> list[Command]:
    """The command list of one pass of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    params = SIZES[size]
    out = Path(out_dir)
    if workload == "table":
        return _table(rng, out, params["table"])
    return (
        _lemmas(rng, out, params["lemmas"])
        + _correlate(rng, out, params["correlate"])
        + _series(rng, out, params["series"])
    )


def expected_digests(workload: str, seed: int, size: str = "full") -> dict[str, str] | None:
    """Committed output digests, defined for the default seed at full size."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads(DIGESTS_FILE.read_text())[workload]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def find_problems(
    cmd: Command, returncode: int, stdout: str, out_dir: Path, digests: dict[str, str] | None
) -> list[str]:
    """Everything wrong with one finished command; empty when it succeeded."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    for name in cmd.outputs:
        path = Path(out_dir) / name
        if not path.is_file():
            problems.append(f"missing output {name}")
        elif digests is not None and sha256_file(path) != digests.get(name):
            problems.append(f"{name}: SHA-256 differs from the committed digest")
    if problems:
        return problems
    try:
        problems.extend(cmd.check(stdout))
    except Exception as exc:  # a malformed output can break a check anywhere
        problems.append(f"check raised {exc!r}")
    return problems


def _args(*parts: object) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


# --- table -----------------------------------------------------------------


def _table(rng: random.Random, out: Path, params) -> list[Command]:
    cmds = []
    for i, (r_max, n_nominal, s, jitter) in enumerate(params, start=1):
        n_max = n_nominal + rng.randint(-jitter, jitter)
        cells = [(rng.randint(1, r_max), rng.randint(0, n_max)) for _ in range(SAMPLED_CELLS)]
        cells.append((r_max, n_max))
        name = f"table{i}.csv"
        path = out / name
        cmds.append(
            Command(
                argv=_args("table", "--r", r_max, "--n", n_max, "--s", s, "--out", path),
                outputs=(name,),
                check=lambda stdout, path=path, r_max=r_max, n_max=n_max, s=s, cells=cells: _check_table(
                    path, r_max, n_max, s, cells
                ),
            )
        )
    return cmds


def _check_table(path: Path, r_max: int, n_max: int, s: int, cells) -> list[str]:
    """Stream the CSV once: header, row count, and sampled cells against the
    exponential sum (and the Hoelder oracle at s = 1)."""
    width = n_max + 1
    wanted = {1 + (r - 1) * width + n: (r, n) for r, n in cells}
    problems = []
    lines = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle):
            lines += 1
            if lineno == 0:
                if line != "r,n,value\n":
                    problems.append(f"bad header {line!r}")
                continue
            cell = wanted.get(lineno)
            if cell is None:
                continue
            r_text, n_text, v_text = line.rstrip("\n").split(",")
            r, n = cell
            if (int(r_text), int(n_text)) != cell:
                problems.append(f"line {lineno}: expected cell ({r},{n}), got {line!r}")
                continue
            value = int(v_text)
            approx = cr_sum_exponential(r, n, s)
            if abs(approx.real - value) > 1e-6 or abs(approx.imag) > 1e-6:
                problems.append(f"c_{r}^{s}({n}) = {value}, exponential sum gives {approx!r}")
            if s == 1 and n >= 1 and ramanujan_sum_oracle(r, n) != value:
                problems.append(f"c_{r}({n}) = {value}, Hoelder oracle gives {ramanujan_sum_oracle(r, n)}")
    if lines != 1 + r_max * width:
        problems.append(f"{lines} lines, expected {1 + r_max * width}")
    return problems


# --- correlate -------------------------------------------------------------


def _correlate(rng: random.Random, out: Path, params) -> list[Command]:
    schedule = params["schedule"]
    sched = ",".join(str(n) for n in schedule)
    h1, h2 = rng.randint(1, 12), rng.randint(1, 12)
    a, b = rng.choice(AB_CHOICES), rng.choice(AB_CHOICES)
    r_trunc = params["R"]
    p1, p2 = out / "corollary.json", out / "t2.json"
    return [
        Command(
            argv=_args("correlate", "--method", "corollary", "--a", a, "--b", b, "--s", 1,
                       "--h", h1, "--N", sched, "--out", p1),
            outputs=(p1.name,),
            check=lambda stdout: _check_corollary(p1, a, b, h1, schedule),
        ),
        Command(
            argv=_args("correlate", "--method", "t2", "--k", 1, "--R", r_trunc, "--s", 1,
                       "--h", h2, "--N", sched, "--out", p2),
            outputs=(p2.name,),
            check=lambda stdout: _check_t2(p2, h2, r_trunc, schedule),
        ),
    ]


def _check_records(report: dict, theorem: str, schedule, multiplier: float) -> list[str]:
    problems = []
    if report["theorem"] != theorem:
        problems.append(f"theorem {report['theorem']!r}, expected {theorem!r}")
    records = report["records"]
    if [rec["N"] for rec in records] != list(schedule):
        problems.append(f"records cover N = {[rec['N'] for rec in records]}, expected {list(schedule)}")
    for rec in records:
        if rec["main_term"] != rec["N"] * multiplier:
            problems.append(f"N={rec['N']}: main_term {rec['main_term']!r} != N * {multiplier!r}")
        if rec["ratio"] != rec["lhs"] / rec["main_term"]:
            problems.append(f"N={rec['N']}: ratio is not lhs / main_term")
    return problems


def _check_corollary(path: Path, a: float, b: float, h: int, schedule) -> list[str]:
    report = json.loads(path.read_text())
    problems = _check_records(report, "corollary", schedule, corollary_main(a, b, 1, h))
    first = report["records"][0]
    expected = corollary_lhs(a, b, 1, h, first["N"])
    if first["lhs"] != expected:
        problems.append(f"lhs at N={first['N']} is {first['lhs']!r}, corollary_lhs gives {expected!r}")
    return problems


def _check_t2(path: Path, h: int, r_trunc: int, schedule) -> list[str]:
    report = json.loads(path.read_text())
    family = as_plain_n(sigma_expansion(1, 1, r_trunc))
    problems = _check_records(report, "T2", schedule, theorem2_main(family, family, h, r_trunc))
    first = report["records"][0]

    def f(n: int) -> float:
        return sigma_real(n, 1.0) / float(n) ** 1.0

    expected = correlation_sum(f, f, h, first["N"])
    if first["lhs"] != expected:
        problems.append(f"lhs at N={first['N']} is {first['lhs']!r}, correlation_sum gives {expected!r}")
    return problems


# --- lemmas ----------------------------------------------------------------


def _lemmas(rng: random.Random, out: Path, params) -> list[Command]:
    cmds = []
    for which, side, s, schedule in params:
        h = rng.randint(1, 12)
        picks = [rng.randrange(side * side) for _ in range(SAMPLED_LEMMA_POINTS)]
        path = out / f"lemma{which}.json"
        cmds.append(
            Command(
                argv=_args("lemmas", "--which", which, "--rmax", side, "--kmax", side, "--s", s,
                           "--h", h, "--N", ",".join(str(n) for n in schedule), "--out", path),
                outputs=(path.name,),
                check=lambda stdout, path=path, which=which, side=side, s=s, h=h, schedule=schedule,
                picks=picks: _check_lemma(path, which, side, s, h, schedule, picks),
            )
        )
    return cmds


def _jordan(r: int, s: int) -> int:
    """J_s(r) = prod over p**e || r of p**(s*e) - p**(s*(e-1)), from sympy's factorint."""
    out = 1
    for p, e in sympy.factorint(r).items():
        out *= int(p) ** (s * e) - int(p) ** (s * (e - 1))
    return out


def _lemma_bounds(which: int, side: int, s: int, h: int, schedule) -> list[float]:
    """Every grid point's bound, in grid order, from sympy's factorint and divisor count.

    tau_s(r**s, s) counts the s-th powers dividing r**s, which is d(r).
    The float operations follow the production order, so results are equal.
    """
    tau = {r: int(sympy.divisor_count(r)) for r in range(1, side + 1)}
    jordan = {r: _jordan(r, s) for r in range(1, side + 1)}
    bounds = []
    for r in range(1, side + 1):
        for k in range(1, side + 1):
            for n in schedule:
                if which == 4:
                    bounds.append(float(2 * n * jordan[r] * tau[k]))
                else:
                    bounds.append(math.sqrt(n) * math.sqrt(n + h) * math.sqrt(r**s * k**s) * tau[r] * tau[k])
    return bounds


def _check_lemma(path: Path, which: int, side: int, s: int, h: int, schedule, picks) -> list[str]:
    """Grid order, every bound and normalized value, and a few measured sums
    recomputed from cr_sum_exact."""
    report = json.loads(path.read_text())
    problems = []
    grid = report["grid"]
    expected_keys = [(r, k, n) for r in range(1, side + 1) for k in range(1, side + 1) for n in schedule]
    if report["lemma"] != f"L{which}":
        problems.append(f"lemma {report['lemma']!r}, expected L{which}")
    if [(e["r"], e["k"], e["N"]) for e in grid] != expected_keys:
        return problems + [f"grid points differ from the {side}x{side}x{len(schedule)} grid"]
    if any(e["s"] != s or e["h"] != h for e in grid):
        problems.append("grid s or h differs from the command line")
    for e, bound in zip(grid, _lemma_bounds(which, side, s, h, schedule)):
        if e["bound"] != bound or e["normalized"] != e["measured"] / bound:
            problems.append(f"L{which} r={e['r']} k={e['k']} N={e['N']}: bound {e['bound']!r} "
                            f"(expected {bound!r}) or normalized {e['normalized']!r} is off")
            break
    if report["max_normalized"] != max(e["normalized"] for e in grid):
        problems.append("max_normalized is not the grid maximum")
    if any(e["normalized"] > 1.0 for e in grid):
        problems.append("a grid point exceeds its bound")
    for index in picks:
        # Entries run over N fastest, so index picks (r, k) at the smallest N.
        entry = grid[index * len(schedule)]
        r, k, n = entry["r"], entry["k"], entry["N"]
        total = sum(cr_sum_exact(r, m, s) * cr_sum_exact(k, m + h, s) for m in range(1, n + 1))
        measured = float(abs(total)) if which == 3 else float(total)
        if entry["measured"] != measured:
            problems.append(f"L{which} r={r} k={k} N={n}: measured {entry['measured']!r}, cr_sum_exact gives {measured!r}")
    return problems


# --- series ----------------------------------------------------------------


def _series(rng: random.Random, out: Path, params) -> list[Command]:
    r_trunc = params["R"]
    n_eval = 2520 * rng.choice([p for p in range(11, 98) if sympy.isprime(p)])
    h_shift = rng.randint(1, 12)
    q = rng.randint(2, 12)
    mv_n, mv_r, orth_r = params["mv_N"], params["mv_R"], params["orth_r"]
    bits = params["bits"]
    # Primes in the top 1/16 of the bit range, so trial division costs the same within ~3%.
    primes = [
        int(sympy.nextprime(rng.randrange(2**bits - 2 ** (bits - 4), 2**bits)))
        for _ in range(params["primes"])
    ]
    expand, shift, mean, orth = (out / n for n in ("expand.csv", "shift.csv", "meanvalue.csv", "orthogonality.csv"))
    cmds = [
        Command(
            argv=_args("expand", "--k", 1, "--s", 1, "--R", r_trunc, "--n", n_eval, "--out", expand),
            outputs=(expand.name,),
            check=lambda stdout: _check_expand(expand, r_trunc, n_eval, stdout),
        ),
        Command(
            argv=_args("shift", "--k", 1, "--s", 1, "--R", r_trunc, "--h", h_shift, "--out", shift),
            outputs=(shift.name,),
            check=lambda stdout: _check_shift(shift, r_trunc, h_shift),
        ),
        Command(
            argv=_args("meanvalue", "--method", "crsum", "--k", q, "--s", 1, "--N", mv_n,
                       "--R", mv_r, "--out", mean),
            outputs=(mean.name,),
            check=lambda stdout: _check_meanvalue(mean, q, mv_n, mv_r),
        ),
        Command(
            argv=_args("orthogonality", "--r", orth_r, "--s", 1, "--out", orth),
            outputs=(orth.name,),
            check=lambda stdout: _check_orthogonality(orth, orth_r),
        ),
    ]
    for p in primes:
        cmds.append(
            Command(
                argv=_args("decompose", "--h", p, "--s", 2),
                outputs=(),
                check=lambda stdout, p=p: _check_decompose(stdout, p, 2),
            )
        )
    return cmds


def _read_coefficients(path: Path, r_max: int) -> list[str]:
    lines = path.read_text().splitlines()
    if lines[0] != "r,coefficient" or len(lines) != r_max + 1:
        raise ValueError(f"{path.name}: expected header and {r_max} rows, got {len(lines) - 1}")
    if any(not line.startswith(f"{r},") for r, line in enumerate(lines[1:], start=1)):
        raise ValueError(f"{path.name}: rows are not r = 1..{r_max} in order")
    return [line.split(",")[1] for line in lines[1:]]


def _sampled_r(r_max: int) -> list[int]:
    return sorted({1, 2, 12, r_max // 7 or 1, r_max})


def _check_expand(path: Path, r_max: int, n: int, stdout: str) -> list[str]:
    coeffs = _read_coefficients(path, r_max)
    z = zeta(2)
    problems = [
        f"fhat({r}) = {coeffs[r - 1]}, expected zeta(2)/r**2 = {z / r**2:.17g}"
        for r in _sampled_r(r_max)
        if coeffs[r - 1] != f"{z / r**2:.17g}"
    ]
    # The series truncated at R approximates sigma(n)/n; for these n the
    # relative error measured below 0.9/R, so 10/R leaves room.
    value = float(stdout.rsplit("= ", 1)[1])
    target = int(sympy.divisor_sigma(n)) / n
    if abs(value - target) > 10 / r_max * target:
        problems.append(f"evaluate(n={n}) = {value}, sigma(n)/n = {target}")
    return problems


def _check_shift(path: Path, r_max: int, h: int) -> list[str]:
    coeffs = _read_coefficients(path, r_max)
    z = zeta(2)
    problems = []
    for r in _sampled_r(r_max):
        expected = (z / r**2) * (ramanujan_sum_oracle(r, h) / int(sympy.totient(r)))
        if coeffs[r - 1] != f"{expected:.17g}":
            problems.append(f"ghat({r}) = {coeffs[r - 1]}, expected {expected:.17g}")
    return problems


def _oracle_row(q: int) -> list[int]:
    """c_q(m) for m = 0..q-1 from the Hoelder oracle; c_q(0) = phi(q)."""
    return [int(sympy.totient(q))] + [ramanujan_sum_oracle(q, m) for m in range(1, q)]


def _check_meanvalue(path: Path, q: int, n_limit: int, r_max: int) -> list[str]:
    coeffs = _read_coefficients(path, r_max)
    row_q = _oracle_row(q)
    problems = []
    for r in sorted({1, q if q <= r_max else 1, r_max}):
        row_r = _oracle_row(r)
        total = 0.0
        for n in range(1, n_limit + 1):
            total += float(row_q[n % q]) * row_r[n % r]
        expected = total / n_limit / int(sympy.totient(r))
        if coeffs[r - 1] != f"{expected:.17g}":
            problems.append(f"coefficient r={r} is {coeffs[r - 1]}, oracle gives {expected:.17g}")
    return problems


def _check_orthogonality(path: Path, r: int) -> list[str]:
    divs = [int(d) for d in sympy.divisors(r)]
    expected = ["d,t,value"] + [
        f"{d},{t},{int(sympy.totient(d)) if d == t else 0}" for d in divs for t in divs
    ]
    lines = path.read_text().splitlines()
    if lines == expected:
        return []
    bad = sum(1 for a, b in zip(lines, expected) if a != b) + abs(len(lines) - len(expected))
    return [f"{bad} orthogonality lines differ from J_1(d) on the diagonal and 0 elsewhere"]


def _check_decompose(stdout: str, h: int, s: int) -> list[str]:
    m = k = 1
    for p, e in sympy.factorint(h).items():
        m *= int(p) ** (e // s)
        k *= int(p) ** (e % s)
    expected = f"h={h} m={m} k={k}"
    if stdout.strip() != expected:
        return [f"decompose printed {stdout.strip()!r}, sympy gives {expected!r}"]
    return []
