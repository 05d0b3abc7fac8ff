"""The exit-code contract of every subcommand at extreme argument values.

Each argv runs in-process through cli.main with the resource budgets made
small, so a run that would be slow at the real budgets is refused fast. The
contract: the exit code is one of 0 ok, 1 failed assertion, 2 usage, 3 I/O
and 4 budget; nothing escapes as an exception (in-process, the traceback a
separate process would print); exit 1 comes with its assertion message; and
a run refused with exit 2 or 4 leaves no --out file.
"""

import io
import os
import re
import tempfile
import warnings
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crlab import asymptotics, cr_sum, expansion
from crlab.cli import EXIT_ASSERTION, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from crlab.core_arith import power_at_most

EXTREMES = (
    "0", "1", "5000", "10000000", "9223372036854775807", "9223372036854775808",
    "-1", "inf", "1e308",
)
VALUE = st.sampled_from(EXTREMES)
# Drawn from the integers half the time, so more argv get past the parser.
INT = st.sampled_from(EXTREMES[:7]) | VALUE
OPTIONAL = st.none() | INT
# Stands for a fresh path in a temporary directory, made inside the test.
OUT_PATH = "<out>"
OUT = st.sampled_from((None, OUT_PATH))

# argv prefix -> {flag: strategy of its text}; None leaves an optional flag out
SUBCOMMANDS = {
    "crsum": {
        "--r": INT, "--n": INT, "--s": INT,
        "--method": st.sampled_from(("exact", "exponential", "both")),
    },
    "table": {"--r": INT, "--n": INT, "--s": INT, "--out": OUT},
    "orthogonality": {"--r": INT, "--s": INT, "--out": OUT},
    "expand": {"--k": INT, "--s": INT, "--R": INT, "--n": OPTIONAL, "--out": OUT},
    "meanvalue --method one": {
        "--r": OPTIONAL, "--s": INT, "--N": INT, "--R": OPTIONAL, "--out": OUT,
    },
    "meanvalue": {
        "--method": st.sampled_from(("crsum", "sigma")),
        "--k": INT, "--r": OPTIONAL, "--s": INT, "--N": INT, "--R": OPTIONAL, "--out": OUT,
    },
    "shift": {"--k": INT, "--s": OPTIONAL, "--R": INT, "--h": INT, "--out": OUT},
    "correlate --method corollary": {
        "--a": VALUE, "--b": VALUE, "--s": INT, "--h": OPTIONAL, "--N": INT, "--out": OUT,
    },
    "correlate": {
        "--method": st.sampled_from(("t1", "t2")),
        "--s": INT, "--h": OPTIONAL, "--N": INT, "--k": INT, "--R": INT, "--out": OUT,
    },
    "lemmas": {
        "--which": st.sampled_from("1234"),
        "--rmax": INT, "--kmax": INT, "--s": INT, "--h": OPTIONAL, "--N": INT, "--out": OUT,
    },
    "decompose": {"--h": INT, "--s": INT},
}


def _argv(prefix):
    flags = SUBCOMMANDS[prefix]
    pairs = st.tuples(*(st.tuples(st.just(flag), text) for flag, text in flags.items()))
    return pairs.map(
        lambda chosen: prefix.split()
        + [part for flag, text in chosen if text is not None for part in (flag, text)]
    )


ARGV = st.sampled_from(sorted(SUBCOMMANDS)).flatmap(_argv)

# Each budget small enough that a run inside it takes milliseconds.
SMALL_BUDGETS = (
    (cr_sum, "MAX_TABLE_CELLS", 10**5),
    (cr_sum, "MAX_SIGMA_LIMIT", 10**4),
    (cr_sum, "EXPONENTIAL_ROUTE_LIMIT", 10**4),
    (asymptotics, "MAX_LEMMA_POINTS", 10**5),
    (asymptotics, "MAX_LEMMA_WORK", 10**6),
    (expansion, "MAX_SERIES_R", 10**4),
)

# What cli.main prints to stderr with exit 1.
FAILED_ASSERTION = re.compile(r"mismatch: exact|pairs FAILED|grid points EXCEED bound")

# Argv that once hung, ended in a traceback, exited 2 for a budget or wrote
# invalid JSON, with the exit code each has at the real budgets.
REPROS = [
    ("crsum --r 30 --n 1 --s 12345 --method exponential", EXIT_RESOURCE),
    ("orthogonality --r 30 --s 12345", EXIT_RESOURCE),
    ("crsum --r 400 --n 3 --s 10000000 --method exact", EXIT_OK),
    ("crsum --r 30 --n 1 --s 9223372036854775808 --method both", EXIT_RESOURCE),
    ("orthogonality --r 3 --s 9223372036854775808", EXIT_RESOURCE),
    ("expand --k 3 --s 10000000 --R 97 --n 30", EXIT_OK),
    ("meanvalue --method crsum --k 200 --s 10000000 --N 10", EXIT_OK),
    ("meanvalue --method crsum --k 200 --s 10000000 --N 1 --R 5", EXIT_OK),
    ("lemmas --which 1 --rmax 30 --kmax 30 --s 10000000 --N 10", EXIT_RESOURCE),
    ("lemmas --which 4 --rmax 30 --kmax 30 --s 10000000 --N 10", EXIT_RESOURCE),
    ("lemmas --which 2 --rmax 1000 --kmax 2 --s 10000000 --N 10", EXIT_RESOURCE),
    ("lemmas --which 3 --rmax 1000 --kmax 97 --s 5000 --N 10", EXIT_RESOURCE),
    ("lemmas --which 3 --rmax 9223372036854775808 --kmax 2 --s 1 --N 10", EXIT_RESOURCE),
    ("lemmas --which 3 --rmax 4611686018427387904 --kmax 2 --s 1 --N 10", EXIT_RESOURCE),
    ("correlate --method corollary --s 1 --N 10 --h 5 --a 2 --b inf", EXIT_USAGE),
    ("correlate --method corollary --s 1 --N 10 --h 5 --a 1e308 --b 2", EXIT_RESOURCE),
    ("correlate --method corollary --s 2 --N 10 --h 5 --a 1e308 --b 2", EXIT_RESOURCE),
]

# Argv that once wrote their --out file and then exited 2.
REFUSED_AFTER_WRITING = [
    f"expand --k 1 --s 1 --R 3 --n 0 --out {OUT_PATH}",
    f"expand --k 1 --s 1 --R 3 --n 9223372036854775808 --out {OUT_PATH}",
]


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with numpy and Python warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _with_repros(test):
    for line in [line for line, _ in REPROS] + REFUSED_AFTER_WRITING:
        test = example(argv=line.split())(test)
    return test


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
@_with_repros
def test_every_argv_keeps_the_exit_code_contract(argv):
    # a function-scoped tmp_path fixture cannot be combined with @given
    with ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        for module, name, value in SMALL_BUDGETS:
            stack.enter_context(mock.patch.object(module, name, value))
        path = os.path.join(tmp, "out")
        code, _, err = run([path if part == OUT_PATH else part for part in argv])
        written = os.path.exists(path)
    assert code in range(5), (argv, code, err)
    assert "Traceback" not in err
    if code == EXIT_ASSERTION:
        assert FAILED_ASSERTION.search(err), (argv, err)
    if code in (EXIT_USAGE, EXIT_RESOURCE):
        assert not written, (argv, code, err)


@pytest.mark.parametrize("line", REFUSED_AFTER_WRITING)
def test_refused_expand_leaves_no_file(tmp_path, line):
    path = tmp_path / "coeffs.csv"
    code, out, err = run(line.replace(OUT_PATH, str(path)).split())
    assert code == EXIT_USAGE and out == "", (line, err)
    assert not path.exists()


@pytest.mark.parametrize("line, expected", REPROS)
def test_repro_exit_codes_at_the_real_budgets(line, expected):
    code, out, err = run(line.split())
    assert code == expected, (line, err)
    if line.startswith("crsum --r 400"):
        assert out == "0\n"  # mu(400) = 0: only d = 1 has d**s <= n


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(1, 300),
    s=st.integers(0, 40),
    bound=st.integers(0, 10**15),
    offset=st.sampled_from((None, -1, 0, 1)),
)
@example(base=1, s=0, bound=0, offset=None)
@example(base=2, s=10, bound=1024, offset=None)
@example(base=2, s=10, bound=1023, offset=None)
def test_power_at_most_agrees_with_the_power(base, s, bound, offset):
    if offset is not None:  # land on the power itself or next to it
        bound = max(0, base**s + offset)
    assert power_at_most(base, s, bound) == (base**s if base**s <= bound else None)


def test_power_at_most_never_forms_a_power_past_its_bound():
    # each power below has billions of digits; forming one would not finish
    assert power_at_most(30, 10**18, 10**4300) is None
    assert power_at_most(3, 2**63, 10**7) is None
    assert power_at_most(1, 2**63, 1) == 1
