"""The numpy-free layer: crlab.cli starts on core_arith alone.

`import crlab.cli`, `--help`, `decompose` and `crsum --method exact` must
not load numpy, dataclasses or fractions, and the package's other public
names must still resolve, to the same objects, on first access.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crlab

SRC = str(Path(crlab.__file__).resolve().parent.parent)

# Every public name of the package, by the module it was imported from before
# the numpy-backed modules became lazy. ResourceLimitError, HDecomposition,
# decompose_h and cr_sum_exact now live in core_arith; cr_sum and asymptotics
# re-export them, so checking them against their old modules checks the
# re-export too.
# mean_value_coefficient has since become mean_value_coefficients.
EXPORTS = {
    "core_arith": (
        "FACTORIZE_LIMIT", "Factorization", "divisors", "factorize", "gcd_s",
        "harmonic_sum", "is_power_free", "is_s_prime", "jordan_totient", "klee_phi",
        "mobius", "sigma_ks", "sigma_real", "tau_s", "zeta",
    ),
    "cr_sum": (
        "CRSumTable", "ResourceLimitError", "build_table", "cr_sum_exact",
        "cr_sum_exponential", "orthogonality_grid", "orthogonality_value",
        "power_free_absorption_check", "ramanujan_sum_oracle",
    ),
    "expansion": (
        "ExpansionCoefficients", "as_plain_n", "coefficients_from_csv_text", "evaluate",
        "is_period_exact", "mean_value_coefficients", "shift_coefficients",
        "sigma_expansion", "tau_weighted_norm",
    ),
    "asymptotics": (
        "CorrelationConfig", "CorrelationReport", "HDecomposition", "LemmaCheckReport",
        "correlation_sum", "corollary_lhs", "corollary_main", "decompose_h", "lemma_check",
        "run_correlation_report", "theorem1_main", "theorem2_main",
    ),
}


# Modules kept off the start-up path of `import crlab.cli`.
SLOW_IMPORTS = ("numpy", "dataclasses", "fractions")


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports crlab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize(
    "code",
    [
        "import crlab.cli",
        "import contextlib, crlab.cli\n"
        "with contextlib.suppress(SystemExit):\n"
        "    crlab.cli.main(['--help'])",
        "import crlab.cli\n"
        "assert crlab.cli.main(['decompose', '--h', '12', '--s', '2']) == 0",
        "import crlab.cli\n"
        "assert crlab.cli.main(['crsum', '--r', '12', '--n', '8', '--s', '1', '--method', 'exact']) == 0\n"
        "from crlab import cr_sum_exact\n"
        "assert cr_sum_exact(12, 8, 1) == -2",
    ],
    ids=["import", "help", "decompose", "crsum-exact"],
)
def test_cli_paths_leave_numpy_unloaded(code):
    # dataclasses (with inspect, ast and dis) and fractions cost the start-up of every command
    listing = f"\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {SLOW_IMPORTS}))"
    done = run_python(code + listing)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cr_sum_leaves_fractions_unloaded():
    # a Fraction is made only by _rounded's fall-back and the orthogonality Gram
    done = run_python("import crlab.cr_sum, sys\nprint('fractions' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_submodules_still_import_by_name():
    done = run_python(
        "from crlab import asymptotics, cr_sum, expansion\n"
        "print(asymptotics.__name__, cr_sum.__name__, expansion.__name__)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "crlab.asymptotics crlab.cr_sum crlab.expansion\n"


@pytest.mark.parametrize("home", sorted(EXPORTS))
def test_public_names_resolve_to_their_home_objects(home):
    names = EXPORTS[home]
    namespace: dict = {}
    exec(f"from crlab import {', '.join(names)}", namespace)
    module = importlib.import_module(f"crlab.{home}")
    listed = dir(crlab)
    for name in names:
        assert namespace[name] is getattr(module, name), name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        crlab.no_such_name
    assert not hasattr(crlab, "numpy")


def test_every_listed_name_resolves():
    # a stale _LAZY_EXPORTS entry would be listed by dir() yet raise AttributeError
    for name in dir(crlab):
        getattr(crlab, name)


@pytest.mark.parametrize("name", ["cr_values_fixed_n", "sigma_power_array", "coefficients_to_csv_text"])
def test_pruned_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(crlab, name)
    assert name not in dir(crlab)
