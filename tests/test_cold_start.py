"""Each subcommand loads only the modules it runs.

Every CLI request is a fresh interpreter, so whatever it imports it also
pays for on every request.  Each test runs one family of subcommands in a
fresh interpreter and diffs ``sys.modules`` from before ``clasplink.cli``
is imported to after the family's ``cli.main`` calls return.  The child
runs under ``python -S``, so no ``site`` hook imports a module first, and
it imports nothing but ``clasplink.cli``: every module it lists is one the
request loaded.  No request loads :mod:`typing`, and ``oracle`` loads no
:mod:`re` either.  A well-formed line loads no argparse (nor the gettext
and locale it imports); help and usage errors do, and print argparse's
own text.  The last test checks that ``tests/reference.py``, which the
tests compare the library with, loads no clasplink module at all.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BORROMEAN = str(ROOT / "data" / "borromean.cc")
TWO = str(ROOT / "data" / "two_component_three_clasps.cc")

# Run under ``python -S`` in an empty directory: takes sys.modules before
# it imports anything, then runs cli.main on each argv (a literal the test
# wrote) with stdout sent to one file and stderr to another.  It prints the
# exit codes, the stderr texts and the modules that importing clasplink.cli
# and those runs loaded as the repr of a dict, with builtins alone.
PROBE = """
import sys
before = set(sys.modules)
from clasplink import cli
codes, errs = [], []
with open("stdout", "w", encoding="utf-8") as sys.stdout:
    for argv in eval(sys.argv[1]):
        with open("stderr", "w", encoding="utf-8") as sys.stderr:
            try:
                codes.append(cli.main(argv))
            except SystemExit as stopped:  # argparse's help and usage errors
                codes.append(stopped.code)
        with open("stderr", encoding="utf-8") as err:
            errs.append(err.read())
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(repr({"codes": codes, "errs": errs, "loaded": sorted(set(sys.modules) - before)}))
"""
ARGPARSE = {"argparse", "gettext", "locale"}


def loaded_by(*argvs: list[str]) -> tuple[list[int], set[str], list[str]]:
    # COLUMNS sets the width argparse wraps its usage lines at
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    with tempfile.TemporaryDirectory() as empty:
        result = subprocess.run(
            [sys.executable, "-S", "-c", PROBE, repr(argvs)],
            cwd=empty,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    assert result.returncode == 0, result.stderr
    report = ast.literal_eval(result.stdout)
    return report["codes"], set(report["loaded"]), report["errs"]


def clasplink_modules(loaded: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in loaded if name.startswith("clasplink.")}


def test_oracle_loads_no_complex_or_curve_code():
    codes, loaded, _ = loaded_by(
        ["oracle", "words", "--max-len", "4"],
        ["oracle", "polyomino", "--max-area", "3"],
        ["oracle", "words", "--max-len", "99"],  # refused by the cap: exit 2
    )
    assert codes == [0, 0, 2]
    assert not loaded & {"dataclasses", "typing", "re", "enum", "collections"}
    assert not loaded & ARGPARSE
    assert clasplink_modules(loaded) == {"cli", "_record", "bounds", "oracles"}


def test_complex_subcommands_load_no_curves_or_oracles(tmp_path):
    bad = tmp_path / "bad.cc"
    bad.write_text("components 2\nclasp a 1 2 +\norder 1 a\norder 2\n", encoding="utf-8")
    codes, loaded, _ = loaded_by(
        ["bounds", BORROMEAN],
        ["bounds", TWO],
        ["mu", BORROMEAN, "1", "2", "3"],
        ["lk", TWO, "1", "2"],
        ["words", BORROMEAN],
        ["validate", BORROMEAN],
        ["validate", str(bad)],
        ["gen-brn", "2"],
    )
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0]
    assert not loaded & {"dataclasses", "typing"}
    assert not loaded & ARGPARSE
    assert clasplink_modules(loaded) == {"cli", "_record", "bounds", "complexes", "invariants", "words"}


def test_word_subcommands_load_no_bounds_or_oracles(tmp_path):
    codes, loaded, _ = loaded_by(
        ["eij", "x1 x2 x1^-1 x2^-1", "1", "2"],
        ["eij", "x1 x2", "1", "2", "--method", "sum"],
        ["curve", "x1 x2 x1^-1 x2^-1", "1", "2", "--out", str(tmp_path / "c.svg"), "--grid"],
        ["eij", "x0", "1", "2"],  # a syntax error: exit 2
    )
    assert codes == [0, 0, 0, 2]
    assert not loaded & {"dataclasses", "typing"}
    assert not loaded & ARGPARSE
    modules = clasplink_modules(loaded)
    assert not modules & {"bounds", "oracles", "complexes"}
    assert {"cli", "words", "curves", "invariants"} <= modules


def test_eij_by_the_sum_alone_loads_no_curves():
    codes, loaded, _ = loaded_by(["eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "sum"])
    assert codes == [0]
    assert not loaded & ARGPARSE
    assert clasplink_modules(loaded) == {"cli", "_record", "words", "invariants"}


def test_eij_by_the_integral_alone_loads_no_invariants():
    codes, loaded, _ = loaded_by(["eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "integral"])
    assert codes == [0]
    assert not loaded & ARGPARSE
    assert clasplink_modules(loaded) == {"cli", "_record", "words", "curves"}


def test_help_and_usage_errors_load_argparse():
    codes, loaded, errs = loaded_by(
        ["eij", "-h"],
        ["lk", BORROMEAN, "1"],
        ["oracle", "words", "--max-len", "x"],
    )
    assert codes == [0, 2, 2]
    assert ARGPARSE <= loaded
    assert "typing" not in loaded
    # byte for byte what clasplink printed when argparse read every line
    assert errs == [
        "",
        "usage: clasplink lk [-h] file i j\n"
        "clasplink lk: error: the following arguments are required: j\n",
        "usage: clasplink oracle [-h] [--max-area MAX_AREA] [--max-len MAX_LEN]\n"
        "                        [--cap CAP]\n"
        "                        {polyomino,words}\n"
        "clasplink oracle: error: argument --max-len: invalid int value: 'x'\n",
    ]


def test_importing_the_cli_loads_no_other_clasplink_module():
    # the import that the benchmark's setup_s times
    codes, loaded, _ = loaded_by()
    assert codes == []
    assert clasplink_modules(loaded) == {"cli"}


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, clasplink; print(sorted(m for m in sys.modules if m.startswith('clasplink')))"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "['clasplink']"


def test_the_test_reference_loads_no_clasplink():
    # clasplink is importable here, so an import of it would show
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    code = "import sys, reference; print(sorted(m for m in sys.modules if m.split('.')[0] == 'clasplink'))"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
