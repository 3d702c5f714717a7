"""Each subcommand loads only the modules it runs.

Every CLI request is a fresh interpreter, so whatever it imports it also
pays for on every request.  Each test runs one family of subcommands in a
fresh interpreter and diffs ``sys.modules`` from before ``clasplink.cli``
is imported to after the family's ``cli.main`` calls return.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BORROMEAN = str(ROOT / "data" / "borromean.cc")
TWO = str(ROOT / "data" / "two_component_three_clasps.cc")

# Prints, as JSON on its last stdout line, the modules that importing
# clasplink.cli and running cli.main on each argv (given as JSON) loaded.
PROBE = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
before = set(sys.modules)
from clasplink import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""


def loaded_by(*argvs: list[str]) -> tuple[list[int], set[str]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    return report["codes"], set(report["loaded"])


def clasplink_modules(loaded: set[str]) -> set[str]:
    return {name.split(".", 1)[1] for name in loaded if name.startswith("clasplink.")}


def test_oracle_loads_no_complex_or_curve_code():
    codes, loaded = loaded_by(
        ["oracle", "words", "--max-len", "4"],
        ["oracle", "polyomino", "--max-area", "3"],
        ["oracle", "words", "--max-len", "99"],  # refused by the cap: exit 2
    )
    assert codes == [0, 0, 2]
    assert "dataclasses" not in loaded
    assert clasplink_modules(loaded) == {"cli", "_record", "bounds", "oracles"}


def test_complex_subcommands_load_no_curves_or_oracles(tmp_path):
    bad = tmp_path / "bad.cc"
    bad.write_text("components 2\nclasp a 1 2 +\norder 1 a\norder 2\n", encoding="utf-8")
    codes, loaded = loaded_by(
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
    assert "dataclasses" not in loaded
    assert clasplink_modules(loaded) == {"cli", "_record", "bounds", "complexes", "invariants", "words"}


def test_word_subcommands_load_no_bounds_or_oracles(tmp_path):
    codes, loaded = loaded_by(
        ["eij", "x1 x2 x1^-1 x2^-1", "1", "2"],
        ["eij", "x1 x2", "1", "2", "--method", "sum"],
        ["curve", "x1 x2 x1^-1 x2^-1", "1", "2", "--out", str(tmp_path / "c.svg"), "--grid"],
        ["eij", "x0", "1", "2"],  # a syntax error: exit 2
    )
    assert codes == [0, 0, 0, 2]
    assert "dataclasses" not in loaded
    modules = clasplink_modules(loaded)
    assert not modules & {"bounds", "oracles", "complexes"}
    assert {"cli", "words", "curves", "invariants"} <= modules


def test_eij_by_the_sum_alone_loads_no_curves():
    codes, loaded = loaded_by(["eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "sum"])
    assert codes == [0]
    assert clasplink_modules(loaded) == {"cli", "_record", "words", "invariants"}


def test_eij_by_the_integral_alone_loads_no_invariants():
    codes, loaded = loaded_by(["eij", "x1 x2 x1^-1 x2^-1", "1", "2", "--method", "integral"])
    assert codes == [0]
    assert clasplink_modules(loaded) == {"cli", "_record", "words", "curves"}


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, clasplink; print(sorted(m for m in sys.modules if m.startswith('clasplink')))"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "['clasplink']"
