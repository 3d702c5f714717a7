"""Run README's "Library quickstart" block from the repository root and
check each ``# value`` comment against the value its line computes; run
the CLI section's example commands and check the lines they print."""

import ast
import io
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quickstart_source():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README has no Library quickstart python block"
    return match.group(1)


def leading_value(comment):
    """The literal a comment starts with: all of ``(True, True)``, the
    ``3`` of ``3, the enclosed area``."""
    cuts = [m.start() for m in re.finditer(",", comment)]
    for end in [len(comment), *reversed(cuts)]:
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"comment {comment!r} starts with no literal")


def test_readme_quickstart_values(monkeypatch):
    source = quickstart_source()
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    checked = []

    def check(value, comment, printed, line):
        expected = comment if printed else leading_value(comment)
        assert (str(value) if printed else value) == expected, f"quickstart line {line}"
        checked.append(line)

    class CheckCommented(ast.NodeTransformer):
        """``expr  # value`` becomes ``check(expr, "value", ...)``, and
        ``print(expr)  # text`` checks the text that it prints."""

        def visit_Expr(self, node):
            comment = comments.get(node.lineno)
            if comment is None:
                return node
            value = node.value
            printed = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "print"
            if printed:
                (value,) = value.args
            args = [value, *map(ast.Constant, (comment, printed, node.lineno))]
            return ast.copy_location(ast.Expr(ast.Call(ast.Name("check", ast.Load()), args, [])), node)

    tree = ast.fix_missing_locations(CheckCommented().visit(ast.parse(source)))
    monkeypatch.chdir(ROOT)
    exec(compile(tree, "README.md quickstart", "exec"), {"check": check})
    # e_ij, the closed and simple pair, the area, mu, the bound summary and
    # the violations: every commented expression in the block
    assert len(checked) == 6


def cli_examples():
    """The ``$ clasplink ...`` lines of README's CLI section, each with the
    lines shown after it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```$", readme, re.M | re.S)
    assert match, "README's CLI section has no sh block"
    examples = []
    for line in match.group(1).splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def run_shell_line(line, svg):
    """Run ``clasplink`` commands joined by ``|``, the first perhaps reading
    ``< FILE``, and return what the last one prints.  An ``.svg`` argument
    is replaced by ``svg``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    pipeline, _, source = line.partition(" < ")
    stdin = (ROOT / source).read_text() if source else ""
    for command in pipeline.split(" | "):
        program, *argv = shlex.split(command)
        assert program == "clasplink", command
        argv = [str(svg) if arg.endswith(".svg") else arg for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "clasplink.cli", *argv],
            input=stdin, capture_output=True, text=True, cwd=ROOT, env=env,
        )
        assert (result.returncode, result.stderr) == (0, ""), command
        stdin = result.stdout
    return stdin


def test_readme_cli_examples(tmp_path):
    examples = cli_examples()
    assert [shlex.split(line)[1] for line, _ in examples] == ["eij", "mu", "gen-brn", "curve"]
    svg = tmp_path / "stair.svg"
    for line, shown in examples:
        printed = run_shell_line(line, svg).splitlines()
        # "..." stands for the rest of the output
        if "..." in shown:
            shown = shown[: shown.index("...")]
            printed = printed[: len(shown)]
        assert printed == shown, line
    assert svg.read_bytes() == (ROOT / "tests" / "golden" / "words" / "staircase-curve-grid.svg").read_bytes()
