"""A pytest plugin that fails the run if a line of clasplink goes unreached.

Load it with ``-p reach_gate``, with tests/ on the path.  On Python 3.12
and later it registers a ``sys.monitoring`` LINE callback that records a
line of src/clasplink the first time it runs and returns DISABLE, so each
line of code costs the run one call.  At the end of the session every
executable line that no test reached fails the run, unless its text is in
``ALLOWED``.  Older Pythons have no ``sys.monitoring``: there the plugin
prints one line and checks nothing.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "clasplink"
# only a child process, ``python -m clasplink.cli``, runs these lines
ALLOWED = {("cli.py", "argv = sys.argv[1:]"), ("cli.py", "sys.exit(main())")}


def pytest_configure(config):
    if hasattr(sys, "monitoring"):
        config.pluginmanager.register(ReachGate())


def pytest_terminal_summary(terminalreporter):
    if not hasattr(sys, "monitoring"):
        version = "%d.%d" % sys.version_info[:2]
        terminalreporter.write_line(f"reach gate: not checked, Python {version} has no sys.monitoring")


def executable_lines(code):
    """The line numbers of ``code`` and of every code object inside it."""
    lines = {number for _, _, number in code.co_lines() if number}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


class ReachGate:
    def __init__(self):
        self.reached = set()  # (co_filename, line number)
        self.unreached = []  # "file:line: text"
        monitoring = sys.monitoring
        monitoring.use_tool_id(monitoring.COVERAGE_ID, "reach_gate")
        monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, self.line)
        monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)

    def line(self, code, number):
        if "clasplink" in code.co_filename:
            self.reached.add((code.co_filename, number))
        return sys.monitoring.DISABLE

    def pytest_sessionfinish(self, session):
        sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
        seen = {(Path(name).resolve(), number) for name, number in self.reached}
        for path in sorted(SRC.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            text = source.splitlines()
            for number in sorted(executable_lines(compile(source, str(path), "exec"))):
                if (path, number) not in seen and (path.name, text[number - 1].strip()) not in ALLOWED:
                    self.unreached.append(f"{path.name}:{number}: {text[number - 1].strip()}")
        if self.unreached:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("-", f"reach gate: {len(self.unreached)} executable lines of clasplink unreached")
        for entry in self.unreached:
            terminalreporter.write_line(entry)
