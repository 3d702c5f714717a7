"""Run one clasplink CLI request in this fresh interpreter, with spans.

    python bench/trace_child.py --record FILE -- ARGV...
    python bench/trace_child.py --record FILE --alloc -- ARGV...

The first form wraps each layer's public functions (in every clasplink
module that binds them) so that one span is recorded per call, then runs
``clasplink.cli.main(ARGV)`` with the real stdin and stdout.  Spans stay in
memory and are written to FILE as JSON when the request ends.  The
second form records only the tracemalloc peak of the request, so the
allocation tracking never distorts the timed spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc

# name: (module, attribute, work counter fed by the result or None)
TRACED = {
    "words.parse_word": ("clasplink.words", "parse_word", "words.letters"),
    "complexes.parse_complex": ("clasplink.complexes", "parse_complex", "complexes.clasps"),
    "complexes.validate": ("clasplink.complexes", "validate", None),
    "complexes.clasp_word": ("clasplink.complexes", "clasp_word", "words.letters"),
    "complexes.generate_brn": ("clasplink.complexes", "generate_brn", "complexes.clasps"),
    "complexes.print_complex": ("clasplink.complexes", "print_complex", None),
    "invariants.e_ij": ("clasplink.invariants", "e_ij", None),
    "invariants.pairwise_linking": ("clasplink.invariants", "pairwise_linking", None),
    "invariants.triple_linking": ("clasplink.invariants", "triple_linking", None),
    "bounds.bound_report": ("clasplink.bounds", "bound_report", None),
    "bounds.format": ("clasplink.bounds", "BoundReport.format", None),
    "curves.build_curve": ("clasplink.curves", "build_curve", "curves.vertices"),
    "curves.line_integral_x_dy": ("clasplink.curves", "LatticeCurve.line_integral_x_dy", None),
    "curves.is_simple": ("clasplink.curves", "LatticeCurve.is_simple", None),
    "cli.render_curve_svg": ("clasplink.cli", "render_curve_svg", "cli.svg_bytes"),
    "oracles.verify_word_length_bound": ("clasplink.oracles", "verify_word_length_bound", "oracles.rows"),
    "oracles.verify_min_perimeter": ("clasplink.oracles", "verify_min_perimeter", "oracles.rows"),
}

WORK = {
    "words.letters": len,
    "complexes.clasps": lambda complex_: len(complex_.clasps),
    "curves.vertices": lambda curve: len(curve.vertices),
    "cli.svg_bytes": lambda svg: len(svg.encode("utf-8")),
    "oracles.rows": len,
}


class Tracer:
    """Spans as [name, start, end, parent index], plus work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, counter: str | None):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if counter:
                tracer.counts[counter] = tracer.counts.get(counter, 0) + WORK[counter](result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a clasplink module binds it,
        so calls between layers are seen too (e.g. validate inside bound_report)."""
        modules = [m for n, m in sys.modules.items() if n == "clasplink" or n.startswith("clasplink.")]
        for name, (module_name, attribute, counter) in TRACED.items():
            owner = importlib.import_module(module_name)
            *cls, attr = attribute.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, counter)
            if cls:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


class CountingStdout:
    """Pass-through stdout that counts the bytes the CLI writes."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def run_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1:]
    record_path = options[options.index("--record") + 1]
    import clasplink.cli as cli

    record: dict = {"rc": None}
    try:
        if "--alloc" in options:
            tracemalloc.start()
            record["rc"] = run_main(cli.main, argv)
            record["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return record["rc"]
        tracer = Tracer()
        tracer.install()
        stdout = sys.stdout = CountingStdout(sys.stdout)
        record["rc"] = tracer.call("cli.main", run_main, cli.main, argv)
        stdout.flush()
        record.update(spans=tracer.spans, counts={**tracer.counts, "cli.stdout_bytes": stdout.bytes},
                      missing=tracer.missing)
        return record["rc"]
    finally:
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
