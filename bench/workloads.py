"""Seeded inputs, requests and expected outputs for the three workloads.

Each workload function writes its input files into a work directory and
returns the requests of one round, every one paired with its expected
result from the answer key in ``key.py``.  The same seed gives
byte-identical inputs.

Sizes are fixed per slot and the seed picks everything else (content,
shapes, rotations, shuffles, which edits corrupt an input), so runs with
different seeds do the same amount of work and their medians compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import key

WORKLOADS = ("complex-pipeline", "word-curves", "oracle-sweep")

# Whole rounds a 30-second run makes (a round takes about 11, 12 and 6 s on
# the reference machine, 2 vCPUs and Python 3.11, and up to 1.5 times that
# when the machine is busy).  A run of S seconds makes
# round(ROUNDS_PER_30_S * S / 30) rounds, so the request mix, and the sample
# ranks the median and tail fall on, do not depend on how fast the machine
# happened to be.  On complex-pipeline and word-curves each request kind has
# one sample per round, and the tail, the 11th slowest sample, is the middle
# sample of a kind when the number of rounds R is 3 or 7
# (11 = (k - 1) * R + (R + 1) / 2); with other counts it is the fastest or
# slowest of a kind, or flips between two kinds.
# oracle-sweep gets five short rounds: its median falls among the samples
# of `polyomino --max-area 9` (see ORACLE_REPEATS) and its tail among those
# of `polyomino --max-area 9` and `words --max-len 12`, whose latencies
# overlap, so it needs the most samples.
ROUNDS_PER_30_S = {"complex-pipeline": 3, "word-curves": 3, "oracle-sweep": 5}


# --- expectations ------------------------------------------------------------

@dataclass
class Output:
    """Exit 0 with exactly this stdout and nothing on stderr."""

    stdout: str

    def problem(self, rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0; stderr: {err.strip()[:200]!r}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]!r}"
        if out != self.stdout:
            return f"stdout differs from the key: got {out[:120]!r}, expected {self.stdout[:120]!r}"
        return None


@dataclass
class Table:
    """Exit 0 with an oracle table whose rows match the key and all agree."""

    rows: list[tuple[str, ...]]

    def problem(self, rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0; stderr: {err.strip()[:200]!r}"
        got = key.oracle_table(out)
        if got != self.rows:
            bad = next((g for g, e in zip(got, self.rows) if g != e), None)
            return f"oracle table differs from the key ({len(got)} rows, expected {len(self.rows)}; first bad row {bad})"
        return None


@dataclass
class Curve:
    """Exit 0, the key's curve summary line, and a matching SVG file."""

    stdout: str
    svg_path: Path
    facts: key.CurveFacts
    grid: bool

    def problem(self, rc: int, out: str, err: str) -> str | None:
        found = Output(self.stdout).problem(rc, out, err)
        if found:
            return found
        try:
            svg = self.svg_path.read_text(encoding="utf-8")
        except OSError as exc:
            return f"svg not written: {exc}"
        return key.svg_problem(svg, self.facts, self.grid)


@dataclass
class Error:
    """Exit 2 with the message on the given channel ("error:" lines on
    stderr, or validate's violation list on stdout), naming ``needle``."""

    channel: str
    needle: str = ""

    def problem(self, rc: int, out: str, err: str) -> str | None:
        if rc != 2:
            return f"exit {rc}, expected 2 for a corrupted input"
        text = err if self.channel == "stderr" else out
        if self.channel == "stderr" and not err.startswith("error:"):
            return f"stderr does not start with 'error:': {err.strip()[:200]!r}"
        if not text.strip():
            return f"no message on {self.channel}"
        if self.needle not in text:
            return f"{self.channel} does not name {self.needle!r}: {text.strip()[:200]!r}"
        return None


@dataclass
class Request:
    """One CLI request: ``python -m clasplink.cli ARGV``, optionally fed
    a file on stdin or the stdout of an upstream ``python -m clasplink.cli
    PIPE_FROM`` process."""

    label: str
    argv: list[str]
    expect: Output | Table | Curve | Error
    stdin: Path | None = None
    pipe_from: list[str] | None = None
    svg_path: Path | None = None  # removed before the request runs


@dataclass
class Workload:
    name: str
    requests: list[Request] = field(default_factory=list)


# --- complex-pipeline --------------------------------------------------------

BRN_SLOTS = (250, 1250, 5000)          # Brn n: 1000, 5000 and 20000 clasps
RANDOM3_SLOTS = (2000, 10000)          # clasps
RANDOM2_SLOTS = (3000, 15000)          # clasps
CORRUPT_BRN = 1000                     # corrupted copies start from Brn(1000): 4000 clasps
PIPE_SLOTS = (250, 2500)               # gen-brn N | bounds -, N jittered by up to 9

SYNTAX_EDITS = ("bad_sign", "bad_keyword", "bad_endpoint", "superscript_count", "clasp_before_components")
SEMANTIC_EDITS = ("duplicate_clasp", "self_clasp", "dropped_from_order", "unknown_in_order")


def rotated_shuffled(rng: random.Random, cx: key.Complex) -> key.Complex:
    """Move every basepoint by a seeded rotation and shuffle the clasp lines."""
    orders = []
    for order in cx.orders:
        r = rng.randrange(len(order)) if order else 0
        orders.append(order[r:] + order[:r])
    clasps = list(cx.clasps)
    rng.shuffle(clasps)
    return key.Complex(cx.n, clasps, orders)


def random_complex(rng: random.Random, n: int, m: int) -> key.Complex:
    """m clasps over the component pairs of n components, signs biased so
    the linking numbers are nonzero, each order a random permutation."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    clasps = []
    for c in range(m):
        a, b = rng.choice(pairs)
        if rng.random() < 0.5:
            a, b = b, a
        clasps.append((f"c{c}", a, b, 1 if rng.random() < 0.55 else -1))
    cid, a, b, s = clasps[0]
    if key.Complex(n, clasps, []).lk(a, b) == 0:
        clasps[0] = (cid, a, b, -s)  # moves lk(a, b) off zero by 2
    orders = []
    for k in range(1, n + 1):
        order = [c for c, a, b, _ in clasps if k in (a, b)]
        rng.shuffle(order)
        orders.append(order)
    return key.Complex(n, clasps, orders)


def complex_text(rng: random.Random, cx: key.Complex) -> str:
    """File text with seeded comments, blank lines and order-line placement."""
    lines = ["# generated by bench/workloads.py", f"components {cx.n}"]
    for cid, a, b, s in cx.clasps:
        if rng.random() < 0.002:
            lines.append(rng.choice(["", "# a comment line", "   "]))
        lines.append(f"clasp {cid} {a} {b} {'+' if s == 1 else '-'}")
    order_lines = [" ".join(["order", str(k), *cx.orders[k - 1]]) for k in range(1, cx.n + 1)]
    rng.shuffle(order_lines)
    return "\n".join(lines + order_lines) + "\n"


def corrupt(rng: random.Random, cx: key.Complex, text: str, edit: str) -> tuple[str, str, str]:
    """Apply one seeded edit; returns (text, channel for validate, needle).

    Syntax edits make every command fail in the parser ("error:" on
    stderr); semantic edits parse but fail validation, which `validate`
    reports on stdout and the other commands on stderr.  The needle is the
    clasp id the violation must name ("" for syntax edits).
    """
    lines = text.split("\n")
    clasp_rows = [n for n, line in enumerate(lines) if line.startswith("clasp ")]
    row = rng.choice(clasp_rows)
    _, cid, a, b, sign = lines[row].split()
    if edit == "bad_sign":
        lines[row] = f"clasp {cid} {a} {b} *"
    elif edit == "bad_keyword":
        lines[row] = f"clasps {cid} {a} {b} {sign}"
    elif edit == "bad_endpoint":
        lines[row] = f"clasp {cid} {a}.5 {b} {sign}"
    elif edit == "superscript_count":
        count = next(n for n, line in enumerate(lines) if line.startswith("components "))
        lines[count] = "components ³"
    elif edit == "clasp_before_components":
        count = next(n for n, line in enumerate(lines) if line.startswith("components "))
        lines.insert(count, lines.pop(row))
    elif edit == "duplicate_clasp":
        lines.insert(rng.choice(clasp_rows), lines[row])
    elif edit == "self_clasp":
        lines[row] = f"clasp {cid} {a} {a} {sign}"
    elif edit in ("dropped_from_order", "unknown_in_order"):
        k = next(k for k in range(cx.n) if cid in cx.orders[k])
        order_row = next(n for n, line in enumerate(lines) if line.startswith(f"order {k + 1} ")
                         or line == f"order {k + 1}")
        ids = lines[order_row].split()
        at = ids.index(cid)
        if edit == "dropped_from_order":
            del ids[at]
        else:
            ids[at] = f"zz{cid}"
        lines[order_row] = " ".join(ids)
    else:
        raise ValueError(f"unknown edit {edit!r}")
    if edit in SYNTAX_EDITS:
        return "\n".join(lines), "stderr", ""
    return "\n".join(lines), "stdout", f"'{cid}'"


def complex_requests(label: str, path: Path, cx: key.Complex, rng: random.Random) -> list[Request]:
    f = str(path)
    pair = sorted(rng.sample(range(1, cx.n + 1), 2)) if cx.n > 2 else [1, 2]
    pair = [str(c) for c in (pair if rng.random() < 0.5 else pair[::-1])]
    reqs = [
        Request(f"bounds {label}", ["bounds", f], Output(key.bounds_output(cx))),
        Request(f"words {label}", ["words", f], Output(key.words_output(cx))),
        Request(f"lk {label}", ["lk", f, *pair], Output(f"{cx.lk(int(pair[0]), int(pair[1]))}\n")),
        Request(f"validate {label}", ["validate", f], Output("OK\n")),
    ]
    if cx.n == 3:
        reqs.append(Request(f"mu {label}", ["mu", f, "1", "2", "3"], Output(key.mu_output(cx, 1, 2, 3))))
    return reqs


def build_complex_pipeline(rng: random.Random, workdir: Path) -> Workload:
    w = Workload("complex-pipeline")
    sources = []
    for n in BRN_SLOTS:
        cx = rotated_shuffled(rng, key.brn(n))
        if key.bounds_output(cx) != key.brn_bounds_output(n) or sum(key.mu_parts(cx, 1, 2, 3)) != n * n:
            raise AssertionError(f"answer key disagrees with the closed form for Brn({n})")
        sources.append((f"brn-{4 * n}", cx))
    sources += [(f"random3-{m}", random_complex(rng, 3, m)) for m in RANDOM3_SLOTS]
    sources += [(f"random2-{m}", random_complex(rng, 2, m)) for m in RANDOM2_SLOTS]
    for label, cx in sources:
        path = workdir / f"{label}.cc"
        path.write_text(complex_text(rng, cx), encoding="utf-8")
        w.requests += complex_requests(label, path, cx, rng)

    base = rotated_shuffled(rng, key.brn(CORRUPT_BRN))
    for kind, edits in (("syntax", SYNTAX_EDITS), ("semantic", SEMANTIC_EDITS)):
        edit = rng.choice(edits)
        text, channel, needle = corrupt(rng, base, complex_text(rng, base), edit)
        label = f"corrupt-{kind}-{edit}"
        path = workdir / f"{label}.cc"
        path.write_text(text, encoding="utf-8")
        for cmd, args in (("bounds", []), ("words", []), ("lk", ["1", "2"]), ("validate", []),
                          ("mu", ["1", "2", "3"])):
            expect = Error(channel if cmd == "validate" else "stderr", needle)
            w.requests.append(Request(f"{cmd} {label}", [cmd, str(path), *args], expect))

    for slot in PIPE_SLOTS:
        n = slot + rng.randrange(10)
        w.requests.append(Request(f"gen-brn {n} | bounds -", ["bounds", "-"],
                                  Output(key.brn_bounds_output(n)), pipe_from=["gen-brn", str(n)]))
    return w


# --- word-curves -------------------------------------------------------------

WORD_SLOTS = ((50_000, "open"), (75_000, "nonsimple"), (110_000, "simple"),
              (170_000, "open"), (260_000, "nonsimple"), (400_000, "simple"))
MALFORMED_SLOTS = (100_000, 100_000)   # letters before the malformed token
OTHER_SHARE = 0.25                     # letters on indices other than (i, j)
WALK_LIMIT = 400                       # random walks stay within about +-WALK_LIMIT
WORD_EDITS = (("x0", "index 0"), ("x012", "leading zero in the index"), ("x3^0", "exponent 0"),
              ("x3^-07", "leading zero in the exponent"), ("y3", "unknown letter"),
              ("x3^", "missing exponent"))


def chunks(rng: random.Random, index: int, total: int) -> list[tuple[int, int]]:
    """Split a signed displacement into exponent runs of at most 9 letters."""
    runs, sign, left = [], (1 if total > 0 else -1), abs(total)
    while left:
        e = min(left, rng.randint(1, 9))
        runs.append((index, sign * e))
        left -= e
    return runs


def ij_runs(rng: random.Random, shape: str, budget: int, i: int, j: int) -> list[tuple[int, int]]:
    """About ``budget`` letters on indices i and j tracing the given shape."""
    runs: list[tuple[int, int]] = []
    if shape == "simple":
        # A comb: T teeth up and down, closed along a base line one step
        # below; every vertex is met once.  The tooth heights are a fixed
        # multiset in seeded order, so the curve's size (and the render's
        # memory) is the same for every seed.
        teeth = max(2, int((budget / 2) ** 0.5))
        heights = [teeth // 2 + 1 + t for t in range(teeth)]
        rng.shuffle(heights)
        for h in heights:
            runs += chunks(rng, j, h) + [(i, 1)] + chunks(rng, j, -h) + [(i, 1)]
        runs += [(j, -1)] + chunks(rng, i, -2 * teeth) + [(j, 1)]
        return runs
    x = y = used = 0
    while used < budget:
        index = rng.choice((i, j))
        # Turn back at WALK_LIMIT so the bounding box, and with it the SVG
        # size and the render's memory, is about the same for every seed.
        at = x if index == i else y
        sign = -1 if at > WALK_LIMIT else 1 if at < -WALK_LIMIT else rng.choice((1, -1))
        e = sign * rng.randint(1, 9)
        runs.append((index, e))
        used += abs(e)
        if index == i:
            x += e
        else:
            y += e
    if shape == "nonsimple":
        runs += chunks(rng, i, -x) if x else []
        runs += chunks(rng, j, -y) if y else []
    elif x == 0 and y == 0:
        runs.append((i, 1))
    return runs


def with_other_letters(rng: random.Random, runs, others) -> list[tuple[int, int]]:
    """Interleave runs on the other indices until they hold OTHER_SHARE of the letters."""
    out = []
    for run in runs:
        out.append(run)
        if rng.random() < OTHER_SHARE / (1 - OTHER_SHARE):
            out.append((rng.choice(others), rng.choice((1, -1)) * rng.randint(1, 9)))
    return out


def word_lines(rng: random.Random, runs) -> list[str]:
    """Word text: varied separators, exponents written as x3, x3^1 or x3^-4,
    and the odd comment line."""
    lines, tokens = [], []
    for index, e in runs:
        exp = "" if e == 1 and rng.random() < 0.8 else f"^{e}"
        tokens.append(f"x{index}{exp}")
        if len(tokens) >= rng.randint(6, 24):
            seps = [rng.choice((" ", " ", " ", ".", "  ", " . ")) for _ in tokens]
            lines.append("".join(t + s for t, s in zip(tokens, seps)).rstrip())
            tokens = []
            if rng.random() < 0.01:
                lines.append("# " + rng.choice(("checkpoint", "comment", "x1 not a letter here")))
    if tokens:
        lines.append(" ".join(tokens))
    return lines


def make_word(rng: random.Random, letters: int, shape: str):
    i, j, *others = rng.sample((1, 2, 3, 4), 4)
    runs = with_other_letters(rng, ij_runs(rng, shape, int(letters * (1 - OTHER_SHARE)), i, j), others)
    facts = key.curve_facts(runs, i, j)
    if facts.eij != facts.area or facts.closed != (shape != "open") or \
            (facts.closed and facts.simple != (shape == "simple")):
        raise AssertionError(f"generated {shape} word has the wrong shape: {facts}")
    return runs, i, j, facts


def word_requests(label: str, path: Path, svg: Path, i: int, j: int, expect) -> list[Request]:
    """The four word requests; ``expect(method_or_grid)`` gives each one's expectation."""
    pair = [str(i), str(j)]
    return [
        Request(f"eij {label}", ["eij", "-", *pair], expect("both"), stdin=path),
        Request(f"eij --method sum {label}", ["eij", "-", *pair, "--method", "sum"], expect("sum"), stdin=path),
        Request(f"curve {label}", ["curve", "-", *pair, "--out", str(svg)], expect("curve"),
                stdin=path, svg_path=svg),
        Request(f"curve --grid {label}", ["curve", "-", *pair, "--out", str(svg), "--grid"],
                expect("grid"), stdin=path, svg_path=svg),
    ]


def build_word_curves(rng: random.Random, workdir: Path) -> Workload:
    w = Workload("word-curves")
    svg = workdir / "curve.svg"
    for letters, shape in WORD_SLOTS:
        runs, i, j, facts = make_word(rng, letters, shape)
        label = f"{shape}-{letters}"
        path = workdir / f"{label}.word"
        path.write_text("\n".join(word_lines(rng, runs)) + "\n", encoding="utf-8")

        def expect(kind, facts=facts):
            if kind in ("both", "sum"):
                return Output(f"{facts.eij}\n")
            return Curve(facts.curve_line(), svg, facts, kind == "grid")

        w.requests += word_requests(label, path, svg, i, j, expect)
    for n, letters in enumerate(MALFORMED_SLOTS):
        runs, i, j, _ = make_word(rng, letters, rng.choice(("open", "nonsimple", "simple")))
        lines = word_lines(rng, runs)
        bad, _ = rng.choice(WORD_EDITS)
        middle = [n for n in range(len(lines) // 3, 2 * len(lines) // 3) if not lines[n].startswith("#")]
        at = rng.choice(middle)
        tokens = lines[at].split(" ")
        tokens.insert(rng.randrange(len(tokens) + 1), bad)
        lines[at] = " ".join(tokens)
        label = f"malformed{n}-{bad}"
        path = workdir / f"malformed{n}.word"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        w.requests += word_requests(label, path, svg, i, j, lambda kind: Error("stderr"))
    return w


# --- oracle-sweep ------------------------------------------------------------

ORACLE_PARAMS = (("words", "--max-len", (10, 11, 12)), ("polyomino", "--max-area", (8, 9, 10)))
# Times each request runs in a round.  Three of the six requests take under
# 0.3 s and three take 0.7 s or more, so with one of each the median falls
# in the gap between the slowest short sample and the fastest long one, and
# one stray sample moves it.  Three `polyomino --max-area 9` per round put
# the median inside that request's samples (15 of 40 in a 30-second run).
ORACLE_REPEATS = {("polyomino", 9): 3}


def build_oracle_sweep(rng: random.Random, workdir: Path) -> Workload:
    w = Workload("oracle-sweep")
    for kind, flag, limits in ORACLE_PARAMS:
        for limit in limits:
            expect = Table(key.oracle_expected_table(kind, limit))
            for _ in range(ORACLE_REPEATS.get((kind, limit), 1)):
                w.requests.append(Request(f"oracle {kind} {flag} {limit}", ["oracle", kind, flag, str(limit)],
                                          expect))
    rng.shuffle(w.requests)
    return w


GENERATORS = {
    "complex-pipeline": build_complex_pipeline,
    "word-curves": build_word_curves,
    "oracle-sweep": build_oracle_sweep,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs for this seed and return one round of requests."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](random.Random(f"{name}:{seed}"), workdir)
