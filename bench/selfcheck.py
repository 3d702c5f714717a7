"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Inputs are a function of the seed: each workload is generated twice, in
   two interpreters with different hash seeds, and must match byte for
   byte; another seed must give other inputs.
2. The answer key agrees with the program on data/*.cc,
   data/staircase.word, gen-brn 1..6 and small oracle sweeps, and every
   corruption edit the generator can pick ends in the expected error.
3. BENCHMARK.json names exactly the metrics run.py reports.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import key
import run
import workloads

ROOT = run.ROOT
DATA = ROOT / "data"


def digest(name: str, seed: int, workdir: Path) -> str:
    """Hash of every input file and every request with its expectation."""
    w = workloads.build(name, seed, workdir)
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + path.read_bytes())
    for req in w.requests:
        h.update(repr((req.label, req.argv, req.pipe_from, req.expect)).replace(str(workdir), "").encode())
    return h.hexdigest()


def digest_in_child(name: str, seed: int, workdir: Path, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, __file__, "--digest", name, str(seed), str(workdir)],
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def cli(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "clasplink.cli", *argv], input=stdin, capture_output=True,
                          text=True, cwd=ROOT, env=run.child_env())


def expect(label: str, problem: str | None, failures: list[str]) -> None:
    print(f"{'FAIL' if problem else 'ok  '} {label}" + (f": {problem}" if problem else ""))
    if problem:
        failures.append(label)


def check_request(argv, expectation, stdin: str | None = None) -> str | None:
    proc = cli(*argv, stdin=stdin)
    if "Traceback" in proc.stderr:
        return "traceback: " + proc.stderr.strip().splitlines()[-1]
    return expectation.problem(proc.returncode, proc.stdout, proc.stderr)


def check_determinism(failures: list[str], tmp: Path) -> None:
    for name in workloads.WORKLOADS:
        first = digest_in_child(name, 7, tmp / f"{name}-a", "1")
        again = digest_in_child(name, 7, tmp / f"{name}-b", "2")
        other = digest_in_child(name, 8, tmp / f"{name}-c", "1")
        problem = None if first == again else "same seed gave different inputs"
        problem = problem or (None if first != other else "another seed gave the same inputs")
        expect(f"inputs of {name} are a function of the seed", problem, failures)


def check_complexes(failures: list[str]) -> None:
    for path in sorted(DATA.glob("*.cc")):
        cx = key.parse_complex_text(path.read_text(encoding="utf-8"))
        f = str(path)
        cases = [(["bounds", f], key.bounds_output(cx)), (["words", f], key.words_output(cx)),
                 (["validate", f], "OK\n")]
        for i in range(1, cx.n + 1):
            for j in range(1, cx.n + 1):
                if i != j:
                    cases.append((["lk", f, str(i), str(j)], f"{cx.lk(i, j)}\n"))
        if cx.n == 3:
            for perm in ((1, 2, 3), (2, 3, 1), (3, 2, 1)):
                cases.append((["mu", f, *map(str, perm)], key.mu_output(cx, *perm)))
        for argv, stdout in cases:
            expect(f"{' '.join(argv[:1])} {path.name} {' '.join(argv[2:])}",
                   check_request(argv, workloads.Output(stdout)), failures)


def check_brn(failures: list[str]) -> None:
    for n in range(1, 7):
        text = key.brn_text(n)
        expect(f"gen-brn {n} matches the key's Brn({n})", check_request(["gen-brn", str(n)], workloads.Output(text)),
               failures)
        closed_form = key.brn_bounds_output(n)
        problem = None if key.bounds_output(key.brn(n)) == closed_form else "key's bounds differ from the closed form"
        expect(f"bounds of Brn({n}): key == closed form (mu = n^2)", problem, failures)
        expect(f"gen-brn {n} | bounds -", check_request(["bounds", "-"], workloads.Output(closed_form), text),
               failures)
        expect(f"gen-brn {n} | mu - 1 2 3",
               check_request(["mu", "-", "1", "2", "3"], workloads.Output(key.mu_output(key.brn(n), 1, 2, 3)), text),
               failures)


def check_words(failures: list[str], tmp: Path) -> None:
    text = (DATA / "staircase.word").read_text(encoding="utf-8")
    runs = key.parse_word_text(text)
    svg = tmp / "staircase.svg"
    for i, j in ((1, 2), (2, 1)):
        facts = key.curve_facts(runs, i, j)
        for method in ("sum", "integral", "both"):
            expect(f"eij staircase.word {i} {j} --method {method}",
                   check_request(["eij", "-", str(i), str(j), "--method", method],
                                 workloads.Output(f"{facts.eij}\n"), text), failures)
        for grid in (False, True):
            svg.unlink(missing_ok=True)
            argv = ["curve", "-", str(i), str(j), "--out", str(svg)] + (["--grid"] if grid else [])
            expect(" ".join(["curve staircase.word", str(i), str(j)] + (["--grid"] if grid else [])),
                   check_request(argv, workloads.Curve(facts.curve_line(), svg, facts, grid), text), failures)


def check_oracles(failures: list[str]) -> None:
    for kind, flag, limit in (("words", "--max-len", 8), ("words", "--max-len", 9), ("polyomino", "--max-area", 5)):
        expect(f"oracle {kind} {flag} {limit}",
               check_request(["oracle", kind, flag, str(limit)], workloads.Table(key.oracle_expected_table(kind, limit))),
               failures)


def check_edits(failures: list[str], tmp: Path) -> None:
    """Every edit the generator may pick ends in exit 2 as the key expects."""
    rng = random.Random("selfcheck")
    base = workloads.rotated_shuffled(rng, key.brn(5))
    for edit in workloads.SYNTAX_EDITS + workloads.SEMANTIC_EDITS:
        text, channel, needle = workloads.corrupt(rng, base, workloads.complex_text(rng, base), edit)
        path = tmp / f"{edit}.cc"
        path.write_text(text, encoding="utf-8")
        for cmd, args in (("bounds", []), ("validate", []), ("mu", ["1", "2", "3"])):
            error = workloads.Error(channel if cmd == "validate" else "stderr", needle)
            expect(f"{cmd} on a complex with edit {edit}", check_request([cmd, str(path), *args], error), failures)
    for bad, what in workloads.WORD_EDITS:
        expect(f"eij on a word with {what} ({bad})",
               check_request(["eij", "-", "1", "2"], workloads.Error("stderr"), f"x1 x2\nx2 {bad} x1\n"), failures)


def check_spec(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for section, reported in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != reported:
            problems.append(f"{section} declares {sorted(set(declared) ^ set(reported)) or 'other units'}")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ")
    expect("BENCHMARK.json names the metrics and workloads run.py reports", "; ".join(problems) or None, failures)


def main() -> int:
    if sys.argv[1:2] == ["--digest"]:
        name, seed, workdir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
        print(digest(name, seed, workdir))
        return 0
    problem = run.check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    failures: list[str] = []
    run.RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp_name:
        tmp = Path(tmp_name)
        check_spec(failures)
        check_determinism(failures, tmp)
        check_complexes(failures)
        check_brn(failures)
        check_words(failures, tmp)
        check_oracles(failures)
        check_edits(failures, tmp)
    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
