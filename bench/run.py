"""clasplink benchmark: CLI requests in fresh processes, checked against
an independent answer key.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One client sends one request at a time (a closed loop).  Every request
is a fresh ``python -m clasplink.cli ...`` process, and ``gen-brn N |
bounds -`` is a two-process pipe, so the load stays within two cores.
A fresh process per request is required, not a convenience:
``oracles._fixed_shapes`` is an unbounded module-level ``lru_cache``, and
``oracle polyomino --max-area 10`` measured 2.35 s on the first call
through ``cli.main`` and 0.89 s on a second call in the same process.
A CLI user pays the cold cost on every run.

Requests run in whole rounds: every request of the workload once, in a
seeded order.  A run makes as many rounds as take ``--seconds`` on the
reference machine (``workloads.ROUNDS_PER_30_S``), so every run measures
the same amount of work and the same request mix; a traced run makes half
as many.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs each request untraced and then again under
``trace_child.py``, which records a span around every call into a layer,
and prints the per-layer metrics; the spans go to
``.bench_run/spans-<workload>-s<seed>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it name every metric with its
unit and list each failed request with its cause.  Exit status is 1
when the checkout has no ``src/clasplink`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
TIMEOUT_S = 60.0  # per request, and never past the run's hard stop
HARD_STOP = 4.0   # a run ends by HARD_STOP * --seconds whatever the program does
SETUP_PROBES_PER_RUN = 24
OVERRUN = 2.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
}

SELF_TIMES = (
    "complexes.parse_complex", "complexes.validate", "complexes.clasp_word",
    "complexes.generate_brn", "complexes.print_complex",
    "invariants.pairwise_linking", "invariants.triple_linking", "invariants.e_ij",
    "bounds.bound_report", "bounds.format", "words.parse_word",
    "curves.build_curve", "curves.line_integral_x_dy", "curves.is_simple",
    "cli.render_curve_svg", "oracles.verify_word_length_bound", "oracles.verify_min_perimeter",
    "cli.main",
)
WORK_COUNTS = {
    "complexes.clasps": "count", "words.letters": "count", "curves.vertices": "count",
    "oracles.rows": "count", "cli.svg_bytes": "bytes", "cli.stdout_bytes": "bytes",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "complexes.validate.calls": "count",
    **WORK_COUNTS,
    "oracles.alloc_peak_mb": "MiB",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    label: str
    wall_s: float     # spawn to exit with stdout read, as the spawner times it
    busy_s: float     # the same plus handing the job to the spawner and its reply
    maxrss_kb: int
    problem: str | None


def cli_command(argv: list[str], slot: int) -> list[str]:
    return [sys.executable, "-m", "clasplink.cli", *argv]


def traced_command(records: list[Path], alloc: bool = False):
    """Commands that run a request under trace_child.py; the final process
    of a request writes records[0], a pipe's upstream process records[1]."""
    mode = ["--alloc"] if alloc else []

    def command(argv: list[str], slot: int) -> list[str]:
        return [sys.executable, str(BENCH / "trace_child.py"), "--record", str(records[slot]),
                *mode, "--", *argv]

    return command


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """The spawner.py helper process, which starts, times and reaps requests."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())

    def run(self, job: dict) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def spawn(spawner: Spawner, req: workloads.Request, workdir: Path, deadline: float,
          command=cli_command) -> Outcome:
    """Run one request from spawn to exit, stdout read in full, and check it.
    ``busy_s`` stops when the spawner replies, so the benchmark's own reading
    and checking of the outputs is not part of any metric."""
    if req.svg_path:
        req.svg_path.unlink(missing_ok=True)
    out_path, err_paths = workdir / "stdout", [workdir / "stderr.0", workdir / "stderr.1"]
    start = time.perf_counter()
    reply = spawner.run({
        "argv": command(req.argv, 0),
        "pipe_from": command(req.pipe_from, 1) if req.pipe_from else None,
        "stdin": str(req.stdin) if req.stdin else None,
        "stdout": str(out_path), "stderr": [str(p) for p in err_paths],
        "cwd": str(ROOT), "timeout": min(TIMEOUT_S, max(1.0, deadline - time.perf_counter())),
    })
    busy_s = time.perf_counter() - start
    out = out_path.read_bytes().decode("utf-8", "replace")
    errs = [p.read_bytes().decode("utf-8", "replace") for p in err_paths]
    problem = check(req, reply["codes"], out, errs, reply["timed_out"])
    return Outcome(req.label, reply["wall_s"], busy_s, reply["maxrss_kb"], problem)


def check(req: workloads.Request, codes: list[int], out: str, errs: list[str], timed_out: bool) -> str | None:
    if timed_out:
        return f"timed out (limit: {TIMEOUT_S:g} s per request, or the run's hard stop)"
    if any("Traceback (most recent call last)" in e for e in errs):
        return "traceback on stderr: " + next(e for e in errs if "Traceback" in e).strip().splitlines()[-1]
    if req.pipe_from and (codes[1] != 0 or errs[1]):
        return f"upstream {' '.join(req.pipe_from)} exited {codes[1]}: {errs[1].strip()[:200]!r}"
    return req.expect.problem(codes[0], out, errs[0])


def rounds(requests, seed: int, planned: int, seconds: float, run_round) -> int:
    """Run ``planned`` whole rounds in seeded orders.  Stop early only when
    another round would end past ``OVERRUN * seconds``, so a slow machine or
    program cannot stretch a run far beyond its time."""
    start = time.perf_counter()
    for done in range(planned):
        order = list(requests)
        Random(f"{seed}:round:{done}").shuffle(order)
        round_start = time.perf_counter()
        run_round(done, order)
        now = time.perf_counter()
        if now - start + (now - round_start) > OVERRUN * seconds:
            return done + 1
    return planned


def planned_rounds(name: str, seconds: float, traced: bool) -> int:
    per_30_s = workloads.ROUNDS_PER_30_S[name] / (2 if traced else 1)
    return max(1, round(per_30_s * seconds / 30))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_setup(spawner: Spawner, workdir: Path, probes: int) -> list[float]:
    """Wall times of fresh interpreters running ``import clasplink.cli``."""
    job = {"argv": [sys.executable, "-c", "import clasplink.cli"], "pipe_from": None, "stdin": None,
           "stdout": str(workdir / "stdout"), "stderr": [str(workdir / "stderr.0")],
           "cwd": str(ROOT), "timeout": TIMEOUT_S}
    samples = []
    for _ in range(probes):
        reply = spawner.run(job)
        if reply["codes"] != [0]:
            raise RuntimeError(f"import clasplink.cli failed: {(workdir / 'stderr.0').read_text()[-300:]}")
        samples.append(reply["wall_s"])
    return samples


def check_checkout() -> str | None:
    """The program under test must be this checkout's src/clasplink."""
    if not (SRC / "clasplink" / "cli.py").is_file():
        return f"no clasplink sources at {SRC / 'clasplink'}"
    probe = subprocess.run([sys.executable, "-c", "import clasplink.cli as m; print(m.__file__)"],
                           env=child_env(), cwd=ROOT, capture_output=True, text=True)
    if probe.returncode != 0:
        return f"cannot import clasplink.cli: {probe.stderr.strip()[-300:]}"
    found = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in found.parents:
        return f"clasplink.cli resolves to {found}, outside {SRC}"
    return None


def run_timed(workload: workloads.Workload, seed: int, seconds: float, workdir: Path, spawner: Spawner,
              deadline: float):
    outcomes: list[Outcome] = []
    setup_samples: list[float] = []
    planned = planned_rounds(workload.name, seconds, False)

    def run_round(_, order):
        # Set-up probes before every round sample the same machine state as the requests.
        setup_samples.extend(measure_setup(spawner, workdir, -(-SETUP_PROBES_PER_RUN // planned)))
        outcomes.extend(spawn(spawner, req, workdir, deadline) for req in order if time.perf_counter() < deadline)

    n_rounds = rounds(workload.requests, seed, planned, seconds, run_round)
    walls = [o.wall_s for o in outcomes]
    pct, tail_s = tail(walls)
    busy = sum(o.busy_s for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        # The median of every request of the run: it draws on all the run's
        # samples, where a median over rounds rests on one sample a round.
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_s,
        "throughput_rps": len(outcomes) / busy,
        "peak_rss_mb": max(o.maxrss_kb for o in outcomes) / 1024,
    }
    notes = [
        f"{len(outcomes)} requests in {n_rounds} rounds of {len(workload.requests)} over {busy:.1f} s of request time",
        f"latency_tail_s is p{pct:.1f} of {len(walls)} samples",
        f"peak_rss_mb from: {max(outcomes, key=lambda o: o.maxrss_kb).label}",
    ]
    return metrics, END_TO_END, outcomes, notes


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name sum of span duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), value in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + value
    return totals


def run_traced(workload: workloads.Workload, seed: int, seconds: float, workdir: Path, spawner: Spawner,
               deadline: float):
    outcomes: list[Outcome] = []
    plain_s = traced_s = 0.0
    totals: dict[str, float] = {}
    counts_by_round: list[dict[str, int]] = []
    alloc_peak = 0
    alloc_done: set[str] = set()  # one tracemalloc pass per distinct oracle request
    span_lines: list[str] = []
    missing: set[str] = set()
    records = [workdir / "record.0.json", workdir / "record.1.json"]
    request_id = 0

    def spawn_traced(req: workloads.Request, alloc: bool = False) -> tuple[Outcome, list[dict]]:
        """Run a request under trace_child.py and read back its records.  A
        record left from an earlier request is removed first, so a child that
        never writes one (killed at the timeout) fails instead of reusing it."""
        used = records[:2] if req.pipe_from else records[:1]
        for path in used:
            path.unlink(missing_ok=True)
        outcome = spawn(spawner, req, workdir, deadline, traced_command(records, alloc))
        data = []
        for path in used:
            if path.is_file():
                data.append(json.loads(path.read_text(encoding="utf-8")))
            elif outcome.problem is None:
                outcome.problem = f"the traced child wrote no {path.name}"
        return outcome, data

    def run_round(round_no, order):
        nonlocal plain_s, traced_s, alloc_peak, request_id
        counts: dict[str, int] = {}
        for req in order:
            if time.perf_counter() > deadline:
                break
            plain = spawn(spawner, req, workdir, deadline)
            traced, request_records = spawn_traced(req)
            outcomes.extend((plain, traced))
            plain_s += plain.wall_s
            traced_s += traced.wall_s
            spans: list[list] = []
            for data in request_records:
                # Each process numbers its spans from 0; shift parents to this request's list.
                offset = len(spans)
                spans += [[n, a, b, None if p is None else p + offset] for n, a, b, p in data.get("spans", [])]
                missing.update(data.get("missing", []))
                for name, value in data.get("counts", {}).items():
                    counts[name] = counts.get(name, 0) + value
            for name, value in self_times(spans).items():
                totals[name] = totals.get(name, 0.0) + value
            counts["complexes.validate.calls"] = counts.get("complexes.validate.calls", 0) + sum(
                1 for s in spans if s[0] == "complexes.validate")
            for index, (name, start, end, parent) in enumerate(spans):
                span_lines.append(json.dumps({
                    "request": request_id, "round": round_no, "label": req.label, "span": index,
                    "name": name, "start": start, "end": end, "parent": parent}))
            request_id += 1
            if req.argv[0] == "oracle" and req.label not in alloc_done:
                alloc_done.add(req.label)
                alloc, alloc_data = spawn_traced(req, alloc=True)
                outcomes.append(alloc)
                alloc_peak = max([alloc_peak, *(d.get("alloc_peak_bytes", 0) for d in alloc_data)])
        counts_by_round.append(counts)

    n_rounds = rounds(workload.requests, seed, planned_rounds(workload.name, seconds, True), seconds, run_round)
    spans_path = RUN_DIR / f"spans-{workload.name}-s{seed}.jsonl"
    spans_path.write_text("\n".join(span_lines) + "\n", encoding="utf-8")

    metrics = {f"{name}.self_s": totals.get(name, 0.0) / n_rounds for name in SELF_TIMES}
    counts = counts_by_round[0]
    metrics["complexes.validate.calls"] = counts.get("complexes.validate.calls", 0)
    metrics.update({name: counts.get(name, 0) for name in WORK_COUNTS})
    metrics["oracles.alloc_peak_mb"] = alloc_peak / 2**20
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = [
        f"{n_rounds} traced rounds of {len(workload.requests)} requests; self times are seconds per round",
        "cli.main.self_s is an estimate: the cli.main span minus the traced stage spans inside it",
        "counts are per round and " + ("repeat exactly in every round" if all(
            c == counts for c in counts_by_round) else "DIFFER between rounds"),
        f"spans: {spans_path.relative_to(ROOT)}",
    ]
    if missing:
        notes.append(f"not found in this clasplink, reported as 0: {', '.join(sorted(missing))}")
    return metrics, PER_LAYER, outcomes, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = RUN_DIR / f"{name}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    deadline = time.perf_counter() + HARD_STOP * seconds
    try:
        workload = workloads.build(name, seed, workdir)
        runner = run_traced if trace else run_timed
        with Spawner() as spawner:
            metrics, units, outcomes, notes = runner(workload, seed, seconds, workdir, spawner, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if time.perf_counter() > deadline:
        notes.append(f"stopped at the hard limit of {HARD_STOP:g} x --seconds; the last round is incomplete")
    failed = [o for o in outcomes if o.problem]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for metric, value in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{metric:40s} {shown} {units[metric]}")
    # Not a JSON metric: it is 0 in a passing run, and attempted/failed carry it.
    print(f"{'failed_ratio':40s} {len(failed) / max(1, len(outcomes)):>16.6g} ratio ({len(failed)} of {len(outcomes)})")
    for note in notes:
        print(f"  {note}")
    for o in failed:
        print(f"  FAIL {o.label}: {o.problem}")
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    RUN_DIR.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
