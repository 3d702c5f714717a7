"""Steadiness check: two sets of runs of every workload, each metric's
spread and move against its bound in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--seconds S]

Each run is ``bench/run.py --trace 0`` with its own seed: the first set
uses seeds 1..R and the second R+1..2R.  Runs of the different workloads
are interleaved so slow drift in the machine hits them alike.  For every
end-to-end metric it prints, per set, the median and the spread (third
quartile minus first, as a share of the median, from
``statistics.quantiles(values, n=4)``), and how far the second set's
median moved from the first, in either direction.  A spread or a move
beyond the metric's bound is marked FAIL and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    values = {(s, w): {m["name"]: [] for m in metrics} for s in range(SETS) for w in names}
    failed = 0
    for s in range(SETS):
        for run in range(args.runs):
            seed = 1 + s * args.runs + run
            for w in names:
                proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                                       "--seconds", str(args.seconds), "--trace", "0"],
                                      cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"run failed: {w} seed {seed}: {proc.stderr.strip()[-500:]}")
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[s, w][name].append(metric["value"])
                print(f"set {s + 1} run {run + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    ok = failed == 0
    print(f"\nfailed requests over all runs: {failed}")
    print(f"{'workload':18s} {'metric':16s} {'bound':>6s} " + " ".join(
        f"{'median' + str(s + 1):>10s} {'spread' + str(s + 1):>8s}" for s in range(SETS)) + f" {'moved':>7s}")
    for w in names:
        for m in metrics:
            row = [(statistics.median(v), spread(v)) for v in (values[s, w][m["name"]] for s in range(SETS))]
            moved = (row[1][0] - row[0][0]) / row[0][0]
            verdict = "ok"
            if abs(moved) > m["bound"] or any(sp > m["bound"] for _, sp in row):
                verdict, ok = "FAIL", False
            print(f"{w:18s} {m['name']:16s} {m['bound']:6.2f} " + " ".join(
                f"{med:10.5g} {sp:8.3f}" for med, sp in row) + f" {moved:+7.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
