"""Spread report: run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload certify-float --seeds 1-10 --out a.json
    python3 perfbench/spread.py --workload certify-float --seeds 11-20 --compare a.json

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  ``--compare`` also prints how far each median moved from a
saved earlier set, signed so that positive means worse.  The exit code is 1
when a run fails its checks, a spread other than ``setup_s`` exceeds its
bound, or a median is worse than the saved one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    return result


def summarise(runs: list[dict], specs: dict) -> dict:
    out = {}
    for name, spec in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "unit": spec["unit"], "bound": spec.get("bound"), "values": values}
    return out


def worse_by(new: float, old: float, better: str) -> float:
    """Share of the old median by which the new one is worse (negative: better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save runs and summary as JSON")
    ap.add_argument("--compare", help="JSON saved by --out to compare medians with")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in bench[kind]}
    old = json.loads(Path(args.compare).read_text()) if args.compare else {}
    report: dict = {}
    bad = False
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
                  file=sys.stderr)
        summary = summarise(runs, specs)
        report[workload] = {"runs": runs, "summary": summary}
        bad |= not all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs of {seconds:g} s, trace {args.trace}")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}" + ("  vs-saved" if old else ""))
        for name, s in summary.items():
            bound = s["bound"]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " ok" if s["spread"] < bound / 3 else (" >1/3" if s["spread"] <= bound else " OVER")
                bad |= s["spread"] > bound
            line = (f"  {name:44s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                    f"{s['spread']:8.4f} {bound if bound is not None else '-':>6}{flag}")
            prev = old.get(workload, {}).get("summary", {}).get(name)
            if prev is not None and bound is not None:
                shift = worse_by(s["median"], prev["median"], specs[name]["better"])
                bad |= shift > bound
                line += f"  {shift:+.4f}" + (" OVER" if shift > bound else "")
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
