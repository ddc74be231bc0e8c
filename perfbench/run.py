"""typsat benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload certify-float --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; typsat is imported from ``src/``.
The workload runs single-threaded in this process, a closed loop with one
client.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a run that alternates untraced and traced ops.  Times
are scaled to a reference machine speed (see speed.py).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the run environment,
the tail percentile used and the unscaled times.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported here or in a child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "traces"

#: Set-up is measured in this many fresh processes (this one included) and
#: reported as their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150
#: Reference-kernel samples taken right after each set-up.
SETUP_KERNEL_SAMPLES = 5
#: A reference-kernel sample is taken before the next op once the ops since
#: the last sample have run this long; certify and oracle ops are longer, so
#: they get a sample before every op.
REF_EVERY_S = 0.25
#: op_s_tail is this percentile, lowered when fewer than TAIL_BEYOND samples
#: would lie beyond it.  Not p99: on the machine the bounds were set on, the
#: p99 of the 4 ms corpus op moved by 68% (quartile distance over median)
#: across five seeds with the same input mix, from millisecond stalls of
#: the machine; p90 moved by 4.5%.
TAIL_PERCENTILE = 90.0
TAIL_BEYOND = 10


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: time import plus one warm-up op, then the kernel")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def require_sources() -> None:
    if not (SRC / "typsat" / "__init__.py").is_file():
        fail(f"no typsat sources under {SRC}; run from a source checkout")


def import_typsat():
    """Put the checkout's src/ first on sys.path and import the benchmark modules."""
    require_sources()
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import typsat
    import workloads
    if Path(typsat.__file__).resolve().parent != SRC / "typsat":
        fail(f"imported typsat from {typsat.__file__}, not from {SRC}")
    return workloads


def setup(workload_name: str, seed: int):
    """Import plus one warm-up op and its check, then reference-kernel samples.

    Returns (workload, inputs, set-up seconds, median kernel seconds right
    after the set-up, warm-up ok)."""
    t0 = time.perf_counter()
    workloads = import_typsat()
    if workload_name not in workloads.WORKLOADS:
        fail(f"unknown workload {workload_name!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name]
    inputs = wl.inputs(seed)
    arg = next(inputs)
    ok, _ = wl.check(arg, wl.op(arg))
    seconds = time.perf_counter() - t0
    import speed
    kernel = statistics.median(speed.sample() for _ in range(SETUP_KERNEL_SAMPLES))
    return wl, inputs, seconds, kernel, ok


def setup_in_child(args) -> tuple[float, float]:
    """(set-up seconds, median kernel seconds) of a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe failed with code {proc.returncode}:\n{proc.stderr}")
    seconds, kernel = json.loads(proc.stdout.strip().splitlines()[-1])
    return seconds, kernel


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): nearest-rank TAIL_PERCENTILE, or the
    highest rank with TAIL_BEYOND samples after it when that is lower, but
    never below the median."""
    xs = sorted(samples)
    n = len(xs)
    k = min(math.ceil(TAIL_PERCENTILE / 100.0 * n) - 1, n - 1 - TAIL_BEYOND)
    k = max(k, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, tracing: bool) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "typsat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(tracing),
        "commit": read_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "loop": "closed, 1 client, 1 thread",
    }


@dataclass
class Measured:
    """Op times of one run, raw and scaled to the reference speed."""
    plain_raw: list[float] = field(default_factory=list)
    traced_raw: list[float] = field(default_factory=list)
    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_facts: list[dict] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last_facts: dict = field(default_factory=dict)


def measure(wl, inputs, seconds: float, tracer) -> Measured:
    """Run ops until the deadline.  With a tracer, odd ops run traced.

    A reference-kernel sample is taken before the first op, again whenever
    REF_EVERY_S of op time has passed, and after the last op.  Each op is
    scaled by the mean of the two samples around it."""
    import speed
    m = Measured()
    windows: list[tuple[bool, float, int]] = []
    m.kernel.append(speed.sample())
    since_ref = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if since_ref >= REF_EVERY_S:
            m.kernel.append(speed.sample())
            since_ref = 0.0
        arg = next(inputs)
        use_trace = tracer is not None and m.attempted % 2 == 1
        m.attempted += 1
        try:
            if use_trace:
                out, dt = tracer.run_op(wl.op, arg)
            else:
                t0 = time.perf_counter()
                out = wl.op(arg)
                dt = time.perf_counter() - t0
            ok, m.last_facts = wl.check(arg, out)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            m.failed += 1
            continue
        m.failed += not ok
        since_ref += dt
        windows.append((use_trace, dt, len(m.kernel) - 1))
        if use_trace:
            m.traced_facts.append(m.last_facts)
    m.kernel.append(speed.sample())
    for use_trace, dt, j in windows:
        scaled = dt * speed.scale([m.kernel[j], m.kernel[j + 1]])
        (m.traced_raw if use_trace else m.plain_raw).append(dt)
        (m.traced if use_trace else m.plain).append(scaled)
    return m


def check_metric_names(metrics: dict, tracing: bool) -> None:
    """The printed metrics must be exactly the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if tracing else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, _, seconds, kernel, ok = setup(args.workload, args.seed)
        print(json.dumps([seconds, kernel]))
        return 0 if ok else 1

    require_sources()
    setups = [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    wl, inputs, seconds, kernel, warm_ok = setup(args.workload, args.seed)
    setups.append((seconds, kernel))
    import speed

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    gc.collect()
    m = measure(wl, inputs, args.seconds, tracer)
    attempted = m.attempted + 1  # the warm-up op
    failed = m.failed + (not warm_ok)
    if not m.plain or (tracer is not None and not m.traced):
        fail(f"--seconds {args.seconds} completed no measured op")

    env = environment(args, tracer is not None)
    env["speed"] = {"REF_S": speed.REF_S, "kernel_median_s": statistics.median(m.kernel),
                    "kernel_samples": len(m.kernel)}
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        facts = m.last_facts
        if "rate_upper" not in facts:
            # rate_margin is a property of the certificate: workloads that do
            # not certify take it from one float certify after the loop.
            from workloads import WORKLOADS
            ref = WORKLOADS["certify-float"]
            arg = next(ref.inputs(args.seed))
            ok, facts = ref.check(arg, ref.op(arg))
            attempted += 1
            failed += not ok
        p_tail, pct, beyond = tail(m.plain)
        env["op_s_tail"] = {"percentile": pct, "samples": len(m.plain), "beyond": beyond}
        env["raw"] = {"op_s_p50": statistics.median(m.plain_raw),
                      "op_s_tail": tail(m.plain_raw)[0],
                      "ops_per_s": len(m.plain_raw) / sum(m.plain_raw),
                      "setup_s": statistics.median(s for s, _ in setups),
                      "setup_samples": setups}
        metrics = {
            "op_s_p50": (statistics.median(m.plain), "s"),
            "op_s_tail": (p_tail, "s"),
            "ops_per_s": (len(m.plain) / sum(m.plain), "1/s"),
            "setup_s": (statistics.median(s * speed.scale([k]) for s, k in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rate_margin": (1.0 - facts["rate_upper"], "ratio"),
        }
    else:
        from layers import PER_LAYER, layer_metrics
        from tracer import TraceError
        time_scale = statistics.median(t / r for t, r in zip(m.traced, m.traced_raw))
        try:
            values = layer_metrics(tracer, m.traced_facts, m.traced, m.plain, time_scale)
        except TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            failed += 1
            values = dict.fromkeys(PER_LAYER, 0.0)
        env["traced_ops"] = len(m.traced)
        env["untraced_ops"] = len(m.plain)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(trace_file)
        env["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    check_metric_names(metrics, tracer is not None)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
