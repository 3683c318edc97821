#!/usr/bin/env python3
"""Layered host-time benchmark of the StarNUMA pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload paper16 --seed 0 --seconds 3 --trace 0

It builds the perfbench Go program from source into .bench_build/ (or
$CARGO_TARGET_DIR), runs the workload's passes in fresh processes, checks
every run's digest and prints one JSON result object as the last line of
standard output. --trace 0 prints the end-to-end metrics of untraced
passes; --trace 1 prints the per-layer metrics of a traced pass plus the
tracing overhead against an untraced pass. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each child pass must end well inside the run's 180-second limit.
PASS_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def go_env(out):
    """Keeps every file the Go toolchain writes inside the build dir."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(out / "gocache"),
        GOTMPDIR=str(out / "tmp"),
        GOPATH=str(out / "gopath"),
        XDG_CONFIG_HOME=str(out / "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
    )
    return env


def build():
    """Builds the perfbench binary from the checkout's sources."""
    if not (ROOT / "go.mod").is_file() or not (ROOT / "internal" / "core").is_dir():
        fail("the simulator sources are missing: run from a checkout of the repository")
    out = build_dir()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    binary = out / "perfbench"
    r = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=go_env(out),
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")
    return binary


def child(binary, args, mode, extra=()):
    """Runs one pass in a fresh process and returns its JSON report."""
    cmd = [str(binary), "-workload", args.workload, "-seed", str(args.seed), "-mode", mode]
    if args.tiny:
        cmd.append("-tiny")
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} pass exceeded {PASS_TIMEOUT_S}s")
    if r.returncode != 0:
        fail(f"{mode} pass exited with code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


# The simulation runs on one thread, so a pass's wall time exceeds its
# CPU time only while the host deschedules the process. Such a pass
# measures the host, not the simulator: it is repeated, up to MAX_PASSES
# in all, and left out of the medians when a clean pass exists.
DESCHEDULED = 1.05
MAX_PASSES = 3


def descheduled(p):
    return p["wall_s"] > DESCHEDULED * p["cpu_s"]


def check(digests, want):
    """Counts the runs whose digest is missing (the run failed its
    plausibility check or errored) or differs from want's."""
    failed = 0
    for i, d in enumerate(digests):
        if not d or (want is not None and (i >= len(want) or want[i] != d)):
            failed += 1
    if want is not None and len(want) != len(digests):
        failed += abs(len(want) - len(digests))
    return failed


def goldens(args):
    """The committed digests apply to seed 0 at full size only."""
    if args.seed != 0 or args.tiny:
        return None
    return json.loads((HERE / "golden.json").read_text())[args.workload]


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_metrics(passes, runs_ok):
    med = lambda key: statistics.median(p[key] for p in passes)
    return {
        "wall_s": metric(med("wall_s"), "s"),
        "cpu_s": metric(med("cpu_s"), "s"),
        "windows_per_s": metric(statistics.median(p["windows"] / p["wall_s"] for p in passes), "1/s"),
        "setup_s": metric(med("setup_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "live_heap_mb": metric(med("live_heap_mb"), "MB"),
        "runs": metric(len(passes[0]["digests"]), "count"),
        "runs_ok_frac": metric(runs_ok, "ratio"),
    }


# (module, op, ratio metric or None): the component replays' metric names.
COMPONENTS = [
    ("sim", "event", None),
    ("link", "send", None),
    ("cache", "access", "hit_ratio"),
    ("coherence", "access", "bt_ratio"),
    ("tlb", "access", "walk_ratio"),
    ("memdev", "access", None),
    ("tracker", "record", None),
]


def traced_metrics(t, u):
    m = {
        "workload.record_s": metric(t["record_s"], "s"),
        "workload.recorded_accesses": metric(t["recorded_accesses"], "count"),
        "workload.record_ns_per_access": metric(t["record_s"] * 1e9 / t["recorded_accesses"], "ns"),
        "core.plan_s": metric(t["plan_s"], "s"),
        "core.plans": metric(t["plans"], "count"),
        "core.plan_ms_p50": metric(t["plan_ms_p50"], "ms"),
        "core.window_s": metric(t["window_s"], "s"),
        "core.windows": metric(t["windows"], "count"),
        "core.window_ms_p50": metric(t["window_ms_p50"], "ms"),
        "core.window_ns_per_miss": metric(t["window_s"] * 1e9 / t["misses"], "ns"),
        "core.assemble_ms": metric(t["assemble_ms"], "ms"),
    }
    for module, op, ratio in COMPONENTS:
        c = t["components"][f"{module}.{op}"]
        m[f"{module}.ops"] = metric(c["ops"], "count")
        m[f"{module}.{op}_ns"] = metric(c["ns_per_op"], "ns")
        m[f"{module}.{op}_allocs"] = metric(c["allocs_per_op"], "allocs/op")
        if ratio:
            m[f"{module}.{ratio}"] = metric(c["hits"] / c["ops"], "ratio")
    m["bench.trace_overhead_pct"] = metric((t["pipeline_s"] - u["wall_s"]) * 100 / u["wall_s"], "%")
    return m


def stage_gaps(t):
    """Warns when the stage spans miss more than 2% of the traced wall
    time, or the record spans more than 2% of the traced set-up time."""
    stages = t["plan_s"] + t["window_s"] + t["assemble_ms"] / 1e3
    for name, part, whole in (("pipeline", stages, t["pipeline_s"]), ("setup", t["record_s"], t["setup_s"])):
        if abs(whole - part) > 0.02 * whole:
            print(f"perfbench: {name} spans cover {part:.3f}s of {whole:.3f}s", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="paper16, sweep-masstree, scale32 or stepb-grid")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=3,
                    help="minimum timed pipeline seconds; untraced passes repeat in fresh processes until reached")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size: goldens do not apply")
    ap.add_argument("--update-golden", action="store_true",
                    help="record the workload's seed-0 digests in golden.json and exit")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    if args.update_golden:
        if args.seed != 0 or args.tiny:
            fail("goldens are recorded at seed 0 and full size")
        path = HERE / "golden.json"
        gold = json.loads(path.read_text()) if path.exists() else {}
        gold[args.workload] = child(binary, args, "untraced")["digests"]
        path.write_text(json.dumps(gold, indent=1, sort_keys=True) + "\n")
        return
    want = goldens(args)
    attempted = failed = 0
    start = time.monotonic()

    if args.trace == 0:
        passes = []
        while True:
            p = child(binary, args, "untraced")
            passes.append(p)
            attempted += len(p["digests"])
            failed += check(p["digests"], want if want is not None else passes[0]["digests"])
            clean = [q for q in passes if not descheduled(q)]
            timed = sum(q["wall_s"] for q in clean)
            # Stop once clean passes meet the timed floor, after
            # MAX_PASSES, or before another pass could overrun the run's
            # time limit.
            if ((clean and timed >= args.seconds) or len(passes) >= MAX_PASSES
                    or time.monotonic() - start + p["setup_s"] + p["wall_s"] > 120):
                break
        metrics = untraced_metrics(clean or passes, (attempted - failed) / attempted)
        digests = passes[0]["digests"]
    else:
        u = child(binary, args, "untraced")
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        t = child(binary, args, "traced", ["-spans", str(spans / f"{args.workload}-seed{args.seed}.json")])
        # Both passes must match the goldens, and each other.
        for p in (u, t):
            attempted += len(p["digests"])
            failed += check(p["digests"], want if want is not None else u["digests"])
        for m in t["replay_mismatches"] or []:
            print("perfbench: replay counts changed across repeats: " + m, file=sys.stderr)
            attempted += 1
            failed += 1
        stage_gaps(t)
        metrics = traced_metrics(t, u)
        digests = t["digests"]

    print(f"digests {args.workload} seed={args.seed}: " + " ".join(d or "-" for d in digests))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
