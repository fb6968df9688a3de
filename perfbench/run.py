#!/usr/bin/env python3
"""End-to-end benchmark of the DistillSim sweeps.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig06-fresh --seed 1 \
        --seconds 25 --trace 0

It builds perfbench_driver (the simulator library from src/ plus the
driver in this directory, Release) under .bench_build/ (or
$CARGO_TARGET_DIR), then for the chosen workload:

  1. computes the direct-simulation reference of every result cell
     (untimed);
  2. runs the set-up phase several times and reports its median
     wall time as setup_s;
  3. runs one full sweep per fresh process until --seconds have
     passed (at least MIN_SWEEPS), checking every cell of every
     sweep against the reference.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of traced sweeps,
which alternate with untraced ones so the tracing overhead is
measured too. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig06-fresh", "fig06-cached", "mix-13cfg")
SETUP_REPEATS = 5
MIN_SWEEPS = 3
PHASE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The caller's environment minus every LDIS_* toggle."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LDIS_")}


def build(build_dir):
    """Configure (once) and build the driver; return its path."""
    env = clean_env()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, env=env, check=True,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_driver")


def phase(driver, name, args):
    """Run one driver phase; return (its JSON line, wall seconds)."""
    t0 = time.monotonic()
    out = subprocess.run([driver, name] + args, stdout=subprocess.PIPE,
                         env=clean_env(), check=True, text=True,
                         timeout=PHASE_TIMEOUT_S).stdout
    wall = time.monotonic() - t0
    return json.loads(out.strip().splitlines()[-1]), wall


def source_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def host_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "none (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "build_type": "Release", "git_revision": rev,
            "source_digest": source_digest()}


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed <= 0:
        ap.error("--seed must be positive")

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no simulator sources (src/CMakeLists.txt) here; run from "
            "the root of a source checkout")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    root = os.path.join(target, "perfbench")
    driver = build(os.path.join(root, "build"))
    work = os.path.join(root, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(driver, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(driver, work, args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    reference = os.path.join(work, "reference.txt")
    phase(driver, "oracle", common + ["--reference", reference])

    setups = []
    cache = None
    for i in range(SETUP_REPEATS):
        cache = os.path.join(work, "cache-%d" % i)
        os.makedirs(cache)
        row, wall = phase(driver, "setup", common + ["--cache-dir", cache])
        row["setup_s"] = wall
        setups.append(row)
    sweep_args = common + ["--reference", reference, "--cache-dir", cache]

    spans = os.path.join(work, "spans.jsonl")
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while (time.monotonic() < deadline or len(plain) < MIN_SWEEPS
           or (args.trace and len(traced) < MIN_SWEEPS)):
        if args.trace:
            traced.append(phase(driver, "traced",
                                sweep_args + ["--spans", spans])[0])
        plain.append(phase(driver, "sweep", sweep_args)[0])
    if traced:
        # Keep the last traced sweep's spans for inspection.
        shutil.copy(spans, os.path.join(os.path.dirname(work),
                                        "spans-%s.jsonl" % args.workload))

    rows = plain + traced
    attempted = int(sum(r["cells"] for r in rows))
    failed = int(sum(r["failed"] for r in rows))
    print(json.dumps({"host": host_record(), "workload": args.workload,
                      "seed": args.seed, "sweeps": len(plain),
                      "traced_sweeps": len(traced)}))
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.trace:
        values = {name: median_of(traced, name) for name in traced[0]}
        values["trace.stream_write_s"] = median_of(setups, "stream_write_s")
        values["trace.overhead_s"] = (median_of(traced, "sweep_s")
                                      - median_of(plain, "sweep_s"))
    else:
        for r in plain:
            r["cell_minst_per_s"] = r["sim_instructions"] / r["sweep_s"] / 1e6
        values = {name: median_of(plain, name) for name in plain[0]}
        values["setup_s"] = median_of(setups, "setup_s")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
