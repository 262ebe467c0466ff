#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 ledger/run.py --workload suite_cold --seed 1 --seconds 30 --trace 0

Builds ledger/ (and the library in src/) into .bench_build/ledger on
first use, runs the workload, checks its outputs and prints, as the last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The full report (provenance, simulated statistics, latency samples,
spans) is written to .bench_build/ledger-out/.  See ledger/README.md.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed from process launch, several times per run; the
# median is reported.
SETUP_LAUNCHES = 8
# Everything after the build must end within this many seconds.
RUN_BUDGET_S = 170.0


def log(*args):
    print("ledger:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "leakbound_ledger", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=800)
    return os.path.join(build_dir, "leakbound_ledger")


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def launch(binary, args, timeout):
    """Run the binary; returns (seconds from launch to set-up end, result)."""
    t0 = time.monotonic()
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    result = last_json_line(proc.stdout)
    return result["setup_done"] - t0, result, proc.returncode


def source_digest():
    """sha256 over the program and benchmark sources (no git needed)."""
    h = hashlib.sha256()
    for top in ("src", "ledger"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(build_dir):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha or "unavailable (not a git checkout)",
        "source_sha256": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg": list(os.getloadavg()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload", args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(base, "ledger")
    out_dir = os.path.join(base, "ledger-out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed:", e)
        return 1

    started = time.monotonic()
    loadavg_before = list(os.getloadavg())
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", out_dir]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_LAUNCHES):
                s, _, _ = launch(binary, common + ["--setup-only"], 30)
                setups.append(s)
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        s, result, code = launch(
            binary, common + ["--seconds", str(args.seconds),
                              "--trace", str(args.trace)], remaining)
        setups.append(s)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("run failed:", e)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("run reported no", ", ".join(missing))
        return 1
    out = {
        "correct": bool(result["correct"]) and code == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }

    report = os.path.join(out_dir, "report-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    try:
        with open(report) as f:
            full = json.load(f)
        full["provenance"] = provenance(build_dir)
        full["provenance"]["loadavg_before"] = loadavg_before
        if not args.trace:
            full["setup_samples_s"] = setups
        with open(report, "w") as f:
            json.dump(full, f, indent=1)
    except (OSError, ValueError) as e:
        log("cannot annotate the report:", e)
    for name, m in out["metrics"].items():
        log("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    log("report:", os.path.relpath(report, ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
