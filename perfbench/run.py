#!/usr/bin/env python3
"""Build and run the perfbench workloads from the repository root.

One run:
    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
prints the workload's log and, as its last line, the JSON result
{"correct", "attempted", "failed", "metrics"}.

Steadiness mode: each named workload N times with seeds 1..N, reporting the
median, quartiles and quartile spread of every end-to-end metric:
    python3 perfbench/run.py --steady 10 --seconds 10 [--workloads verify,hunt]

Oracle self-test: one deliberately wrong expected answer per workload must
show up as failed ops:
    python3 perfbench/run.py --self-test [--workloads corpus]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with path
dependencies on the repository's crates; it is built into CARGO_TARGET_DIR
(default .bench_build) on first use.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["verify", "hunt", "corpus", "construct"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("perfbench/Cargo.toml") or not os.path.isdir("crates"):
        fail("run from the repository root: perfbench/Cargo.toml and crates/ are required")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    # Cargo's own output goes to stderr; stdout stays for the result.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "tpa-perfbench")


def run_once(binary, args, echo=True):
    """Runs the benchmark binary; returns the parsed result, the result
    line and the log lines before it."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run {' '.join(args)} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail(f"run {' '.join(args)} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    return result, lines[-1], lines[:-1]


def steady(binary, workloads, n, seconds):
    summary = {}
    for w in workloads:
        values = {}
        logs = []
        failed = attempted = 0
        for seed in range(1, n + 1):
            result, _, log = run_once(binary, ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"],
                                 echo=False)
            logs.append(log)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print(f"{w}: {n} runs, {failed} of {attempted} ops failed")
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": v}
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}")
        summary[w] = {"runs": n, "failed": failed, "attempted": attempted, "metrics": rows,
                      "logs": logs}
    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/steady.json", "w") as f:
        json.dump(summary, f, indent=1)
    print("written perfbench/out/steady.json")


def self_test(binary, workloads):
    ok = True
    for w in workloads:
        result, _, _ = run_once(binary, ["--workload", w, "--seed", "1", "--seconds", "1",
                                      "--trace", "0", "--corrupt-answer"], echo=False)
        frac = result["failed"] / result["attempted"]
        rose = result["failed"] > 0 and not result["correct"]
        ok &= rose
        print(f"{w}: one wrong expected answer -> failed_frac {frac:.4f} "
              f"({result['failed']} of {result['attempted']}): "
              f"{'detected' if rose else 'NOT DETECTED'}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    a = p.parse_args()
    workloads = [w for w in a.workloads.split(",") if w]
    if any(w not in WORKLOADS for w in workloads):
        fail(f"--workloads takes names from {WORKLOADS}")
    if a.steady is None and not a.self_test and a.workload is None:
        fail("--workload is required")
    binary = build()
    if a.steady is not None:
        steady(binary, workloads, a.steady, a.seconds)
    elif a.self_test:
        self_test(binary, workloads)
    else:
        _, line, _ = run_once(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                    "--seconds", str(a.seconds), "--trace", a.trace])
        print(line)


if __name__ == "__main__":
    main()
