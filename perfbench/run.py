#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary is built with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); traced runs write their spans under `.bench_out/`.
Standard output carries one `provenance` line, the benchmark's notes and,
as its last line, the result object. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# The single-threaded workload and the one-connection daemon run on one
# vCPU: client, connection reader and shard worker otherwise wake each
# other across vCPUs and the round trip swings by 2x between runs. A
# traced wire run stays unpinned, because on one vCPU each thread's spans
# would include the time the others preempted it. fleet_mixed needs both
# vCPUs for its two shards.
PINNED = {("sim_k1024", "0"), ("sim_k1024", "1"), ("wire_mixed", "0")}
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def source_digest():
    """sha256 over the sources the binary is built from (the checkout
    need not be a git repository)."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if path.endswith((".rs", ".toml", ".lock", ".py")) and os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def workload_why(name):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for w in json.load(f)["workloads"]:
                if w["name"] == name:
                    return w["why"]
    except (OSError, ValueError, KeyError):
        pass
    return ""


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    if not build(env):
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "etx-perfbench")

    cpus = sorted(os.sched_getaffinity(0))
    pin = {cpus[-1]} if (args.workload, args.trace) in PINNED else None
    provenance = {
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "nproc": len(cpus),
        "cpu_model": cpu_model(),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release",
        "cpu_pinning": f"cpu {min(pin)}" if pin else "none",
    }
    print("provenance " + json.dumps(provenance), flush=True)

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        print(f"run.py: {args.workload} failed (exit {done.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
