#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload reproduce-full|serve-mix|engine-scale|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` binary and the
`popgamed` daemon from source with cargo (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs one workload, prints every metric as
`name = value unit`, and ends with one JSON line holding `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer ones. `--workload all`
runs every workload in turn. See perfbench/METRICS.md for what each
metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["reproduce-full", "serve-mix", "engine-scale"]
# Source files whose digest identifies the measured code when the
# checkout is not a git repository.
SOURCE_DIRS = ["crates", "shims", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock"]


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds both binaries; returns (perfbench, popgamed) paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the workspace sources (Cargo.toml, crates/) are not next to perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "popgame-service", "--bins",
    ]
    # Cargo reports on stderr; stdout stays reserved for results.
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "popgamed")


def source_digest():
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for top in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            paths += [
                os.path.join(base, f)
                for f in files
                if f.endswith((".rs", ".toml", ".lock", ".py"))
            ]
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns why `line` is not a well-formed result, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected result keys {sorted(result)}"
    declared = declared_metrics(trace)
    if declared is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != declared:
            missing = sorted(set(declared) - set(got))
            extra = sorted(set(got) - set(declared))
            return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def run_workload(binary, popgamed, workload, seed, seconds, trace):
    command = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--popgamed", popgamed, "--root", ROOT,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 150
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {seconds + 150} s", 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"{workload} exited with code {done.returncode}", 1)
    problem = check_result(lines[-1], trace)
    if problem:
        print("\n".join(lines[:-1]))
        fail(f"{workload}: {problem}", 1)
    print("\n".join(lines))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    binary, popgamed = build()
    provenance = {
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# provenance: {json.dumps(provenance)}")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        print(f"# workload {workload}")
        run_workload(binary, popgamed, workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
