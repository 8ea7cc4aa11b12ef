#!/usr/bin/env python3
"""Build and run the pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark
program (perfbench/bench.ml) is built from source with dune into
.bench_build, then run once; its output is passed through after a
label line naming the measured source tree.  The last line printed is
the result: one JSON object with the keys correct, attempted, failed
and metrics.  On any failure (missing sources, build error, failed
correctness gate, malformed result, timeout) the script exits nonzero
and prints no result.

With --trace 1 the spans of the traced run are written to
.bench_build/perfbench/spans-<workload>-seed<N>.jsonl.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ["load-balanced", "load-skewed", "certify-1m", "sweep-grid"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# The sources that determine what is measured.
SOURCES = ["dune-project", "lib", "bin", "perfbench"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_hash():
    """SHA-256 over the path and content of every source file: the
    measured tree itself, whether or not it is committed."""
    h = hashlib.sha256()
    files = []
    for top in SOURCES:
        if os.path.isfile(top):
            files.append(top)
        for root, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith(("_build", ".")))
            files.extend(os.path.join(root, n) for n in names)
    for path in sorted(files):
        with open(path, "rb") as f:
            data = f.read()
        h.update(path.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def dirty_flag():
    """True when the sources differ from git HEAD, None outside git."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", *SOURCES],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() != ""


def ocaml_version():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line of the benchmark output is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has the wrong keys")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run")
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail("result metrics differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    for path in ["dune-project", "lib", "perfbench/dune"]:
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a repository checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/bench.exe"],
            capture_output=True, text=True, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    label = {
        "tree_sha256": tree_hash(),
        "dirty": dirty_flag(),
        "ocaml": ocaml_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    check_result(lines[-1], args.trace)
    print("label " + json.dumps(label, sort_keys=True))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
