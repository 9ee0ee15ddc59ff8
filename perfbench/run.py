#!/usr/bin/env python3
"""Repository benchmark: build repo_bench, run one workload, print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig06_serial --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --self-check

The benchmark program (perfbench/*.cpp) is built from source with the library
into .bench_build/ in the checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. The
line before it is the full report (every metric with its spread and sample
count, provenance, correctness checks, per-layer self times). Build output
goes to standard error. --self-check runs every workload (serve_churn too) at
a tiny size in both modes and asserts that every metric BENCHMARK.json names
is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "repo_bench")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170  # one run must end within 180 s, the first (building) one within 900 s
# Runnable by hand and self-checked, but not in BENCHMARK.json (METHOD.md says why).
UNLISTED_WORKLOADS = ["serve_churn"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(deadline):
    """Configure and build repo_bench; the library comes from ./src."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("run from the root of a repository checkout (CMakeLists.txt and src/ not found)")
    steps = [["cmake", "--build", BUILD, "--target", "repo_bench", "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        left = deadline - time.monotonic()
        if left <= 0:
            fail("build ran out of time")
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=left)
        except subprocess.TimeoutExpired:
            fail("build ran out of time")
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        # The ceiling keeps git from taking a parent directory's repository
        # for this checkout's.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git work tree: name the sources by content instead.
    digest = hashlib.sha256()
    for base in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def run_bench(workload, seed, seconds, trace, tiny, sha, timeout):
    cmd = [
        BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", WORKDIR, "--git-sha", sha,
    ]
    if tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(workload + " did not finish in time")
    if done.returncode != 0:
        fail("%s exited with code %d" % (workload, done.returncode))
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail(workload + " printed no result")
    return lines[-2], json.loads(lines[-1])


def self_check(sha, deadline):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    missing = []
    for workload in [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_bench(workload, 1, 1, trace, True, sha,
                                   max(1, deadline - time.monotonic()))
            names = [m["name"] for m in spec[key]]
            got = result["metrics"]
            for name in names:
                if name not in got:
                    missing.append("%s trace %d: %s" % (workload, trace, name))
            extra = sorted(set(got) - set(names))
            if extra:
                missing.append("%s trace %d prints unlisted %s" % (workload, trace, extra))
            if not result["correct"] or result["failed"]:
                missing.append("%s trace %d: checks failed" % (workload, trace))
            print("self-check %s trace %d: %d metrics, correct=%s"
                  % (workload, trace, len(got), result["correct"]))
    if missing:
        fail("self-check failed:\n  " + "\n  ".join(missing))
    print("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")

    start = time.monotonic()
    # The first run in a fresh checkout builds; later runs find it built.
    build(start + 840)
    sha = git_sha()
    if args.self_check:
        self_check(sha, start + 900)
        return
    timeout = min(RUN_TIMEOUT_S, 890 - (time.monotonic() - start))
    report, result = run_bench(args.workload, args.seed, args.seconds, args.trace, False,
                                sha, timeout)
    print(report)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
