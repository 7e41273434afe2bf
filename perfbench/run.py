#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload study|query_mix|fleet --seed N \
        --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --self-test

Run from the repository root. The harness is a Cargo package of its own
(perfbench/harness) built from source against the crates under crates/;
the build goes to $CARGO_TARGET_DIR, or .bench_build when unset. Build
output goes to stderr, so the last line of stdout is the harness's JSON
result. The exit code is the harness's: non-zero when an output digest or
response disagrees, or when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "harness", "Cargo.toml")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(target, "release", "ramp-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["study", "query_mix", "fleet"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run's stamped result record to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="check shrunk workloads give identical digests at 1 and 2 threads")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        cmd = [binary, "selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", git_rev()]
        if args.out:
            cmd += ["--out", args.out]
        if args.trace:
            spans_dir = os.path.join(os.path.dirname(binary), "perfbench-spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
