#!/usr/bin/env python3
"""Build and run the parallel-dp benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds `perfbench/` (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload as a
closed loop.  The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; stamped copies of every
result and the Chrome traces of traced runs go to `perfbench/out/`.

`--workload all` runs the four workloads one after another, each in its own
process, and exits non-zero if any of them failed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["gap_deep", "lcs_wide", "glws_fig7", "oat_valley"]
# One run measures for at most 60 s plus set-up; anything near this is hung.
RUN_TIMEOUT_S = 170


def capture(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"], root) or "unknown"
    env["PERFBENCH_COMMIT"] = (
        capture(["git", "rev-parse", "HEAD"], root) or "unknown (not a git checkout)"
    )
    env["PERFBENCH_NPROC"] = str(len(os.sched_getaffinity(0)))

    binary = target / "release" / "perfbench"
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(root / "perfbench" / "out")]
        sys.stdout.flush()
        try:
            run = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
