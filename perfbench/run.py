#!/usr/bin/env python3
"""Build the release benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: multi_retail, hier_retail, stream_star, served_small.

The benchmark crate (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root).  Its
scratch files (server ledgers, span dumps) go to <target dir>/perfbench-work.
The last line of stdout is the benchmark's JSON result; the exit code is
non-zero when the build fails, the run fails, or a correctness gate fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = target / "perfbench-work"
    work_dir.mkdir(parents=True, exist_ok=True)
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(binary), *sys.argv[1:], "--work-dir", str(work_dir)],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
