#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads N]

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the library from src/) into $CARGO_TARGET_DIR, default
.bench_build, then runs the benchmark binary, whose last line of output is
one JSON object with the run's metrics. Inputs, traces and per-run result
files go to <build dir>/work. The exit status is the binary's: 0 when every
correctness check passed, 1 when one failed, 2 on a bad command line.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("batch_products_t4", "batch_citations_t1", "service_burst")


class StrictParser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"run.py: {message}\n")
        sys.exit(2)


def parse_args(argv):
    p = StrictParser(allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--threads")
    args = p.parse_args(argv)
    if not args.seed.isdigit() or int(args.seed) > 2**32 - 1:
        p.error(f"malformed seed {args.seed!r}")
    try:
        seconds = float(args.seconds)
    except ValueError:
        p.error(f"malformed seconds {args.seconds!r}")
    if not 0 < seconds <= 3600:
        p.error(f"seconds out of range: {args.seconds!r}")
    if args.threads is not None and (not args.threads.isdigit()
                                     or int(args.threads) < 1):
        p.error(f"malformed thread count {args.threads!r}")
    return args


def build(root, build_dir):
    """Configures (once) and builds the benchmark; output goes to a log."""
    log_path = build_dir / "build.log"
    cmake_dir = build_dir / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(f"run.py: build failed, see {log_path}\n")
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                return None
    return cmake_dir / "perfbench"


def main(argv):
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        sys.stderr.write(f"run.py: no library sources under {root / 'src'}\n")
        return 1
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(root, build_dir)
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", str(build_dir / "work")]
    if args.threads is not None:
        cmd += ["--threads", args.threads]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
