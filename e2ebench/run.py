#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload stats-ceb-e2e --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The build tree goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: no cardbench sources at %s/src\n" % ROOT)
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "e2ebench", "e2ebench_selftest"],
                       stdout=sys.stderr) != 0:
        sys.exit(2)
    return build_dir


def main():
    args = sys.argv[1:]
    build_dir = build()
    if args == ["--selftest"]:
        binary, args = os.path.join(build_dir, "e2ebench_selftest"), []
    else:
        binary = os.path.join(build_dir, "e2ebench")
    sys.stdout.flush()
    sys.exit(subprocess.call([binary] + args, cwd=ROOT))


if __name__ == "__main__":
    main()
