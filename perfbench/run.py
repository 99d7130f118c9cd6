#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench program and the library from source (incrementally, in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, relative to the
repository root) and runs one workload:

    python3 perfbench/run.py --workload <stencil2d|oneshot5d|bulk3d> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to stderr. The program's standard output is passed through:
one line per metric, then one JSON object as the last line. Exits non-zero,
without a result, when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at src/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    return subprocess.run([os.path.join(out, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
