#!/usr/bin/env python3
"""Build and run the DeepRest end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload whatif --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

The benchmark binary is configured and built (Release) before it starts, so
compilation never falls inside a timed interval. The build directory is
$CARGO_TARGET_DIR if set, else .bench_build, relative to the checkout root.
Build output goes to standard error; the benchmark's last line of standard
output is its JSON result. The exit code is the benchmark's, or 2 when the
build fails (for example when the DeepRest sources are not there).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    steps = []
    generated = any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(out, "e2ebench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
