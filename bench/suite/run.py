#!/usr/bin/env python3
"""Build perfvar_bench from this checkout's sources, then run it.

    python3 bench/suite/run.py [perfvar_bench arguments]

The first call configures bench/suite (CMake, Release) into .bench_build/
at the repository root; later calls rebuild incrementally. The script then
replaces itself with perfvar_bench, started from the repository root, so
the benchmark's exit code and output are the command's. Build output goes
to stderr: the last line on stdout stays the benchmark's result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no perfvar sources at src/; run from a full checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SUITE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "--target", "perfvar_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfvar_bench")


def main():
    binary = build()
    os.chdir(ROOT)
    os.execv(binary, [binary, *sys.argv[1:]])


if __name__ == "__main__":
    main()
