#!/usr/bin/env python3
"""Build perfbench from source and run one benchmark invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
Lotus libraries plus the perfbench binary into .bench_build/ (Release); later
calls only re-check the build. Build output goes to stderr, so the last
stdout line is the binary's JSON result. Exits non-zero without a
result when the sources are missing, the build fails, or the binary
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for at most 60 s plus set-up; kill a wedged binary.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Lotus sources (src/) next to perfbench/")
    # Configure once; the build step re-runs CMake when its inputs change.
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: binary timed out")
    out = done.stdout.rstrip("\n")
    if done.returncode != 0 or not out.splitlines()[-1:] or \
            not out.splitlines()[-1].startswith("{"):
        sys.stdout.write(out + "\n" if out else "")
        sys.exit("perfbench: binary failed (exit %d)" % done.returncode)
    print(out, flush=True)


if __name__ == "__main__":
    main()
