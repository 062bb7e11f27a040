#!/usr/bin/env python3
"""Build and run the genlog benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
.bench_build, no shared dune cache) and runs it with the same arguments.
The benchmark's last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; when an output is wrong it
reads correct: false and the exit code is 1.  Exits non-zero, printing no
result, when the checkout holds no genlog sources, the build fails or the
benchmark does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a genlog checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it
        fail(f"benchmark did not finish within {TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    try:
        json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("benchmark printed no result")
    # a run whose outputs are wrong prints correct: false and exits 1
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
