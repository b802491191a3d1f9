#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload static-spec|simulate-suites|attack-catalog \
        --seed N --seconds S --trace 0|1 [--jobs J] [--passes P] [--setup-only]

Run from the root of a checkout. The benchmark program is built from
source with dune (the first run of a checkout builds the whole library
stack), then started with the same arguments; its standard output is
passed through, and its last line is the JSON result. The launch time
is handed to the program so that its set-up time covers process start.
Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
TARGET = "./perfbench/bench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench", "perfbench.exe")
SETUP_LAUNCHES = 4


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            [dune, "build", "--root", ROOT, TARGET],
            cwd=ROOT,
            # keep every build product inside the checkout
            env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=870,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    samples = [] if "--setup-only" in args else setup_samples(args)
    sys.stdout.flush()
    env = dict(os.environ, PERFBENCH_SPAWN_T=repr(time.time()),
               PERFBENCH_SETUP_SAMPLES=",".join(samples))
    return subprocess.run([EXE] + args, cwd=ROOT, env=env).returncode


def setup_samples(args):
    """Set-up times of a few set-up-only processes, so that the measured
    run can report the median set-up over several process starts."""
    samples = []
    for _ in range(SETUP_LAUNCHES):
        env = dict(os.environ, PERFBENCH_SPAWN_T=repr(time.time()))
        r = subprocess.run([EXE] + args + ["--setup-only"], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, timeout=170)
        if r.returncode != 0:
            return []
        for line in r.stdout.decode().splitlines():
            if line.startswith("setup_s "):
                samples.append(line.split()[1])
    return samples


if __name__ == "__main__":
    sys.exit(main())
