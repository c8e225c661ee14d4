#!/usr/bin/env python3
"""Build the benchmark harness from source, then run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py report --seed 2 --trace traces

Every argument goes to perfbench/main.exe unchanged (see README.md).
The build goes to .bench_build/ and its log to standard error, so the
harness's own output, whose last line is the JSON result, is all that
reaches standard output.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# a single run ends by itself after set-up plus --seconds; this only
# guards against a hang
TIMEOUT_S = 175


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: no dune-project here; run from a checkout of the repository")
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    args = sys.argv[1:]
    proc = subprocess.Popen([EXE] + args, start_new_session=True)
    # report runs every workload and may take longer than one run
    single_run = not args or args[0].startswith("--")
    try:
        return proc.wait(timeout=TIMEOUT_S if single_run else None)
    except subprocess.TimeoutExpired:
        # the harness forks set-up children and a daemon: stop them all
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: timed out")


if __name__ == "__main__":
    sys.exit(main())
