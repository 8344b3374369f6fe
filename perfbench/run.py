#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library, the dmcd daemon and the benchmark program into .bench_build/ (a few
minutes); later calls rebuild only what changed. Build output goes to
stderr; the result, one JSON object, is the last line of stdout.
Scratch files (daemon socket, DMCU files, traces) go to .bench_run/.
"""
import argparse
import ctypes
import os
import signal
import subprocess
import sys

WORKLOADS = ("sim-deeppath", "universe-cold", "dmcd-mixed", "churn-flap")
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turns off address-space randomisation
    (inherited by the dmcd daemon), so every run places heap, stacks and
    libraries alike and cache aliasing does not differ from run to run."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.personality(ADDR_NO_RANDOMIZE) == -1:
        print("perfbench: address-space randomisation stays on",
              file=sys.stderr)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures once, then builds the two targets; output to stderr."""
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources (src/) next to perfbench/; "
             "run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(root, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_dmcd"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build(root)
    os.makedirs(os.path.join(root, RUN_DIR), exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dmcd", os.path.join(BUILD_DIR, "perfbench_dmcd"),
           "--workdir", RUN_DIR]
    # Own process group, so a timeout also takes down the dmcd child.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True,
                            preexec_fn=fixed_layout)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
