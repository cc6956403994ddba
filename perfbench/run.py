#!/usr/bin/env python3
"""Host-cost benchmark of hswsim: build it, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (hswsim_perfbench plus the simulator libraries from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs hswsim_perfbench.  Its standard output passes through unchanged; the
last line is the JSON result.  The exit status is the binary's: 0 only when
every output check passed.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("latency_sweep", "bandwidth_sim", "contention", "serve_mixed")
# The binary is killed after this long; a run must end well inside it.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds hswsim_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found under %s/src" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "hswsim_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(out, "hswsim_perfbench")


def run_binary(binary, args, capture=False):
    """Runs the binary to completion; returns (exit code, stdout or None)."""
    work_dir = os.path.join(build_dir(), "work")
    command = [binary] + args + ["--root", ROOT, "--work-dir", work_dir]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, None
    return done.returncode, done.stdout.decode() if capture else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    binary = build()
    sys.stdout.flush()
    code, _ = run_binary(binary, ["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--seconds", repr(args.seconds),
                                  "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
