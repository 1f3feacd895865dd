#!/usr/bin/env python3
"""Edit-loop benchmark: build the PLD library, `pldd` and `loopbench`
from source, then run one workload.

    python3 perfbench/run.py --workload edit-o1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # unit tests of the benchmark

Run it from the root of a checkout. The build goes to
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); every run
works in its own directory under .bench_build, which it removes
afterwards. The last line on stdout is the result JSON written by
loopbench; see loopbench.cpp for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Hard cap on one run, which must end within 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(targets):
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"]
                     + targets)
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                return None
    return out


def run_bench(args, out):
    run_dir = os.path.join(build_dir(), "perfbench-run-%d" % os.getpid())
    state_dir = os.path.join(build_dir(), "perfbench-state")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(state_dir, exist_ok=True)
    cmd = [os.path.join(out, "loopbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pldd", os.path.join(out, "pldd"), "--state-dir", state_dir]
    # Own process group, so a timeout also takes down the daemon.
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines
                                   if not l.startswith("{")) + "\n")
        sys.stderr.write("perfbench: loopbench failed (exit %d)\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(stdout)
    return 0


def main():
    # Keep the compiler's and the programs' scratch files in the checkout.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=["edit-o1", "team-burst"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.selftest:
        out = build(["perfbench_tests", "loopbench"])
        if out is None:
            return 1
        return subprocess.call(["ctest", "--output-on-failure"], cwd=out)
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    out = build(["loopbench", "pldd"])
    if out is None:
        return 1
    return run_bench(args, out)


if __name__ == "__main__":
    sys.exit(main())
