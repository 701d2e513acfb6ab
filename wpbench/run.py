#!/usr/bin/env python3
"""Build and run the WeiPipe training benchmark.

    python3 wpbench/run.py --workload longctx --seed 1 --seconds 20 --trace 0

Run from the root of a WeiPipe source tree. The benchmark package in this
directory builds the repo's libraries from ../src into .bench_build/ (an
up-to-date build does no work), runs the package's helper tests, then runs
the wpbench binary, whose last line of output is the result JSON.
Build output goes to stderr. Exits non-zero without a result when the tree
has no WeiPipe sources or the build or tests fail.

A wpbench process killed by a signal is run once more with the same
arguments. The program has been seen to crash rarely (once in about 200
runs, under heavy CPU steal on a 4-core guest); the retry keeps such a
crash from voiding the measurement, and it stays visible: stderr names the
signal and the detail line carries "retried_after_signal". A second crash
exits non-zero without a result.
"""

import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_id():
    """git commit when the tree is a repository, else a hash of the sources."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "wpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("wpbench: step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(proc.returncode or 1)


def die_with_parent():
    """Child-side: SIGKILL this process if run.py itself is killed."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)


def run_bench(argv):
    """Runs wpbench, once more if a signal killed it; returns its exit."""
    signals = []
    for _ in range(2):
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              preexec_fn=die_with_parent)
        if proc.returncode >= 0:
            break
        signals.append(-proc.returncode)
        print("wpbench: killed by signal %d" % -proc.returncode,
              file=sys.stderr)
    if proc.returncode < 0:
        return 1
    lines = proc.stdout.splitlines()
    if signals and len(lines) >= 2:
        detail = json.loads(lines[-2])
        detail["retried_after_signal"] = signals
        lines[-2] = json.dumps(detail)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return proc.returncode


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wpbench: no WeiPipe sources next to " + HERE, file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])
    run_quiet([os.path.join(BUILD, "wpbench_stats_test"), "--gtest_brief=1"])

    argv = [os.path.join(BUILD, "wpbench")] + sys.argv[1:]
    argv += ["--source", source_id()]
    sys.exit(run_bench(argv))


if __name__ == "__main__":
    main()
