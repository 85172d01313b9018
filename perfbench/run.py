#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All arguments go to perfbench/main.exe (see README.md).  The build uses
dune with its shared cache off and temporary files under _build, so it
reads and writes only inside the repository.  The exit status is the
benchmark's, or 1 when the build fails or the benchmark overruns its time
limit: S seconds plus RUN_SLACK_S for each workload it runs.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 600
# warm-up rep, the overrun of the last rep, checks and probes
RUN_SLACK_S = 120
WORKLOADS = 4


def arg(name, default):
    args = sys.argv[1:]
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return default


def run_timeout():
    try:
        seconds = float(arg("--seconds", "10"))
    except ValueError:
        seconds = 10.0
    n = WORKLOADS if arg("--workload", "") == "all" else 1
    return (max(seconds, 0.0) + RUN_SLACK_S) * n


def main():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("perfbench: no dune-project at %s; run from a full checkout\n" % ROOT)
        return 1
    # the compiler's temporary files go under _build too, not to /tmp
    tmp = os.path.join(ROOT, "_build", "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    limit = run_timeout()
    # its own process group, so that an overrun or a signal to this script
    # also stops the children `--workload all` starts
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def stop(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    for s in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(s, stop)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        kill_group()
        sys.stderr.write("perfbench: run exceeded %.0f s\n" % limit)
        return 1


if __name__ == "__main__":
    sys.exit(main())
