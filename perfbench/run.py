#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-pipeline --seed 1 --seconds 30 --trace 0

Builds the crashtuner CLI and the perfbench binary from source into
.bench_build/ (Go build cache and temporary files included, so nothing
is written outside the checkout), then runs perfbench, whose last line
of standard output is the result JSON. Exits non-zero, without a result
line, when the build fails. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
# Upper bound on one perfbench run, so a hung op cannot hang the caller.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps its settings and telemetry counters under
        # the user config directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    env = go_env()
    for d in (BIN, env["GOCACHE"], env["GOPATH"], env["GOMODCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "crashtuner"), "./cmd/crashtuner"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            subprocess.run(cmd, cwd=cwd, env=env, check=True, stdout=sys.stderr)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"perfbench: build failed: {err}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [
        os.path.join(BIN, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-crashtuner", os.path.join(BIN, "crashtuner"),
        "-work", os.path.join(BUILD, "perfbench"),
    ]
    # perfbench runs in its own process group so a timeout also stops
    # any crashtuner process it has started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
