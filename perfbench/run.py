#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload update-gs --seed 1 --seconds 20 --trace 0

It builds the benchmark (a Go module of its own, perfbench/go.mod, which
uses the repository's module through a directory replace) into
.bench_build/, with every Go cache kept under .bench_build/, then runs it
with the given arguments.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  The exit code is
the benchmark's; a failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    cmd = [binary, "--spans", os.path.join(build, "spans")] + sys.argv[1:]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
