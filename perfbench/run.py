#!/usr/bin/env python3
"""Build the bfskel benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload field_1e5 --seed 1 --seconds 10 --trace 0

The Go build cache, module cache and binary live in .bench_build/ at the
root, so nothing is written outside the checkout. The benchmark module
(perfbench/go.mod) builds the library from the parent directory; without
it the build fails and this script exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "skelperf")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    for key in ("BFSKEL_SIMNET_ENGINE", "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG"):
        env.pop(key, None)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
