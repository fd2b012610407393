#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 25 --trace 0

The arguments go to the Go program unchanged. The binary and every Go
cache live under .bench_build/ in the repository root, so a run writes
nothing outside the checkout. A failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
