#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark invocation.

Usage, from the repository root:

    python3 perfbench/run.py --workload svc-small --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary. The Go build cache, module cache,
temporary files and the binary itself live under .bench_build/ in the
repository root, so a run reads and writes nothing outside the checkout
apart from the Go toolchain it compiles with.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def main():
    tmp = os.path.join(BUILD, "tmp")
    for d in ("gocache", "gopath", "config", tmp):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    exe = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", exe, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    # The binary reads BENCHMARK.json and writes its spans relative to the
    # repository root.
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
