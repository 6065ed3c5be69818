#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload warm-dedup --seed 1 --seconds 10 --trace 0

perfbench is a Go module of its own (perfbench/go.mod) that imports the
repository's packages through a `replace efdedup => ../` directive. This
script builds it into .bench_build/ with a build cache kept there too, so
building and running read and write only inside the checkout, and then
runs it with the given arguments. The last line of standard output is the
result JSON; the exit code is the benchmark's (non-zero when an output
check failed or the build failed).
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench-bin")
    env = dict(os.environ)
    env.update(
        GOWORK="off",  # perfbench is not in the repository's go.work
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    ran = subprocess.run(
        [binary, "--workdir", os.path.join(build, "perfbench")] + sys.argv[1:],
        cwd=root,
        env=env,
    )
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
