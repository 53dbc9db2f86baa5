#!/usr/bin/env python3
"""Build and run the CubicleOS benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sqlite|http|tenants --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments; its last line of stdout is the JSON
result. Exits non-zero without a result when the checkout does not hold
the sources the benchmark builds from.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.stderr.write(f"perfbench: {need} not found; run from the repository root\n")
            return 2
    # the dune cache lives outside the checkout; keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
