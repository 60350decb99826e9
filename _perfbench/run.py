#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 _perfbench/run.py --workload paper-sinr --seed 1 --seconds 30 --trace 0

The Go build cache, the binary and the run records all stay inside the
checkout (under _perfbench/.build and _perfbench/.out). Arguments are
passed through to the benchmark binary; see README.md beside this file.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = [binary, "--out", os.path.join(HERE, ".out")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
