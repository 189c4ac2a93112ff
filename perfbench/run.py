#!/usr/bin/env python3
"""Build and run the Camus benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload itch-fanout --seed 1 --seconds 10 --trace 0

Builds the perfbench module (which uses the repository's packages from
source through a replace directive) into .bench_build/, then runs it with
the given arguments. The last line of standard output is the result as
one JSON object. Build products, the Go build cache and trace files all
stay under .bench_build/ in the current directory.
"""
import os
import subprocess
import sys

RUN_TIMEOUT = 170  # seconds; a run must end well within 180


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(out, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
