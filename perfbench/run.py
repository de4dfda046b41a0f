#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pagerank-web --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources
into .bench_build/ (with its build cache there too, so the run reads and
writes nothing outside the checkout), then replaces this process with
the same arguments plus the CPU count this process may use and the
commit, when the checkout is a git repository. Build output goes to
standard error; the benchmark's result is the last line of standard
output. A failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr)
    except OSError as e:
        print("perfbench: go build:", e, file=sys.stderr)
        sys.exit(2)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    args = [binary] + sys.argv[1:] + [
        "-nproc", str(len(os.sched_getaffinity(0))), "-commit", commit]
    sys.stdout.flush()
    os.chdir(root)
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
