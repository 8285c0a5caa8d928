#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 5 --trace 0

Builds perfbench/main.exe with dune into .bench_build/ (or into
$CARGO_TARGET_DIR when set), then runs it with the given arguments.  The
last line of standard output is the JSON result; spans of a traced run are
written under the same build directory.  Exits non-zero, without a result,
when the build or the run fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest(root):
    """Digest of every dune and OCaml source file: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for f in sorted(files):
                if f == "dune" or f.endswith((".ml", ".mli")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, root).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


class Stopped(Exception):
    pass


def run_child(cmd, timeout, **kw):
    """Runs cmd to completion and returns its exit code.  On a timeout, or
    when this process is told to stop, the child is killed and waited for
    before raising."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, frame):
        child.kill()
        child.wait()
        raise Stopped()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise Stopped()


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    out = os.path.join(build_dir, "perfbench")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    dune_dir = os.path.join(build_dir, "dune")
    try:
        built = run_child(
            ["dune", "build", "--root", root, "--build-dir", dune_dir,
             "--display", "quiet", "perfbench/main.exe"],
            BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr)
        if built != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
        exe = os.path.join(dune_dir, "default", "perfbench", "main.exe")
        args = sys.argv[1:] + ["--out", out, "--commit", git_commit(root),
                               "--source-digest", source_digest(root)]
        return run_child([exe] + args, RUN_TIMEOUT_S, cwd=root, env=env)
    except Stopped:
        print("perfbench: stopped before the run finished", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
