#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <batch|online>
                             --seed N --seconds S --trace 0|1

Builds the benchmark program (this directory's Go module) and the `tables`
CLI from source into .bench_build/ at the checkout root, with the Go build
cache, module cache, temporary files and toolchain config kept there too,
then runs it. The program's standard output is passed through: its
last line is the JSON result. Exits non-zero, without a result, when the
build fails or the program fails or overruns its time limit.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")

# A run must end within 180 s; the first run of a checkout may also build.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

_child = None


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-buildvcs=false -mod=readonly"
    env["GOPROXY"] = "off"
    env["GOWORK"] = "off"
    env["GOTELEMETRY"] = "off"
    env["CGO_ENABLED"] = "0"
    return env


def tree_hash():
    """A hash of every source file under the checkout root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".golden", ".json", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def source_id():
    """The checkout's revision: git HEAD for a clean git work tree, HEAD
    plus "-dirty-" and the source-tree hash when the work tree has changes
    (so uncommitted edits never carry their parent's stamp), and "tree-"
    plus the source-tree hash for a checkout exported without its .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            if status.stdout.strip():
                return head.stdout.strip() + "-dirty-" + tree_hash()
            return head.stdout.strip()
    return "tree-" + tree_hash()


def run(cmd, cwd, env, timeout, stdout=None):
    """Runs cmd in its own process group, killing the group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_child()
        print(f"run.py: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        sys.exit(1)
    code = _child.returncode
    _child = None
    return code, out


def kill_child():
    global _child
    if _child is not None and _child.poll() is None:
        try:
            os.killpg(_child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _child.wait()
    _child = None


def on_signal(signum, _frame):
    kill_child()
    sys.exit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = go_env()
    start = time.monotonic()
    for target, pkg in (("perfbench", "."), ("tables", "adhocrace/cmd/tables")):
        code, _ = run([go, "build", "-o", os.path.join(BIN, target), pkg], HERE, env, BUILD_TIMEOUT_S,
                      stdout=subprocess.DEVNULL)
        if code != 0:
            print(f"run.py: building {pkg} failed", file=sys.stderr)
            return 1
    built = time.monotonic() - start

    cmd = [
        os.path.join(BIN, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-tables-bin", os.path.join(BIN, "tables"),
        "-spans-dir", os.path.join(BUILD, "spans"),
        "-commit", source_id(),
    ]
    # A cached build leaves the run its full 170 s; a fresh one may eat into
    # the first run's longer allowance instead.
    code, out = run(cmd, ROOT, env, max(RUN_TIMEOUT_S - min(built, 10), 60), stdout=subprocess.PIPE)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
