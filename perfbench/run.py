#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload nlp-batch --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is a dune project of its own, in perfbench/_src (dune skips
directories whose names start with "_", so the program's own build never
sees it).  This script assembles its build tree under .perfbench/build:
the benchmark's sources as perfbench/, beside a copy of the program's
lib/.  It builds main.exe there, runs it once in a fresh process with a
fresh scratch directory under .perfbench/, and relays its standard
output, whose last line is the result object.  Exits non-zero, printing
no result, when the checkout is incomplete, the build fails, or the run
fails or times out.  --self-test runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SELF_TEST_TIMEOUT_S = 300
SRC = os.path.join("perfbench", "_src")
TREE = os.path.join(".perfbench", "build")
REQUIRED = ["lib/serve/functs.mli", "lib/serve/dune",
            os.path.join(SRC, "dune-project"), os.path.join(SRC, "main.ml")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (set-up probes, compilers) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def assemble_tree():
    """Refresh the build tree's sources; dune's own _build in it stays, so
    an unchanged program is not compiled again."""
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        die("run from the root of a source checkout (missing: %s)" % ", ".join(missing))
    os.makedirs(TREE, exist_ok=True)
    for sub in ("lib", "perfbench"):
        shutil.rmtree(os.path.join(TREE, sub), ignore_errors=True)
    shutil.copytree("lib", os.path.join(TREE, "lib"))
    shutil.copytree(SRC, os.path.join(TREE, "perfbench"),
                    ignore=shutil.ignore_patterns("dune-project"))
    shutil.copyfile(os.path.join(SRC, "dune-project"), os.path.join(TREE, "dune-project"))


def dune(target, timeout, env):
    """Build a target of the tree; dune's output goes to standard error."""
    code, _ = run(["dune", "build", "--root", TREE, target], timeout,
                  env=env, stdout=sys.stderr)
    return code


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    assemble_tree()
    # Keep every write inside the checkout: no shared dune cache, and
    # temporary files (the JIT's compilers) under the run directory.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if args.self_test:
        sys.exit(dune("@perfbench/test/runtest", SELF_TEST_TIMEOUT_S, env))
    if dune("./perfbench/main.exe", BUILD_TIMEOUT_S, env) != 0:
        die("build failed")

    # The run itself goes on one CPU.  On a shared 2-vCPU virtual machine,
    # every hand-off between the load generator and the session's
    # dispatcher on different vCPUs waits for the hypervisor to wake the
    # other one, and that wait is what made tail latency unrepeatable.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = os.path.join(".perfbench", "run-%d" % os.getpid())
    tmp = os.path.join(scratch, "tmp")
    shutil.rmtree(scratch, ignore_errors=True)  # left by an earlier run with this pid
    os.makedirs(tmp)
    spans = os.path.join(".perfbench", "spans-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(TREE, "_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--spans", spans]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, env=dict(env, TMPDIR=os.path.abspath(tmp)),
                        stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        die("benchmark exited with code %d" % code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no result line")
    if set(result) != RESULT_KEYS:
        die("malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
