#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark from source and runs one workload.  The benchmark
is a dune project of its own (perfbench/wdbench/); it is staged in
.bench_build/src/ beside a copy of the repository's lib/ and built there
with the release profile, so the repository's own build never compiles
it.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 only if every output check passed.

Extra options:
  --workload all         run every workload in turn (same seed, seconds
                         and trace); exit non-zero if any run failed
  --updates N            stream length (default: the workload's own)
  --inject-wrong-truth   expect one distinct item more than the stream
                         holds, so every output check on truth fails
  --self-test            run every workload at tiny scale twice, honest
                         and with --inject-wrong-truth, and exit 0 only if
                         the honest runs pass and the injected ones fail
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["dc-ls-zipf", "dc-sc-fresh", "dc-ls-tcp", "views-worldcup"]
PACKAGE = os.path.join("perfbench", "wdbench")
STAGE = os.path.join(".bench_build", "src")
EXE = os.path.join(STAGE, "_build", "default", "wdbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ("lib", os.path.join(PACKAGE, "dune-project")):
        if not os.path.exists(path):
            fail("run from the root of a source checkout (missing %s)" % path)


def copy(src, dst):
    """Copy a file unless dst already holds the same bytes, so that
    dune rebuilds only what changed."""
    with open(src, "rb") as f:
        data = f.read()
    if os.path.exists(dst):
        with open(dst, "rb") as f:
            if f.read() == data:
                return
    with open(dst, "wb") as f:
        f.write(data)


def sync(src, dst):
    """Make the tree dst a copy of the tree src."""
    keep = set()
    for dirpath, _, filenames in os.walk(src):
        rel = os.path.relpath(dirpath, src)
        os.makedirs(os.path.join(dst, rel), exist_ok=True)
        for name in filenames:
            keep.add(os.path.normpath(os.path.join(rel, name)))
            copy(os.path.join(dirpath, name), os.path.join(dst, rel, name))
    for dirpath, _, filenames in os.walk(dst):
        for name in filenames:
            path = os.path.join(dirpath, name)
            if os.path.normpath(os.path.relpath(path, dst)) not in keep:
                os.remove(path)


def stage():
    """The build tree: the benchmark package at the root of its own dune
    project, with the library sources it links under lib/."""
    os.makedirs(STAGE, exist_ok=True)
    for name in os.listdir(PACKAGE):
        copy(os.path.join(PACKAGE, name), os.path.join(STAGE, name))
    sync("lib", os.path.join(STAGE, "lib"))


def build():
    stage()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", STAGE, "--profile", "release",
           "./wdbench.exe", "./calibrate.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % proc.returncode, 3)


def source_digest():
    """SHA-256 over the benchmark's and the library's sources, so results
    from checkouts without git metadata still name what they measured."""
    h = hashlib.sha256()
    roots = ["dune-project", "lib", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_rev():
    if not os.path.exists(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def flambda():
    try:
        out = subprocess.run(["ocamlopt", "-config-var", "flambda"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_exe(args, provenance):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", provenance["rev"], "--flambda", provenance["flambda"],
           "--source-sha256", provenance["source"]]
    if args.updates:
        cmd += ["--updates", str(args.updates)]
    if args.inject_wrong_truth:
        cmd.append("--inject-wrong-truth")
    # A session of its own, so that a run cut by the timeout takes its
    # forked relay processes with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    return proc.returncode, out


def self_test(provenance):
    ok = True
    for workload in WORKLOADS:
        for inject in (False, True):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.5,
                                      trace=0, updates=20000,
                                      inject_wrong_truth=inject)
            code, out = run_exe(args, provenance)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if result is None:
                good = False
                share = None
            else:
                share = result["failed"] / result["attempted"]
                if inject:
                    good = code != 0 and not result["correct"] and share == 1.0
                else:
                    good = code == 0 and result["correct"] and share == 0.0
            ok = ok and good
            print("%-16s %-14s exit=%d failed_update_share=%s %s" % (
                workload, "wrong-truth" if inject else "honest", code, share,
                "ok" if good else "UNEXPECTED"))
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--updates", type=int, default=0)
    parser.add_argument("--inject-wrong-truth", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    check_checkout()
    build()
    provenance = {"rev": git_rev(), "flambda": flambda(),
                  "source": source_digest()}
    if args.self_test:
        sys.exit(self_test(provenance))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        code, out = run_exe(one, provenance)
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
