#!/usr/bin/env python3
"""Builds and runs the served-workload benchmark (see prefbench/README.md).

Run from the repository root:

    python3 prefbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

The first call configures and compiles prefdb plus the prefbench binary into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is always the
binary's JSON result. Each result is also saved, with the context it was
recorded in, under <build dir>/results/, and a traced run's spans under
<build dir>/traces/.

    python3 prefbench/run.py --selftest          the benchmark's own checks
    python3 prefbench/run.py --compare A.json B.json
                                                 metric-by-metric comparison;
                                                 refuses results recorded
                                                 with different nproc
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well within 180 s; anything slower is a hang.
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds prefbench; returns its path or None."""
    out = os.path.join(build_dir(), "prefbench")
    cache = os.path.join(out, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "prefbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out, "prefbench")
    return binary if os.path.exists(binary) else None


def source_identity():
    """(git commit or 'unknown', sha256 over src/) of the measured code."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip() or commit
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def save_result(args, lines):
    context = None
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    result = json.loads(lines[-1])
    directory = os.path.join(build_dir(), "results")
    os.makedirs(directory, exist_ok=True)
    name = "%s-seed%s-trace%s.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(directory, name), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    nproc_a = (a.get("context") or {}).get("nproc")
    nproc_b = (b.get("context") or {}).get("nproc")
    if nproc_a is None or nproc_a != nproc_b:
        print("refusing to compare: nproc %s vs %s (results are only "
              "comparable on the same core count)" % (nproc_a, nproc_b),
              file=sys.stderr)
        return 2
    ma = a["result"]["metrics"]
    mb = b["result"]["metrics"]
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        unit = (ma.get(name) or mb.get(name))["unit"]
        ratio = "" if not va or vb is None else "  x%.3f" % (vb / va)
        print("%-32s %14s %14s %-6s%s" % (name, va, vb, unit, ratio))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and short phases (seconds total)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("prefbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest", "--mix",
                               os.path.join(HERE, "query_mix.sql")]).returncode

    commit, digest = source_identity()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mix", os.path.join(HERE, "query_mix.sql"),
           "--commit", commit, "--source-digest", digest]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            sys.stderr.write(e.stdout if isinstance(e.stdout, str)
                             else e.stdout.decode(errors="replace"))
        print("prefbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    # A run with wrong answers still prints its result line (correct:
    # false) and exits nonzero.
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0:
        save_result(args, proc.stdout.rstrip("\n").split("\n"))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
