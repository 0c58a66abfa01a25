#!/usr/bin/env python3
"""Build and run one workload of the wavelet-trie benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/wtbench.exe with dune,
runs it, relays its log, and prints as the last line one JSON object
with the keys correct, attempted, failed and metrics: every end_to_end
metric of BENCHMARK.json with --trace 0, every per_layer metric with
--trace 1.  Exits non-zero, printing no result, when the build or the
run fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "wtbench.exe")
OUT = os.path.join(".bench_build", "perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git_commit():
    """The checked-out commit, read from .git without leaving the tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    # keep every file the build and the run write inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/wtbench.exe"],
            env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        die("run timed out")
    lines = run.stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("ENV "):
            rec = json.loads(line[4:])
            rec.update(nproc=len(os.sched_getaffinity(0)), commit=git_commit())
            print("# env " + json.dumps(rec, sort_keys=True))
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            print(line)
    if run.returncode != 0 or result is None:
        die("run failed (exit %d)" % run.returncode)

    values = result["values"]
    bad = sorted(k for k, v in values.items() if v is None)
    if bad:
        die("non-finite metrics: %s" % ", ".join(bad))
    names = [m["name"] for m in wanted]
    extra = sorted(set(values) - set(names))
    if extra:
        die("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
    missing = [n for n in names if n not in values]
    if missing and not args.trace:
        die("end-to-end metrics not measured: %s" % ", ".join(missing))
    if missing:
        # per-layer metrics of layers this workload does not exercise
        print("# not exercised by %s (reported as 0): %s" % (args.workload, ", ".join(missing)))
    if result["invalid"]:
        # a measurement that timed its own generator, not a wrong answer:
        # flagged here for whoever reads the figures, not in "correct"
        print("# INVALID RUN: " + result["invalid"])
    failed = result["failed"]
    attempted = result["attempted"]
    print("# fail_frac=%.6g (%d of %d)" % (failed / max(1, attempted), failed, attempted))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
