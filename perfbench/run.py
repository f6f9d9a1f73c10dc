#!/usr/bin/env python3
"""Build and run the raceguard benchmark.  See perfbench/README.md.

From the root of a raceguard checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe from source into .bench_build
and runs it; the last line of standard output is the run's result as
one JSON object.  --self-test checks that the failure count is not
vacuous: at the reference seed every workload must report no failed
item against the pinned references, and some failed items against a
deliberately corrupted copy of them.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["sip-detect", "chaos-grid", "trace-replay"]
REFERENCE_SEED = "7"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a raceguard checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def bench(args, timeout):
    """Run bench.exe; return (exit code, stdout).  subprocess.run kills
    and reaps the child on timeout."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"bench.exe {' '.join(args)} timed out after {timeout}s")
    return r.returncode, r.stdout


def self_test():
    ok = True
    for w in WORKLOADS:
        for corrupt in (False, True):
            args = ["--workload", w, "--seed", REFERENCE_SEED, "--seconds", "1",
                    "--trace", "0"] + (["--corrupt-ref"] if corrupt else [])
            code, out = bench(args, 170)
            if code != 0:
                print(f"{w}: bench.exe exited {code}")
                ok = False
                continue
            res = json.loads(out.strip().splitlines()[-1])
            frac = res["failed"] / res["attempted"]
            good = (frac > 0 and not res["correct"]) if corrupt else (frac == 0 and res["correct"])
            ok = ok and good
            print(f"{w:13s} {'corrupted' if corrupt else 'pinned':9s} reference: "
                  f"failed_frac {frac:.4f} ({res['failed']}/{res['attempted']}) "
                  f"{'ok' if good else 'WRONG'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    code, out = bench(args, 175)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
