#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. A smoke-sized run of every workload BENCHMARK.json names, traced and
   untraced, passes and prints every metric BENCHMARK.json declares, each
   with its declared unit; end-to-end values are finite and above zero.
2. A tampered table digest makes the reproduce run fail (exit 1,
   "correct": false).
3. A tampered reference verdict, and separately a tampered explanation
   suspect link, make the gateway-explain run fail the same way.
4. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.

Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_selftest")
SMOKE_SECONDS = "2"


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{workload} --trace {trace}"
            code, result, proc = run(["--workload", workload, "--seed", "7",
                                      "--seconds", SMOKE_SECONDS, "--trace", trace])
            if code != 0 or result is None:
                check(False, f"{what}: exit {code}\n{proc.stderr[-2000:]}")
                continue
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: correct, attempted >= 1, no failures")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == declared, f"{what}: every declared metric, with its unit")
            for line in (f"{n:<32}" for n in declared):
                if not any(l.startswith(f"[{workload}] {line}") for l in proc.stdout.splitlines()):
                    check(False, f"{what}: report line for {line.strip()}")
            if trace == "0":
                values = [m["value"] for m in result["metrics"].values()]
                check(all(math.isfinite(v) and v > 0 for v in values),
                      f"{what}: end-to-end values finite and above zero")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        with open(os.path.join(ROOT, "perfbench", "oracle", "reproduce_runs10.json")) as f:
            oracle = json.load(f)
        name = sorted(oracle)[0]
        oracle[name] = "0" * 64
        tampered = os.path.join(SCRATCH, "tampered_oracle.json")
        with open(tampered, "w") as f:
            json.dump(oracle, f)
        code, result, _ = run(["--workload", "reproduce", "--seed", "1", "--seconds", "1",
                               "--oracle", tampered])
        check(code == 1 and result is not None and not result["correct"],
              f"tampered digest of {name} fails the reproduce run")

        for tamper in ("verdict", "suspect"):
            code, result, _ = run(["--workload", "gateway-explain", "--seed", "1", "--seconds", "1",
                                   "--tamper", tamper])
            check(code == 1 and result is not None and not result["correct"],
                  f"tampered reference {tamper} fails the gateway-explain run")

        stripped = os.path.join(SCRATCH, "stripped")
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("target"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(stripped, ".bench_build"))
        code, result, _ = run(["--workload", "reproduce", "--seed", "1", "--seconds", "1"],
                              cwd=stripped, env=env)
        check(code != 0 and result is None, "a directory without the program: nonzero exit, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
