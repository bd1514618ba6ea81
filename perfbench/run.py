#!/usr/bin/env python3
"""Benchmark entry point: builds the workspace from source, runs one
workload, checks its outputs, and prints one JSON result line last.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload

Workloads (see perfbench/README.md for what each metric means on each):

  reproduce        the paper suite, `reproduce --runs 10 --jobs 2`, each
                   sample a fresh process; tables checked against pinned
                   digests (perfbench/oracle/reproduce_runs10.json)
  gateway-explain  JSONL against an in-process gateway with explanations
                   on: closed-loop suites, and in the traced run an
                   open-loop schedule and a rate ladder
                   (perfbench/src/gateway.rs)

With --trace 1 the run reports the per-layer metrics instead of the
end-to-end ones. Exit status: 0 when every output was correct, 1 when an
output was wrong (the result line still prints, with "correct": false),
2 when the benchmark could not run at all (no result line).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
ORACLE = os.path.join(HERE, "oracle", "reproduce_runs10.json")
WORKLOADS = ("reproduce", "gateway-explain")
SUITE_ARGS = ["--runs", "10", "--jobs", "2"]
# Cold starts per suite: a few milliseconds each, so several are cheap.
SETUP_PER_SUITE = 3

# The host's speed drifts by a fifth or more over minutes, and every timing
# with it. Each untraced run therefore times a fixed calibration task
# (`perfbench calibrate`, the benchmark's own code) between its
# measurements and reports its timings at a reference speed: each is
# multiplied by CALIBRATION_REF_MS over the run's median calibration time.
# A change to the program moves a metric as much as before; a change of
# the host's speed moves the calibration too.
CALIBRATION_REF_MS = 4.0
CALIBRATION_PASSES = "10"
# Power of the host's slowdown in each end-to-end metric that is a time.
SPEED_POWER = {"suite_s": 1, "suite_cpu_s": 1, "setup_s": 1}

# Which end-to-end metric (and workload) each per-layer metric should move.
MOVES = {
    "experiments.*_s": "suite_s on reproduce",
    "experiments.runs_executed": "suite_s, suite_cpu_s on reproduce",
    "experiments.cache_hit_ratio": "suite_s, suite_cpu_s on reproduce",
    "experiments.parallelism": "suite_s on reproduce",
    "routing.discoveries": "suite_s on reproduce",
    "routing.discover_ms_p50": "suite_s on reproduce",
    "routing.discover_ms_p99": "suite_s on reproduce",
    "sim.events": "suite_cpu_s on reproduce",
    "sim.ns_per_event": "suite_cpu_s on reproduce",
    "sim.share": "suite_cpu_s on reproduce",
    "faults.injected": "suite_s on reproduce (robustness)",
    "faults.dropped": "suite_s on reproduce (robustness)",
    "serve.queue_wait_us_p50": "suite_s on gateway-explain (and client.p99_ms)",
    "serve.queue_wait_us_p99": "suite_s on gateway-explain (and client.p99_ms)",
    "serve.compute_us_p50": "suite_s, suite_cpu_s on gateway-explain (and client.p50_ms)",
    "serve.compute_us_p99": "suite_s, suite_cpu_s on gateway-explain (and client.p99_ms)",
    "gateway.serialize_us_p50": "suite_s, suite_cpu_s on gateway-explain (and client.p50_ms)",
    "gateway.transport_us_p50": "suite_s on gateway-explain (and client.p50_ms)",
    "wire.decode_us": "suite_cpu_s on gateway-explain (and client.rps_at_slo)",
    "wire.encode_us": "suite_cpu_s on gateway-explain (and client.rps_at_slo)",
    "wire.request_bytes": "suite_cpu_s on gateway-explain (and client.rps_at_slo)",
    "wire.response_bytes": "suite_s, suite_cpu_s on gateway-explain (and client.rps_at_slo)",
    "core.detect_us.sam": "suite_cpu_s on gateway-explain (and client.p50_ms)",
    "core.detect_us.ensemble": "suite_cpu_s on gateway-explain (and client.p50_ms)",
    "core.explain_us": "suite_s, suite_cpu_s on gateway-explain (and client.p50_ms, client.rps_at_slo)",
    "core.train_ms": "setup_s on gateway-explain",
    "serve.cache_hit_ratio": "suite_s on gateway-explain (and client.p99_ms)",
    "serve.mean_batch": "suite_s on gateway-explain (and client.p99_ms)",
    "gateway.shed": "ok_share on gateway-explain",
    "gateway.codec_errors": "ok_share on gateway-explain",
    "gateway.unknown_key": "ok_share on gateway-explain",
    "client.p50_ms": "(open-loop latency at the nominal rate; no bound, see README)",
    "client.p99_ms": "(open-loop latency at the nominal rate; no bound, see README)",
    "client.rps_at_slo": "(highest ladder rung meeting the p99 limit; no bound, see README)",
    "client.lateness_ms_p99": "(generator health: client.p50_ms, client.p99_ms are valid only when low)",
    "telemetry.overhead_ratio": "(traced median / untraced median on this workload)",
}


class Unrunnable(Exception):
    """The benchmark cannot run here: no result line, exit status 2."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Build `reproduce` (the repository workspace) and the benchmark
    package from source. Output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "sam-experiments", "--bin", "reproduce"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise Unrunnable(f"build failed: {e}")
        if r.returncode != 0:
            raise Unrunnable(f"build failed: {' '.join(cmd)}")
    exes = {name: os.path.join(target_dir(), "release", name) for name in ("reproduce", "perfbench")}
    for exe in exes.values():
        if not os.access(exe, os.X_OK):
            raise Unrunnable(f"missing build output {exe}")
    return exes


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_child(argv):
    """Run a child to completion, reading its stdout line by line.
    Returns (exit status, wall s, user+sys CPU s, peak RSS MiB, stdout lines)."""
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    lines = []
    for raw in child.stdout:
        lines.append(raw.decode("utf-8", "replace").rstrip("\n"))
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, lines


def check_tables(out_dir, oracle):
    """Compare every table file a suite wrote against the pinned digests.
    Returns a list of problems (empty when the tables are right)."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".json", ".txt")):
            with open(os.path.join(out_dir, name), "rb") as f:
                found[name] = hashlib.sha256(f.read()).hexdigest()
    problems = [f"{n}: digest differs" for n in sorted(found) if n in oracle and found[n] != oracle[n]]
    problems += [f"{n}: not produced" for n in sorted(oracle) if n not in found]
    problems += [f"{n}: not in the oracle" for n in sorted(found) if n not in oracle]
    return problems


def quantile(values, q):
    """Nearest-rank quantile of raw samples (0 when empty)."""
    s = sorted(values)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1] if s else 0.0


def layer_metrics(path):
    """Per-layer metrics of one traced suite from the JSONL that
    `reproduce --telemetry` writes (its spans, then the final counter
    snapshot), and the suite's summed experiment time, s."""
    spans, counters, experiments = {}, None, {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("kind") == "span":
                spans.setdefault(rec["name"], []).append(rec["dur_us"])
                if rec["name"] == "experiment":
                    experiments[dict(rec["fields"])["id"]] = rec["dur_us"] / 1e6
            elif rec.get("kind") == "snapshot":
                counters = dict(rec["counters"])
    if not experiments or counters is None:
        raise Unrunnable(f"{path}: no experiment spans or no counter snapshot")
    experiment_s = sum(experiments.values())
    runs = len(spans.get("experiment.run", []))
    hits = counters.get("discovery.cache_hits", 0)
    discover_ms = [d / 1e3 for d in spans.get("discovery", [])]
    sim_us = sum(spans.get("sim.run", []))
    events = counters.get("sim.events_dispatched", 0)
    layers = {f"experiments.{id}_s": (s, "s") for id, s in experiments.items()}
    layers.update({
        "experiments.runs_executed": (runs, "count"),
        "experiments.cache_hit_ratio": (hits / max(hits + runs, 1), "ratio"),
        "routing.discoveries": (len(discover_ms), "count"),
        "routing.discover_ms_p50": (quantile(discover_ms, 0.50), "ms"),
        "routing.discover_ms_p99": (quantile(discover_ms, 0.99), "ms"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (sim_us * 1e3 / max(events, 1), "ns"),
        "sim.share": (sim_us / 1e6 / experiment_s, "ratio"),
        "faults.injected": (counters.get("faults.injected", 0), "count"),
        "faults.dropped": (counters.get("faults.dropped", 0), "count"),
    })
    return layers, experiment_s


def calibrate(exes):
    """Median time of a few calibration passes in a fresh process, ms."""
    out = subprocess.run([exes["perfbench"], "calibrate", "--passes", CALIBRATION_PASSES],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise Unrunnable(f"calibrate exited {out.returncode}")
    return float(out.stdout)


def at_reference_speed(workload, metrics, calibration_ms):
    """Scale the timings measured on a host whose calibration task took
    `calibration_ms` to what they read at CALIBRATION_REF_MS."""
    slowdown = calibration_ms / CALIBRATION_REF_MS
    raw = ", ".join(f"{name} {metrics[name][0]:.6g}" for name in SPEED_POWER)
    log(f"[{workload}] calibration {calibration_ms:.4f} ms (slowdown {slowdown:.3f}); as measured: {raw}")
    for name, power in SPEED_POWER.items():
        value, unit = metrics[name]
        metrics[name] = (value / slowdown ** power, unit)


def reproduce(exes, seconds, trace, oracle_path):
    """The researcher's path. The seed does not enter: the workload's
    input is the paper suite itself, pinned by digest."""
    with open(oracle_path) as f:
        oracle = json.load(f)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    problems = []
    deadline = time.perf_counter() + seconds

    def suite_ok(status, out_dir, what):
        bad = check_tables(out_dir, oracle)
        if status != 0:
            bad.append(f"exit status {status}")
        for b in bad[:5]:
            problems.append(f"{what}: {b}")
        return not bad

    if not trace:
        # Set-up: cold starts of the program (one table, no simulation)
        # before every suite, so set-up samples span the run too.
        setup, walls, cpus, rss, calibration = [], [], [], [], []
        while len(walls) < 3 or time.perf_counter() < deadline:
            calibration.append(calibrate(exes))
            for _ in range(SETUP_PER_SUITE):
                out = fresh_dir("setup")
                status, wall, _, _, _ = run_child([exes["reproduce"], *SUITE_ARGS, "--out", out, "fig9"])
                if status != 0:
                    problems.append(f"cold start: exit status {status}")
                setup.append(wall)

            out = fresh_dir("suite")
            status, wall, cpu, peak, _ = run_child([exes["reproduce"], *SUITE_ARGS, "--out", out])
            result["attempted"] += 1
            if not suite_ok(status, out, f"suite {len(walls) + 1}"):
                result["failed"] += 1
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
        m = result["metrics"]
        m["suite_s"] = (statistics.median(walls), "s")
        m["suite_cpu_s"] = (statistics.median(cpus), "s")
        m["ok_share"] = (1.0 - result["failed"] / result["attempted"], "ratio")
        m["setup_s"] = (statistics.median(setup), "s")
        m["peak_rss_mb"] = (statistics.median(rss), "MB")
        at_reference_speed("reproduce", m, statistics.median(calibration))
        log(f"[reproduce] {len(walls)} suites: wall {min(walls):.3f}-{max(walls):.3f} s")
    else:
        # Traced and untraced suites, alternating, each a fresh
        # `reproduce` process (the run memo is process-global). The traced
        # one writes the program's own spans and final counters as JSONL.
        traced, plain = [], []
        telemetry = os.path.join(WORK, "telemetry.jsonl")
        while len(traced) < 2 or time.perf_counter() < deadline:
            for is_traced in (True, False):
                out = fresh_dir("suite")
                argv = [exes["reproduce"], *SUITE_ARGS, "--out", out]
                if is_traced:
                    argv += ["--telemetry", telemetry]
                status, wall, cpu, _, _ = run_child(argv)
                result["attempted"] += 1
                if not suite_ok(status, out, "traced suite" if is_traced else "untraced suite"):
                    result["failed"] += 1
                if is_traced:
                    layers, experiment_s = layer_metrics(telemetry)
                    traced.append({"layers": layers, "experiment_s": experiment_s, "wall_s": wall})
                else:
                    plain.append({"wall_s": wall, "cpu_s": cpu})
        med = lambda runs, key: statistics.median(r[key] for r in runs)
        m = result["metrics"]
        for key, (_, unit) in traced[0]["layers"].items():
            m[key] = (statistics.median(t["layers"][key][0] for t in traced), unit)
        m["experiments.parallelism"] = (med(plain, "cpu_s") / med(plain, "wall_s"), "ratio")
        m["telemetry.overhead_ratio"] = (med(traced, "wall_s") / med(plain, "wall_s"), "ratio")
        experiment_s = med(traced, "experiment_s")
        print(f"[reproduce] accounting: sim.run {m['sim.share'][0] * experiment_s:.3f} s of "
              f"{experiment_s:.3f} s experiment time (sim.share {m['sim.share'][0]:.3f}); "
              f"suite wall {med(traced, 'wall_s'):.3f} s; CPU/wall {m['experiments.parallelism'][0]:.2f}; "
              f"{len(traced)} traced + {len(plain)} untraced suites")
    for p in problems:
        log(f"[reproduce] WRONG OUTPUT: {p}")
    result["correct"] = not problems
    return result


def gateway(exes, workload, seed, seconds, trace, tamper):
    argv = [exes["perfbench"], "gateway", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tamper:
        argv += ["--tamper", tamper]
    status, _, _, _, lines = run_child(argv)
    if not lines or not lines[-1].startswith("{"):
        raise Unrunnable(f"{workload}: perfbench exited {status} with no result line")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    raw["metrics"] = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
    if not trace:
        at_reference_speed(workload, raw["metrics"], raw["metrics"].pop("calibration_ms")[0])
    if status not in (0, 1) or raw["correct"] != (status == 0):
        raise Unrunnable(f"{workload}: perfbench exited {status}")
    return raw


def finish(workload, result, trace, declared):
    """Fill in per-layer metrics the workload's path never reaches (0: the
    layer did no work), check names and units against BENCHMARK.json,
    and print the human report."""
    metrics = result["metrics"]
    wanted = declared["per_layer" if trace else "end_to_end"]
    if trace:
        for d in wanted:
            metrics.setdefault(d["name"], (0.0, d["unit"]))
    names = {d["name"]: d["unit"] for d in wanted}
    for name, (_, unit) in metrics.items():
        if names.get(name) != unit:
            raise Unrunnable(f"{workload}: metric {name} ({unit}) is not declared in BENCHMARK.json")
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise Unrunnable(f"{workload}: metrics not measured: {', '.join(missing)}")
    for d in wanted:
        value, unit = metrics[d["name"]]
        moves = ""
        if trace:
            key = "experiments.*_s" if d["name"].startswith("experiments.") and d["name"].endswith("_s") else d["name"]
            moves = f"  -> {MOVES.get(key, '')}"
        print(f"[{workload}] {d['name']:<32} {value:>14.6g} {unit:<6}{moves}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_one(exes, args, workload, declared):
    if workload == "reproduce":
        result = reproduce(exes, args.seconds, args.trace, args.oracle)
    else:
        result = gateway(exes, workload, args.seed, args.seconds, args.trace, args.tamper)
    return finish(workload, result, args.trace, declared)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: a different digest file, or corrupted reference
    # verdicts or suspect links for the gateway.
    parser.add_argument("--oracle", default=ORACLE, help=argparse.SUPPRESS)
    parser.add_argument("--tamper", choices=("verdict", "suspect"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.trace = bool(args.trace)
    try:
        declared = spec()
        exes = build()
        os.makedirs(WORK, exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_one(exes, args, w, declared) for w in workloads]
    except (Unrunnable, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for w, r in zip(workloads, results):
        if not r["correct"]:
            log(f"perfbench: {w}: WRONG OUTPUT")
    print(json.dumps(results[-1] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{w}/{k}": v for w, r in zip(workloads, results) for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
