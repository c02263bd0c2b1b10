#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds the ADPM libraries, the shipped
session_server_cli and the perfbench binary from source (Release) into
.bench_build/perfbench, runs that binary, echoes its report, and prints as the
last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  Exits nonzero, printing no result, when
the build fails, an output is incorrect, or a declared metric is missing.
See perfbench/README.md.
"""
import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_tmp")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no ADPM sources at", ROOT)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_perfbench(args):
    """Runs the perfbench binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "perfbench"),
           "--server", os.path.join(BUILD, "session_server_cli"),
           "--work-dir", WORK] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1, out.splitlines()
    finally:
        # perfbench removes its temp dirs itself; a killed one cannot.
        for leftover in glob.glob(os.path.join(WORK, "run-%d-*" % proc.pid)):
            shutil.rmtree(leftover, ignore_errors=True)
    return proc.returncode, out.splitlines()


def measure(opts):
    build(["perfbench", "session_server_cli"])
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--server-threads", str(opts.server_threads),
            "--connections", str(opts.connections)]
    code, lines = run_perfbench(args)
    result = None
    for line in lines:
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if code != 0 or result is None or not result.get("correct"):
        log("perfbench: run failed (exit %d)" % code)
        return code or 1
    metrics = {}
    for name in declared_metrics(opts.trace == 1):
        if name not in result["metrics"]:
            log("perfbench: declared metric %s missing" % name)
            return 1
        m = result["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    return 0


# Every metric name the smoke run must print, per workload (beyond the
# BENCHMARK.json lists, which every workload prints).
EXTRA_END_TO_END = {
    "teamsim-zoo-medium": ["failed_frac"],
    "wire-sensing": ["op_p99_ms", "failed_frac"],
    "wire-open-churn": ["op_p99_ms", "open_p50_ms", "open_p90_ms",
                        "failed_frac"],
    "restart-recover": ["recover_p50_ms", "recover_p90_ms", "failed_frac"],
}


def self_test():
    build(["perfbench", "session_server_cli", "perfbench_selftest"])
    os.makedirs(WORK, exist_ok=True)
    failures = 0
    code = subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                           os.path.join(BUILD, "session_server_cli"),
                           WORK]).returncode
    if code != 0:
        failures += 1
    for workload, extra in EXTRA_END_TO_END.items():
        for trace in (0, 1):
            base = ["--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            code, lines = run_perfbench(base)
            text = "\n".join(lines)
            names = declared_metrics(trace == 1) + (extra if trace == 0 else [])
            missing = [n for n in names if (" %s " % n) not in text]
            ok = code == 0 and not missing and "PERFBENCH_RESULT" in text
            print("%s smoke %s trace=%d%s" % (
                "ok  " if ok else "FAIL", workload, trace,
                "" if ok else " (exit %d, missing %s)" % (code, missing)))
            failures += 0 if ok else 1
        code, lines = run_perfbench(["--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "0", "--smoke",
                                  "--inject-digest-mismatch"])
        ok = code == 3 and not any("PERFBENCH_RESULT" in l for l in lines)
        print("%s %s: injected mismatch exits 3 with no result" % (
            "ok  " if ok else "FAIL", workload))
        failures += 0 if ok else 1
    print("%d failure(s)" % failures)
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--server-threads", type=int, default=2)
    p.add_argument("--connections", type=int, default=2)
    p.add_argument("--self-test", action="store_true")
    opts = p.parse_args()
    try:
        if opts.self_test:
            return self_test()
        if not opts.workload:
            p.error("--workload is required")
        return measure(opts)
    except subprocess.CalledProcessError as e:
        log("perfbench: build failed:", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
