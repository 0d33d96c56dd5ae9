#!/usr/bin/env python3
"""Benchmark entry point: build the driver and the server from source, then
run one workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload campaign_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The build lives in .bench_build/ and is
reused by later runs.  --smoke runs every workload, untraced and traced, at
tiny sizes for one second each and checks the output schema and the gates.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_DIR = BUILD / "run"
DRIVER = CMAKE_DIR / "perfbench_driver"
SERVER = CMAKE_DIR / "sybiltd" / "server" / "sybiltd_server"
WORKLOADS = ("wire_ingest", "campaign_stream", "batch_discovery")
DRIVER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 2)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    cache = CMAKE_DIR / "CMakeCache.txt"
    # A build tree configured for another checkout location cannot be reused.
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}\n" not in cache.read_text():
        shutil.rmtree(CMAKE_DIR)
    if not cache.is_file():
        if run_logged(["cmake", "-S", ROOT / "perfbench", "-B", CMAKE_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail(f"cmake configure failed; see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench_driver",
                   "sybiltd_server", "-j", jobs], log) != 0:
        fail(f"build failed; see {log}")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"] for m in data["per_layer" if trace else "end_to_end"]}


def run_driver(workload, seed, seconds, trace, smoke, commit):
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    # The driver and the server it starts see none of the library's
    # SYBILTD_* switches from the caller; the driver sets what it needs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYBILTD_")}
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--server", str(SERVER), "--work-dir", str(RUN_DIR), "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return proc.returncode, lines, result


def check_result(result, trace):
    """Problems with a result line, as a list of strings."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result line does not have exactly the keys " + ", ".join(sorted(RESULT_KEYS))]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if result["failed"] != 0:
        problems.append(f"{result['failed']} operations failed")
    want = expected_metrics(trace)
    got = set(result["metrics"])
    if want is not None and got != want:
        problems.append(f"metrics missing {sorted(want - got)}, unexpected {sorted(got - want)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            problems.append(f"metric {name} is malformed")
    return problems


def smoke(commit):
    failures = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines, result = run_driver(workload, 1, 1, trace, True, commit)
            problems = check_result(result, trace)
            if code != 0:
                problems.append(f"driver exited with {code}")
            label = f"{workload} trace={int(trace)}"
            if problems:
                failures += 1
                print("\n".join(lines[-12:]))
                print(f"smoke FAIL {label}: " + "; ".join(problems))
            else:
                print(f"smoke ok   {label}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} operations")
    if failures:
        fail(f"{failures} smoke checks failed")
    print("smoke OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    build()
    commit = source_id()
    if args.smoke:
        smoke(commit)
        return
    code, lines, result = run_driver(args.workload, args.seed, args.seconds,
                                     bool(args.trace), False, commit)
    problems = check_result(result, bool(args.trace)) if code == 0 else []
    if code != 0 or problems:
        print("\n".join(lines[:-1]))
        fail(f"{args.workload}: " + ("; ".join(problems) or f"driver exited with {code}"))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
