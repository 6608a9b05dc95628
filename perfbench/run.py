#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload udp-saturate|udp-paced|sim-sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark program) into
.bench_build/perfbench; later calls rebuild only what changed. The program's
human-readable lines are passed through, and the last stdout line is the
JSON result: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; the traced run also writes its spans as Chrome-trace JSON
to .bench_build/perfbench/spans-<workload>.json.

Exit status: 0 when every correctness check passed, non-zero otherwise
(and without a result line when the benchmark could not run at all).
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("udp-saturate", "udp-paced", "sim-sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result line, or an error string."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        return f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json"
    if any(not isinstance(v.get("value"), (int, float))
           for v in res["metrics"].values()):
        return "a metric value is not a number"
    return res


def fingerprint_stable(output):
    """sim-sweep covers a fixed seed range, so one build must print the same
    combined fingerprint in every run. Remembers it per binary in the build
    directory; returns an error string when this run disagrees."""
    found = set(re.findall(r"fingerprint ([0-9a-f]{64})", output))
    if not found:
        return "no fingerprint printed"
    if len(found) > 1:
        return "fingerprints differ within the run"
    binary = hashlib.sha256((BUILD / "perfbench").read_bytes()).hexdigest()
    store = BUILD / "sim-sweep-fingerprints.json"
    seen = json.loads(store.read_text()) if store.is_file() else {}
    fp = found.pop()
    if seen.setdefault(binary, fp) != fp:
        return f"fingerprint {fp} differs from an earlier run's {seen[binary]}"
    store.write_text(json.dumps(seen))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                str(BUILD / f"spans-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    res = check_result(lines[-1], args.trace)
    if isinstance(res, str):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"malformed result ({res}); exit status {proc.returncode}")
    if args.workload == "sim-sweep" and res["correct"]:
        err = fingerprint_stable(proc.stdout)
        if err:
            print(f"sim-sweep: CHECK FAILED: {err}")
            res["correct"] = False
            lines[-1] = json.dumps(res)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not res["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
