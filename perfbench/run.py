#!/usr/bin/env python3
"""The repository benchmark: builds the harness from source, runs one
workload and prints every metric by name with its unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The harness is compiled into .bench_build/ on
first use. With --trace 0 the result line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; every other metric the
harness measured is printed on the lines before it. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every run was correct.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
EXPECTED_DIGESTS = BENCH_DIR / "expected_digests.json"

WORKLOADS = ("paper_replay", "fleet_sharded", "fleet_elastic", "chaos_composed")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def valid_name(name):
    return isinstance(name, str) and len(name) <= 64 and \
        NAME_RE.fullmatch(name) is not None


def check_declared(spec):
    """Validates the metric lists of BENCHMARK.json; returns them."""
    end_to_end = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        raise BenchError(f"end_to_end must list 1..{MAX_END_TO_END} metrics")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        raise BenchError(f"per_layer must list 1..{MAX_PER_LAYER} metrics")
    seen = set()
    for metric in end_to_end + per_layer:
        name = metric.get("name")
        if not valid_name(name) or name in seen:
            raise BenchError(f"bad or repeated metric name: {name!r}")
        if UNIT_RE.fullmatch(metric.get("unit", "")) is None:
            raise BenchError(f"bad unit for {name}: {metric.get('unit')!r}")
        seen.add(name)
    return end_to_end, per_layer


def count_failed(attempted, harness_failed, digest, expected):
    """Failed runs after the digest gate. The harness already counted runs
    that threw, reported a violation or changed digest between passes; a
    folded digest other than the recorded one fails every run, since no
    single run can be blamed for it."""
    if expected is not None and digest != expected:
        return attempted
    return harness_failed


def select_metrics(measured, declared, fill_missing):
    """The declared metrics, in declared order, with the measured values.
    A declared metric the workload does not exercise is 0 when
    `fill_missing`, else an error."""
    selected = {}
    for metric in declared:
        name = metric["name"]
        if name in measured:
            value = measured[name]["value"]
        elif fill_missing:
            value = 0.0
        else:
            raise BenchError(f"harness did not report {name}")
        selected[name] = {"value": value, "unit": metric["unit"]}
    return selected


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources missing under {ROOT / 'src'}")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr, env=env)


def host_fingerprint(harness_result):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "compiler": "g++ " + harness_result.get("compiler", "?"),
            "build_type": harness_result.get("build_type", "?"),
            "git_sha": sha}


def run_harness(args):
    binary = BUILD_DIR / ("perfbench_traced" if args.trace else "perfbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        command += ["--trace", "--trace-file", str(trace_file)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"harness exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("harness printed nothing")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end, per_layer = check_declared(spec)
        build()
        result = run_harness(args)
        for name, metric in result["metrics"].items():
            if not valid_name(name) or \
                    UNIT_RE.fullmatch(metric["unit"]) is None:
                raise BenchError(f"harness reported a bad metric: {name!r}")
        expected = None
        if EXPECTED_DIGESTS.is_file():
            recorded = json.loads(EXPECTED_DIGESTS.read_text())
            expected = recorded.get(args.workload, {}).get(str(args.seed))
        metrics = select_metrics(
            result["metrics"], per_layer if args.trace else end_to_end,
            fill_missing=bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    attempted = int(result["attempted"])
    failed = count_failed(attempted, int(result["failed"]), result["digest"],
                          expected)
    failed_pct = 100.0 * failed / attempted if attempted else 100.0

    print(f"host: {json.dumps(host_fingerprint(result))}")
    print(f"workload: {args.workload} seed {args.seed} "
          f"trace {args.trace} spans {result['spans']}")
    gate = "not recorded for this seed" if expected is None else \
        ("matches" if result["digest"] == expected else f"!= {expected}")
    print(f"digest: {result['digest']} ({gate})")
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    for name in metrics:
        if name not in result["metrics"]:
            print(f"metric {name} = 0 (not measured on {args.workload})")
    print(f"metric failed_run_pct = {failed_pct:.6g} % "
          f"({failed} of {attempted} runs)")
    for failure in result.get("failures", []):
        print(f"failure: {failure}")

    correct = attempted > 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
