#!/usr/bin/env python3
"""The AVMON benchmark: builds the program from source, runs one workload,
checks its outputs and prints one JSON result line.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload stat-20k --seed 1 --seconds 20 --trace 0

--trace 0 reports every end-to-end metric, --trace 1 every per-layer metric.
BENCHMARK.json at the root names the workloads and both metric sets with
their units; perfbench/metrics.json defines each metric and, for each
per-layer metric, its layer, what it should move and the workloads that
exercise it. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the lines before it give the provenance of the numbers (commit or
source digest, compiler, build type and flags, hardware threads, seed,
mode) and every check the run made. The full record is also written to
.bench_build/results/. The benchmark refuses to report numbers (exits
non-zero without a result) when the libraries under test were compiled
without optimization.

Extra options, used by perfbench/test_perfbench.py: --size tiny (small
inputs), --shards K (sim workloads), --corrupt-expected (flip the
reference outputs are checked against; the run must then report failures).
"""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "avmon_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    """A failure that means no result may be reported."""


def load_metric_spec():
    """Workloads, names and units from BENCHMARK.json, joined with the
    per-metric definitions and mapping of perfbench/metrics.json."""
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            declared = json.load(f)
        with open(os.path.join(HERE, "metrics.json")) as f:
            mapping = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read the metric spec: %s" % e)
    spec = {"workloads": [w["name"] for w in declared["workloads"]]}
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in declared[kind]]
        unmapped = sorted(set(names) ^ set(mapping[kind]))
        if unmapped:
            raise BenchError("BENCHMARK.json and perfbench/metrics.json disagree on %s: %s"
                             % (kind, ", ".join(unmapped)))
        spec[kind] = {m["name"]: dict(mapping[kind][m["name"]], unit=m["unit"])
                      for m in declared[kind]}
    return spec


def expected_metrics(spec, workload, trace):
    """{name: (unit, applies)} for the metrics this run must print."""
    if not trace:
        return {name: (m["unit"], True) for name, m in spec["end_to_end"].items()}
    return {name: (m["unit"], workload in m["workloads"])
            for name, m in spec["per_layer"].items()}


def source_digest(root):
    """sha256 over the sources the benchmark builds (the checkout is not
    always a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.join("tests", "golden_hash.hpp"), "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            if "__pycache__" in name:
                continue
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise BenchError("no AVMON sources here (run from the root of a checkout)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # No build type: the repository's own default applies, exactly as
        # a plain `cmake -B build -S .` of the repository would build it.
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "avmon_perfbench", "-j", jobs])
    start = time.monotonic()
    with open(log_path, "a") as log:
        for cmd in steps:
            left = BUILD_TIMEOUT_S - (time.monotonic() - start)
            log.write("$ " + " ".join(shlex.quote(c) for c in cmd) + "\n")
            log.flush()
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(left, 1)).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError("build failed: %s" % e)
            if code != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (exit %d); see %s\n%s" % (code, log_path, tail))


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


OPT_FLAG = re.compile(r"(?:^|\s)-O([0-3sgz]|fast)?(?=\s|$)")


def check_optimized(root):
    """The build guard: every library source under src/ must have been
    compiled with an optimization level other than -O0. Read from the
    compile commands the build used, not from what CMake was asked for
    (an explicit -DCMAKE_BUILD_TYPE=RelWithAssert once gave -O0)."""
    path = os.path.join(BUILD_DIR, "compile_commands.json")
    try:
        with open(path) as f:
            commands = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))
    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    seen = 0
    for entry in commands:
        if not os.path.realpath(entry["file"]).startswith(src):
            continue
        seen += 1
        command = entry.get("command") or " ".join(entry.get("arguments", []))
        levels = [m.group(1) or "1" for m in OPT_FLAG.finditer(command)]
        if not levels or levels[-1] == "0":
            raise BenchError("refusing to report: %s was compiled without optimization (%s)"
                             % (os.path.relpath(entry["file"], root),
                                "-O" + levels[-1] if levels else "no -O flag"))
    if seen == 0:
        raise BenchError("no library sources in %s" % path)


def provenance(root, args, info):
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    return {
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "compiler": "%s %s" % (cmake_cache("CMAKE_CXX_COMPILER"), info.get("compiler", "")),
        "build_type": build_type,
        "cxx_flags": " ".join(f for f in (cmake_cache("CMAKE_CXX_FLAGS"),
                                          cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper()))
                              if f),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "mode": "traced" if args.trace else "untraced",
        "size": args.size,
    }


def validate(result, spec, workload, trace):
    """Names and units must be exactly the spec's; per-layer metrics of
    layers this workload does not exercise are reported as 0."""
    want = expected_metrics(spec, workload, trace)
    got = result["metrics"]
    wrong = []
    metrics = {}
    for name, (unit, applies) in want.items():
        if not applies:
            if name in got:
                wrong.append("%s: reported by a workload it does not apply to" % name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if name not in got:
            wrong.append("%s: missing" % name)
            continue
        value, got_unit = got[name].get("value"), got[name].get("unit")
        if got_unit != unit:
            wrong.append("%s: unit %r, expected %r" % (name, got_unit, unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            wrong.append("%s: value %r is not a finite number" % (name, value))
        elif not trace and value <= 0:
            wrong.append("%s: end-to-end value %r is not positive" % (name, value))
        metrics[name] = {"value": value, "unit": unit}
    wrong += ["%s: not in BENCHMARK.json" % n for n in got if n not in want]
    if wrong:
        raise BenchError("metric report does not match BENCHMARK.json:\n  " +
                         "\n  ".join(wrong))
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        spec = load_metric_spec()
        if args.workload not in spec["workloads"]:
            raise BenchError("unknown workload %r (known: %s)"
                             % (args.workload, ", ".join(spec["workloads"])))
        build(root)
        check_optimized(root)

        os.makedirs(os.path.join(BUILD_ROOT, "results"), exist_ok=True)
        stem = os.path.join(BUILD_ROOT, "results", "%s-seed%d-trace%d" %
                            (args.workload, args.seed, args.trace))
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        if args.shards:
            cmd += ["--shards", str(args.shards)]
        if args.corrupt_expected:
            cmd.append("--corrupt-expected")
        if args.trace:
            cmd += ["--spans-out", stem + ".spans.json"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("workload did not finish within %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("workload exited with %d:\n%s" % (proc.returncode, proc.stderr[-3000:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["info"].get("optimized") != "1":
            raise BenchError("refusing to report: the benchmark itself was built without optimization")
        metrics = validate(result, spec, args.workload, bool(args.trace))
    except (BenchError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    prov = provenance(root, args, result["info"])
    failed_checks = [c for c in result["checks"] if not c["passed"]]
    record = {"provenance": prov, "info": result["info"], "checks": result["checks"],
              "correct": result["correct"] and not failed_checks,
              "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("checks %d passed, %d failed%s" % (
        len(result["checks"]) - len(failed_checks), len(failed_checks),
        "".join("\n  FAILED %s: %s" % (c["name"], c["detail"]) for c in failed_checks)))
    print(json.dumps({"correct": record["correct"], "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
