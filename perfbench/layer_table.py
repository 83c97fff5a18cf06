#!/usr/bin/env python3
"""Prints the per-layer table of traced benchmark runs as Markdown.

    python3 perfbench/run.py --workload synth-bd-2k --seed 271 --seconds 35 --trace 1
    python3 perfbench/layer_table.py .bench_build/results/synth-bd-2k-seed271-trace1.json

One table per result record given: every per-layer metric the workload
exercises, with its layer and the end-to-end metric it should move (from
BENCHMARK.json and perfbench/metrics.json), followed by the tracing overhead and the time the
outside-in trace cannot attribute.
"""

import json
import sys

from run import load_metric_spec


def fmt(value, unit):
    if unit == "count":
        return "%d" % value
    if abs(value) >= 1000:
        return "%.0f" % value
    return "%.4g" % value


def table(record, spec):
    prov = record["provenance"]
    workload = prov["workload"]
    lines = ["#### %s (seed %s, %s build %s, %s hardware threads)" % (
        workload, prov["seed"], prov["build_type"], prov["cxx_flags"], prov["nproc"]), "",
        "| metric | value | unit | layer | should move |", "|---|---|---|---|---|"]
    metrics = record["metrics"]
    for name, m in spec["per_layer"].items():
        if workload not in m["workloads"]:
            continue
        moves = m["moves"] if workload in m["on"] or not m["on"] else "(not on this workload)"
        lines.append("| `%s` | %s | %s | %s | %s |" % (
            name, fmt(metrics[name]["value"], m["unit"]), m["unit"], m["layer"], moves))
    untraced = metrics["run.untraced_s"]["value"]
    traced = metrics["run.traced_s"]["value"]
    dark = metrics["run.unattributed_s"]["value"]
    lines += ["", "Tracing overhead: %.3f s (traced %.3f s vs untraced %.3f s, %+.1f%%). "
              "Unattributed: %.3f s, %.1f%% of the traced run." % (
                  traced - untraced, traced, untraced, 100.0 * (traced - untraced) / untraced,
                  dark, 100.0 * dark / traced), ""]
    return "\n".join(lines)


def main(paths):
    spec = load_metric_spec()
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        if record["provenance"]["mode"] != "traced":
            sys.exit("%s is not a traced run" % path)
        print(table(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
