#!/usr/bin/env python3
"""Per-layer self time from a traced ditto_bench run.

A span's self time is its duration minus the part of its interval
that its child spans cover. A layer is the part of a span name before
the first dot ("sim.step" -> "sim"). The report prints each layer's
self time, its share of the traced wall time (the root spans), and the
layer's per-layer metrics from the run's result next to it.

Spans that run concurrently (fine-tune candidates on the executor)
each keep their own self time, so on a workload run with --jobs above
1 the self times can sum to more than the wall time.

    python3 perfbench/layer_report.py SPANS.json [RESULT.json]
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        return json.load(f)


def covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self nanoseconds per span id."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"])
            - covered(children[s["id"]]) for s in spans}


def report(doc, result=None):
    spans = doc["spans"]
    own = self_times(spans)
    by_layer = defaultdict(int)
    by_op = defaultdict(lambda: [0, 0])
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        by_layer[layer] += own[s["id"]]
        by_op[s["name"]][0] += own[s["id"]]
        by_op[s["name"]][1] += 1
    wall = sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["parent"] < 0)
    total = sum(by_layer.values())
    metrics = result["metrics"] if result else {}

    lines = ["layer report: %s seed %s jobs %s, %d spans"
             % (doc["workload"], doc["seed"], doc["jobs"], len(spans)),
             "%-9s %10s %7s  %s" % ("layer", "self_s", "share",
                                     "per-layer metrics")]
    # Layers the benchmark does not call directly (hw, os, ...) have no
    # spans: their time is inside sim.run. They are listed for their counts.
    unspanned = sorted({name.split(".", 1)[0] for name in metrics
                        if "." in name} - set(by_layer))
    for layer in sorted(by_layer, key=lambda k: -by_layer[k]) + unspanned:
        counts = ", ".join(
            "%s=%.6g" % (name.split(".", 1)[1], m["value"])
            for name, m in sorted(metrics.items())
            if name.startswith(layer + ".") and m["value"] != 0)
        if layer not in by_layer and not counts:
            continue
        if layer in by_layer:
            lines.append("%-9s %10.4f %6.1f%%  %s"
                         % (layer, by_layer[layer] / 1e9,
                            100.0 * by_layer[layer] / wall if wall else 0,
                            counts))
        else:
            lines.append("%-9s %10s %7s  %s" % (layer, "-", "-", counts))
    lines.append("%-24s %10s %8s" % ("op", "self_s", "spans"))
    for name in sorted(by_op, key=lambda k: -by_op[k][0]):
        lines.append("%-24s %10.4f %8d"
                     % (name, by_op[name][0] / 1e9, by_op[name][1]))
    lines.append("sum of self times %.4f s, traced wall %.4f s (%.1f%%)"
                 % (total / 1e9, wall / 1e9,
                    100.0 * total / wall if wall else 0))
    return "\n".join(lines)


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    result = load(sys.argv[2]) if len(sys.argv) == 3 else None
    print(report(load(sys.argv[1]), result))


if __name__ == "__main__":
    main()
