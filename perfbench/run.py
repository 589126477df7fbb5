#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark package (perfbench/CMakeLists.txt: the simulator
libraries from src/ plus the ditto_bench program) and runs workloads.

One run (the form BENCHMARK.json's "command" uses):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

prints diagnostics to stderr and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced
run also writes its spans and prints the layer report to stderr.

Other modes:

    --repeat N [--out FILE]   every workload (or --workload W) on seeds
                              seed..seed+N-1, untraced, plus one traced
                              run each for the layer report and the
                              tracing overhead; all results to FILE
    --compare BASE NEW        A/B verdict per (metric, workload) from two
                              --repeat files, with BENCHMARK.json bounds
    --ab DIR [--repeat N]     the same verdicts from seed-paired runs of
                              the checkout in DIR and this one, back to
                              back, alternating which goes first; both
                              sides to --out
    --smoke                   small sizes; checks names, units, output
                              checks and digest invariance
    --check-scale             scale_500 at the default seed against
                              bench_scale's 500-service row, both built
                              here and run on this machine

The build goes to $CARGO_TARGET_DIR/perfbench when that is set, else to
build-perfbench, relative to the repository root.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the sources

import layer_report  # noqa: E402

# The tuner fans out three candidates per iteration; every other
# workload runs one simulation at a time.
JOBS = {"clone_single_tier": 3}
RUN_TIMEOUT_S = 170
# Every workload reproduces its documented configuration at this seed.
DEFAULT_SEED = 42


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir(root=ROOT):
    # Benchmark harnesses name one build root for every language in
    # CARGO_TARGET_DIR; honour it so the build lands where they expect.
    base = os.environ.get("CARGO_TARGET_DIR")
    if base:
        return os.path.join(root, base, "perfbench")
    return os.path.join(root, "build-perfbench")


def build(target="ditto_bench", root=ROOT):
    """Configure once, then build `target` incrementally; its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise SystemExit("run.py: no src/ next to %s/perfbench; the "
                         "benchmark builds the repository's sources" % root)
    out = build_dir(root)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def bench_env():
    env = dict(os.environ)
    # DITTO_JOBS would override --jobs; DITTO_EVENT_QUEUE silently
    # swaps the event-queue backend.
    env.pop("DITTO_JOBS", None)
    env.pop("DITTO_EVENT_QUEUE", None)
    return env


def run_bench(binary, workload, seed, seconds, extra=(), spans=None):
    """One ditto_bench process; returns its JSON result."""
    jobs = min(JOBS.get(workload, 1), os.cpu_count() or 1)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--jobs", str(jobs), *extra]
    if spans:
        cmd += ["--trace-out", spans]
    proc = subprocess.run(cmd, env=bench_env(), stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("run.py: ditto_bench printed no result "
                         "(exit %d)" % proc.returncode)
    return json.loads(lines[-1])


def select(result, wanted):
    """The named metrics, checked against the units BENCHMARK.json gives."""
    out = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit("run.py: metric %s [%s] missing from the "
                             "result" % (m["name"], m["unit"]))
        out[m["name"]] = got
    return out


def spans_path(workload, seed):
    d = os.path.join(build_dir(), "spans")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, "%s-%d.json" % (workload, seed))


def one_run(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit("run.py: unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(names)))
    binary = build()
    spans = spans_path(args.workload, args.seed) if args.trace else None
    result = run_bench(binary, args.workload, args.seed, args.seconds,
                       spans=spans)
    if spans:
        log(layer_report.report(layer_report.load(spans), result))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": select(result, wanted),
    }))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args, spec):
    binary = build()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    runs = []
    facade_failed = False
    for w in workloads:
        for i in range(args.repeat):
            seed = args.seed + i
            r = run_bench(binary, w, seed, args.seconds)
            log("%s seed %d: %s, wall_s %.3f, digest %s"
                % (w, seed, "ok" if r["correct"] else "FAILED",
                   r["metrics"]["wall_s"]["value"], r["sim_digest"]))
            runs.append(r)
        spans = spans_path(w, args.seed)
        traced = run_bench(binary, w, args.seed, args.seconds, spans=spans)
        # A traced run reports raw host times; compare it with the
        # untraced runs' raw times.
        untraced = statistics.median(
            r["metrics"]["bench.raw_wall_s"]["value"] for r in runs
            if r["workload"] == w)
        traced_wall = traced["metrics"]["bench.raw_wall_s"]["value"]
        log(layer_report.report(layer_report.load(spans), traced))
        log("%s tracing overhead: traced raw wall %.4f - untraced median "
            "%.4f = %+.4f s" % (w, traced_wall, untraced,
                                traced_wall - untraced))
        # One pass that also runs the library pipelines ditto_bench
        # mirrors stage by stage; kept out of the timed runs.
        facade = run_bench(binary, w, args.seed, 0, ("--check-facade",))
        log("%s facade check: %s" % (w, "ok" if facade["failed"] == 0
                                     else "FAILED"))
        facade_failed = facade_failed or facade["failed"] > 0
    print_summary(spec, runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs}, f)
    ok = not facade_failed and all(r["failed"] == 0 for r in runs)
    return 0 if ok else 1


def print_summary(spec, runs):
    print("%-18s %-14s %12s %12s %12s  %s"
          % ("workload", "metric", "q1", "median", "q3", "unit"))
    for w in sorted({r["workload"] for r in runs}):
        rs = [r for r in runs if r["workload"] == w]
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = quartiles(vals)
            print("%-18s %-14s %12.5g %12.5g %12.5g  %s"
                  % (w, m["name"], q1, med, q3, m["unit"]))
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print("%-18s ops_failed %d/%d" % (w, failed, attempted))


def verdict(base, new, better, bound):
    """better / same / worse / unresolved for one (metric, workload)."""
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max((b3 - b1) / bmed if bmed else 0.0,
                 (n3 - n1) / nmed if nmed else 0.0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "worse"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if wins >= 0.9 * len(pairs) and abs(nmed - bmed) > (b3 - b1):
        return "better"
    return "same"


def print_verdicts(spec, base, new):
    """The A/B table: per (workload, metric) quartiles and verdict."""
    print("%-18s %-13s %28s %28s %20s %11s"
          % ("workload", "metric", "base q1/med/q3", "new q1/med/q3",
             "new/base q1/med/q3", "verdict"))
    for w in sorted({r["workload"] for r in base}):
        bs = sorted((r for r in base if r["workload"] == w),
                    key=lambda r: r["seed"])
        ns = sorted((r for r in new if r["workload"] == w),
                    key=lambda r: r["seed"])
        if not ns:
            print("%-18s missing from the new runs" % w)
            continue
        by_seed = {r["seed"]: r for r in bs}
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in bs]
            nv = [r["metrics"][m["name"]]["value"] for r in ns]
            # Ratios within seed pairs: with --ab the two runs of a pair
            # ran back to back, so the machine's drift mostly cancels.
            ratios = [r["metrics"][m["name"]]["value"]
                      / by_seed[r["seed"]]["metrics"][m["name"]]["value"]
                      for r in ns if r["seed"] in by_seed]
            print("%-18s %-13s %28s %28s %20s %11s"
                  % (w, m["name"],
                     "/".join("%.4g" % x for x in quartiles(bv)),
                     "/".join("%.4g" % x for x in quartiles(nv)),
                     "/".join("%.3f" % x for x in quartiles(ratios))
                     if ratios else "-",
                     verdict(bv, nv, m["better"], m["bound"])))
        for tag, rs in (("base", bs), ("new", ns)):
            print("%-18s %s ops_failed %d/%d"
                  % (w, tag, sum(r["failed"] for r in rs),
                     sum(r["attempted"] for r in rs)))
        bd = {r["seed"]: r["sim_digest"] for r in bs}
        nd = {r["seed"]: r["sim_digest"] for r in ns}
        shared = sorted(set(bd) & set(nd))
        same = sum(1 for s in shared if bd[s] == nd[s])
        print("%-18s sim_digest equal on %d/%d shared seeds"
              % (w, same, len(shared)))


def compare(args, spec):
    with open(args.compare[0]) as f:
        base = json.load(f)["runs"]
    with open(args.compare[1]) as f:
        new = json.load(f)["runs"]
    print_verdicts(spec, base, new)
    return 0


def ab(args, spec):
    """
    Seed-paired runs of another checkout (the base) and this one,
    back to back and alternating which side goes first, so that the
    machine's drift over minutes falls on both sides of each pair.
    """
    base_bin = build(root=os.path.abspath(args.ab))
    new_bin = build()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    sides = {"base": [], "new": []}
    for w in workloads:
        for i in range(args.repeat or 10):
            seed = args.seed + i
            order = [("base", base_bin), ("new", new_bin)]
            for tag, binary in order[::-1] if i % 2 else order:
                r = run_bench(binary, w, seed, args.seconds)
                log("%s seed %d %s: wall_s %.3f" % (
                    w, seed, tag, r["metrics"]["wall_s"]["value"]))
                sides[tag].append(r)
    print_verdicts(spec, sides["base"], sides["new"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sides, f)
    return 0


def smoke(args, spec):
    """Small-size self-test of the benchmark and the simulator contracts."""
    binary = args.binary or build()
    wanted = spec["end_to_end"] + spec["per_layer"]
    problems = []
    start = time.monotonic()

    def run(w, *extra):
        r = run_bench(binary, w, args.seed, 1, ("--size", "smoke", *extra))
        if r["failed"]:
            problems.append("%s %s: %d of %d checks failed"
                            % (w, " ".join(extra), r["failed"],
                               r["attempted"]))
        return r

    for w in (x["name"] for x in spec["workloads"]):
        first = run(w, "--check-facade")
        for m in wanted:
            got = first["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append("%s: metric %s [%s] not printed"
                                % (w, m["name"], m["unit"]))
        variants = [("again", run(w))]
        variants.append(("unstepped", run(w, "--unstepped")))
        if JOBS.get(w, 1) > 1:
            variants.append(("jobs 1", run(w, "--jobs", "1")))
        for tag, r in variants:
            if r["sim_digest"] != first["sim_digest"]:
                problems.append("%s: sim_digest differs (%s)" % (w, tag))
    for p in problems:
        log("smoke: " + p)
    log("smoke: %s in %.1f s" % ("FAILED" if problems else "ok",
                                 time.monotonic() - start))
    return 1 if problems else 0


def check_scale(args, spec):
    """scale_500's ns_per_event within its bound of bench_scale's 500 row."""
    binary = build()
    reference = build("bench_scale")

    def reference_ns():
        # bench_scale rewrites BENCH_pipeline.json in its working
        # directory, so it runs in the build directory.
        proc = subprocess.run([reference, "--jobs", "1"], cwd=build_dir(),
                              env=bench_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=True)
        row = re.search(r"^\[scale 500\] .* ([0-9.]+) ns/event",
                        proc.stderr, re.MULTILINE)
        if not row:
            raise SystemExit("run.py: bench_scale printed no 500-service "
                             "row")
        return float(row.group(1))

    # bench_scale reports raw host time, so the comparison uses
    # scale_500's raw ns/event. The reference runs before and after, so
    # drift in the machine's speed during the check falls on both sides;
    # it takes the faster of its runs.
    before = reference_ns()
    ours = run_bench(binary, "scale_500", DEFAULT_SEED, args.seconds)
    ref = min(before, reference_ns())
    got = ours["metrics"]["bench.raw_ns_per_event"]["value"]
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "ns_per_event")
    off = got / ref - 1
    ok = abs(off) <= bound and ours["failed"] == 0
    log("check-scale: scale_500 %.0f raw ns/event, bench_scale 500 row "
        "%.0f ns/event (faster of a run before and after): %+.1f%% "
        "(bound %.0f%%): %s"
        % (got, ref, 100 * off, 100 * bound, "ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--ab", metavar="BASE_CHECKOUT")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this ditto_bench, do not build")
    ap.add_argument("--check-scale", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.binary and not args.smoke:
        ap.error("--binary is only for --smoke")
    if args.compare:
        return compare(args, spec)
    if args.ab:
        return ab(args, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.check_scale:
        return check_scale(args, spec)
    if args.repeat:
        return repeat(args, spec)
    if not args.workload:
        ap.error("--workload is required")
    return one_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
