#!/usr/bin/env python3
"""TER-iDS replay benchmark: build, run one workload, print the result line.

    python3 terbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 terbench/run.py --steadiness <N> [--seconds <s>] [--trace 0|1]
    python3 terbench/run.py --self-test

A run builds the engine from ../src and the benchmark binary (Release, in
.bench_build/terbench, or under $CARGO_TARGET_DIR when set), then runs the
workload's closed-loop replay. The binary checks every outcome and prints a
report; this script prints that report, a stamp (seed, parameters, commit,
compiler, build type, nproc, CPU model, SIMD dispatch), and as its last line
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. It exits non-zero when the output check fails or no
result could be produced.

--seconds defaults to BENCHMARK.json's run_seconds. --steadiness runs every
workload N times, interleaved, with seeds 1..N, and prints each metric's
median and interquartile range as a share of the median (Python's
statistics.quantiles, n=4), against the metric's bound.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
# Every run must end within this many seconds once the build is done.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "terbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def check_spec(spec):
    """Problems with BENCHMARK.json's shape (empty list when well formed)."""
    problems = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        problems.append("top-level keys %s" % sorted(spec))
        return problems
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append("workload %r" % w)
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count")
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            if set(m) != keys:
                problems.append("%s keys %r" % (kind, m))
                continue
            if not NAME_RE.match(m["name"]) or m["name"] in names:
                problems.append("name %r" % m["name"])
            names.add(m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append("unit %r" % m["unit"])
            if m["better"] not in ("lower", "higher"):
                problems.append("better %r" % m["better"])
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append("bound %r" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not 1 <= len(spec["per_layer"]) <= 128 or not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("metric counts")
    return problems


def select_metrics(report_metrics, wanted):
    """The report's metrics named in `wanted` (BENCHMARK.json entries), with
    units checked; raises ValueError on a missing, mis-united or non-finite
    metric."""
    out = {}
    for m in wanted:
        got = report_metrics.get(m["name"])
        if got is None:
            raise ValueError("metric %s missing from the report" % m["name"])
        if got.get("unit") != m["unit"]:
            raise ValueError("metric %s has unit %r, expected %r"
                             % (m["name"], got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def source_digest():
    """sha256 over the engine and benchmark sources; it identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_binary(bdir, workload, seed, seconds, trace, dataset, deadline):
    """Runs the binary once; returns (report dict, exit code)."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [os.path.join(bdir, "terbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp-dir", tmp]
    if dataset is not None:
        cmd += ["--dataset", str(dataset)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("terbench printed no report (exit %d)"
                           % proc.returncode)
    return json.loads(lines[-1]), proc.returncode


# About the host reference kernel's median time (HostReference in
# bench_util.h) on the 4-vCPU Xeon host this benchmark was defined on.
# Times are reported at this host speed: each is scaled by
# HOST_REFERENCE_S / (the run's median kernel time).
HOST_REFERENCE_S = 0.004


def percentile(sorted_values, q):
    """Nearest-rank percentile q (0..100] of an ascending list: (value,
    samples strictly beyond it). A tail is supported when at least ten
    samples lie beyond it."""
    if not sorted_values:
        raise ValueError("no latency samples")
    rank = min(len(sorted_values), max(1, math.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1], len(sorted_values) - rank


def host_scale(pools):
    """HOST_REFERENCE_S over the median host reference time of a run."""
    return HOST_REFERENCE_S / statistics.median(
        [v for p in pools for v in p["host_ref_s"]])


def end_to_end(pools):
    """The end-to-end metrics of a run from the `pool` objects of its
    processes: throughput and the latency percentiles pool every timed
    arrival of every pass, setup_s is the median of every set-up sample,
    peak RSS the mean per-pass growth, the F-score micro-averaged. Times are
    scaled to the reference host speed (host_scale)."""
    def cat(key):
        return [v for p in pools for v in p[key]]

    def total(key):
        return sum(p[key] for p in pools)

    tp, returned, truth = (total("true_positives"), total("returned"),
                           total("truth_pairs"))
    precision = tp / returned if returned else 0.0
    recall = tp / truth if truth else 0.0
    f_score = (2 * precision * recall / (precision + recall)
               if precision + recall else 0.0)
    scale = host_scale(pools)
    window = total("window_s") * scale
    latency = sorted(cat("latency_s"))
    return {
        "arrivals_per_s": (total("timed_arrivals") / window if window
                           else 0.0, "1/s"),
        "arrival_p50_ms": (percentile(latency, 50)[0] * scale * 1e3, "ms"),
        "arrival_p95_ms": (percentile(latency, 95)[0] * scale * 1e3, "ms"),
        "setup_s": (statistics.median(cat("setup_s")) * scale, "s"),
        "peak_rss_mb": (statistics.mean(cat("pass_rss_mb")), "MiB"),
        "f_score": (f_score, "ratio"),
    }


def measure(bdir, workload, seed, seconds, trace, deadline):
    """One run of a workload. With --trace 0 every dataset is measured in a
    process of its own (the dataset-0 process also runs the replay checks),
    so that how fast one process happens to be does not carry the run; the
    traced ledger comes from one process over all datasets. Returns
    (metrics {name: {value, unit}}, correct, attempted, failed, reports)."""
    first, code = run_binary(bdir, workload, seed, seconds, trace,
                             0 if trace == 0 else None, deadline)
    reports, codes = [first], [code]
    if trace == 0:
        for j in range(1, first["params"]["datasets"]):
            report, code = run_binary(bdir, workload, seed, seconds, trace, j,
                                      deadline)
            reports.append(report)
            codes.append(code)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    e2e = end_to_end([r["pool"] for r in reports])
    correct = (all(c == 0 and r["correct"] for c, r in zip(codes, reports))
               and e2e["f_score"][0] > 0)
    e2e["ok_pct"] = (100.0 * (attempted - failed) / attempted
                     if attempted else 0.0, "%")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    metrics.update(first["metrics"])
    return metrics, correct, attempted, failed, reports


def result_line(metrics, correct, attempted, failed, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": select_metrics(metrics, wanted),
    }


def single(args):
    spec = load_spec()
    problems = check_spec(spec)
    if problems:
        raise RuntimeError("BENCHMARK.json: " + "; ".join(problems))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %r (have %s)"
                           % (args.workload, ", ".join(names)))
    bdir = build()
    start = time.monotonic()
    metrics, correct, attempted, failed, reports = measure(
        bdir, args.workload, args.seed, args.seconds, args.trace,
        start + RUN_TIMEOUT_S)
    stamp = dict(reports[0].get("stamp", {}))
    stamp["git_commit"] = git_commit()
    stamp["source_sha256"] = source_digest()
    stamp["params"] = reports[0].get("params", {})
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for r in reports:
        print("pool " + json.dumps(r["pool"], sort_keys=True))
        print("run " + json.dumps(r["run"], sort_keys=True))
    print("  %-40s %14.6g %%" % ("failed_pct",
                                 100.0 * failed / attempted if attempted else 0))
    if args.trace == 0:
        pools = [r["pool"] for r in reports]
        latency = sorted(v for p in pools for v in p["latency_s"])
        scale = host_scale(pools)
        print("  %-40s %14.6g" % ("host_scale", scale))
        print("  %-40s %14d (%d beyond the p95)" % (
            "latency_samples", len(latency), percentile(latency, 95)[1]))
        print("  %-40s %14.6g ms (not a bounded metric)" % (
            "arrival_p99_ms", percentile(latency, 99)[0] * scale * 1e3))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    result = result_line(metrics, correct, attempted, failed, spec, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def quartile_spread(values):
    """(median, IQR / median) as the acceptance check computes them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def steadiness(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    bdir = build()
    trace = args.trace
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {w: {m["name"]: [] for m in wanted} for w in workloads}
    ok = True
    for i in range(args.steadiness):
        seed = 1 + i
        for w in workloads:
            t0 = time.monotonic()
            all_metrics, correct, _, _, _ = measure(
                bdir, w, seed, args.seconds, trace, t0 + RUN_TIMEOUT_S)
            metrics = select_metrics(all_metrics, wanted)
            ok = ok and correct
            for name, m in metrics.items():
                values[w][name].append(m["value"])
            log("seed %d %-20s %5.1fs %s" % (
                seed, w, time.monotonic() - t0,
                " ".join("%s=%.5g" % (k, v["value"])
                         for k, v in metrics.items())))
    summary = {}
    for w in workloads:
        print(w)
        summary[w] = {}
        for m in wanted:
            vals = values[w][m["name"]]
            med, spread = quartile_spread(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
            print("  %-36s median %12.6g  iqr/median %6.3f  bound %-5s %s"
                  % (m["name"], med, spread,
                     "" if bound is None else bound, verdict))
            summary[w][m["name"]] = {"median": med, "iqr_share": spread,
                                     "values": vals}
    print(json.dumps({"correct": ok, "steadiness": summary}))
    return 0 if ok else 1


def self_test():
    bdir = build()
    proc = subprocess.run([os.path.join(bdir, "terbench_selftest")])
    failures = 0 if proc.returncode == 0 else 1

    def expect(cond, what):
        nonlocal failures
        if not cond:
            log("run.py selftest: FAILED " + what)
            failures += 1

    spec = load_spec()
    expect(check_spec(spec) == [], "BENCHMARK.json schema: %s" % check_spec(spec))
    fake = {m["name"]: {"value": 1.5, "unit": m["unit"]}
            for m in spec["end_to_end"] + spec["per_layer"]}
    expect(set(select_metrics(fake, spec["end_to_end"])) ==
           {m["name"] for m in spec["end_to_end"]}, "select end_to_end")
    for broken in ({}, {"unit": "bogus"}, {"value": float("nan")}):
        bad = json.loads(json.dumps(fake))
        name = spec["end_to_end"][0]["name"]
        if broken:
            bad[name].update(broken)
        else:
            del bad[name]
        try:
            select_metrics(bad, spec["end_to_end"])
            expect(False, "select_metrics accepted %r" % broken)
        except ValueError:
            pass
    values = [float(i) for i in range(1, 101)]
    expect(percentile(values, 50) == (50.0, 50), "p50 of 1..100")
    expect(percentile(values, 99) == (99.0, 1), "p99 of 1..100")
    expect(percentile(values, 100) == (100.0, 0), "p100")
    expect(percentile([7.0], 99) == (7.0, 0), "one sample")
    # 1000 samples are the fewest that leave ten beyond the p99.
    expect(percentile([float(i) for i in range(1000)], 99)[1] == 10,
           "ten beyond the p99 of 1000")
    pool = {"timed_arrivals": 100, "window_s": 0.5,
            "latency_s": [0.001, 0.002, 0.004], "setup_s": [0.1, 0.3],
            "pass_rss_mb": [10.0], "true_positives": 3, "returned": 4,
            "truth_pairs": 6, "host_ref_s": [HOST_REFERENCE_S]}
    other = dict(pool, timed_arrivals=300, latency_s=[0.003],
                 setup_s=[0.2], pass_rss_mb=[20.0], true_positives=1,
                 returned=4, truth_pairs=2)
    e2e = end_to_end([pool, other])
    expect(abs(e2e["arrivals_per_s"][0] - 400.0) < 1e-9, "pooled rate")
    expect(abs(e2e["arrival_p50_ms"][0] - 2.0) < 1e-9, "pooled p50")
    expect(abs(e2e["arrival_p95_ms"][0] - 4.0) < 1e-9, "pooled p95")
    expect(e2e["setup_s"][0] == 0.2, "median setup over all samples")
    expect(e2e["peak_rss_mb"][0] == 15.0, "mean rss")
    expect(abs(e2e["f_score"][0] - 0.5) < 1e-12, "micro-averaged F-score")
    # A host running the reference kernel at half speed: times halve.
    slow = [dict(p, host_ref_s=[2 * HOST_REFERENCE_S, 5.0, 0.0])
            for p in (pool, other)]
    e2e = end_to_end(slow)
    expect(abs(e2e["arrivals_per_s"][0] - 800.0) < 1e-9, "scaled rate")
    expect(abs(e2e["arrival_p50_ms"][0] - 1.0) < 1e-9, "scaled p50")
    expect(abs(e2e["setup_s"][0] - 0.1) < 1e-12, "scaled setup")
    expect(e2e["peak_rss_mb"][0] == 15.0, "rss not scaled")
    med, spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    expect(med == 3.0 and abs(spread - 3.0 / 3.0) < 1e-12, "quartile spread")
    print("run.py selftest: %s" % ("all checks passed" if failures == 0
                                   else "%d failures" % failures))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.self_test:
            return self_test()
        if args.steadiness > 0:
            return steadiness(args)
        if args.workload is None or args.seed is None:
            p.error("--workload and --seed are required")
        return single(args)
    except (RuntimeError, ValueError, OSError, KeyError,
            subprocess.SubprocessError, json.JSONDecodeError) as e:
        log("terbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
