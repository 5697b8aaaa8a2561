#!/usr/bin/env python3
"""Diff a benchmark --metrics-json dump against a checked-in baseline.

Both files use the stable export schema emitted by obs::ToMetricsJson
(bench_util.h --metrics-json and the Prometheus exporter render from the
same snapshot):

    {"metrics": [
      {"name": "...", "type": "counter", "value": 3},
      {"name": "...", "type": "histogram", "count": ..., "sum": ...,
       "min": ..., "max": ..., "mean": ..., "p50": ..., "p90": ...,
       "p99": ..., "buckets": [{"le": ..., "count": ...}, ...]}]}

Two regression classes fail the gate (exit code 1):

 * latency: a `.ns` histogram whose p50 grew by more than
   --latency-tolerance percent over baseline (histograms with a baseline
   p50 under --min-latency-ns are skipped as noise);
 * rewrite counts: a `rewrite.rule.<Rule>.fired` counter whose firing
   ratio (fired / considered, iteration-count invariant) dropped by more
   than --ratio-tolerance percent, or that stopped firing entirely while
   the baseline had firings;
 * cache hit ratio: any `<prefix>.hits` counter with a `<prefix>.misses`
   sibling whose hit ratio (hits / (hits + misses), iteration-count
   invariant) fell more than --cache-hit-tolerance percentage points
   below the baseline ratio — a cache that silently stopped hitting is
   a perf regression even if no single latency histogram trips.

Missing-in-current metrics that the baseline gates on are regressions
too: a deleted counter must be removed from the baseline deliberately.

A second input mode ingests the windowed time-series plane instead of a
cumulative metrics dump: --timeline takes the JSON written by the
shell's `\\export timeline` (or GET /timeseries) and reports, per
series, the retained window span, the median/worst window p50, the
last-window statistics, and the worst exemplar (the QueryRecord id to
look up in `\\history`). With --baseline pointing at an earlier timeline
export, the gate compares per-series median window p50 under the same
--latency-tolerance and fails on regressions (exit code 1).

A third mode gates the batch execution path's speedup invariant rather
than a baseline diff: --exec-scaling reads --current (a bench_batch_exec
--metrics-json dump) and checks the speedup ratio between the
bench.exec.* histograms' p50s:

 * serial (tuple-at-a-time) / batch  >= --batch-speedup-floor (default 1.5)

This is a ratio within one run, so it holds on any machine speed; a
baseline diff alone would not catch the batch path silently degrading
into the tuple path when both got faster. Combine with --baseline to
also run the ordinary regression diff.

A fourth mode gates the index-backed execution layer the same way:
--index-exec reads --current (a bench_index_exec --metrics-json dump)
and checks the within-run p50 ratios of the bench.index.* histograms:

 * full_scan / point_lookup >= --index-lookup-speedup-floor (default 10.0)
 * join_hash / join_unique  >= --index-join-speedup-floor   (default 1.0)

i.e. a unique-index point probe must beat the equivalent full scan by
an order of magnitude, and dropping the hash-join build phase must
never be slower than building.
"""

import argparse
import fnmatch
import json
import sys


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise SystemExit(
            f"{path}: not a stable-schema metrics dump (no 'metrics' key)")
    out = {}
    for m in doc["metrics"]:
        out[m["name"]] = m
    return out


def histogram_latency(metric):
    """Representative latency of a histogram sample: p50, mean fallback."""
    if metric.get("count", 0) == 0:
        return None
    p50 = metric.get("p50", 0)
    return p50 if p50 > 0 else metric.get("mean", 0)


def firing_ratio(metrics, fired_name):
    """fired / considered for a rewrite.rule counter, None if unknowable."""
    fired = metrics[fired_name]["value"]
    considered_name = fired_name.replace(".fired", ".considered")
    considered = metrics.get(considered_name, {}).get("value", 0)
    if considered == 0:
        return None
    return fired / considered


def hit_ratio(metrics, hits_name):
    """hits / (hits + misses) for a cache counter pair, None if unknowable."""
    hits = metrics[hits_name]["value"]
    misses_name = hits_name[: -len(".hits")] + ".misses"
    misses = metrics.get(misses_name, {}).get("value")
    if misses is None or hits + misses == 0:
        return None
    return hits / (hits + misses)


def compare(baseline, current, args):
    regressions = []
    checked = {"latency": 0, "rewrite": 0, "cache": 0}

    for name, base in sorted(baseline.items()):
        if base.get("type") != "histogram" or not name.endswith(".ns"):
            continue
        base_lat = histogram_latency(base)
        if base_lat is None or base_lat < args.min_latency_ns:
            continue
        cur = current.get(name)
        if cur is None:
            regressions.append(
                f"latency {name}: present in baseline, missing in current")
            continue
        cur_lat = histogram_latency(cur)
        if cur_lat is None:
            regressions.append(
                f"latency {name}: baseline has samples, current has none")
            continue
        checked["latency"] += 1
        limit = base_lat * (1 + args.latency_tolerance / 100.0)
        if cur_lat > limit:
            regressions.append(
                f"latency {name}: p50 {cur_lat:.0f}ns > {limit:.0f}ns "
                f"(baseline {base_lat:.0f}ns + {args.latency_tolerance}%)")

    for name, base in sorted(baseline.items()):
        if base.get("type") != "counter":
            continue
        if not fnmatch.fnmatch(name, "rewrite.rule.*.fired"):
            continue
        if base["value"] == 0:
            continue
        cur = current.get(name)
        if cur is None:
            regressions.append(
                f"rewrite {name}: fired in baseline, missing in current")
            continue
        checked["rewrite"] += 1
        if cur["value"] == 0:
            regressions.append(
                f"rewrite {name}: fired {base['value']}x in baseline, "
                f"stopped firing")
            continue
        base_ratio = firing_ratio(baseline, name)
        cur_ratio = firing_ratio(current, name)
        if base_ratio is None or cur_ratio is None:
            continue  # no considered counter: can't normalize iterations
        floor = base_ratio * (1 - args.ratio_tolerance / 100.0)
        if cur_ratio < floor:
            regressions.append(
                f"rewrite {name}: firing ratio {cur_ratio:.3f} < "
                f"{floor:.3f} (baseline {base_ratio:.3f} - "
                f"{args.ratio_tolerance}%)")

    for name, base in sorted(baseline.items()):
        if base.get("type") != "counter" or not name.endswith(".hits"):
            continue
        base_ratio = hit_ratio(baseline, name)
        if base_ratio is None:
            continue
        if name not in current:
            regressions.append(
                f"cache {name}: present in baseline, missing in current")
            continue
        cur_ratio = hit_ratio(current, name)
        if cur_ratio is None:
            regressions.append(
                f"cache {name}: baseline has traffic, current has none")
            continue
        checked["cache"] += 1
        floor = base_ratio - args.cache_hit_tolerance / 100.0
        if cur_ratio < floor:
            regressions.append(
                f"cache {name}: hit ratio {cur_ratio:.3f} < {floor:.3f} "
                f"(baseline {base_ratio:.3f} - "
                f"{args.cache_hit_tolerance} points)")

    return checked, regressions


def exec_scaling(current, args):
    """--exec-scaling mode: check speedup-ratio invariants between the
    bench.exec.* series of one bench_batch_exec run."""
    failures = []
    ratios = {}

    def p50(name):
        m = current.get(name)
        if m is None or m.get("type") != "histogram":
            return None
        return histogram_latency(m)

    serial = p50("bench.exec.serial.ns")
    if serial is None:
        return {}, [f"exec-scaling: bench.exec.serial.ns missing from "
                    f"{args.current}"]

    for name in ("bench.exec.batch.ns", "bench.exec.join_distinct.ns",
                 "bench.exec.join_eliminated.ns"):
        lat = p50(name)
        if lat is not None and lat > 0:
            ratios[name] = serial / lat

    def gate(name, floor, label):
        lat = p50(name)
        if lat is None:
            failures.append(f"exec-scaling: {name} missing (needed for the "
                            f"{label} gate)")
            return
        speedup = serial / lat
        if speedup < floor:
            failures.append(
                f"exec-scaling: {label} speedup {speedup:.2f}x < "
                f"{floor:.2f}x floor (serial p50 {serial:.0f}ns, "
                f"{name} p50 {lat:.0f}ns)")

    gate("bench.exec.batch.ns", args.batch_speedup_floor, "batch")
    return ratios, failures


def index_exec(current, args):
    """--index-exec mode: check speedup-ratio invariants between the
    bench.index.* series of one bench_index_exec run."""
    failures = []
    ratios = {}

    def p50(name):
        m = current.get(name)
        if m is None or m.get("type") != "histogram":
            return None
        return histogram_latency(m)

    def gate(fast_name, slow_name, floor, label):
        fast = p50(fast_name)
        slow = p50(slow_name)
        if fast is None or slow is None:
            missing = fast_name if fast is None else slow_name
            failures.append(f"index-exec: {missing} missing from "
                            f"{args.current} (needed for the {label} gate)")
            return
        if fast <= 0:
            failures.append(f"index-exec: {fast_name} p50 is zero")
            return
        speedup = slow / fast
        ratios[label] = speedup
        if speedup < floor:
            failures.append(
                f"index-exec: {label} speedup {speedup:.2f}x < "
                f"{floor:.2f}x floor ({slow_name} p50 {slow:.0f}ns, "
                f"{fast_name} p50 {fast:.0f}ns)")

    gate("bench.index.point_lookup.ns", "bench.index.full_scan.ns",
         args.index_lookup_speedup_floor, "point-lookup")
    gate("bench.index.join_unique.ns", "bench.index.join_hash.ns",
         args.index_join_speedup_floor, "unique-index-join")
    return ratios, failures


def load_timeline(path):
    """Loads a `\\export timeline` / GET /timeseries JSON document."""
    with open(path) as f:
        doc = json.load(f)
    ts = doc.get("timeseries") if isinstance(doc, dict) else None
    if not isinstance(ts, dict) or "series" not in ts:
        raise SystemExit(
            f"{path}: not a timeline export (no 'timeseries.series' key)")
    return ts


def timeline_series_summary(series):
    """Folds one series' retained windows into a gateable summary."""
    windows = [w for w in series.get("windows", []) if w.get("valid", True)]
    if not windows:
        return None
    p50s = sorted(w.get("p50", 0) for w in windows)
    worst = None
    for w in windows:
        ex = w.get("exemplar")
        if ex and (worst is None or ex["value"] > worst["value"]):
            worst = ex
    last = windows[-1]
    return {
        "kind": series.get("kind", ""),
        "windows": len(windows),
        "first_window": windows[0]["window"],
        "last_window": last["window"],
        "median_p50": p50s[len(p50s) // 2],
        "worst_p50": p50s[-1],
        "last_count": last.get("count", 0),
        "last_p50": last.get("p50", 0),
        "last_p99": last.get("p99", 0),
        "last_rate": last.get("rate", 0.0),
        "last_ratio": last.get("ratio", 0.0),
        "worst_exemplar": worst,
    }


def run_timeline(args):
    """--timeline mode: report a timeline export, optionally gated
    against a baseline export's per-series median window p50."""
    ts = load_timeline(args.timeline)
    summaries = {}
    for s in ts["series"]:
        folded = timeline_series_summary(s)
        if folded is not None:
            summaries[s["name"]] = folded

    print(f"bench_compare --timeline: {args.timeline} "
          f"({ts.get('ticks', 0)} tick(s), {len(summaries)} series)")
    for name, s in sorted(summaries.items()):
        line = (f"  {name} [{s['kind']}] windows {s['first_window']}"
                f"..{s['last_window']}")
        if s["kind"] in ("histogram", "class"):
            line += (f" median_p50={s['median_p50']}ns"
                     f" worst_p50={s['worst_p50']}ns"
                     f" last_p99={s['last_p99']}ns")
        elif s["kind"] == "ratio":
            line += f" last_ratio={s['last_ratio']:.3f}"
        else:
            line += f" last_rate={s['last_rate']:.1f}/s"
        if s["worst_exemplar"]:
            ex = s["worst_exemplar"]
            line += (f" exemplar=#{ex['record_id']}"
                     f" ({ex['value']}ns, plan {ex['fingerprint']})")
        print(line)

    regressions = []
    checked = 0
    if args.baseline:
        base = {}
        for s in load_timeline(args.baseline)["series"]:
            folded = timeline_series_summary(s)
            if folded is not None:
                base[s["name"]] = folded
        for name, b in sorted(base.items()):
            if b["kind"] not in ("histogram", "class"):
                continue
            if b["median_p50"] < args.min_latency_ns:
                continue
            cur = summaries.get(name)
            if cur is None:
                regressions.append(
                    f"timeline {name}: present in baseline, "
                    f"missing in current")
                continue
            checked += 1
            limit = b["median_p50"] * (1 + args.latency_tolerance / 100.0)
            if cur["median_p50"] > limit:
                regressions.append(
                    f"timeline {name}: median window p50 "
                    f"{cur['median_p50']}ns > {limit:.0f}ns (baseline "
                    f"{b['median_p50']}ns + {args.latency_tolerance}%)")
        print(f"  checked {checked} series against {args.baseline}")
        for r in regressions:
            print(f"  REGRESSION: {r}")
        print(f"  verdict: {'FAIL' if regressions else 'OK'}")

    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(
                {
                    "timeline": args.timeline,
                    "ticks": ts.get("ticks", 0),
                    "series": summaries,
                    "checked": checked,
                    "regressions": regressions,
                    "ok": not regressions,
                },
                f,
                indent=2,
            )
            f.write("\n")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--timeline",
                        help="ingest a `\\export timeline` / GET "
                             "/timeseries JSON instead of a metrics dump; "
                             "--baseline (another timeline export) is "
                             "optional in this mode")
    parser.add_argument("--latency-tolerance", type=float, default=50.0,
                        help="max p50 growth in percent (default 50)")
    parser.add_argument("--ratio-tolerance", type=float, default=10.0,
                        help="max firing-ratio drop in percent (default 10)")
    parser.add_argument("--min-latency-ns", type=float, default=500.0,
                        help="skip histograms with baseline p50 below this")
    parser.add_argument("--cache-hit-tolerance", type=float, default=15.0,
                        help="max hit-ratio drop in percentage points "
                             "(default 15)")
    parser.add_argument("--summary", default=None,
                        help="write a JSON verdict summary to this path")
    parser.add_argument("--exec-scaling", action="store_true",
                        help="gate the bench.exec.* speedup ratios of "
                             "--current instead of diffing a baseline")
    parser.add_argument("--batch-speedup-floor", type=float, default=1.5,
                        help="min serial/batch p50 ratio (default 1.5)")
    parser.add_argument("--index-exec", action="store_true",
                        help="gate the bench.index.* speedup ratios of "
                             "--current instead of diffing a baseline")
    parser.add_argument("--index-lookup-speedup-floor", type=float,
                        default=10.0,
                        help="min full-scan/point-lookup p50 ratio "
                             "(default 10.0)")
    parser.add_argument("--index-join-speedup-floor", type=float,
                        default=1.0,
                        help="min hash-join/unique-index-join p50 ratio "
                             "(default 1.0)")
    args = parser.parse_args()

    if args.timeline:
        return run_timeline(args)
    if args.exec_scaling:
        if not args.current:
            parser.error("--exec-scaling requires --current")
        current = load_metrics(args.current)
        ratios, failures = exec_scaling(current, args)
        print(f"bench_compare --exec-scaling: {args.current}")
        for name in sorted(ratios):
            print(f"  {name}: {ratios[name]:.2f}x vs serial")
        for f in failures:
            print(f"  REGRESSION: {f}")
        verdict = "FAIL" if failures else "OK"
        print(f"  verdict: {verdict}")
        if args.summary:
            with open(args.summary, "w") as f:
                json.dump(
                    {
                        "current": args.current,
                        "exec_scaling": {
                            "speedups_vs_serial": ratios,
                            "batch_speedup_floor": args.batch_speedup_floor,
                        },
                        "regressions": failures,
                        "ok": not failures,
                    },
                    f,
                    indent=2,
                )
                f.write("\n")
        return 1 if failures else 0
    if args.index_exec:
        if not args.current:
            parser.error("--index-exec requires --current")
        current = load_metrics(args.current)
        ratios, failures = index_exec(current, args)
        print(f"bench_compare --index-exec: {args.current}")
        for name in sorted(ratios):
            print(f"  {name}: {ratios[name]:.2f}x vs scan baseline")
        for f in failures:
            print(f"  REGRESSION: {f}")
        verdict = "FAIL" if failures else "OK"
        print(f"  verdict: {verdict}")
        if args.summary:
            with open(args.summary, "w") as f:
                json.dump(
                    {
                        "current": args.current,
                        "index_exec": {
                            "speedups_vs_scan": ratios,
                            "index_lookup_speedup_floor":
                                args.index_lookup_speedup_floor,
                            "index_join_speedup_floor":
                                args.index_join_speedup_floor,
                        },
                        "regressions": failures,
                        "ok": not failures,
                    },
                    f,
                    indent=2,
                )
                f.write("\n")
        return 1 if failures else 0
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --timeline)")

    baseline = load_metrics(args.baseline)
    current = load_metrics(args.current)
    checked, regressions = compare(baseline, current, args)

    print(f"bench_compare: {args.current} vs {args.baseline}")
    print(f"  checked {checked['latency']} latency histogram(s), "
          f"{checked['rewrite']} rewrite counter(s), "
          f"{checked['cache']} cache hit ratio(s)")
    for r in regressions:
        print(f"  REGRESSION: {r}")
    verdict = "FAIL" if regressions else "OK"
    print(f"  verdict: {verdict}")

    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(
                {
                    "baseline": args.baseline,
                    "current": args.current,
                    "checked": checked,
                    "regressions": regressions,
                    "ok": not regressions,
                },
                f,
                indent=2,
            )
            f.write("\n")

    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
