#!/usr/bin/env python3
"""Validate the observability artifacts a campaign run leaves behind.

Usage: check_trace.py <trace.json> <metrics.json>
       check_trace.py --prometheus <metrics.txt> [extra_required_series...]

The trace file is the Chrome trace-event JSON written when SYBILTD_TRACE is
set; the metrics file is the obs::to_json() dump written by
`streaming_campaign --metrics`.  CI runs the example with both enabled and
then this script, so a refactor that silently stops emitting spans or
renames a core metric fails the build instead of being discovered the next
time someone opens Perfetto.

`--prometheus` instead validates a Prometheus text exposition, as served by
the campaign server's GET /metrics: every sample line must parse (including
label blocks, whose values must be correctly escaped), histogram families
must be internally coherent (`le` on every `_bucket`, a `+Inf` bucket whose
count matches `_count`, cumulative bucket counts, a `_sum` sample), and the
server.* request/ingestion series plus the process uptime gauge must be
present (the CI server-smoke job curls the endpoint into a file and runs
this mode against it).  Any further positional arguments name additional
series that must be present — the observability job uses this to gate the
per-campaign ingest latency histograms.
"""
import json
import re
import sys

# Spans the streaming example must emit: the per-shard drain, the campaign
# regroup/refine/publish stages, and the truth-discovery iteration loop.
# (The server adds http/parse, ingest/route, and shard/queue_wait on top,
# but those need live HTTP traffic so the example run cannot gate them.)
REQUIRED_SPANS = {
    "shard/step",
    "shard/apply",
    "campaign/regroup",
    "campaign/refine",
    "campaign/publish",
    "framework/run",
    "framework/iterate",
}

# Metrics whose disappearance would mean an instrumentation regression.
REQUIRED_COUNTERS = {
    "pipeline.accepted",
    "pipeline.applied",
    "pipeline.batches",
    "pipeline.regroups",
    "framework.runs",
    "threadpool.submitted",
    "threadpool.executed",
    "workspace.borrows",
}
REQUIRED_HISTOGRAMS = {
    "pipeline.batch_us",
    "pipeline.regroup_us",
    "pipeline.refine_us",
    "framework.iterations",
    "framework.final_residual",
    "threadpool.task_run_us",
}


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")
    names = set()
    for event in events:
        if event.get("ph") != "X":
            fail(f"{path}: unexpected event phase {event.get('ph')!r}")
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                fail(f"{path}: event missing {key!r}: {event}")
        names.add(event["name"])
    missing = REQUIRED_SPANS - names
    if missing:
        fail(f"{path}: missing spans {sorted(missing)}; saw {sorted(names)}")
    print(f"check_trace: {path}: {len(events)} spans, "
          f"{len(names)} distinct names, all required spans present")


def check_metrics(path):
    with open(path) as handle:
        metrics = json.load(handle)
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), list):
            fail(f"{path}: missing {section!r} array")
    for entry in metrics["counters"]:
        if not isinstance(entry.get("name"), str):
            fail(f"{path}: counter without name: {entry}")
        if not isinstance(entry.get("value"), int) or entry["value"] < 0:
            fail(f"{path}: counter {entry.get('name')}: bad value")
    for entry in metrics["gauges"]:
        if not isinstance(entry.get("name"), str):
            fail(f"{path}: gauge without name: {entry}")
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"{path}: gauge {entry.get('name')}: bad value")
    for entry in metrics["histograms"]:
        if not isinstance(entry.get("name"), str):
            fail(f"{path}: histogram without name: {entry}")
        if not isinstance(entry.get("count"), int):
            fail(f"{path}: histogram {entry.get('name')}: bad count")
        buckets = entry.get("buckets")
        if not isinstance(buckets, list):
            fail(f"{path}: histogram {entry.get('name')}: missing buckets")
        total = sum(b.get("count", 0) for b in buckets)
        if total != entry["count"]:
            fail(f"{path}: histogram {entry.get('name')}: bucket counts "
                 f"sum to {total}, expected {entry['count']}")

    counters = {c["name"] for c in metrics["counters"]}
    histograms = {h["name"] for h in metrics["histograms"]}
    missing = REQUIRED_COUNTERS - counters
    if missing:
        fail(f"{path}: missing counters {sorted(missing)}")
    missing = REQUIRED_HISTOGRAMS - histograms
    if missing:
        fail(f"{path}: missing histograms {sorted(missing)}")
    applied = next(c["value"] for c in metrics["counters"]
                   if c["name"] == "pipeline.applied")
    if applied <= 0:
        fail(f"{path}: pipeline.applied is {applied}; the run did no work")
    print(f"check_trace: {path}: {len(counters)} counters, "
          f"{len(metrics['gauges'])} gauges, {len(histograms)} histograms, "
          f"schema OK")


# Series the server's /metrics endpoint must expose (post-sanitization
# names; counters carry the _total suffix).
REQUIRED_PROMETHEUS = {
    "server_requests_total",
    "server_connections_accepted_total",
    "server_reports_accepted_total",
    "server_responses_2xx_total",
    "uptime_seconds",
    "pipeline_applied_total",
}

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$")
# One label pair: a bare identifier key and a double-quoted value in which
# only \" \\ and \n escapes are legal (the exposition format's rules).
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')


def parse_labels(block, path, line):
    """Parse a `{k="v",...}` block into a dict, failing on malformed input."""
    inner = block[1:-1]
    labels = {}
    pos = 0
    while pos < len(inner):
        match = _LABEL_RE.match(inner, pos)
        if not match:
            fail(f"{path}: malformed label block in {line!r}")
        if match.group(1) in labels:
            fail(f"{path}: duplicate label {match.group(1)!r} in {line!r}")
        labels[match.group(1)] = match.group(2)
        pos = match.end()
        if pos < len(inner):
            if inner[pos] != ",":
                fail(f"{path}: expected ',' between labels in {line!r}")
            pos += 1
            if pos == len(inner):
                fail(f"{path}: trailing ',' in label block of {line!r}")
    return labels


def parse_value(text, path, line):
    try:
        return float(text.replace("+Inf", "inf").replace("-Inf", "-inf"))
    except ValueError:
        fail(f"{path}: bad sample value in {line!r}")


def check_histogram_coherence(path, buckets, counts, sums):
    """Every histogram series must be cumulative and agree with _count."""
    for key, series in sorted(buckets.items()):
        family, labels = key
        where = f"{family}{{{labels}}}" if labels else family
        if "+Inf" not in series:
            fail(f"{path}: {where}: no le=\"+Inf\" bucket")
        ordered = sorted(series.items(), key=lambda kv: float(
            kv[0].replace("+Inf", "inf")))
        previous = 0.0
        for edge, count in ordered:
            if count < previous:
                fail(f"{path}: {where}: bucket le={edge} count {count} "
                     f"below previous {previous}; not cumulative")
            previous = count
        if key not in counts:
            fail(f"{path}: {where}: _bucket series without _count")
        if counts[key] != series["+Inf"]:
            fail(f"{path}: {where}: _count {counts[key]} != "
                 f"+Inf bucket {series['+Inf']}")
        if key not in sums:
            fail(f"{path}: {where}: _bucket series without _sum")
    for key in counts:
        if key not in buckets:
            family, labels = key
            fail(f"{path}: {family}{{{labels}}}: _count without _bucket")


def check_prometheus(path, extra_required=()):
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        fail(f"{path}: empty exposition")
    names = set()
    helped = set()
    typed = set()
    # Histogram bookkeeping, keyed by (family, sorted-labels-minus-le).
    buckets = {}
    counts = {}
    sums = {}
    for line in lines:
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if parts[3] not in ("counter", "gauge", "histogram"):
                fail(f"{path}: bad TYPE {parts[3]!r} for {parts[2]}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            fail(f"{path}: unparseable sample line {line!r}")
        name = match.group(1)
        labels = parse_labels(match.group(2), path, line) \
            if match.group(2) else {}
        value = parse_value(match.group(3), path, line)
        # Histogram series fold back to their family name for the checks.
        family = re.sub(r"_(bucket|count|sum)$", "", name)
        names.add(name)
        names.add(family)
        if not re.fullmatch(r"[a-zA-Z0-9_:]+", name):
            fail(f"{path}: unsanitized metric name {name!r}")
        rest = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items())
                        if k != "le")
        if name.endswith("_bucket"):
            if "le" not in labels:
                fail(f"{path}: _bucket sample without le label: {line!r}")
            series = buckets.setdefault((family, rest), {})
            if labels["le"] in series:
                fail(f"{path}: duplicate bucket le={labels['le']} "
                     f"for {family}{{{rest}}}")
            series[labels["le"]] = value
        elif name.endswith("_count") and family in typed:
            counts[(family, rest)] = value
        elif name.endswith("_sum") and family in typed:
            sums[(family, rest)] = value
    check_histogram_coherence(path, buckets, counts, sums)
    required = REQUIRED_PROMETHEUS | set(extra_required)
    missing = required - names
    if missing:
        fail(f"{path}: missing series {sorted(missing)}")
    untyped = {n for n in names if n in helped} - typed
    if untyped:
        fail(f"{path}: HELP without TYPE for {sorted(untyped)}")
    print(f"check_trace: {path}: {len(names)} series, "
          f"{len(buckets)} histogram label-sets coherent, "
          f"all required server series present")


def main(argv):
    if len(argv) >= 3 and argv[1] == "--prometheus":
        check_prometheus(argv[2], argv[3:])
        print("check_trace: PASS")
        return 0
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    check_trace(argv[1])
    check_metrics(argv[2])
    print("check_trace: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
