#!/usr/bin/env bash
# Perf-trajectory snapshot: builds the ingest benches in Release mode,
# runs them with a fixed stream seed, and appends one labeled snapshot
# (msgs/sec, per-stage latency percentiles, memory levels) to
# BENCH_ingest.json so successive PRs can be compared number-to-number.
#
#   scripts/bench_snapshot.sh <label>        # e.g. "post-interning"
#
# Benches covered:
#   bench_micro_core            engine ingest + candidate fetch + Alg. 2/3
#   bench_micro_index           text-search substrate microbenches
#   bench_sharded_ingest        service-layer throughput vs shard count
#   bench_fig13_stage_breakdown per-stage share of ingest cost
#   bench_wal_overhead          durability (WAL/checkpoint) ingest cost
#   bench_query_retrieval       bundle vs flat retrieval + query-path
#                               span-stage latency breakdown
set -euo pipefail

cd "$(dirname "$0")/.."
LABEL="${1:?usage: scripts/bench_snapshot.sh <label>}"
BUILD=build-release
OUT=BENCH_ingest.json
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target \
  bench_micro_core bench_micro_index bench_posting_arena \
  bench_sharded_ingest bench_fig13_stage_breakdown \
  bench_wal_overhead bench_query_retrieval >/dev/null

echo "== bench_micro_core =="
"$BUILD/bench/bench_micro_core" \
  --benchmark_out="$TMP/micro_core.json" --benchmark_out_format=json
echo "== bench_micro_index =="
"$BUILD/bench/bench_micro_index" \
  --benchmark_out="$TMP/micro_index.json" --benchmark_out_format=json
echo "== bench_posting_arena =="
"$BUILD/bench/bench_posting_arena" \
  --benchmark_out="$TMP/posting_arena.json" --benchmark_out_format=json
echo "== bench_sharded_ingest =="
"$BUILD/bench/bench_sharded_ingest" --seed 42 | tee "$TMP/sharded.txt"
echo "== bench_fig13_stage_breakdown =="
"$BUILD/bench/bench_fig13_stage_breakdown" --seed 42 | tee "$TMP/fig13.txt"
echo "== bench_wal_overhead =="
"$BUILD/bench/bench_wal_overhead" --seed 42 | tee "$TMP/wal.txt"
echo "== bench_query_retrieval =="
"$BUILD/bench/bench_query_retrieval" --seed 42 | tee "$TMP/query.txt"

python3 - "$LABEL" "$TMP" "$OUT" <<'PY'
import json, re, subprocess, sys, datetime

label, tmp, out = sys.argv[1], sys.argv[2], sys.argv[3]

def google_bench(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        row = {"real_time_ns": b.get("real_time")}
        if "items_per_second" in b:
            row["items_per_second"] = round(b["items_per_second"])
        # User counters (bytes_per_posting, arena_bytes, ...) appear as
        # plain numeric fields on the benchmark entry.
        for key in ("bytes_per_posting", "arena_bytes",
                    "ranked_evictions"):
            if key in b:
                row[key] = round(b[key], 2)
        rows[b["name"]] = row
    return rows

HIST = re.compile(
    r"(microprov_\w+)\{([^}]*)\}\s+n=\+(\d+) p50=(\d+) p95=(\d+) "
    r"p99=(\d+) max=(\d+)")
GAUGE = re.compile(r"(microprov_\w+)\{([^}]*)\}\s+(\d+)$")

def metrics_block(text):
    """Histogram percentiles + gauge levels from a metrics-delta dump."""
    stages, gauges = {}, {}
    for m in HIST.finditer(text):
        name, labels = m.group(1), m.group(2)
        key = labels.replace('"', "").replace("stage=", "") or name
        if name == "microprov_ingest_stage_nanos":
            stages[key] = {"p50_ns": int(m.group(4)),
                           "p99_ns": int(m.group(6))}
        elif name in ("microprov_index_candidates",
                      "microprov_index_postings_scanned"):
            stages[name.removeprefix("microprov_index_")] = {
                "p50": int(m.group(4)), "p99": int(m.group(6))}
    for m in GAUGE.finditer(text):
        name = m.group(1)
        if name in ("microprov_engine_memory_bytes",
                    "microprov_pool_messages", "microprov_index_postings",
                    "microprov_dictionary_terms"):
            short = name.removeprefix("microprov_")
            gauges[short] = gauges.get(short, 0) + int(m.group(3))
    return stages, gauges

def parse_sharded(path):
    text = open(path).read()
    configs = []
    # One "N shard(s): ..." summary line + one metrics-delta block each.
    chunks = re.split(r"(?=  \d+ shard\(s\): )", text)
    for chunk in chunks:
        m = re.match(
            r"  (\d+) shard\(s\): ([\d.]+)s, (\d+) msgs/sec, (\d+) live "
            r"bundles", chunk)
        if not m:
            continue
        stages, gauges = metrics_block(chunk)
        configs.append({
            "shards": int(m.group(1)),
            "secs": float(m.group(2)),
            "msgs_per_sec": int(m.group(3)),
            "live_bundles": int(m.group(4)),
            "stage_latency": stages,
            "memory": gauges,
        })
    return configs

def parse_wal(path):
    """One row per durability mode from bench_wal_overhead output."""
    rows = []
    pat = re.compile(
        r"  mode=([\w+]+): ([\d.]+)s, (\d+) msgs/sec, "
        r"overhead=(-?[\d.]+)%, p50_ingest_us=([\d.]+), "
        r"p99_ingest_us=([\d.]+), wal_bytes=(\d+), checkpoints=(\d+)")
    for m in pat.finditer(open(path).read()):
        rows.append({
            "mode": m.group(1),
            "secs": float(m.group(2)),
            "msgs_per_sec": int(m.group(3)),
            "overhead_pct": float(m.group(4)),
            "p50_ingest_us": float(m.group(5)),
            "p99_ingest_us": float(m.group(6)),
            "wal_bytes": int(m.group(7)),
            "checkpoints": int(m.group(8)),
        })
    return rows

def parse_query(path):
    """Recall/latency per paradigm + per-stage span deltas."""
    text = open(path).read()
    result = {"paradigms": [], "span_stages": {}}
    for m in re.finditer(
            r"(flat_message_search|bundle_retrieval)\s+([\d.]+)\s+"
            r"([\d.]+)", text):
        result["paradigms"].append({
            "paradigm": m.group(1),
            "event_recall_at_10": float(m.group(2)),
            "latency_us": float(m.group(3)),
        })
    for m in re.finditer(
            r"span_stage: stage=(\w+) n=(\d+) mean_us=([\d.]+) "
            r"total_ms=([\d.]+) share=([\d.]+)%", text):
        result["span_stages"][m.group(1)] = {
            "n": int(m.group(2)),
            "mean_us": float(m.group(3)),
            "total_ms": float(m.group(4)),
            "share_pct": float(m.group(5)),
        }
    return result

def parse_fig13(path):
    text = open(path).read()
    result = {}
    m = re.search(
        r"stage shares: match=([\d.]+)% placement=([\d.]+)% "
        r"refinement=([\d.]+)% of ([\d.]+)s total", text)
    if m:
        result["stage_share_pct"] = {
            "bundle_match": float(m.group(1)),
            "message_placement": float(m.group(2)),
            "memory_refinement": float(m.group(3)),
        }
        result["total_secs"] = float(m.group(4))
    stages, gauges = metrics_block(text)
    result["stage_latency"] = stages
    result["memory"] = gauges
    return result

snapshot = {
    "label": label,
    "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "commit": subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True).stdout.strip(),
    "micro_core": google_bench(f"{tmp}/micro_core.json"),
    "micro_index": google_bench(f"{tmp}/micro_index.json"),
    "posting_arena": google_bench(f"{tmp}/posting_arena.json"),
    "sharded_ingest": parse_sharded(f"{tmp}/sharded.txt"),
    "fig13_stage_breakdown": parse_fig13(f"{tmp}/fig13.txt"),
    "wal_overhead": parse_wal(f"{tmp}/wal.txt"),
    "query_retrieval": parse_query(f"{tmp}/query.txt"),
}

try:
    with open(out) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {"snapshots": []}
doc["snapshots"] = [s for s in doc["snapshots"] if s["label"] != label]
doc["snapshots"].append(snapshot)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"snapshot '{label}' appended to {out}")
PY
