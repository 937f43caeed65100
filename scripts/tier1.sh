#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# ThreadSanitizer build that re-runs the concurrency-sensitive tests
# (bounded queue, sharded engine, service façade) to prove the sharded
# ingestion pipeline is data-race free.
#
#   $ scripts/tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier 1: build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "=== tier 1: TSan build + concurrency tests ==="
# Service* includes ServiceConcurrencyTest, which drives the per-shard
# indicant dictionaries from concurrent shard workers while the caller
# thread interleaves cross-shard query fan-out — the interned hot path's
# data-race surface. Service* also covers ServiceRecoveryTest, and the
# explicit recovery suites (Wal*, snapshot codecs, golden pins) exercise
# the group-commit flusher thread against Ingest/Flush/Checkpoint.
# CrashRecoveryTest forks children that then start threads (the flusher
# the SIGKILL hooks fire in), which TSan only tolerates with
# die_after_fork=0 — hence the separate invocation. The observability
# suites ride along: Span* (concurrent shard spans into one recorder),
# HttpExporter* (accept-loop thread vs Stop vs concurrent clients),
# TraceSink* (four writers and a scraping reader on one shared trace
# ring), QueryTrace*/ShardLoad* (the query trace's routing and the
# health verdicts, single-threaded), and ServiceObservability* (HTTP
# scrapes racing live ingest plus the frozen-worker/frozen-flusher
# health verdicts). QueryConcurrency* covers the query path: concurrent
# searches sharing one processor (thread-local scratch), and Service
# queries on the shard workers racing live ingest, Flush and Checkpoint.
cmake -B build-tsan -S . -DMICROPROV_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target microprov_tests
./build-tsan/tests/microprov_tests \
  --gtest_filter='BoundedSpscQueue*:RouteShard*:ShardedEngine*:Service*:Metrics*:TraceSink*:Wal*:EngineStateTest*:ServiceSnapshotTest*:GoldenRecoveryFormatTest*:SlabArena*:PostingArenaAlloc*:Span*:HttpExporter*:QueryTrace*:ShardLoad*:PrometheusLint*:QueryConcurrency*'
TSAN_OPTIONS=die_after_fork=0 ./build-tsan/tests/microprov_tests \
  --gtest_filter='CrashRecoveryTest*'

echo
echo "tier 1: all green"
