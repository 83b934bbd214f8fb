#!/usr/bin/env bash
#
# ThreadSanitizer CI job: build with LOTUS_SANITIZE=thread and run the
# concurrency-sensitive test binaries — the lock-free metrics layer,
# the DataLoader protocol, and the trace logger — under TSan.
#
#   tools/run_tsan.sh              # build into build-tsan/ and run
#   BUILD_DIR=out tools/run_tsan.sh
#   tools/run_tsan.sh -R 'test_metrics'   # extra args go to ctest

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-tsan}"

# TSan-instrumented targets only; the full suite is the tier-1 job.
# test_cache is here for the multi-thread eviction hammer: every
# shard's CLOCK hand, free list and index churn under contention.
# test_hwcount covers the per-thread PMU attribution registry, whose
# snapshot()/charge() paths race against worker attach/detach.
# test_remote_store hammers the connection-slot gate from concurrent
# readers; test_read_ahead races issuers, claimers and cancellation.
# test_tuner drives epoch-boundary reconfiguration, which tears down
# and respawns the worker fleet and read-ahead engine between epochs.
# test_service runs N concurrent clients over one shared fleet:
# weighted-fair stealing, admission control, and disconnect draining
# all race client threads against fleet workers. test_task_engine
# takes the victim order while other threads charge service time.
# test_integration runs 2-worker round-robin loaders end to end, i.e.
# pinned whole-batch submissions on the task engine.
TSAN_TESTS='test_metrics|test_dataflow|test_cache|test_work_stealing|test_fault_injection|test_trace|test_pipeline|test_buffer_pool|test_hwcount|test_remote_store|test_read_ahead|test_tuner|test_service$|test_task_engine|test_integration'

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DLOTUS_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target test_metrics test_dataflow test_cache \
             test_work_stealing test_fault_injection test_trace \
             test_pipeline test_buffer_pool test_hwcount \
             test_remote_store test_read_ahead test_tuner \
             test_service test_task_engine test_integration

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
          -R "${TSAN_TESTS}" "$@"
