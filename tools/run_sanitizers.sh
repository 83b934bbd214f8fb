#!/usr/bin/env bash
#
# ASan+UBSan CI job: build with LOTUS_SANITIZE=address (which bundles
# UBSan, see the top-level CMakeLists.txt) and run the suites that
# chew on attacker-shaped or lifecycle-heavy inputs — the decoded-
# sample cache (spill-file parser, mmap reads, disk-hit promotion) and
# the fault-injection corruption sweeps — plus the image codec, whose
# decoder is the other untrusted-bytes surface, and fuzz_ljpg_decode,
# the differential LJPG decode fuzzer, which runs its fixed budget of
# 10^5 seeded executions (corpus replay first) under ASan/UBSan here.
#
#   tools/run_sanitizers.sh              # build into build-asan/ and run
#   BUILD_DIR=out tools/run_sanitizers.sh
#   tools/run_sanitizers.sh -R 'test_cache'   # extra args go to ctest
#
# The TSan counterpart is tools/run_tsan.sh.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-asan}"

# test_hwcount and test_trace joined for the PMU attribution and
# store-I/O trace paths (perf fd lifecycle, IoEvent round-trips).
# test_remote_store and test_read_ahead cover the staged-blob handoff
# and the prefetch window's entry lifecycle (move-outs, cancellation).
# test_tuner exercises reconfigure(): worker teardown/respawn and the
# build-then-swap read-ahead engine replacement between epochs.
# test_service covers the multi-tenant service's build lifecycle:
# canceled-epoch draining, disconnect reaping, client state outliving
# its LoaderClient mid-task, and the reorder buffer's message
# move-outs. test_work_stealing runs the same task engine privately
# (per-epoch fleet teardown with builds in flight), and
# test_task_engine sorts the victim order while workers charge
# service time. test_integration runs round-robin loaders end to end
# (pinned submissions on the engine, per-epoch fleet teardown),
# test_metrics drives the loader and engine telemetry series, and
# test_crop_fusion runs window decodes of corrupt blobs on every engine.
# test_simd_dispatch (and its scalar-tier run) and test_tensor drive
# every dispatch tier's vector tails against exact-size buffers, so an
# over-read past the pool slack or a tail over-write shows here.
ASAN_TESTS='test_cache|test_fault_injection|test_image_codec|test_dataflow|test_pipeline|test_hwcount|test_trace|test_remote_store|test_read_ahead|test_tuner|test_service$|test_work_stealing|test_task_engine|test_integration|test_metrics|fuzz_ljpg_decode|test_crop_fusion|test_simd_dispatch|test_tensor'

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DLOTUS_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target test_cache test_fault_injection test_image_codec \
             test_dataflow test_pipeline test_hwcount test_trace \
             test_remote_store test_read_ahead test_tuner \
             test_service test_work_stealing test_task_engine \
             test_integration test_metrics fuzz_ljpg_decode \
             test_crop_fusion test_simd_dispatch test_tensor

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
          -R "${ASAN_TESTS}" "$@"
