#!/usr/bin/env bash
#
# Pre-merge gate: run every check tier in sequence and print one
# summary. This is the command to run before merging a change — it is
# exactly what CI runs, in the same order:
#
#   1. tier-1: default build (build/) + full ctest suite
#   2. stress: the concurrency suites repeated until-fail:20 at -j8 on
#              the tier-1 build, so a timing-dependent test shows up
#   3. TSan:   tools/run_tsan.sh        (build-tsan/, concurrency suites)
#   4. ASan:   tools/run_sanitizers.sh  (build-asan/, +UBSan, memory suites)
#
#   tools/run_all_checks.sh              # all four tiers
#   BUILD_DIR=out tools/run_all_checks.sh  # relocate the tier-1 build only
#
# Each tier runs even if an earlier one failed (so one pass reports
# every broken tier, not just the first); the exit code is non-zero if
# any tier failed.

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"

declare -a NAMES=() RESULTS=()

run_tier() {
    local name="$1"
    shift
    echo
    echo "==== ${name}: $* ===="
    if "$@"; then
        RESULTS+=("PASS")
    else
        RESULTS+=("FAIL")
    fi
    NAMES+=("${name}")
}

tier1() {
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" &&
        cmake --build "${BUILD_DIR}" -j "$(nproc)" &&
        ctest --test-dir "${BUILD_DIR}" --output-on-failure
}

stress() {
    ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        --repeat until-fail:20 -j8 \
        -R 'test_work_stealing|test_service|test_read_ahead|test_dataflow|test_remote_store|test_metrics|test_cache|test_crop_fusion|test_buffer_pool'
}

run_tier "tier-1 (build + ctest)" tier1
run_tier "stress (until-fail:20)" stress
run_tier "TSan" env BUILD_DIR="${REPO_ROOT}/build-tsan" \
    "${REPO_ROOT}/tools/run_tsan.sh"
run_tier "ASan/UBSan" env BUILD_DIR="${REPO_ROOT}/build-asan" \
    "${REPO_ROOT}/tools/run_sanitizers.sh"

echo
echo "==== summary ===="
status=0
for i in "${!NAMES[@]}"; do
    printf '  %-24s %s\n' "${NAMES[$i]}" "${RESULTS[$i]}"
    [[ "${RESULTS[$i]}" == "PASS" ]] || status=1
done
exit "${status}"
