#!/usr/bin/env bash
# Local CI entry point. Mirrors .github/workflows/ci.yml:
#   ./ci.sh           -> configure + build + ctest (default preset)
#   ./ci.sh asan      -> same under -fsanitize=address,undefined
#   ./ci.sh ubsan     -> same under standalone -fsanitize=undefined (no recovery)
#   ./ci.sh tsan      -> concurrency tests only under -fsanitize=thread
#   ./ci.sh noobs     -> same with ISHARE_OBS_ENABLED=OFF (obs compiled out)
#   ./ci.sh bench     -> quick benchmark gates (non-zero on failure)
#   ./ci.sh digest    -> every equivalence digest line (opt, exec, shard,
#                        chaos, arrange, retract) vs tests/golden/digest.txt
#   ./ci.sh docs      -> markdown link check
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-default}"

case "$mode" in
  default|asan|ubsan|noobs)
    cmake --preset "$mode"
    cmake --build --preset "$mode" -j "$(nproc)"
    ctest --preset "$mode"
    ;;
  tsan)
    # Only the suites that actually spawn threads: the worker pool and
    # wave scheduler (sched_test), the shedding/overload runtime whose
    # buffers carry the single-writer/multi-reader contract (flow_test),
    # the DeltaBuffer concurrent-append regression (storage_test), and
    # the chaos suite whose worker-stall injection and mid-wave crash
    # cycles run parallel waves under fault (chaos_test,
    # crash_recovery_test), and the churn property sweep whose
    # 4-thread seeds rebuild engines mid-window around the worker pool
    # (churn_test), and the sharded-group property whose 4-thread seeds
    # run every shard's executor on a pool (shard_test), and the
    # shared-arrangement properties whose 4-thread seeds advance one
    # mutex-guarded arrangement from several subplans in the same wave
    # (arrange_test). Running the whole serial
    # suite under tsan would cost ~10x wall clock without exercising a
    # single cross-thread access.
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" \
      --target sched_test flow_test storage_test chaos_test \
      crash_recovery_test churn_test shard_test arrange_test
    ./build-tsan/tests/sched_test
    ./build-tsan/tests/flow_test
    ./build-tsan/tests/storage_test
    ./build-tsan/tests/chaos_test
    ./build-tsan/tests/crash_recovery_test
    ./build-tsan/tests/churn_test
    ./build-tsan/tests/shard_test
    ./build-tsan/tests/arrange_test --gtest_filter='ArrangeEquivalence.*'
    ;;
  bench)
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" \
      --target bench_robustness bench_operators bench_obs_overhead bench_recovery bench_overload bench_parallel bench_chaos bench_churn bench_shards bench_arrange
    ./build/bench/bench_robustness --quick
    ./build/bench/bench_operators --benchmark_filter=ConsumeZeroCopy --benchmark_min_time=0.05
    ./build/bench/bench_obs_overhead --quick
    ./build/bench/bench_recovery --quick
    ./build/bench/bench_overload --quick
    ./build/bench/bench_parallel --quick
    ./build/bench/bench_chaos --quick
    ./build/bench/bench_churn --quick
    ./build/bench/bench_shards --quick
    ./build/bench/bench_arrange --quick
    ;;
  digest)
    # The whole corpus of every line kind, not ctest's strides: prints
    # the first line that differs from the golden and exits non-zero.
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target ishare_digest
    ./build/tests/ishare_digest --golden=tests/golden/digest.txt
    ;;
  docs)
    python3 tools/check_md_links.py
    ;;
  *)
    echo "usage: $0 [default|asan|ubsan|tsan|noobs|bench|digest|docs]" >&2
    exit 2
    ;;
esac
