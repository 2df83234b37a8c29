#!/usr/bin/env bash
# Sanitizer job for the simulator (DESIGN.md §8).
#
# Builds the tree three times — under ThreadSanitizer, UBSan and AddressSanitizer — and
# runs the same test selections under each. The simulator core is serial (DESIGN.md §10),
# so TSan guards the util/ThreadPool users — the tuner's parallel sweep — while UBSan and
# ASan guard the index-heavy single-threaded paths:
#   - `ctest -L trace`  : the observability suite (conservation invariants, churn
#                         recounts, golden --explain output),
#   - `ctest -R tuner`  : the tuner, whose ParallelFor profiling calls Attribute()
#                         concurrently from worker threads (the one multi-threaded
#                         consumer of the span/report machinery, and TSan's target),
#   - `ctest -L lint`   : the static plan linter (DESIGN.md §9), whose bitset
#                         reachability and access-map passes index heavily into
#                         per-task state — exactly where UBSan catches drift.
#   - `ctest -L simcore`: the event queue and its arena (bucket chains, slab indices,
#                         re-entrant scheduling) plus the golden-regime repeat-run
#                         determinism check.
#   - `ctest -L chaos`  : the degraded-mode resilience suite + chaos harness
#                         (DESIGN.md §11) — retry re-issue on the simulator clock and
#                         the elastic coordinator under seeded random fault plans,
#                         each run twice and compared byte-for-byte.
#   - `ctest -L cluster`: the multi-server scale-out tier (DESIGN.md §12) — the
#                         repeat-run determinism grid across node counts, tier
#                         conservation, and the hierarchical-linter mutation suite.
#   - `ctest -L sched`  : the multi-tenant cluster scheduler (DESIGN.md §13) — the
#                         trace × policy repeat-run determinism grid, the
#                         preemption checkpoint/restore protocol, and per-tenant
#                         quota enforcement, which nest whole sessions inside an
#                         outer event stream.
#   - `ctest -L mem`    : the memory manager and its eviction indexes (UBSan and ASan
#                         jobs) — the LRU links shared machine-wide, the next-use index
#                         and the tensor waiter lists are indexed by tensor id, where ASan
#                         catches a stale or out-of-range index. Acquire continuations live
#                         in the pending request until it is granted or cancelled, then
#                         move into the simulator and are destroyed once run.
#   - `ctest -L runtime`: the engine (UBSan and ASan jobs) — dependency waiter lists per
#                         task, freed when the task finishes, and per-device dependency
#                         counts, which hold every engine continuation that used to live
#                         in a completion event until teardown.
#   - `ctest -L hw`     : the topology and transfer manager (UBSan and ASan jobs) — tree
#                         routes held inline, and completion closures that move through
#                         the pending and active flow tables and are destroyed once run.
#   - `ctest -R fault`  : the fault-injection suite (UBSan and ASan jobs) — the abort,
#                         retry and fail-node paths, where a completion closure is
#                         delivered early, flagged aborted, instead of at completion.
# Pass --full to run the entire ctest suite under each sanitizer instead (slower).
#
# Usage: tools/run_sanitizer_suite.sh [--full]
# Build trees land in build-tsan/, build-ubsan/ and build-asan/ next to the source tree.
set -eu

full=0
if [[ "${1:-}" == "--full" ]]; then
  full=1
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_one() {
  local sanitizer=$1 build_dir=$2
  echo "==== HARMONY_SANITIZE=$sanitizer -> $build_dir ===="
  cmake -B "$repo/$build_dir" -S "$repo" -DHARMONY_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$repo/$build_dir" -j "$jobs"
  if [[ $full -eq 1 ]]; then
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs")
  else
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L trace)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -R tuner)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L lint)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L simcore)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L chaos)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L cluster)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L sched)
    if [[ $sanitizer != thread ]]; then
      (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L hw)
      (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -R fault)
      (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L mem)
      (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L runtime)
    fi
  fi
  echo "==== $sanitizer: clean ===="
}

run_one thread build-tsan
run_one undefined build-ubsan
run_one address build-asan
echo "OK   all three sanitizer jobs clean"
