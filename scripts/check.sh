#!/bin/sh
# Tier-1 check: configure, build, and run the full test suite — the
# exact gate a change must pass before merging.
#
#   scripts/check.sh                 standard RelWithDebInfo build
#   scripts/check.sh --tsan          ThreadSanitizer build (separate
#                                    build tree; vets the concurrent
#                                    store publish/lock paths)
#   scripts/check.sh --faults        fault-tolerance soak: runs the
#                                    fault_injection_test,
#                                    parallel_pipeline_test,
#                                    writeback_test and
#                                    deferred_install_test binaries
#                                    repeatedly under ASan and then
#                                    TSan (separate build trees);
#                                    writeback_test holds finalize to
#                                    golden bytes and the stores'
#                                    publish-by-reference contract
#                                    under merges and breaker retries;
#                                    deferred_install_test holds the
#                                    deferred install (admit at prime,
#                                    build on first lookup) to the
#                                    eager one, corrupt payloads,
#                                    flushes and evictions included
#   scripts/check.sh --tidy          clang-tidy over src/ with the
#                                    repo .clang-tidy (bugprone-*,
#                                    concurrency-*, performance-*);
#                                    skips gracefully when clang-tidy
#                                    is not installed; the default
#                                    (no-mode) gate also runs this
#                                    after its ctest pass whenever
#                                    clang-tidy is present
#   scripts/check.sh --certs         certificate soak: runs the
#                                    cert_test binary repeatedly under
#                                    ASan, then UBSan, then TSan, grows
#                                    a certified store under an
#                                    injected fault storm (certificate-
#                                    section writes failing and
#                                    retrying), re-verifies it in one
#                                    warm --opt-tier --validate run
#                                    (finalize re-checks every
#                                    certificate it writes back), and
#                                    holds the survivor to the full
#                                    proof contract with pcc-dbcheck
#                                    (plain certificate replay, then
#                                    --deep module-bound re-check)
#   scripts/check.sh --xip           install-path soak: runs the
#                                    xip_test, fault_injection_test
#                                    and deferred_install_test
#                                    binaries (the last compares
#                                    shipped and eagerly completed
#                                    installs, borrowed and copied
#                                    pools alike), the prime slice of
#                                    pcc_tests (PIC rebase, validation,
#                                    v1 rejection, session edges and
#                                    tiered read-through — the copy
#                                    strategy with a nonzero rebase
#                                    delta) and the shared_desktop
#                                    login-storm demo repeatedly under
#                                    ASan and then TSan (borrowed and
#                                    copied pools share one install
#                                    function; the mapped-payload
#                                    lifetime and concurrent sharing
#                                    paths are exactly what those
#                                    sanitizers catch)
#   scripts/check.sh --fleet         fleet smoke: a small pcc-fleetsim
#                                    run under ASan with --verify (the
#                                    tiered run must converge and beat
#                                    the no-L2 baseline), plus the
#                                    tiered-store slice of the test
#                                    suite
#   scripts/check.sh --replay        record/replay soak: runs the
#                                    replay_test binary (fault-storm
#                                    recording over 20 seeds, tiered
#                                    and XIP configs, differential
#                                    legs) under ASan and then TSan,
#                                    plus a pccrun --record/--replay/
#                                    --replay-diff round trip over a
#                                    faulty tiered run, and a cold and
#                                    a warm --opt-tier round trip on a
#                                    fresh faulty tiered store (the
#                                    promotion counters through the
#                                    CLI codec and replay); the TSan
#                                    pass records on 4 workers and
#                                    replays with --jobs 0 and --jobs
#                                    16 to prove worker-count
#                                    independence
#   scripts/check.sh --opt           optimization-tier soak: runs the
#                                    opt_tier_test binary under ASan
#                                    and then TSan, fault-injects a
#                                    tiered finalize promotion, and
#                                    races gen-0 against promoting
#                                    finalizers on one shared database
#                                    key, deep-checking the survivor
#   scripts/check.sh --exec          trace-executor soak: runs the
#                                    vm_test, dbi_test, property_test,
#                                    xip_test and opt_tier_test binaries
#                                    under ASan and then UBSan (the
#                                    executor's page fast paths, its
#                                    opcode dispatch table and the
#                                    promoted bodies' live-op streams
#                                    index memory through raw pointers;
#                                    the suites drive the page-boundary
#                                    faults, promoted Nop bodies and
#                                    the ExecutorEquivalence check of
#                                    the threaded loop, the tool loop
#                                    and the interpreter through them)
#   scripts/check.sh --perfbench     end-to-end benchmark self-check:
#                                    python3 perfbench/test_perfbench.py
#                                    builds pcc-perfbench and runs every
#                                    workload scaled down, checking
#                                    its mechanism guards (among them
#                                    support.payload_jobs_queued > 0 on
#                                    the pooled oracle-memtrace), that
#                                    counts and modeled metrics repeat
#                                    for a seed and match at 0 and 2
#                                    workers, and that traces nest
#
# Extra arguments after the mode are forwarded to ctest, e.g.
#   scripts/check.sh --tsan -R CacheStore
# In --faults, --xip, --replay, --opt and --exec modes the first extra
# argument is the number of soak iterations per sanitizer (default 5, 2
# for --xip, --replay and --opt, 1 for --exec); in --fleet
# mode it is the simulated machine count (default 96) and the rest goes
# to pcc-fleetsim.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD="$ROOT/build"
EXTRA_CMAKE=""

if [ "${1:-}" = "--faults" ]; then
  shift
  ITERS="${1:-5}"
  [ $# -gt 0 ] && shift
  for SAN in address thread; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target fault_injection_test \
      --target parallel_pipeline_test --target writeback_test \
      --target deferred_install_test
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== fault soak ($SAN) iteration $I/$ITERS =="
      "$SOAK/tests/fault_injection_test"
      "$SOAK/tests/parallel_pipeline_test"
      "$SOAK/tests/writeback_test"
      "$SOAK/tests/deferred_install_test"
      I=$((I + 1))
    done
  done
  echo "fault soak passed: $ITERS iteration(s) each under ASan and TSan"
  exit 0
fi

if [ "${1:-}" = "--xip" ]; then
  shift
  ITERS="${1:-2}"
  [ $# -gt 0 ] && shift
  for SAN in address thread; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target xip_test \
      --target fault_injection_test --target deferred_install_test \
      --target pcc_tests --target shared_desktop
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== xip soak ($SAN) iteration $I/$ITERS =="
      "$SOAK/tests/xip_test"
      "$SOAK/tests/fault_injection_test"
      "$SOAK/tests/deferred_install_test"
      "$SOAK/tests/pcc_tests" --gtest_filter='Pic.*:Validation.*:FormatMigration.*:SessionEdge*:TieredStoreTest.*'
      "$SOAK/examples/shared_desktop"
      I=$((I + 1))
    done
  done
  echo "xip soak passed: $ITERS iteration(s) each under ASan and TSan"
  exit 0
fi

if [ "${1:-}" = "--exec" ]; then
  shift
  ITERS="${1:-1}"
  [ $# -gt 0 ] && shift
  for SAN in address undefined; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target vm_test --target dbi_test \
      --target property_test --target xip_test --target opt_tier_test
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== exec soak ($SAN) iteration $I/$ITERS =="
      for T in vm_test dbi_test property_test xip_test opt_tier_test; do
        UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 "$SOAK/tests/$T"
      done
      I=$((I + 1))
    done
  done
  echo "exec soak passed: $ITERS iteration(s) each under ASan and UBSan"
  exit 0
fi

if [ "${1:-}" = "--fleet" ]; then
  shift
  MACHINES="${1:-96}"
  [ $# -gt 0 ] && shift
  SOAK="$ROOT/build-address"
  cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=address
  cmake --build "$SOAK" -j --target pcc-fleetsim --target pcc_tests
  echo "== fleet smoke: $MACHINES machines under ASan =="
  "$SOAK/tools/pcc-fleetsim" --machines "$MACHINES" --rounds 3 --verify "$@"
  "$SOAK/tests/pcc_tests" --gtest_filter='*Tiered*:Backends/*'
  echo "fleet smoke passed: $MACHINES machines, tiered suite clean"
  exit 0
fi

if [ "${1:-}" = "--replay" ]; then
  shift
  ITERS="${1:-2}"
  [ $# -gt 0 ] && shift
  for SAN in address thread; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target replay_test --target pccrun \
      --target pcc-asm
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== replay soak ($SAN) iteration $I/$ITERS =="
      "$SOAK/tests/replay_test"
      I=$((I + 1))
    done
    # Tool-level round trip over a faulty tiered store. The TSan pass
    # records on four pipeline workers and then replays the same log
    # synchronously and on sixteen workers: any worker count must
    # reproduce the recording bit for bit.
    REC_JOBS=0
    [ "$SAN" = thread ] && REC_JOBS=4
    TMP=$(mktemp -d)
    "$SOAK/tools/pcc-asm" "$ROOT/examples/asm/fib.s" -o "$TMP/fib.mod"
    for LOG in cold warm; do
      "$SOAK/tools/pccrun" --mode persist --db "$TMP/l1" \
        --l2 "$TMP/l2" --jobs "$REC_JOBS" \
        --fault-plan "enospc:0.1,fsync:0.1,lock:0.25" \
        --record "$TMP/$LOG.pcrr" "$TMP/fib.mod"
    done
    "$SOAK/tools/pccrun" --replay "$TMP/cold.pcrr" --jobs 0
    "$SOAK/tools/pccrun" --replay "$TMP/warm.pcrr" --jobs 0
    "$SOAK/tools/pccrun" --replay "$TMP/warm.pcrr" --jobs 16
    "$SOAK/tools/pccrun" --replay-diff "$TMP/warm.pcrr"
    # The same round trip with the opt tier on, from a fresh faulty
    # tiered store so the first recording is cold: replay must
    # reproduce the finalize promotion counters of both runs.
    for LOG in opt-cold opt-warm; do
      "$SOAK/tools/pccrun" --mode persist --db "$TMP/opt-l1" \
        --l2 "$TMP/opt-l2" --jobs "$REC_JOBS" --opt-tier \
        --fault-plan "enospc:0.1,fsync:0.1,lock:0.25" \
        --record "$TMP/$LOG.pcrr" "$TMP/fib.mod"
    done
    "$SOAK/tools/pccrun" --replay "$TMP/opt-cold.pcrr" --jobs 0
    "$SOAK/tools/pccrun" --replay "$TMP/opt-warm.pcrr" --jobs 0
    "$SOAK/tools/pccrun" --replay "$TMP/opt-warm.pcrr" --jobs 16
    rm -rf "$TMP"
  done
  echo "replay soak passed: $ITERS iteration(s) each under ASan and TSan"
  exit 0
fi

if [ "${1:-}" = "--opt" ]; then
  shift
  ITERS="${1:-2}"
  [ $# -gt 0 ] && shift
  for SAN in address thread; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target opt_tier_test --target pccrun \
      --target pcc-asm --target pcc-dbstat --target pcc-dbcheck
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== opt-tier soak ($SAN) iteration $I/$ITERS =="
      "$SOAK/tests/opt_tier_test"
      I=$((I + 1))
    done
    TMP=$(mktemp -d)
    "$SOAK/tools/pcc-asm" "$ROOT/examples/asm/fib.s" -o "$TMP/fib.mod"
    # Fault-injected finalize promotion over a tiered store: the
    # promotion pass runs behind a publish that keeps failing and
    # retrying; the session must degrade gracefully, never crash.
    for I in 1 2; do
      "$SOAK/tools/pccrun" --mode persist --db "$TMP/l1" \
        --l2 "$TMP/l2" --opt-tier --stats \
        --fault-plan "enospc:0.1,fsync:0.1,lock:0.25" "$TMP/fib.mod"
    done
    # Concurrent finalizers merging different generations: gen-0
    # sessions race promoting sessions on the same database key; the
    # merge must keep the highest proven generation per trace and the
    # offline deep check must re-prove every promoted body.
    PIDS=""
    for J in 1 2 3 4; do
      if [ $((J % 2)) -eq 0 ]; then
        "$SOAK/tools/pccrun" --mode persist --db "$TMP/shared" \
          --opt-tier "$TMP/fib.mod" >/dev/null &
      else
        "$SOAK/tools/pccrun" --mode persist --db "$TMP/shared" \
          "$TMP/fib.mod" >/dev/null &
      fi
      PIDS="$PIDS $!"
    done
    for P in $PIDS; do wait "$P"; done
    "$SOAK/tools/pcc-dbstat" "$TMP/shared" --gens
    "$SOAK/tools/pcc-dbcheck" "$TMP/shared" --deep \
      --module "$TMP/fib.mod"
    rm -rf "$TMP"
  done
  echo "opt-tier soak passed: $ITERS iteration(s) each under ASan and TSan"
  exit 0
fi

if [ "${1:-}" = "--certs" ]; then
  shift
  ITERS="${1:-2}"
  [ $# -gt 0 ] && shift
  # UBSan reports would otherwise print and carry on.
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  for SAN in address undefined thread; do
    SOAK="$ROOT/build-$SAN"
    cmake -B "$SOAK" -S "$ROOT" -DPCC_SANITIZE=$SAN
    cmake --build "$SOAK" -j --target cert_test --target pccrun \
      --target pcc-asm --target pcc-dbcheck --target pcc-dbstat
    I=1
    while [ "$I" -le "$ITERS" ]; do
      echo "== certificate soak ($SAN) iteration $I/$ITERS =="
      "$SOAK/tests/cert_test"
      I=$((I + 1))
    done
    # Fault-injected certificate writes: grow a certified store while
    # publishes keep failing and retrying, re-verify it in one warm
    # --validate run (prime checks each certificate it executes,
    # finalize each one it writes back), then hold whatever survived
    # to the full proof contract — plain dbcheck replays every
    # persisted certificate self-contained, --deep re-binds each one
    # to the real module text (and re-proves anything certificateless).
    TMP=$(mktemp -d)
    "$SOAK/tools/pcc-asm" "$ROOT/examples/asm/fib.s" -o "$TMP/fib.mod"
    for I in 1 2 3; do
      "$SOAK/tools/pccrun" --mode persist --db "$TMP/db" --opt-tier \
        --fault-plan "enospc:0.1,fsync:0.1,lock:0.25" "$TMP/fib.mod"
    done
    "$SOAK/tools/pccrun" --mode persist --db "$TMP/db" --opt-tier \
      --validate "$TMP/fib.mod"
    "$SOAK/tools/pcc-dbstat" "$TMP/db" --gens
    "$SOAK/tools/pcc-dbcheck" "$TMP/db"
    "$SOAK/tools/pcc-dbcheck" "$TMP/db" --deep --module "$TMP/fib.mod"
    rm -rf "$TMP"
  done
  echo "certificate soak passed: $ITERS iteration(s) each under ASan, UBSan and TSan"
  exit 0
fi

if [ "${1:-}" = "--tidy" ]; then
  shift
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh --tidy: clang-tidy not installed; skipping" >&2
    exit 0
  fi
  TIDY_BUILD="$ROOT/build-tidy"
  cmake -B "$TIDY_BUILD" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  # Every translation unit in src/; tests and tools are gated by the
  # normal build + ctest tier instead.
  find "$ROOT/src" -name '*.cpp' -print | sort |
    xargs clang-tidy -p "$TIDY_BUILD" "$@"
  echo "clang-tidy clean"
  exit 0
fi

if [ "${1:-}" = "--perfbench" ]; then
  cd "$ROOT"
  python3 perfbench/test_perfbench.py
  echo "perfbench self-check passed"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  shift
  BUILD="$ROOT/build-tsan"
  EXTRA_CMAKE="-DPCC_SANITIZE=thread"
fi

# shellcheck disable=SC2086  # EXTRA_CMAKE is intentionally word-split.
cmake -B "$BUILD" -S "$ROOT" $EXTRA_CMAKE
cmake --build "$BUILD" -j
(cd "$BUILD" && ctest --output-on-failure -j "$@")

# Static analysis rides the default gate whenever clang-tidy is
# around; machines without it still ran the full build + test tier.
if [ "$BUILD" = "$ROOT/build" ] && command -v clang-tidy >/dev/null 2>&1
then
  exec "$ROOT/scripts/check.sh" --tidy
fi
