#!/usr/bin/env bash
# Release + ThreadSanitizer run of the repo's concurrent code paths.
#
# One worker pool is left: the campaign engine's work-stealing
# scheduler (sim/scheduler). The transmitter and the RF graph run
# sequentially; parallelism lives across trials. This job builds the
# concurrent suites in a separate build tree with -fsanitize=thread and
# runs them under ctest, so data races in deque stealing / round
# reduction / checkpoint writes (test_sim runs campaigns at 1–4
# threads) are caught even when the plain test suite passes. test_net
# adds the service daemon on top: thread-per-connection sessions, the
# executor pool behind the job queue, cooperative cancellation,
# drain/recovery hand-off, and concurrent multi-client loopback traffic
# all run under TSan here. test_fft hammers the process-wide FFT
# plan-table cache (mutex + shared_ptr hand-off, with a mid-flight
# clear()) from concurrent plan builders/executors. test_sim also
# covers the campaign's per-worker runner slots (each worker reuses its
# own LinkRunner, found through the pool's worker index). Suites that
# start no thread are left to the plain and ASan runs.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build-tsan"

cmake -B "${build}" -S "${repo}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "${build}" -j "$(nproc)" \
  --target test_sim test_net test_fft
ctest --test-dir "${build}" \
  -R '^(test_sim|test_net|test_fft)$' \
  --output-on-failure "$@"
