#!/usr/bin/env bash
# Release + Address/UndefinedBehaviorSanitizer run of the fault-
# containment tests.
#
# The fault-injection blocks deliberately drive the graph through its
# ugliest paths — NaN/Inf repair in place, mid-stream snapshot/restore
# into freshly built graphs, exceptions unwinding out of a running
# chain — exactly where lifetime and aliasing bugs hide. This job builds
# those tests in a separate tree with -fsanitize=address,undefined and
# runs them under ctest, so a use-after-free or UB in the containment
# machinery fails loudly even when the plain suite passes. The
# fault-injection blocks themselves live in tests/support
# (ofdm_test_support), which test_guard and test_fault link.
#
# test_state_fuzz runs the corpus fuzz of the OFDMSNAP / OFDMCAMP
# decoders here because overreads off corrupt length fields are exactly
# what ASan sees and the plain build may not. test_net adds the network
# layer: JSON parsing of malformed input, base64 decode, oversized-frame
# handling, and mid-stream disconnects all chew on external bytes.
# test_simd runs every kernel tier, the vector IQ codec included, at
# odd sizes, so ASan sees each tier's loads and stores at buffer ends.
# test_netlist_fading and test_streaming_invariance drive the shared
# sum-of-sinusoids path fader (both Doppler spectra) through its
# circular delay line at every chunk size, and its snapshot paths.
# test_obs exports a trace after the chain that recorded it is gone,
# so a span name pointing into a freed block is a use-after-free here.
# test_constellation runs the blocked soft demapper over every shape
# at counts that leave a partial last block, so ASan sees its stack
# blocks and its stores at the end of the LLR buffer.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${repo}/build-asan"

cmake -B "${build}" -S "${repo}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "${build}" -j "$(nproc)" \
  --target ofdm_test_support test_guard test_fault test_snapshot \
  test_rf test_channels test_state_fuzz test_net test_simd \
  test_netlist_fading test_streaming_invariance test_obs \
  test_constellation
ctest --test-dir "${build}" \
  -R '^(test_guard|test_fault|test_snapshot|test_rf|test_channels|test_state_fuzz|test_net|test_simd|test_netlist_fading|test_streaming_invariance|test_obs|test_constellation)$' \
  --output-on-failure "$@"
