#!/usr/bin/env bash
# Build the whole tree under AddressSanitizer + UBSan and run every
# test: the memory layer (TensorArena borrows, workspace slot
# lifetimes, the `_into` kernels, the AVX2 kernels of DESIGN.md §13 —
# vectorized loads near tensor tails are exactly where ASan earns its
# keep), the campaign executors and the parsers alike.  Usage:
#
#   tools/run_asan.sh [extra ctest args...]
#
# Uses the "asan" CMake preset (build dir: build-asan).  Any extra
# arguments are forwarded to ctest, e.g. `tools/run_asan.sh -V`.
# The ThreadSanitizer sibling for the concurrency layer is
# tools/run_tsan.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan "$@"
