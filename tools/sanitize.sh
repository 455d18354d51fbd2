#!/usr/bin/env bash
# Builds the sanitizer-labelled test suites under ThreadSanitizer and
# AddressSanitizer+UBSan and runs `ctest -L sanitize` in each tree
# (this includes the `resilience` fault-injection/recovery suite and
# the `counters` hwcounter/roofline suite, which are double-labelled
# with sanitize).  YY_COUNTERS=software keeps the counter tests on the
# portable fallback under the sanitizers: the interceptors make
# perf_event syscall timing meaningless, and the fallback path is the
# one whose exactness is load-bearing.
# Usage: tools/sanitize.sh [thread|address]...   (default: both)
set -euo pipefail
cd "$(dirname "$0")/.."

modes=("$@")
[ ${#modes[@]} -eq 0 ] && modes=(thread address)

for mode in "${modes[@]}"; do
  build="build-${mode}san"
  echo "== ${mode} sanitizer -> ${build} =="
  cmake -B "${build}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DYY_SANITIZE="${mode}" > /dev/null
  cmake --build "${build}" -j "$(nproc)" --target \
    test_comm test_core test_obs test_counters test_resilience test_sdc \
    test_overlap test_rhs_simd test_config_fuzz > /dev/null
  (cd "${build}" &&
    YY_COUNTERS=software ctest -L 'sanitize|resilience|sdc|counters' \
      --output-on-failure)
done

# Scalar leg: the tree with -DYY_SIMD=OFF (no native ISA flags,
# compiled_max_width() == 1) runs the production kernel at W=1 only, so
# the kernel, overlap and recovery equivalence suites must stay bitwise
# there too.
build=build-nosimd
echo "== YY_SIMD=OFF scalar kernel -> ${build} =="
cmake -B "${build}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DYY_SIMD=OFF > /dev/null
cmake --build "${build}" -j "$(nproc)" --target \
  test_rhs_simd test_config_fuzz test_overlap test_resilience test_sdc \
  > /dev/null
(cd "${build}" &&
  ctest -L 'kernels|overlap|resilience|sdc' --output-on-failure)
