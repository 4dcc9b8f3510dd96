#!/usr/bin/env bash
# One-command tier-1 gate: configure + build + ctest, Debug and Release, with
# -Wall -Wextra (always on via CMakeLists), plus an ASan/UBSan pass over the
# kernel + fused-eval + arena suites (packing buffers, per-thread grad
# scratch, per-sample score scratch, and step-arena lifetimes are where
# bugs hide — under ASan the arena allocates per-request so a tensor
# escaping its step scope is a real heap-use-after-free) and the
# ctest-labeled `concurrency` suites (serving, scheduler torture), the
# concurrency suites and the batched-eval suite rerun at 4 and 8 kernel
# threads, a TSan pass over the lock-free concurrency suites (micro-batcher,
# serve-while-train snapshot hand-off, scheduler epoch protocol) with the
# soak volumes bumped, the
# crash-safety fault matrix (checkpoint commit-protocol crashes, corruption
# fallback, trainer-death degradation) under ASan and TSan plus a
# restore-determinism rerun with the step arena off, an examples
# build check, and a docs knob-consistency grep
# (README.md must not document env knobs that no longer exist in the
# source). Usage: scripts/verify.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

for config in Debug Release; do
  build_dir="build-verify-${config,,}"
  echo "== ${config}: configure =="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}"
  echo "== ${config}: build =="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "== ${config}: ctest =="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
done

echo "== examples: built under the default targets =="
for example in examples/*.cc; do
  bin="build-verify-release/$(basename "${example}" .cc)"
  if [[ ! -x "${bin}" ]]; then
    echo "verify: FAIL — example binary ${bin} was not built" >&2
    exit 1
  fi
done

echo "== ASan/UBSan: kernel + batched-eval + arena + vec-math suites =="
asan_dir="build-verify-asan"
cmake -B "${asan_dir}" -S . -DCMAKE_BUILD_TYPE=Debug -DCDCL_SANITIZE=ON \
  -DCDCL_BUILD_BENCH=OFF -DCDCL_BUILD_EXAMPLES=OFF
cmake --build "${asan_dir}" -j "${JOBS}" \
  --target kernels_test gemm_packed_test batched_eval_test arena_test \
  vec_math_test serve_test \
  continual_serve_test degrade_test scheduler_test ckpt_test
ctest --test-dir "${asan_dir}" --output-on-failure -j "${JOBS}" \
  -R '^(kernels_test|gemm_packed_test|batched_eval_test|arena_test|vec_math_test)$'

echo "== ASan/UBSan: checkpoint crash-safety fault matrix =="
# The full deterministic fault matrix — injected crashes at every syscall of
# the commit protocol, short writes, ENOSPC/EIO, on-disk corruption — runs
# under ASan so the no-cleanup crash unwinds (deliberately abandoned temp
# files, partial state) cannot hide leaks or lifetime bugs.
ctest --test-dir "${asan_dir}" --output-on-failure -j "${JOBS}" \
  -R '^ckpt_test$'

echo "== ASan/UBSan: concurrency label (serve + serve-while-train + degradation + scheduler) =="
ctest --test-dir "${asan_dir}" --output-on-failure -j "${JOBS}" -L concurrency

echo "== legacy numerics mode: arena suite with CDCL_VEC_MATH=0 =="
# The vectorized transcendental tier is a numerics mode; the libm mode must
# stay a first-class citizen (bitwise trajectories, fused-vs-op equality,
# arena lifetimes) or the CDCL_VEC_MATH=0 escape hatch rots.
CDCL_VEC_MATH=0 ctest --test-dir "${asan_dir}" --output-on-failure \
  -j "${JOBS}" -R '^arena_test$'

echo "== region pool at 4 and 8 threads: concurrency label + batched-eval suite =="
# With more than one kernel thread, pool workers really run region chunks,
# even on a 1-core host. Any thread-local policy that does not travel with a
# chunk then breaks a bitwise contract in these suites.
for threads in 4 8; do
  CDCL_NUM_THREADS="${threads}" ctest --test-dir build-verify-release \
    --output-on-failure -j "${JOBS}" -L concurrency
  CDCL_NUM_THREADS="${threads}" ctest --test-dir build-verify-release \
    --output-on-failure -j "${JOBS}" -R '^batched_eval_test$'
done

echo "== TSan: micro-batcher + serve-while-train suites =="
# The lock-free serving pieces — the micro-batcher's queue/deadline handoff
# and the continual server's snapshot publish racing live micro-batches —
# are exactly the code ASan cannot vet. Skipped (with a note) only when the
# toolchain cannot link ThreadSanitizer.
tsan_probe="$(mktemp -d)"
trap 'rm -rf "${tsan_probe}"' EXIT
echo 'int main(){return 0;}' > "${tsan_probe}/probe.cc"
if c++ -fsanitize=thread "${tsan_probe}/probe.cc" -o "${tsan_probe}/probe" \
    2>/dev/null && "${tsan_probe}/probe"; then
  tsan_dir="build-verify-tsan"
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=Debug -DCDCL_TSAN=ON \
    -DCDCL_BUILD_BENCH=OFF -DCDCL_BUILD_EXAMPLES=OFF
  cmake --build "${tsan_dir}" -j "${JOBS}" \
    --target serve_test continual_serve_test degrade_test scheduler_test
  # The persistent-scheduler epoch protocol is lock-free by design on its
  # fast path — TSan is the only tool that can vet the publish/claim
  # orderings under real interleavings.
  "${tsan_dir}/scheduler_test"
  CDCL_SOAK_REQS=600 "${tsan_dir}/serve_test" \
    --gtest_filter='MicroBatcherTest.*:ServeTest.Overload*:ServeTest.SlowConsumer*:ServeTest.SoakManyConnectionsPipelined'
  # The serve-while-train torture test runs in full under TSan, with the
  # pipelined-traffic floor bumped so the snapshot hand-offs happen under
  # sustained load (the continual-suite analog of the CDCL_SOAK_REQS bump).
  CDCL_SERVE_TORTURE_REQS=150 "${tsan_dir}/continual_serve_test"
  # Trainer-death-under-traffic: the training thread dies (injected) while
  # clients hammer the server — the degraded-serving hand-off (training
  # thread -> loop-thread health reporter -> wire) is exactly the kind of
  # cross-thread publish TSan exists to vet.
  "${tsan_dir}/degrade_test"
else
  echo "verify: NOTE — toolchain lacks ThreadSanitizer support, TSan pass skipped"
fi

echo "== restore determinism: kill-and-resume rerun with the step arena off =="
# The bitwise kill-and-resume pin already ran in Debug, Release, and ASan;
# here it reruns with the step arena disabled — a checkpoint written in
# either arena mode must resume bitwise-identically in that mode, or the
# determinism contract is a configuration accident.
CDCL_ARENA=0 "build-verify-release/ckpt_test" \
  --gtest_filter='CheckpointTest.KillAndResumeIsBitwiseIdenticalToUninterruptedRun'

echo "== docs: README knob consistency =="
# Every CDCL_* knob README.md documents must still be *read* somewhere — an
# Env*()/getenv() call in the source or a CMake option — so the docs cannot
# rot. Matching doc-comments is not enough: a knob whose read was deleted
# but that is still name-dropped in comments must fail here.
stale=0
for knob in $(grep -oE 'CDCL_[A-Z0-9_]+' README.md | sort -u); do
  if ! grep -rqE "(Env[A-Za-z]+|getenv)\(\"${knob}\"" src bench tests examples \
      && ! grep -qE "\b${knob}\b" CMakeLists.txt; then
    echo "verify: FAIL — README.md documents ${knob}, but nothing reads it" >&2
    stale=1
  fi
done
if [[ "${stale}" -ne 0 ]]; then
  exit 1
fi

echo "verify: OK (Debug + Release + examples + ASan/UBSan + fault matrix + legacy-numerics + 4/8-thread reruns + TSan + restore determinism + docs knobs)"
