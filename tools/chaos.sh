#!/usr/bin/env bash
# Scripted chaos drills: runs parallel_dynamo with injected faults and
# verifies each run survives.
#  * rank-death sweep: a mid-run rank death at several points of the
#    run (early, after the first checkpoint, late); the survivors must
#    shrink the world, restore the dead rank's patch from its buddy's
#    diskless replica, complete, and still match the serial reference.
#  * SDC sweep: a silent in-memory bit flip at varying steps x audit
#    cadences; each run must detect the flip within one audit cadence,
#    repair from the buddy replicas with no disk rewind, and complete
#    bitwise equal to the unfaulted trajectory (the serial cross-check
#    is exactly that assertion).
#  * compound sweep: a bit flip and a rank death in one run; the
#    recovery ladder must repair the flip from the buddy images, later
#    shrink around the death, and still match the serial reference.
# Runs in a scratch directory so checkpoint sets and trace/metrics
# artifacts never pollute the repo.
# Usage: tools/chaos.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"

cmake --build "${build}" -j "$(nproc)" --target parallel_dynamo > /dev/null
bin="$(pwd)/${build}/examples/parallel_dynamo"

scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT
cd "${scratch}"

steps=20
fail=0
for death in 3 7 13; do
  echo "== chaos drill: 8 ranks, rank death after step ${death}/${steps} =="
  rm -rf yy_checkpoints
  # Explicit capture: under `set -e` a bare out=$(...) would kill the
  # whole script on a nonzero inner exit with no diagnostic and no
  # remaining drills; instead record the failure and keep drilling.
  # The display grep gets `|| true` so an output with none of the
  # expected lines cannot abort the script either — the -q checks
  # below are what decide pass/fail.
  if ! out="$("${bin}" 2 2 "${steps}" --chaos "rank-death:${death}")"; then
    echo "FAIL  parallel_dynamo exited nonzero (death step ${death})" >&2
    fail=1
    echo
    continue
  fi
  echo "${out}" | grep -E "run control|rank loss|relative difference" || true
  echo "${out}" | grep -q "run control: completed" || fail=1
  echo "${out}" | grep -q "rank loss survived: 1 shrink" || fail=1
  echo "${out}" | grep -q "(trajectories match)" || fail=1
  echo
done

if [ "${fail}" -ne 0 ]; then
  echo "CHAOS DRILL FAILED: a run did not survive its rank death" >&2
  exit 1
fi
echo "chaos drill passed: every rank death was survived with a shrink"
echo

# ---- SDC sweep: bitflip step x audit cadence.  The flip step must be
# a multiple of the cadence so the corruption lands on an audited
# boundary (an unaligned flip is baked into the next reference refresh
# and only the physics probes could see it — the binary rejects such
# specs outright).
for spec in 4:2 6:3 8:4; do
  flip="${spec%%:*}"
  cadence="${spec##*:}"
  echo "== chaos drill: 8 ranks, bit flip after step ${flip}/${steps}," \
       "audit cadence ${cadence} =="
  rm -rf yy_checkpoints
  if ! out="$("${bin}" 2 2 "${steps}" --chaos "bitflip:${spec}")"; then
    echo "FAIL  parallel_dynamo exited nonzero (bitflip ${spec})" >&2
    fail=1
    echo
    continue
  fi
  echo "${out}" | grep -E "run control|sdc defense|relative difference" || true
  echo "${out}" | grep -q "run control: completed" || fail=1
  echo "${out}" | grep -q "sdc defense: bit flip detected and repaired" || fail=1
  echo "${out}" | grep -q "(trajectories match)" || fail=1
  echo
done

if [ "${fail}" -ne 0 ]; then
  echo "CHAOS DRILL FAILED: a run did not repair its bit flip" >&2
  exit 1
fi
echo "chaos drill passed: every bit flip was detected and repaired"
echo

# ---- Compound sweep: one run, two fault kinds.  Both --chaos specs hit
# world rank 1 (the binary's fixed victim), so the flip step must come
# before the death step: a rank that has already died flips nothing.
flip=8
cadence=4
death=13
echo "== chaos drill: 8 ranks, bit flip after step ${flip} (audit cadence" \
     "${cadence}), then rank death after step ${death}/${steps} =="
rm -rf yy_checkpoints
if ! out="$("${bin}" 2 2 "${steps}" --chaos "bitflip:${flip}:${cadence}" \
       --chaos "rank-death:${death}")"; then
  echo "FAIL  parallel_dynamo exited nonzero (compound drill)" >&2
  fail=1
else
  echo "${out}" |
    grep -E "run control|rank loss|sdc defense|relative difference" || true
  echo "${out}" | grep -q "run control: completed" || fail=1
  echo "${out}" | grep -q "rank loss survived: 1 shrink" || fail=1
  echo "${out}" | grep -q "sdc defense: bit flip detected and repaired" ||
    fail=1
  echo "${out}" | grep -q "(trajectories match)" || fail=1
fi
echo

if [ "${fail}" -ne 0 ]; then
  echo "CHAOS DRILL FAILED: the compound run did not survive both faults" >&2
  exit 1
fi
echo "chaos drill passed: the compound run survived the flip and the death"
