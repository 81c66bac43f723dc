#!/bin/sh
# flake-repro.sh — stress repro for the known multi-rank cycle jitter
# flake (ROADMAP "Known flake"): under a saturated host with the whole
# -race suite running concurrently, multi-rank cells occasionally shift
# by a few hundred cycles between identical runs. It was first seen in
# TestWorkloadCyclesStableAcrossRepeats and in the batched-vs-element-wise
# gather twins. All pass reliably on an idle host or package-serially,
# which is exactly what makes the flake hard to catch in CI — this script
# recreates the scheduler pressure on purpose and loops the suspects (a
# multi-rank repeat, the GUPS and gather twins, and a figure-level
# determinism check) until one trips or the iteration budget runs out.
#
#   ./scripts/flake-repro.sh [iterations] [load-procs]
#
# iterations  loops of the suspect battery (default 20)
# load-procs  background antagonist processes generating scheduler
#             pressure (default: number of CPUs)
#
# Exit status: 1 as soon as any iteration fails (the repro) or a suspect
# name matches no test (a renamed or deleted test would otherwise pass
# silently), 0 if the budget runs out without a failure. A clean exit is NOT proof the
# flake is fixed — raise the iteration count and run on a loaded host
# before claiming that. The antagonists are plain spinning go test
# compile/run loops rather than synthetic spinners so the pressure
# profile (GC, goroutine churn, mmap traffic) matches the real CI job
# that surfaced the jitter.
set -eu
cd "$(dirname "$0")/.."

iters="${1:-20}"
nproc_guess=$( (nproc || sysctl -n hw.ncpu || echo 4) 2>/dev/null | head -n1 )
load="${2:-$nproc_guess}"

# Build the test binaries once so every iteration measures the same
# artifact and the loop isn't dominated by recompiles.
echo "==> building race-instrumented suspect binaries"
mkdir -p /tmp/covirt-flake
for pkg in workloads kitten harness; do
    go test -race -c -o "/tmp/covirt-flake/$pkg.test" "./internal/$pkg"
done

# The suspect battery: one "<package> <test>" pair per line.
suspects="workloads TestWorkloadCyclesStableAcrossRepeats
workloads TestGUPSScheduleIPIMatchesElementwise
kitten TestEnvAccessGatherMatchesAccessLoop
harness TestFig5aOutputDeterministic"

echo "$suspects" | while read -r pkg name; do
    if [ -z "$("/tmp/covirt-flake/$pkg.test" -test.list "^$name\$")" ]; then
        echo "flake-repro.sh: no test $name in internal/$pkg" >&2
        exit 1
    fi
done || exit 1

# Antagonists: saturate the scheduler with GC-heavy churn for the whole
# run. Killed on exit no matter how we leave.
pids=""
cleanup() {
    for p in $pids; do
        kill "$p" 2>/dev/null || true
    done
    wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM
echo "==> starting $load antagonist processes"
i=0
while [ "$i" -lt "$load" ]; do
    (
        while :; do
            /tmp/covirt-flake/workloads.test -test.run TestRankOrder -test.count 4 >/dev/null 2>&1 || :
        done
    ) &
    pids="$pids $!"
    i=$((i + 1))
done

fail=0
n=1
while [ "$n" -le "$iters" ]; do
    echo "==> iteration $n/$iters"
    if ! echo "$suspects" | while read -r pkg name; do
        "/tmp/covirt-flake/$pkg.test" -test.run "^$name\$" -test.count 2 || exit 1
    done; then
        fail=1
    fi
    if [ "$fail" -ne 0 ]; then
        echo "flake-repro.sh: REPRODUCED on iteration $n" >&2
        exit 1
    fi
    n=$((n + 1))
done
echo "flake-repro.sh: no failure in $iters iterations (not proof of a fix)"
